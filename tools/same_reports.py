"""Check that two source trees print the same CLI output.

usage: python tools/same_reports.py OLD_SRC NEW_SRC MATRIX

OLD_SRC and NEW_SRC are directories that hold the ``fanspec`` package (a
checkout's ``src``).  MATRIX holds one argv per line, split as a shell
would split it; ``#`` starts a comment.  Each argv runs as
``python -m fanspec.cli ARGV`` with PYTHONPATH set to each tree in turn,
each run in a fresh temporary directory, so a relative ``--out`` or
``--checkpoint`` lands there.  The exit code, stdout, stderr and the files
left in the directory are compared.  Each argv whose runs differ is printed
with what differs; the exit status is 1 if any differs, else 0.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


def read_matrix(path: Path) -> list[list[str]]:
    """The argv of each line of `path` that holds more than a comment."""
    lines = (shlex.split(line, comments=True) for line in path.read_text().splitlines())
    return [argv for argv in lines if argv]


def run(src: Path, argv: list[str]) -> dict[str, object]:
    """Exit code, stdout, stderr and files written of one run on one tree."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "fanspec.cli", *argv],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
        )
        files = {
            str(p.relative_to(cwd)): p.read_bytes()
            for p in sorted(Path(cwd).rglob("*"))
            if p.is_file()
        }
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "files": files,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv[:2])
    matrix = read_matrix(Path(argv[2]))
    differing = 0
    for args in matrix:
        a, b = run(old, args), run(new, args)
        diff = [key for key in a if a[key] != b[key]]
        if diff:
            differing += 1
            print(f"differs ({', '.join(diff)}): {shlex.join(args)}")
    print(f"{differing} of {len(matrix)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
