"""Count the code lines of Python files.

usage: python tools/code_lines.py [PATH ...]   (default: src/fanspec)

A code line holds a token other than a comment, a docstring or layout
(newlines, indentation); blank lines hold none.  A docstring here is any
string literal that stands alone as a statement.  A directory counts every
``*.py`` file below it.  Prints one line per file and the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that end a statement or open a block: a string right after one
# starts a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold code."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines: set[int] = set()
    at_start = True
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            at_start = at_start or tok.type in _STATEMENT_START
            continue
        if tok.type == tokenize.STRING and at_start:
            after = next(t for t in tokens[i + 1 :] if t.type not in (tokenize.COMMENT, tokenize.NL))
            if after.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
        at_start = False
    return len(lines)


def main(argv: list[str]) -> int:
    files: list[Path] = []
    for p in map(Path, argv or ["src/fanspec"]):
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
