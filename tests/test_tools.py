"""The report-identity check, tools/same_reports.py, and its matrix."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from fanspec.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SAME_REPORTS = ROOT / "tools" / "same_reports.py"


def same_reports(old, new, matrix):
    proc = subprocess.run(
        [sys.executable, str(SAME_REPORTS), str(old), str(new), str(matrix)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_same_tree_agrees_and_a_stub_is_reported(tmp_path):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(
        "# a comment line\n"
        "\n"
        "turannum --n 12 --k 3 --r 3 --raw\n"
        "charpoly --sizes 2,2 --x 3  # a trailing comment\n"
        "lambda --construct turan:5,,2\n"
        "brute --n 4 --k 1 --r 3 --no-timing --out report.json\n"
    )
    src = ROOT / "src"
    assert same_reports(src, src, matrix) == (0, "0 of 4 argv differ\n")

    stub = tmp_path / "stub"
    (stub / "fanspec").mkdir(parents=True)
    (stub / "fanspec" / "__init__.py").write_text("")
    (stub / "fanspec" / "cli.py").write_text('print("something else")\n')
    code, out = same_reports(src, stub, matrix)
    assert code == 1
    assert out.splitlines() == [
        "differs (stdout): turannum --n 12 --k 3 --r 3 --raw",
        "differs (stdout): charpoly --sizes 2,2 --x 3",
        "differs (exit code, stdout, stderr): lambda --construct turan:5,,2",
        "differs (stdout, files): brute --n 4 --k 1 --r 3 --no-timing --out report.json",
        "4 of 4 argv differ",
    ]


def test_committed_matrix_parses():
    spec = importlib.util.spec_from_file_location("same_reports", SAME_REPORTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    matrix = tool.read_matrix(ROOT / "tools" / "report_matrix.txt")
    commands = {argv[0] for argv in matrix}
    assert {"brute", "brutef", "family", "verify", "lambda", "charpoly"} <= commands
    parser = build_parser()
    for argv in matrix:
        parser.parse_args(argv)
