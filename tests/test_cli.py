"""CLI surface: subcommands, exit codes, JSON shapes, determinism."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from fanspec import (
    ExtremalReport,
    FamilyReport,
    FanWitness,
    FormulaResult,
    MainTheoremReport,
    canonical_form,
    complete_graph,
    from_graph6,
    to_graph6,
    turan_graph,
)
from fanspec import cli
from fanspec.cli import build_parser, fmt12, main, parse_construct_spec
from fanspec.oracle import BoundedEdgeReport
from fanspec.spectral import multipartite_charpoly_eval


def run_cli(args, stdin=None, timeout=None, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "fanspec.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=timeout,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


# a checkpoint of `brute --n 5 --k 1 --r 3` before its first parent
BRUTE5_CHECKPOINT = {
    "kind": "brute", "n": 5, "k": 1, "r": 3, "mode": "edges",
    "deletion_vertex": "max-invariant", "walk": "fan-free",
    "parent_cursor": 0, "free": 0, "best": None, "cands": [],
}


def resume_brute5(**progress):
    """argv that resumes `brute --n 5 --k 1 --r 3` from BRUTE5_CHECKPOINT
    with these progress values, which the test writes to a file."""
    return ["brute", "--n", "5", "--k", "1", "--r", "3", "--checkpoint", progress]


# graph6 of each spec, as printed by the long form `construct FAMILY --opts`
# before `construct` took the spec itself
CONSTRUCT_GRAPH6 = {
    "turan:5,2": "DFw",
    "turan:7,3": "FFz~o",
    "multipartite:3,2,2": "FFz~o",
    "multipartite:2,2": "C]",
    "fan:2,3": "D{c",
    "fan:2,4": "F~aKW",
    "extremal:12,2,3": "K_?F~z{~Fw^_",
    "extremal:13,2,3,1": "L???F~~~f{^o~_",
    "split:6,2": "E}r?",
    "ch:4": "FlSkG",
}

# the same for graphs above 62 vertices: (length, sha256) of the graph6
CONSTRUCT_LONG_GRAPH6 = {
    "turan:63,2": (330, "532227a0d72c14e256072d12d64c0d25196806fff654c61b7709f6cab3d6e98d"),
    "split:80,0": (531, "6e79a80980635696aaa86c370a57c28264c677150f194e71ea611da6b09f6539"),
    "turan:100,1": (829, "263a03fc2a5c6cc4edd2b6fba701c95420bc5a2ecc5670cfa43cf3972316fa48"),
    "ch:1000": (332838, "1a48958501741fa5f37d7a95d46db44b1ab4494a9c1b90e0959ea765d4c07e0a"),
}


class TestConstruct:
    def test_turan(self):
        code, out, _ = run_cli(["construct", "turan:5,2"])
        assert code == 0
        assert from_graph6(out.strip()) == turan_graph(5, 2)

    def test_fan_and_ch(self):
        code, out, _ = run_cli(["construct", "fan:2,3"])
        assert code == 0 and from_graph6(out.strip()).edge_count == 6
        code, out, _ = run_cli(["construct", "ch:4"])
        assert code == 0 and from_graph6(out.strip()).edge_count == 10

    def test_split_and_multipartite(self):
        code, out, _ = run_cli(["construct", "split:6,2"])
        assert code == 0 and from_graph6(out.strip()).edge_count == 9
        code, out, _ = run_cli(["construct", "multipartite:2,2"])
        assert code == 0 and from_graph6(out.strip()).edge_count == 4

    def test_structured_graph_exits_2(self):
        # multipartite families past the dense limit are structured graphs,
        # which graph6 output does not densify
        code, _, err = run_cli(["construct", "extremal:100,2,3"])
        assert code == 2
        assert err.startswith("error: graph6 output needs a dense graph")
        assert "short form" not in err

    def test_long_form_graphs(self):
        # dense graphs above 62 vertices get the four-byte graph6 header
        for spec, (length, digest) in CONSTRUCT_LONG_GRAPH6.items():
            code, out, err = run_cli(["construct", spec])
            assert code == 0, (spec, err)
            assert out.startswith("~")
            assert from_graph6(out.strip()) == parse_construct_spec(spec)
            line = out.strip().encode()
            assert (len(line), hashlib.sha256(line).hexdigest()) == (length, digest), spec

    def test_every_family_prints_the_pinned_graph6(self):
        for spec, g6 in CONSTRUCT_GRAPH6.items():
            code, out, err = run_cli(["construct", spec])
            assert (code, out, err) == (0, g6 + "\n", ""), spec

    def test_takes_only_the_spec(self):
        # the long form, one sub-subcommand per family, is gone
        for argv in (["turan", "--n", "5", "--p", "2"], ["turan:5,2", "--n", "5"], []):
            code, out, err = run_cli(["construct", *argv])
            assert (code, out) == (2, ""), argv
            assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "ch:15"],
        ["lambda", "--construct", "ch:21"],
        # the reduced neighbourhood of a clique vertex holds both K_15
        ["check", "--k", "15", "--r", "3", "--construct", "extremal:1000,15,3"],
    ],
    ids=" ".join,
)
def test_two_odd_cliques_pack_quickly(argv):
    # two disjoint K_k for odd k: each command packs them, and took longer
    # than 20 s while the packing bound ignored components
    code, out, _ = run_cli(argv, timeout=20)
    assert code == 0 and out


class TestLambda:
    def test_regular_multipartite(self):
        code, out, _ = run_cli(["lambda", "--construct", "multipartite:3,3,3"])
        assert code == 0
        d = json.loads(out)
        assert d["lambda"] == 6.0
        assert d["residual"] <= 1e-10
        assert "iterations" in d

    def test_vector_flag(self):
        code, out, _ = run_cli(["lambda", "--g6", "D?{", "--vector"])
        d = json.loads(out)
        assert d["vector"] == [0.5, 0.5, 0.5, 0.5, 1.0]

    def test_stdin_batch(self):
        g6s = "\n".join([to_graph6(complete_graph(3)), to_graph6(complete_graph(4))])
        code, out, _ = run_cli(["lambda"], stdin=g6s + "\n")
        lines = out.strip().splitlines()
        assert [json.loads(ln)["lambda"] for ln in lines] == [2.0, 3.0]

    def test_exit_3_on_budget(self):
        code, _, err = run_cli(
            ["lambda", "--construct", "extremal:30,2,3", "--tol", "1e-15",
             "--max-iters", "2"]
        )
        assert code == 3
        d = json.loads(err)
        assert list(d) == ["error", "lambda", "residual", "iterations"]
        assert d["iterations"] == 2
        assert d["residual"] > 1e-15

    @pytest.mark.parametrize(
        "cmd, spec, lam",
        [
            ("lambda", "extremal:100000,3,3", 50000.00012),
            ("lambda", "extremal:1000000,3,3", 500000.000012),
            ("qlambda", "extremal:1000000,3,3", 1000000.00002),
            ("lambda", "split:1000000,3", 1733.04849817),
            ("qlambda", "split:1000000,3", 1000003.99999),
        ],
        ids=["lambda-extremal-1e5", "lambda-extremal-1e6", "qlambda-extremal-1e6",
             "lambda-split-1e6", "qlambda-split-1e6"],
    )
    def test_large_structured_default_tol_converges(self, cmd, spec, lam):
        # the default tol is reachable because each step sums a handful of
        # weighted cell values; a sum over the 10^5 vertex values rounds to
        # residuals above 1e-10.  At n = 10^6 it is 1-2 ulps of lambda in
        # float64, and the seeded solve polishes in extended precision.
        proc = subprocess.run(
            [sys.executable, "-m", "fanspec.cli", cmd, "--construct", spec],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        d = json.loads(proc.stdout)
        assert d["residual"] <= 1e-10
        assert d["lambda"] == pytest.approx(lam, abs=1e-5)

    def test_sweep_csv(self):
        code, out, _ = run_cli(
            ["lambda", "--construct", "extremal:{n},2,3", "--sweep", "n=50:25:100"]
        )
        lines = out.strip().splitlines()
        assert lines[0] == "n,lambda,residual,iterations"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "50"

    def test_sweep_writes_out_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        for cmd in ("lambda", "qlambda"):
            argv = [cmd, "--construct", "turan:{n},2", "--sweep", "n=4:1:5", "--out", str(path)]
            code, out, _ = run_cli(argv)
            assert (code, out) == (0, "")
            lines = path.read_text().splitlines()
            assert lines[0] == "n,lambda,residual,iterations"
            assert [ln.split(",")[0] for ln in lines[1:]] == ["4", "5"]
            path.unlink()

    def test_sweep_negative_step_counts_down(self):
        code, out, _ = run_cli(["lambda", "--construct", "turan:{n},2", "--sweep", "n=5:-1:3"])
        assert code == 0
        assert [ln.split(",")[0] for ln in out.strip().splitlines()[1:]] == ["5", "4", "3"]

    def test_qlambda(self):
        code, out, _ = run_cli(["qlambda", "--construct", "multipartite:1,1,1,1"])
        d = json.loads(out)
        assert d["lambda"] == pytest.approx(6.0, abs=1e-9)


class TestCheck:
    def test_free_graph_exit_0(self):
        code, out, _ = run_cli(["check", "--k", "1", "--r", "3", "--g6", "D?{"])
        assert code == 0
        assert json.loads(out) == {"contains": False}

    def test_containing_graph_exit_1_with_witness(self):
        k5 = to_graph6(complete_graph(5))
        code, out, _ = run_cli(["check", "--k", "2", "--r", "3", "--witness", "--g6", k5])
        assert code == 1
        d = json.loads(out)
        assert d["contains"] and d["witness"]["center"] == 0
        assert len(d["witness"]["cliques"]) == 2

    def test_file_batch(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("D?{\n" + to_graph6(complete_graph(5)) + "\n")
        code, out, _ = run_cli(["check", "--k", "1", "--r", "3", "--file", str(path)])
        assert code == 1
        lines = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [d["contains"] for d in lines] == [False, True]

    def test_bad_graph6_exit_2(self):
        code, _, err = run_cli(["check", "--k", "1", "--r", "3", "--g6", "D?"])
        assert code == 2


class TestTurannum:
    def test_json(self):
        code, out, _ = run_cli(["turannum", "--n", "200", "--k", "2", "--r", "3"])
        assert json.loads(out) == {"value": 10001, "applicable": True, "threshold": 200}

    def test_raw(self):
        code, out, _ = run_cli(["turannum", "--n", "12", "--k", "3", "--r", "3", "--raw"])
        assert out.strip() == "42"


class TestCharpoly:
    def test_value(self):
        code, out, _ = run_cli(["charpoly", "--sizes", "2,2", "--x", "3"])
        assert json.loads(out)["value"] == 45

    def test_single_part_flagged(self):
        code, out, _ = run_cli(["charpoly", "--sizes", "4", "--x", "2"])
        d = json.loads(out)
        assert d["single_part"] is True and d["value"] == 16

    def test_integer_x_is_exact(self):
        # an integer past 2^53 is evaluated and echoed as given, not
        # through the nearest float
        x = 12345678901234567
        code, out, _ = run_cli(["charpoly", "--sizes", "2,2", "--x", str(x)])
        d = json.loads(out)
        assert code == 0
        assert d["x"] == x
        assert d["value"] == multipartite_charpoly_eval([2, 2], x) == x**2 * (x**2 - 4)
        code, out, _ = run_cli(["charpoly", "--sizes", "2,2", "--x", str(x), "--raw"])
        assert out == f"{x**2 * (x**2 - 4)}\n"
        # an integral float is still an integer point
        code, out, _ = run_cli(["charpoly", "--sizes", "2,2", "--x", "3.0"])
        assert json.loads(out) == {"value": 45, "x": 3, "single_part": False}

    @pytest.mark.parametrize("parts, size", [(400, 1), (300, 2)])
    @pytest.mark.parametrize("raw", [False, True])
    def test_float_overflow_is_exit_2(self, parts, size, raw):
        # a float evaluation that overflows printed NaN, which is not JSON
        # (400 parts of size 1), or raised OverflowError (300 of size 2)
        sizes = ",".join([str(size)] * parts)
        argv = ["charpoly", "--sizes", sizes, "--x", "1000000.5"]
        code, out, err = run_cli(argv + ["--raw"] * raw)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "integer x" in err
        assert "Traceback" not in err


class TestReports:
    def test_brute_json_and_out_file(self, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["brute", "--n", "5", "--k", "2", "--r", "3", "--mode", "edges",
             "--no-timing", "--out", str(out_path)]
        )
        assert code == 0
        d = json.loads(out_path.read_text())
        assert d["best_value"] == 7
        assert d["wall_seconds"] is None
        assert set(d) == {
            "n", "k", "r", "mode", "best_value", "formula_value", "applicable",
            "matches_formula", "witnesses", "graphs_examined", "free_count",
            "wall_seconds",
        }

    @pytest.mark.parametrize(
        "argv, code, record, line",
        [
            (["brute", "--n", "5", "--k", "2", "--r", "3", "--no-timing"], 0, ExtremalReport,
             '{"n": 5, "k": 2, "r": 3, "mode": "edges", "best_value": 7, "formula_value": 7, '
             '"applicable": false, "matches_formula": true, "witnesses": ["DF{", "DJ{", "DNw"], '
             '"graphs_examined": 34, "free_count": 28, "wall_seconds": null}'),
            (["brute", "--n", "5", "--k", "2", "--r", "3", "--mode", "lambda", "--no-timing"], 0,
             ExtremalReport,
             '{"n": 5, "k": 2, "r": 3, "mode": "lambda", "best_value": 3.08613019765, '
             '"formula_value": 7, "applicable": false, "matches_formula": true, '
             '"witnesses": ["DJ{"], "graphs_examined": 34, "free_count": 28, '
             '"wall_seconds": null}'),
            (["brute", "--n", "5", "--k", "1", "--r", "2", "--no-timing"], 0, ExtremalReport,
             '{"n": 5, "k": 1, "r": 2, "mode": "edges", "best_value": 0, "formula_value": null, '
             '"applicable": null, "matches_formula": null, "witnesses": ["D??"], '
             '"graphs_examined": 34, "free_count": 1, "wall_seconds": null}'),
            (["brute", "--n", "7", "--k", "2", "--r", "3", "--mode", "lambda", "--no-timing"], 0,
             ExtremalReport,
             '{"n": 7, "k": 2, "r": 3, "mode": "lambda", "best_value": 3.84821707759, '
             '"formula_value": 13, "applicable": false, "matches_formula": true, '
             '"witnesses": ["F?~vg"], "graphs_examined": 1044, "free_count": 400, '
             '"wall_seconds": null}'),
            (["brute", "--n", "7", "--k", "3", "--r", "3", "--mode", "edges", "--no-timing"], 0,
             ExtremalReport,
             '{"n": 7, "k": 3, "r": 3, "mode": "edges", "best_value": 17, "formula_value": 18, '
             '"applicable": false, "matches_formula": false, "witnesses": ["FNz~o"], '
             '"graphs_examined": 1044, "free_count": 943, "wall_seconds": null}'),
            (["brutef", "--beta", "2", "--delta", "2", "--nmax", "6", "--no-timing"], 0,
             BoundedEdgeReport,
             '{"beta": 2, "delta": 2, "n_max": 6, "value": 6, "graphs_examined": 40, '
             '"wall_seconds": null}'),
            (["family", "--n", "30", "--k", "2", "--r", "3", "--no-timing"], 0, FamilyReport,
             '{"n": 30, "k": 2, "r": 3, "mode": "lambda", "best_value": 15.0709010885, '
             '"formula_value": 226, "applicable": false, "matches_formula": true, '
             '"witnesses": ["]_????????????????F~~~~z~~f~~F~~B~~_~~wF~~?^~{?~~w?~~w?^~{?F~~??~~w'
             '?B~~_??"], "graphs_examined": 8, "free_count": 8, "wall_seconds": null, '
             '"winner": {"part_sizes": [15, 15], "g0_graph6": "A_", "host_part": 0, '
             '"edges": 226, "lambda": 15.0709010885}}'),
            (["verify", "--n", "6", "--k", "2", "--r", "3", "--no-timing"], 0, MainTheoremReport,
             '{"n": 6, "k": 2, "r": 3, "family_winner_edges": 10, "formula_edges": 10, '
             '"agrees": true, "brute_force_agrees": true, "brute_best_lambda": 3.39234434563, '
             '"brute_best_edges": 10, "wall_seconds": null}'),
            (["turannum", "--n", "200", "--k", "2", "--r", "3"], 0, FormulaResult,
             '{"value": 10001, "applicable": true, "threshold": 200}'),
            (["check", "--k", "2", "--r", "3", "--witness", "--g6", "D~{"], 1, FanWitness,
             '{"contains": true, "witness": {"center": 0, "cliques": [[1, 2], [3, 4]]}}'),
        ],
        ids=["brute-edges", "brute-lambda", "brute-r2", "brute7-lambda", "brute7-k3-edges",
             "brutef", "family", "verify", "turannum", "check-witness"],
    )
    def test_report_bytes_are_pinned(self, capsys, argv, code, record, line):
        # each line is a record's fields, in order, byte for byte; `check`
        # writes its witness record under "witness"
        assert main(argv) == code
        assert capsys.readouterr().out == line + "\n"
        d = json.loads(line)
        assert list(d.get("witness", d)) == [f.name for f in fields(record)]

    def test_brute_timing_present_by_default(self):
        code, out, _ = run_cli(["brute", "--n", "4", "--k", "1", "--r", "3"])
        assert isinstance(json.loads(out)["wall_seconds"], float)

    def test_brutef(self):
        code, out, _ = run_cli(
            ["brutef", "--beta", "2", "--delta", "2", "--nmax", "6", "--no-timing"]
        )
        assert json.loads(out)["value"] == 6

    def test_family_and_verify(self):
        code, out, _ = run_cli(
            ["family", "--n", "20", "--k", "2", "--r", "3", "--no-timing"]
        )
        d = json.loads(out)
        assert d["winner"]["edges"] == 101 and d["matches_formula"] is True
        code, out, _ = run_cli(
            ["verify", "--n", "20", "--k", "2", "--r", "3", "--no-timing"]
        )
        d = json.loads(out)
        assert d["agrees"] is True and d["brute_force_agrees"] is None

    def test_enum_cap_applies_to_brute_only(self):
        # FANSPEC_MAX_N sets the cap of brute and brutef; the reports of
        # family and verify depend on n, k and r alone
        def with_cap(cap):
            env = {k: v for k, v in os.environ.items() if k != "FANSPEC_MAX_N"}
            return env if cap is None else {**env, "FANSPEC_MAX_N": cap}

        verify = ["verify", "--n", "8", "--k", "2", "--r", "3", "--no-timing"]
        runs = {run_cli(verify, env=with_cap(cap)) for cap in (None, "3", "5", "12")}
        (run,) = runs
        assert run[0] == 0 and json.loads(run[1])["brute_force_agrees"] is True
        family = ["family", "--n", "20", "--k", "2", "--r", "3", "--no-timing"]
        assert run_cli(family, env=with_cap("3")) == run_cli(family, env=with_cap(None))
        code, out, err = run_cli(["brute", "--n", "6", "--k", "1", "--r", "3"], env=with_cap("5"))
        assert (code, out) == (2, "") and "exceeds the enumeration cap 5" in err
        brutef = ["brutef", "--beta", "1", "--delta", "1", "--nmax", "6"]
        code, out, err = run_cli(brutef, env=with_cap("5"))
        assert (code, out) == (2, "") and "exceeds the enumeration cap 5" in err

    def test_jobs_byte_identical(self):
        args = ["brute", "--n", "6", "--k", "1", "--r", "3", "--no-timing"]
        _, out1, _ = run_cli(args + ["--jobs", "1"])
        _, out8, _ = run_cli(args + ["--jobs", "8"])
        assert out1 == out8


class TestHelpAndErrors:
    def test_help_lists_every_documented_flag(self):
        parser = build_parser()
        helps = {
            "lambda": ["--construct", "--g6", "--file", "--tol", "--max-iters",
                       "--vector", "--sweep", "--out"],
            "qlambda": ["--construct", "--tol", "--max-iters"],
            "check": ["--k", "--r", "--witness", "--g6", "--file"],
            "turannum": ["--n", "--k", "--r", "--raw"],
            "charpoly": ["--sizes", "--x", "--raw"],
            "brute": ["--n", "--k", "--r", "--mode", "--checkpoint"],
            "brutef": ["--beta", "--delta", "--nmax"],
            "family": ["--n", "--k", "--r"],
            "verify": ["--n", "--k", "--r"],
        }
        # the flags every search shares
        for cmd in ("brute", "brutef", "family", "verify"):
            helps[cmd] += ["--jobs", "--out", "--no-timing"]
        sub_actions = next(
            a for a in parser._actions if getattr(a, "choices", None)
        )
        for cmd, flags in helps.items():
            text = sub_actions.choices[cmd].format_help()
            for flag in flags:
                assert flag in text, (cmd, flag)
        # brute scores exactly, and family and verify solve at the default
        # tol: none of them takes a tolerance
        for cmd in ("brute", "family", "verify"):
            assert "--tol" not in sub_actions.choices[cmd].format_help(), cmd
        # a checkpoint is resumed whenever it matches, and saved every 10^6
        # classes: neither takes a flag
        for flag in ("--resume", "--checkpoint-every"):
            assert flag not in sub_actions.choices["brute"].format_help(), flag
        # family and verify take n, k and r, and nothing else that changes
        # their report
        for cmd in ("family", "verify"):
            assert "--imbalance" not in sub_actions.choices[cmd].format_help(), cmd

    def test_readme_examples_parse(self):
        # every `fanspec ...` line of the README's bash blocks, as argv, so a
        # flag gone from the parser cannot linger in the docs
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = []
        for block in re.findall(r"```bash\n(.*?)```", text, re.S):
            for line in block.splitlines():
                words = shlex.split(line, comments=True)
                if "fanspec" in words:
                    examples.append(words[words.index("fanspec") + 1 :])
        parser = build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: fanspec {shlex.join(argv)}")
        sub_actions = next(a for a in parser._actions if getattr(a, "choices", None))
        assert {argv[0] for argv in examples} == set(sub_actions.choices)
        assert any(argv[0] == "brute" and "--checkpoint" in argv for argv in examples)

    def test_missing_required_is_exit_2(self):
        code, _, _ = run_cli(["turannum", "--n", "5"])
        assert code == 2

    def test_two_sources_rejected(self):
        code, _, err = run_cli(
            ["lambda", "--construct", "fan:2,3", "--g6", "A_"]
        )
        assert code == 2
        assert "one graph source" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["brutef", "--beta", "1", "--delta", "1", "--nmax", "-3"],
            ["lambda", "--construct", "turan:5,2", "--max-iters", "0"],
            ["qlambda", "--construct", "extremal:100,2,3", "--max-iters", "0"],
            ["lambda", "--construct", "turan:5,2", "--tol", "nan"],
            # brute scores exactly and takes no --tol, whatever its value
            ["brute", "--n", "4", "--k", "1", "--r", "3", "--mode", "lambda", "--tol", "nan"],
            ["lambda", "--construct", "ch:4", "--tol", "inf"],
            ["brute", "--n", "4", "--k", "1", "--r", "3", "--mode", "lambda", "--tol", "inf"],
            ["brute", "--n", "8", "--k", "2", "--r", "3", "--mode", "lambda", "--tol", "-1"],
            ["brute", "--n", "4", "--k", "1", "--r", "3", "--tol", "-1", "--mode", "edges"],
            ["lambda", "--construct", "turan:{n},2", "--sweep", "n=5:0:3"],
            # family and verify take no --tol either
            ["family", "--n", "450", "--k", "3", "--r", "3", "--tol", "-1"],
            ["verify", "--n", "8", "--k", "2", "--r", "3", "--tol", "0"],
            # a checkpoint is resumed whenever it matches and saved every
            # 10^6 classes: the flags that set either are gone
            ["brute", "--n", "5", "--k", "1", "--r", "3", "--checkpoint-every", "5"],
            # the family's imbalance is fixed at 2: the flag that set it is gone
            ["family", "--n", "21", "--k", "2", "--r", "3", "--imbalance", "0"],
            ["family", "--n", "21", "--k", "2", "--r", "3", "--imbalance", "-1"],
            ["verify", "--n", "8", "--k", "2", "--r", "3", "--imbalance", "2"],
            ["family", "--n", "1", "--k", "2", "--r", "3"],
            ["verify", "--n", "1", "--k", "2", "--r", "3"],
            ["charpoly", "--sizes", "2,3", "--x", "nan"],
            ["charpoly", "--sizes", "2,3", "--x", "inf"],
            ["brute", "--n", "7", "--k", "2", "--r", "3", "--resume"],
            # a checkpoint at the path is resumed, and a malformed one is exit 2
            resume_brute5(parent_cursor="1"),
            resume_brute5(parent_cursor=True),
            resume_brute5(parent_cursor=-1),
            resume_brute5(parent_cursor=12),  # 7 triangle-free classes on 4 vertices
            resume_brute5(parent_cursor=8),
            # a count of all classes examined is the all-class walk's format
            resume_brute5(parent_cursor=1000000, examined=-5),
            resume_brute5(examined=-5),
            resume_brute5(examined=2, free=3),
            resume_brute5(examined=2.0),
            resume_brute5(free=-5),
            resume_brute5(free=2.0),
            resume_brute5(best="7"),
            resume_brute5(best=float("nan")),
            resume_brute5(cands={"DF{": 7}, best=7),
            resume_brute5(cands=[["DF{"]], best=7),
            resume_brute5(cands=[["DF{", 7]], best=7),  # the older (graph6, value) pair
            resume_brute5(cands=[7], best=7),
            resume_brute5(cands=["A_"], best=7),  # a witness on 2 vertices
            resume_brute5(cands=["DF{"]),  # a witness with no best
            resume_brute5(best=7),  # a best with no witness
            # an empty source is bad input, not "read stdin"
            ["lambda", "--g6", ""],
            ["lambda", "--construct", ""],
            ["lambda", "--file", ""],
            ["qlambda", "--g6", ""],
            ["check", "--k", "2", "--r", "3", "--g6", ""],
            ["lambda", "--construct", "turan:{n},2", "--sweep", "n=1:1"],
            ["lambda", "--construct", "turan:{n},2", "--sweep", "n=a:1:3"],
            ["lambda", "--construct", "turan:{n},2", "--sweep", "n=1:1:3:4"],
            # an empty constructor item is bad input, not dropped
            ["lambda", "--construct", "turan:5,,2"],
            ["lambda", "--construct", "turan:,5,2"],
            ["lambda", "--construct", "extremal:20,2,3,"],
            ["construct", "multipartite:3,,4"],
            # a sweep takes its graphs from --construct alone
            ["lambda", "--g6", "A_", "--construct", "turan:{n},2", "--sweep", "n=4:1:5"],
            ["qlambda", "--file", "graphs.g6", "--construct", "turan:{n},2", "--sweep", "n=4:1:5"],
            # a sweep prints CSV: a flag that shapes other output is bad input
            ["lambda", "--construct", "turan:{n},2", "--sweep", "n=3:1:4", "--raw"],
            ["lambda", "--construct", "turan:{n},2", "--sweep", "n=3:1:4", "--vector"],
        ],
        ids=lambda argv: " ".join(map(str, argv[:1] + argv[-2:])),
    )
    def test_bad_input_is_exit_2(self, argv, tmp_path):
        if isinstance(argv[-1], dict):
            ckpt = tmp_path / "state.json"
            ckpt.write_text(json.dumps({**BRUTE5_CHECKPOINT, **argv[-1]}))
            argv = [*argv[:-1], str(ckpt)]
        # a graph in stdin: a command that fell back to reading it would exit 0
        code, out, err = run_cli(argv, stdin="B?\n")
        assert code == 2
        removed = [
            f for f in ("--tol", "--resume", "--checkpoint-every", "--imbalance") if f in argv
        ]
        if argv[0] in ("brute", "family", "verify") and removed:
            assert f"unrecognized arguments: {removed[0]}" in err
        else:
            assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""
        if argv[-1] in ("n=1:1", "n=a:1:3", "n=1:1:3:4"):
            assert "--sweep takes n=START:STEP:STOP" in err
        if ",," in argv[-1] or ":," in argv[-1] or argv[-1].endswith(","):
            assert "bad constructor arguments" in err
        if argv[-1] == "n=4:1:5":
            assert "give exactly one graph source" in err
        if argv[-1] in ("--raw", "--vector"):
            assert "--sweep prints CSV" in err

    def test_checkpoint_in_missing_directory_is_exit_2(self, tmp_path):
        ckpt = tmp_path / "missing" / "state.json"
        argv = ["brute", "--n", "5", "--k", "2", "--r", "3", "--checkpoint", str(ckpt)]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "does not exist" in err
        assert not ckpt.parent.exists()

    @pytest.mark.parametrize(
        "cmd, name",
        [("brute", "brute_force_extremal"), ("family", "family_search"),
         ("verify", "verify_main_theorem")],
    )
    def test_searches_call_the_module_bindings(self, monkeypatch, capsys, cmd, name):
        # a command looks its search up when it runs, so a name rebound on
        # the cli module after import (as a tracer does) is the one called
        calls = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert main([cmd, "--n", "5", "--k", "1", "--r", "3", "--no-timing"]) == 0
        assert len(calls) == 1 and calls[0][0] == 5
        assert json.loads(capsys.readouterr().out)["n"] == 5

    def test_batch_format_checkpoint_is_exit_2(self, tmp_path):
        # the format before the cursor counted parents: a batch size in the
        # key and a cursor over batches of 32 parents
        ckpt = tmp_path / "state.json"
        ckpt.write_text(
            json.dumps(
                {
                    "kind": "brute", "n": 6, "k": 1, "r": 3, "mode": "edges",
                    "batch_parents": 32, "deletion_vertex": "max-invariant",
                    "batch_cursor": 1, "examined": 154, "free": 38, "best": 9,
                    "cands": ["EFz_"],
                }
            )
        )
        text = ckpt.read_text()
        argv = ["brute", "--n", "6", "--k", "1", "--r", "3", "--checkpoint", str(ckpt)]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert ckpt.read_text() == text

    def test_construct_spec_parser(self):
        assert parse_construct_spec("turan:5,2") == turan_graph(5, 2)
        with pytest.raises(ValueError):
            parse_construct_spec("nope:1")
        with pytest.raises(ValueError):
            parse_construct_spec("turan:a,b")

    def test_fmt12(self):
        assert fmt12(6.0) == "6.00000000000"
        assert fmt12(2.4494897427831783).startswith("2.44948974278")

    def test_main_inprocess(self, capsys):
        assert main(["turannum", "--n", "6", "--k", "1", "--r", "3", "--raw"]) == 0
        assert capsys.readouterr().out.strip() == "9"


# Runs `cli.main` on each argv in a fresh interpreter, output discarded, and
# prints whether numpy was loaded after the import and after each command.
# It also checks after each command that multiprocessing was never loaded
# and that no child process is left.
NUMPY_PROBE = """
import contextlib, io, json, os, sys
from fanspec import cli
seen = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1), (argv, code)
    assert "multiprocessing" not in sys.modules, argv
    with contextlib.suppress(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
        raise AssertionError(("a child was left", argv))
    seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""


@pytest.mark.parametrize(
    "argvs, loaded",
    [
        (
            [
                ["brute", "--n", "6", "--k", "2", "--r", "3", "--mode", "lambda", "--jobs", "2"],
                ["brute", "--n", "6", "--k", "2", "--r", "3", "--mode", "edges"],
                ["brutef", "--beta", "1", "--delta", "2", "--nmax", "5", "--jobs", "2"],
                ["check", "--construct", "fan:2,3", "--k", "2", "--r", "3"],
                ["turannum", "--n", "20", "--k", "2", "--r", "3"],
            ],
            [False] * 6,
        ),
        ([["lambda", "--construct", "turan:6,2"]], [False, True]),
        (
            [
                ["family", "--n", "30", "--k", "2", "--r", "3", "--jobs", "2"],
                ["verify", "--n", "7", "--k", "2", "--r", "3", "--jobs", "2"],
            ],
            [False, True, True],
        ),
    ],
    ids=["integer-commands", "float-solve", "family-searches"],
)
def test_numpy_loads_at_the_first_float_solve(argvs, loaded):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == loaded
