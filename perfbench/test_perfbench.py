"""Tests of the benchmark itself: answer checks, query generation, span
arithmetic.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, read_spans, summarize  # noqa: E402

from fanspec import extremal_fan_graph, spectral_radius, split_graph  # noqa: E402
from fanspec.spectral import signless_laplacian_spectrum  # noqa: E402


class _Job:
    code = 0
    err = ""


def test_structured_queries_are_seeded_and_shaped():
    a, b = wl.structured_queries(3), wl.structured_queries(3)
    assert a == b
    assert a != wl.structured_queries(4)
    spectral = [q for q in a if q["op"] != "check"]
    defect = [q for q in spectral if q["defect"]]
    checks = [q for q in a if q["op"] == "check"]
    assert len(spectral) == 31 and len(checks) == 12
    assert len(defect) == 3
    assert all(q["n"] >= 10**5 and q["tol"] == wl.DEFAULT_TOL for q in defect)
    assert all(10**3 <= q["n"] <= 10**6 for q in spectral)
    assert sum(q["host_k"] != q["k"] for q in checks) == 4


@pytest.mark.parametrize("n,spec", [(40, (2, 3)), (200, (3, 3)), (3001, (2, 4)), (999, (2, 5))])
def test_quotient_reference_matches_the_solver(n, spec):
    g, _ = extremal_fan_graph(n, spec)
    got = spectral_radius(g, tol=1e-9).lam
    assert abs(got - wl.extremal_quotient_lambda(n, *spec)) < 1e-7


def test_split_reference_matches_the_solver():
    got = signless_laplacian_spectrum(split_graph(5000, 4), tol=1e-9).lam
    assert abs(got - wl.split_quotient_q(5000, 4)) < 1e-7


def test_reference_edge_counts():
    assert wl.fan_extremal_edges(450, 3, 3) == 50631
    for n, (k, r) in [(200, (2, 3)), (90, (3, 3)), (70, (2, 5))]:
        assert extremal_fan_graph(n, (k, r))[0].edge_count() == wl.fan_extremal_edges(n, k, r)


def _tally(workload, answers, queries=None, report=None, seed=0):
    tally = run.Tally()
    output = answers if workload == "structured" else report
    run.check_answers(workload, seed, _Job(), output, tally, queries)
    return tally


def test_wrong_eigenvalue_counts_as_failed():
    q = {"op": "lambda", "n": 5000, "k": 2, "r": 3, "tol": 5e-7, "max_iters": 1000, "defect": False}
    ref = wl.extremal_quotient_lambda(5000, 2, 3)
    good = {"lam": ref, "residual": 1e-8, "iterations": 20, "latency_s": 0.01}
    bad = dict(good, lam=ref + 1e-3)
    tally = _tally("structured", [good, bad], [q, q])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed / tally.attempted == 0.5


def test_nonconvergence_fails_unless_the_query_is_the_known_defect():
    ref = wl.extremal_quotient_lambda(200000, 2, 3)
    stalled = {"error": "nonconverged", "lam": ref, "residual": 3e-8, "iterations": 100, "latency_s": 0.5}
    q = {"op": "lambda", "n": 200000, "k": 2, "r": 3, "tol": 1e-10, "max_iters": 100}
    tally = _tally("structured", [stalled, stalled], [dict(q, defect=True), dict(q, defect=False)])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_a_defect_query_that_gives_up_early_counts_as_failed():
    # A power iteration stopped after its first step on these near-regular
    # hosts reports a Rayleigh quotient of the average degree, close to the
    # reference, and a residual of about 1.  The check must not widen its
    # tolerance by that residual.
    n, k, r = 200000, 2, 3
    q = {"op": "lambda", "n": n, "k": k, "r": r, "tol": 1e-10, "max_iters": 100, "defect": True}
    ref = wl.extremal_quotient_lambda(n, k, r)
    avg_degree = 2 * wl.fan_extremal_edges(n, k, r) / n
    stalled = {"error": "nonconverged", "lam": avg_degree, "residual": 1.0, "iterations": 100, "latency_s": 0.1}
    off_by_one = dict(stalled, lam=ref - 1.0, residual=3e-8)
    early = dict(stalled, lam=ref, residual=3e-8, iterations=5)
    fine = dict(stalled, lam=ref, residual=3e-8)
    tally = _tally("structured", [stalled, off_by_one, early, fine], [q] * 4)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert "residual" in tally.problems[0]
    assert "reference" in tally.problems[1]
    assert "stopped after 5" in tally.problems[2]


def test_a_converged_answer_above_its_tol_counts_as_failed():
    n = 5000
    q = {"op": "qlambda", "n": n, "s": 2, "tol": 1e-10 * n, "max_iters": 1000, "defect": False}
    ref = wl.split_quotient_q(n, 2)
    ok = {"lam": ref, "residual": 1e-10, "iterations": 20, "latency_s": 0.01}
    loose = dict(ok, residual=1e-3)
    tally = _tally("structured", [ok, loose], [q, q])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_wrong_fan_answers_count_as_failed():
    neg = {"op": "check", "n": 100, "k": 2, "r": 3, "host_k": 2}
    pos = dict(neg, host_k=3)
    g, _ = extremal_fan_graph(100, (3, 3))
    from fanspec import contains_fan

    w = contains_fan(g, (2, 3))
    good = {"witness": {"center": w.center, "cliques": [sorted(c) for c in w.cliques]}, "latency_s": 0.1}
    forged = {"witness": {"center": w.center, "cliques": [[0, 1], [2, 3]]}, "latency_s": 0.1}
    none = {"witness": None, "latency_s": 0.1}
    tally = _tally("structured", [good, forged, none, none, good], [pos, pos, pos, neg, neg])
    assert (tally.attempted, tally.failed) == (5, 3)


@pytest.mark.parametrize("workload", ["enum7", "enum8"])
def test_wrong_reports_count_as_failed(workload):
    n = wl.ENUM_N[workload]
    ref = wl.ENUM_REFERENCE[n]
    k, r = wl.ENUM_SPEC
    report = {"n": n, "k": k, "r": r, **ref}
    assert _tally(workload, None, report=report).failed == 0
    assert _tally(workload, None, report=dict(report, best_value=ref["best_value"] + 1e-6)).failed == 1
    assert _tally(workload, None, report=dict(report, witnesses=[])).failed == 1
    assert _tally(workload, None, report=dict(report, n=n + 1)).failed == 1


def test_wrong_family_reports_count_as_failed():
    n = wl.family_n(0)
    fam = {"n": n, "k": 3, "r": 3, "agrees": True, "family_winner_edges": wl.fan_extremal_edges(n, 3, 3)}
    fam["formula_edges"] = fam["family_winner_edges"]
    assert _tally("family450", None, report=fam).failed == 0
    assert _tally("family450", None, report=dict(fam, family_winner_edges=1)).failed == 1
    assert _tally("family450", None, report=None).failed == 1


def test_end_to_end_times_follow_the_program_not_the_host():
    def job(wall, cpu):
        return run.Job(wall, cpu, 30.0, 0, "")

    jobs = [job(w, 1.5 * w) for w in (1.0, 1.2, 1.1, 2.0, 1.05)]
    setup = [0.2, 0.25, 0.21]
    spins = [0.02, 0.03, 0.021, 0.022, 0.025]
    metrics, raw = run.end_to_end(jobs, setup, spins)
    assert raw["wall_s"] == pytest.approx(1.05)  # lower quartile, not the best
    assert raw["spin_s"] == pytest.approx(0.021)
    scale = run.SPIN_REF_S / 0.021
    assert metrics["wall_s"] == pytest.approx(1.05 * scale)
    assert metrics["cpu_s"] == pytest.approx(1.575 * scale)
    assert metrics["setup_s"] == pytest.approx(0.21 * scale)
    assert metrics["peak_rss_mb"] == 30.0
    # a host 40% slower throughout leaves the metrics as they were ...
    slow, _ = run.end_to_end([job(1.4 * j.wall, 1.4 * j.cpu) for j in jobs], [1.4 * t for t in setup],
                             [1.4 * t for t in spins])
    assert slow == pytest.approx(metrics)
    # ... and a program 40% slower on the same host shows in full
    slower, _ = run.end_to_end([job(1.4 * j.wall, 1.4 * j.cpu) for j in jobs], setup, spins)
    assert slower["wall_s"] == pytest.approx(1.4 * metrics["wall_s"])
    assert slower["cpu_s"] == pytest.approx(1.4 * metrics["cpu_s"])


def test_summarize_counts_nested_labelings_once_and_splits_self_time():
    # cli.main [0,10] -> oracle.brute [1,9] -> canon.canonical_form [2,4]
    #   -> canon.canonical_info [2.5,3.5]; patterns.fan [5,6] -> graphs.to_graph [5.2,5.7]
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0, 0),
        ("oracle.brute", 1.0, 9.0, 0, 5, 0),
        ("canon.canonical_form", 2.0, 4.0, 1, 0, 0),
        ("canon.canonical_info", 2.5, 3.5, 2, 0, 0),
        ("patterns.fan", 5.0, 6.0, 1, 0, 0),
        ("graphs.to_graph", 5.2, 5.7, 4, 0, 0),
        ("spectral.radius", 7.0, 8.0, 1, 30, 1),
        ("oracle.prefix", 8.5, 8.8, 1, 7, 0),
    ]
    m = summarize(spans)
    assert m["canon.calls"] == 1
    assert m["canon.busy_s"] == pytest.approx(2.0)
    assert m["canon.self_s"] == pytest.approx(2.0)
    assert m["oracle.self_s"] == pytest.approx(8.0 - 2.0 - 1.0 - 1.0)
    assert m["oracle.prefix_s"] == pytest.approx(0.3)
    assert m["patterns.self_s"] == pytest.approx(0.5)
    assert m["graphs.to_graph.busy_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["spectral.iterations"] == 30 and m["spectral.failed"] == 1
    assert m["oracle.accept_ratio"] == pytest.approx(12.0)
    assert m["trace.unaccounted_s"] == pytest.approx(0.0)


def test_tracer_records_parents_values_and_failures(tmp_path):
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    def outer(x):
        return traced_inner(x)

    traced_inner = tracer.wrap(inner, "oracle.prefix", len)
    traced_outer = tracer.wrap(outer, "cli.main")
    assert traced_outer(3) == [3, 3, 3]
    with pytest.raises(ValueError):
        traced_inner(-1)
    outer_span, inner_span, failed_span = tracer.spans
    assert outer_span[0] == "cli.main" and outer_span[3] == -1
    assert inner_span[0] == "oracle.prefix" and inner_span[3] == 0
    assert (inner_span[4], inner_span[5]) == (3, 0)
    assert failed_span[3] == -1 and failed_span[5] == 1
    tracer.write(str(tmp_path / "spans.tsv"))
    assert read_spans(str(tmp_path / "spans.tsv")) == tracer.spans
