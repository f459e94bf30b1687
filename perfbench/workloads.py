"""Workload inputs, references and answer checks, and the host-speed loop.

Everything here is a pure function of the seed or of an answer, so the
checks can be tested without running a job (see ``test_perfbench.py``).
The references are computed here, not by fanspec: Turán edge counts, the
fan extremal number, and spectral radii from a small eigen-solve of the
equitable-partition quotient of each structured graph.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

# --- enum7 and enum8 ---------------------------------------------------------

# ``brute --n N`` for the (2,3) fan.  The job is the same for every seed.
# The other fan specs cost 10-20% more or less than (2,3) (e.g. (1,4) has
# 6,431 fan-free classes at n = 8 to solve, not 2,290), which would show up
# as run-to-run spread.  Reference fields were pinned from fanspec 0.1.0.
ENUM_SPEC = (2, 3)
ENUM_N = {"enum7": 7, "enum8": 8}
ENUM_REFERENCE = {
    7: {
        "best_value": 3.84821707759,
        "witnesses": ["F?~vg"],
        "graphs_examined": 1044,
        "free_count": 400,
        "matches_formula": True,
    },
    8: {
        "best_value": 4.2929513807,
        "witnesses": ["G?~vfc"],
        "graphs_examined": 12346,
        "free_count": 2290,
        "matches_formula": True,
    },
}
LAMBDA_ABS_TOL = 1e-9


def enum_argv(n: int, jobs: int) -> list[str]:
    k, r = ENUM_SPEC
    return ["brute", "--n", str(n), "--k", str(k), "--r", str(r), "--mode", "lambda", "--jobs", str(jobs)]


def check_enum(n: int, report: dict) -> list[str]:
    """Problems with a ``brute --n n`` report; empty when it is correct."""
    k, r = ENUM_SPEC
    ref = ENUM_REFERENCE[n]
    bad = []
    if (report.get("n"), report.get("k"), report.get("r")) != (n, k, r):
        bad.append("report is for another job")
    best = report.get("best_value")
    if not isinstance(best, (int, float)) or abs(best - ref["best_value"]) > LAMBDA_ABS_TOL:
        bad.append(f"best_value {best} != {ref['best_value']}")
    for key in ("witnesses", "graphs_examined", "free_count", "matches_formula"):
        if report.get(key) != ref[key]:
            bad.append(f"{key} {report.get(key)!r} != {ref[key]!r}")
    return bad


# --- family450 ---------------------------------------------------------------

# n at or above the exactness threshold 50k^2 = 450 for k = 3, r = 3.  Kept
# even and close together so every seed costs about the same: odd n have
# other part-size vectors and cost about half as much.
FAMILY_NS = [450, 452]
FAMILY_SPEC = (3, 3)


def family_n(seed: int) -> int:
    return FAMILY_NS[seed % len(FAMILY_NS)]


def family_argv(seed: int, jobs: int) -> list[str]:
    k, r = FAMILY_SPEC
    return ["verify", "--n", str(family_n(seed)), "--k", str(k), "--r", str(r), "--jobs", str(jobs)]


def _balanced(n: int, parts: int) -> list[int]:
    q, rem = divmod(n, parts)
    return [q + 1] * rem + [q] * (parts - rem)


def turan_edges(n: int, parts: int) -> int:
    return (n * n - sum(s * s for s in _balanced(n, parts))) // 2


def ch_edges(k: int) -> int:
    """Edges of the embedded graph for a (k, r) fan, i.e. f(k-1, k-1):
    max edges with matching number and max degree both at most k-1."""
    b = d = k - 1
    if b == 0:
        return 0
    return d * b + (d // 2) * (b // ((d + 1) // 2))


def fan_extremal_edges(n: int, k: int, r: int) -> int:
    return turan_edges(n, r - 1) + ch_edges(k)


def check_family(seed: int, report: dict) -> list[str]:
    n = family_n(seed)
    k, r = FAMILY_SPEC
    want = fan_extremal_edges(n, k, r)
    bad = []
    if (report.get("n"), report.get("k"), report.get("r")) != (n, k, r):
        bad.append("report is for another job")
    if report.get("agrees") is not True:
        bad.append("agrees is not true")
    for key in ("family_winner_edges", "formula_edges"):
        if report.get(key) != want:
            bad.append(f"{key} {report.get(key)!r} != {want}")
    return bad


# --- structured ------------------------------------------------------------

STRUCTURED_SPECS = [(2, 3), (3, 3), (2, 4), (2, 5)]
# One round of the stream, ~7 s.  A 60-s run repeats it about 8 times, so it
# holds about 250 spectral and 100 check answers, and each query's best time
# is taken over about 8 tries.
SPECTRAL_CONVERGING = 28  # half adjacency on extremal graphs, half signless on split graphs
SPECTRAL_DEFECT = 3  # default tol at n >= 10^5: cannot converge (known defect)
DEFAULT_TOL = 1e-10
# Tolerance of the converging queries, per vertex.  The residual floor of the
# structured power iteration reaches 3.6e-12 * n at some n in 10^3..10^6
# (scan of 120 log-uniform n), so 1e-12 * n would not always converge.
CONVERGING_TOL_PER_N = 1e-10
# A converging query needs about 20 iterations; the cap bounds the cost of
# one that unexpectedly stalls (it then counts as failed).
CONVERGING_MAX_ITERS = 1000
# iteration budget of a defect query, divided by n: 0.5-1 s per query on a
# 2-core x86-64 box
DEFECT_ITER_BUDGET = 2e7
# log-uniform n range per check spec; the largest query takes about 1-2 s
# on a 2-core x86-64 box
CHECK_RANGES = {(2, 3): (125, 1000), (3, 3): (90, 700), (2, 4): (24, 170), (2, 5): (24, 70)}
CHECKS_PER_SPEC = 3
CHECK_POSITIVE_PER_SPEC = 1  # host built for (k+1, r), which contains a (k, r) fan


# Share of its slice over which a stratified draw may move.  Check and
# defect queries cost up to ~n^3 and ~n, so a full-slice draw at the top of
# the range would make the cost of a round depend on the seed.
STRATUM_JITTER = 0.2


def _log_strata(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """One log-uniform draw near the middle of each of `count` equal slices
    of [lo, hi].

    Stratifying keeps every seed's sample spread over the whole range, so
    latency percentiles and round cost move little from seed to seed."""
    a, b = math.log(lo), math.log(hi)
    return [
        int(round(math.exp(a + (b - a) * (i + 0.5 + STRATUM_JITTER * (rng.random() - 0.5)) / count)))
        for i in range(count)
    ]


def structured_queries(seed: int) -> list[dict]:
    """The seeded round of queries.  Each kind of query (and each spec of
    the check queries) is stratified over its own n range, so the largest
    queries of every kind are in every seed's round; the seed jitters n and
    shuffles the order."""
    rng = random.Random(f"structured:{seed}")
    queries: list[dict] = []
    half = SPECTRAL_CONVERGING // 2
    for op in ("lambda", "qlambda"):
        for i, n in enumerate(_log_strata(rng, half, 1e3, 1e6)):
            k, r = STRUCTURED_SPECS[i % len(STRUCTURED_SPECS)]
            q = {"op": op, "n": n, "tol": CONVERGING_TOL_PER_N * n,
                 "max_iters": CONVERGING_MAX_ITERS, "defect": False}
            q.update({"k": k, "r": r} if op == "lambda" else {"s": k * (r - 2)})
            queries.append(q)
    for i, n in enumerate(_log_strata(rng, SPECTRAL_DEFECT, 1e5, 1e6)):
        k, r = STRUCTURED_SPECS[i % len(STRUCTURED_SPECS)]
        queries.append(
            {
                "op": "lambda",
                "n": n,
                "k": k,
                "r": r,
                "tol": DEFAULT_TOL,
                "max_iters": max(1, int(DEFECT_ITER_BUDGET / n)),
                "defect": True,
            }
        )
    for (k, r), (lo, hi) in CHECK_RANGES.items():
        negative = CHECKS_PER_SPEC - CHECK_POSITIVE_PER_SPEC
        for host_k, count in ((k, negative), (k + 1, CHECK_POSITIVE_PER_SPEC)):
            for n in _log_strata(rng, count, lo, hi):
                queries.append({"op": "check", "n": n, "k": k, "r": r, "host_k": host_k})
    rng.shuffle(queries)
    return queries


def _ch_patch(k: int) -> list[tuple[int, int]]:
    """Non-isolated part of the f(k-1, k-1) maximizer: one edge for k = 2,
    two disjoint triangles for k = 3."""
    if k == 2:
        return [(0, 1)]
    if k == 3:
        return [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    raise ValueError(f"no reference patch for k={k}")


def extremal_quotient_lambda(n: int, k: int, r: int) -> float:
    """Adjacency spectral radius of the balanced (r-1)-partite Turán graph
    with the f(k-1, k-1) maximizer embedded in its first part.

    Cells: each patch vertex alone, the rest of the first part, and every
    other part.  The partition is equitable, so the quotient's largest
    eigenvalue is the graph's."""
    sizes = _balanced(n, r - 1)
    patch = _ch_patch(k)
    m = 1 + max(max(e) for e in patch)
    cells = [1] * m + [sizes[0] - m] + sizes[1:]
    c = len(cells)
    b = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            part_i = 0 if i <= m else i - m
            part_j = 0 if j <= m else j - m
            if part_i != part_j:
                b[i, j] = cells[j]
    for u, v in patch:
        b[u, v] = b[v, u] = 1
    # symmetrize: D^(1/2) B D^(-1/2) for cell sizes D
    root = np.sqrt(np.array(cells, dtype=float))
    sym = b * root[:, None] / root[None, :]
    return float(np.linalg.eigvalsh((sym + sym.T) / 2)[-1])


def split_quotient_q(n: int, s: int) -> float:
    """Signless Laplacian radius of K_s joined to an independent set of n-s
    vertices, from its 2-cell quotient."""
    q = np.array([[(n - 1) + (s - 1), n - s], [s, s]], dtype=float)
    return float(max(np.linalg.eigvals(q).real))


def check_query(q: dict, ans: dict, graph_for) -> str | None:
    """Why an answer is wrong, or None when it is right.

    A defect query (default tol at n >= 10^5) may either converge or stop
    with ConvergenceError after all of its ``max_iters``; either way its
    residual must be within ``residual_cap(q)`` and its eigenvalue within a
    bound that depends on the query alone, never on the reported residual.
    ``graph_for(n, (k, r))`` builds the graph a check query ran on."""
    if "latency_s" not in ans:
        return "no answer"
    err = ans.get("error")
    if q["op"] == "check":
        if err is not None:
            return f"crashed: {err}"
        w = ans.get("witness")
        k, r = q["k"], q["r"]
        if q["host_k"] == k:
            return None if w is None else "fan reported in a fan-free graph"
        if w is None:
            return "missed a fan"
        from fanspec.patterns import FanWitness

        cliques = tuple(frozenset(c) for c in w["cliques"])
        if len(cliques) != k or any(len(c) != r - 1 for c in cliques):
            return "witness has the wrong shape"
        try:
            FanWitness(w["center"], cliques).validate(graph_for(q["n"], (q["host_k"], r)))
        except ValueError as exc:
            return f"witness invalid: {exc}"
        return None
    if err is not None and not (err == "nonconverged" and q["defect"]):
        return f"failed: {err}"
    if err is not None and ans.get("iterations") != q["max_iters"]:
        return f"stopped after {ans.get('iterations')} of {q['max_iters']} iterations"
    if q["op"] == "lambda":
        ref = extremal_quotient_lambda(q["n"], q["k"], q["r"])
    else:
        ref = split_quotient_q(q["n"], q["s"])
    lam, residual = ans.get("lam"), ans.get("residual")
    if not isinstance(lam, float) or not math.isfinite(lam):
        return "no eigenvalue"
    cap = residual_cap(q)
    if not isinstance(residual, float) or not residual <= cap:
        return f"residual {residual!r} > {cap!r}"
    # The residual contract bounds the eigenvalue error by about the
    # residual; 1e-10 relative covers float64 rounding in sums over 10^6 entries.
    allowed = 2.0 * cap + 1e-10 * ref
    if abs(lam - ref) > allowed:
        return f"lambda {lam!r} != reference {ref!r}"
    return None


def residual_cap(q: dict) -> float:
    """Largest residual a spectral answer may report: the query's tol, or,
    for a defect query, the tol a converging query of the same n gets.  The
    capped iterations of 168 defect queries (28 seeds and rounds) reached at
    most 5.1e-12 * n, well inside 1e-10 * n.  A power iteration stopped
    after ten steps still reports 2.5e-10 * n at n = 2 * 10^5."""
    return CONVERGING_TOL_PER_N * q["n"] if q["defect"] else q["tol"]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty list."""
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


# --- host speed ------------------------------------------------------------


def spin() -> float:
    """Wall time of one pass of a fixed pure-Python loop (~20 ms): the
    host's speed at this moment, independent of fanspec."""
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return time.perf_counter() - t0
