"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria that the closed forms only guarantee asymptotically are
checked exactly as stated: exhaustive oracle equivalences at desk scale,
closed-form identities, and property sweeps on the constructions.
"""

import json
import random
import time
from itertools import permutations

from fanspec import (
    brute_force_extremal,
    brute_force_f_report,
    canonical_form,
    check_partition_inequality,
    chvatal_hanson_f,
    complete_multipartite,
    contains_fan,
    enumerate_graphs,
    extremal_fan_graph,
    family_search,
    fan_graph,
    from_graph6,
    multipartite_spectral_radius,
    perron_entry_bound_check,
    spectral_radius,
    to_graph6,
    turan_graph,
    verify_main_theorem,
)
from fanspec.spectral import multipartite_charpoly_eval


def report(num, ok, desc, budget_s, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status} ({elapsed:.2f}s / {budget_s}s budget): {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget_s, f"criterion {num} blew the {budget_s}s budget ({elapsed:.2f}s)"


def test_criterion_01_formula_identities():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 21):
        expect = k * k - k if k % 2 == 1 else k * k - 3 * k // 2
        ok &= chvatal_hanson_f(k - 1, k - 1) == expect
    elapsed = time.perf_counter() - t0
    report(1, ok, "bounded-degree/matching diagonal equals the parity closed form, k<=20",
           0.001, elapsed)


def test_criterion_02_oracle_vs_formula_f():
    t0 = time.perf_counter()
    ok = True
    for beta in (1, 2, 3):
        for delta in (1, 2, 3):
            got = brute_force_f_report(beta, delta, 9, jobs=4).value
            want = chvatal_hanson_f(beta, delta)
            if got != want:
                ok = False
                print(f"  mismatch at beta={beta} delta={delta}: {got} != {want}")
    report(2, ok, "exhaustive f(beta,delta) over <=9 vertices matches the formula, "
           "1<=beta,delta<=3 (4 workers)", 600, time.perf_counter() - t0)


def test_criterion_03_turan_ground_truth():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 8):
        t2 = to_graph6(canonical_form(turan_graph(n, 2)))
        edges = brute_force_extremal(n, (1, 3), "edges")
        lam = brute_force_extremal(n, (1, 3), "lambda")
        lam_t2 = spectral_radius(turan_graph(n, 2)).lam
        ok &= edges.best_value == n * n // 4
        ok &= abs(lam.best_value - lam_t2) <= 1e-8
        ok &= t2 in edges.witnesses and t2 in lam.witnesses
    report(3, ok, "triangle-free brute force attains floor(n^2/4) and lambda(T2(n)), "
           "witnesses include T2(n), 4<=n<=7", 60, time.perf_counter() - t0)


def test_criterion_04_multipartite_eigen_equation():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        parts = rng.randint(2, 5)
        sizes = [rng.randint(1, 60 // parts) for _ in range(parts)]
        lam = multipartite_spectral_radius(sizes, tol=1e-12)
        ok &= abs(sum(s / (lam + s) for s in sizes) - 1.0) <= 1e-10
        g, _ = complete_multipartite(sizes)
        ok &= abs(lam - spectral_radius(g).lam) <= 1e-8
    report(4, ok, "eigenvalue-equation root matches power iteration on 100 random "
           "partitions (2-5 parts, n<=60)", 30, time.perf_counter() - t0)


def _partitions_of(total, max_first=None):
    if max_first is None:
        max_first = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_first), 0, -1):
        for rest in _partitions_of(total - first, first):
            yield (first,) + rest


def _bareiss_det(m):
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = (a[j][k] * a[i][i] - a[j][i] * a[i][k]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1] if n else 1


def test_criterion_05_charpoly_vs_determinant():
    t0 = time.perf_counter()
    ok = True
    for total in range(1, 11):
        for sizes in _partitions_of(total):
            g, _ = complete_multipartite(sizes)
            for x in (-3, -2, -1, 0, 1, 2, 3):
                m = [
                    [(x if i == j else 0) - (1 if g.has_edge(i, j) else 0) for j in range(g.n)]
                    for i in range(g.n)
                ]
                if multipartite_charpoly_eval(sizes, x) != _bareiss_det(m):
                    ok = False
                    print(f"  mismatch at sizes={sizes} x={x}")
    report(5, ok, "closed-form characteristic polynomial equals integer determinant "
           "expansion at 7 points, all partitions n<=10", 10, time.perf_counter() - t0)


def test_criterion_06_balancing_monotonicity():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in range(2, 31):
        for sizes in _partitions_of(n):
            if len(sizes) > 4 or len(sizes) < 2:
                continue
            base = None
            for i in range(len(sizes)):
                for j in range(len(sizes)):
                    if sizes[i] - sizes[j] >= 2:
                        if base is None:
                            base = multipartite_spectral_radius(sizes, tol=1e-13)
                        moved = list(sizes)
                        moved[i] -= 1
                        moved[j] += 1
                        lam2 = multipartite_spectral_radius(moved, tol=1e-13)
                        checked += 1
                        if not lam2 > base + 1e-12:
                            ok = False
                            print(f"  non-increase moving {i}->{j} in {sizes}")
    report(6, ok, f"every vertex move from a bigger to a 2-smaller part strictly raises "
           f"the radius ({checked} moves, n<=30, <=4 parts)", 120, time.perf_counter() - t0)


def test_criterion_07_radius_lower_bound():
    t0 = time.perf_counter()
    ok = True
    margins = []
    for n in (50, 100, 200, 400):
        for k in (2, 3):
            for r in (3, 4):
                g, _ = extremal_fan_graph(n, (k, r))
                lam = spectral_radius(g).lam
                bound = (1 - 1 / (r - 1)) * n - (r - 1) / (4 * n)
                margins.append((n, k, r, lam - bound))
                ok &= lam >= bound
    worst = min(m for *_, m in margins)
    report(7, ok, f"construction radius beats (1-1/(r-1))n - (r-1)/(4n); "
           f"worst margin {worst:.4f}", 60, time.perf_counter() - t0)


def test_criterion_08_partition_equality_on_construction():
    t0 = time.perf_counter()
    ok = True
    for n in (24, 48):
        for k in (2, 3):
            for r in (3, 4):
                g, parts = extremal_fan_graph(n, (k, r))
                rep = check_partition_inequality(g, parts, k)
                want = chvatal_hanson_f(k - 1, k - 1)
                good = rep.hyp1 and rep.hyp2 and rep.lhs == rep.rhs == want
                if not good:
                    print(f"  failed at n={n} k={k} r={r}: {rep}")
                ok &= good
    report(8, ok, "construction meets the partition inequality with equality "
           "(both hypotheses hold), n in {24,48}, k in {2,3}, r in {3,4}",
           10, time.perf_counter() - t0)


def test_criterion_09_main_theorem_family_check():
    t0 = time.perf_counter()
    a = verify_main_theorem(200, (2, 3), jobs=4)
    b = verify_main_theorem(450, (3, 3), jobs=4)
    ok = a.agrees and b.agrees
    report(9, ok, f"family spectral maximizer is edge-extremal: n=200 k=2 r=3 "
           f"({a.family_winner_edges} edges) and n=450 k=3 r=3 "
           f"({b.family_winner_edges} edges) (4 workers)", 1800, time.perf_counter() - t0)


def _naive_contains(g, k, r):
    fan = fan_graph((k, r))
    fedges = list(fan.edges())
    for image in permutations(range(g.n), fan.n):
        if all(g.has_edge(image[u], image[v]) for u, v in fedges):
            return True
    return False


def test_criterion_10_detector_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            for k, r in ((1, 3), (2, 3), (1, 4), (2, 2)):
                fast = contains_fan(g, (k, r)) is not None
                slow = _naive_contains(g, k, r)
                if fast != slow:
                    ok = False
                    print(f"  disagreement on {to_graph6(g)} spec=({k},{r})")
    report(10, ok, "detector agrees with naive injective-embedding search on all "
           "classes n<=6, specs (1,3),(2,3),(1,4),(2,2)", 300, time.perf_counter() - t0)


def test_criterion_11_perron_entry_bound():
    t0 = time.perf_counter()
    g, _ = extremal_fan_graph(3000, (2, 3))
    rep = perron_entry_bound_check(g, (2, 3))
    ok = rep.holds and abs(rep.bound - 0.76) < 1e-12
    report(11, ok, f"minimum Perron entry {rep.min_entry:.6f} >= 1 - 720/3000 = "
           f"{rep.bound} on the structured 3000-vertex construction",
           60, time.perf_counter() - t0)


def test_criterion_12_determinism_across_workers():
    t0 = time.perf_counter()
    pairs = []
    pairs.append((
        brute_force_f_report(3, 3, 9, jobs=1).to_json(timing=False),
        brute_force_f_report(3, 3, 9, jobs=8).to_json(timing=False),
    ))
    for mode in ("edges", "lambda"):
        pairs.append((
            brute_force_extremal(7, (1, 3), mode, jobs=1).to_json(timing=False),
            brute_force_extremal(7, (1, 3), mode, jobs=8).to_json(timing=False),
        ))
    for n, spec in ((200, (2, 3)), (450, (3, 3))):
        pairs.append((
            verify_main_theorem(n, spec, jobs=1).to_json(timing=False),
            verify_main_theorem(n, spec, jobs=8).to_json(timing=False),
        ))
    ok = all(a == b for a, b in pairs)
    for a, b in pairs:
        json.loads(a)  # every report is well-formed JSON
    report(12, ok, "criterion 2/3/9 reports are byte-identical at --jobs 1 and "
           "--jobs 8", 1800, time.perf_counter() - t0)
