"""Eigenvalue computations against closed forms and independent oracles."""

import math
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from fanspec import (
    ConvergenceError,
    Graph,
    StructuredGraph,
    complete_graph,
    complete_multipartite,
    contains_fan,
    cycle_graph,
    empty_graph,
    enumerate_graphs,
    extremal_fan_graph,
    join,
    multipartite_charpoly_eval,
    multipartite_spectral_radius,
    path_graph,
    perron_entry_bound_check,
    rayleigh_quotient,
    signless_laplacian_spectrum,
    spectral_radius,
    split_graph,
    turan_graph,
)
from fanspec.families import embed_in_part
from fanspec import spectral
from fanspec.spectral import SEED_MAX_CELLS, _pieces, _power, exact_spectral_radius


def random_graph(n, p, rng):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def random_parts(n, rng, max_patch=None):
    """Part sizes and patch of a StructuredGraph on n vertices: 2-5 random
    part sizes (two nonempty at least) and random edges inside random
    parts."""
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 4)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if sum(1 for s in sizes if s) >= 2:
            break
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    patch = set()
    for _ in range(rng.randint(0, max_patch or n)):
        i = rng.randrange(len(sizes))
        if sizes[i] >= 2:
            a, b = rng.sample(range(sizes[i]), 2)
            patch.add((starts[i] + min(a, b), starts[i] + max(a, b)))
    return sizes, patch


def random_structured(n, rng, max_patch=None):
    return StructuredGraph(*random_parts(n, rng, max_patch))


def _adjacency(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


class TestSpectralRadius:
    def test_regular_graphs(self):
        assert spectral_radius(cycle_graph(4)).lam == pytest.approx(2.0, abs=1e-10)
        assert spectral_radius(petersen()).lam == pytest.approx(3.0, abs=1e-10)

    def test_star(self):
        star = join(complete_graph(1), empty_graph(3))
        assert spectral_radius(star).lam == pytest.approx(math.sqrt(3), abs=1e-10)

    def test_residual_contract_and_normalization(self):
        rng = random.Random(14)
        for _ in range(25):
            g = random_graph(12, 0.4, rng)
            res = spectral_radius(g, tol=1e-10)
            assert res.residual <= 1e-10
            assert res.vector.max() == 1.0
            assert res.vector.min() >= 0.0

    def test_connected_vector_strictly_positive(self):
        res = spectral_radius(path_graph(9))
        assert res.vector.min() > 0

    def test_disconnected_max_over_components(self):
        g = Graph(7, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6)])  # K2, K3, K2
        res = spectral_radius(g)
        assert res.lam == pytest.approx(2.0, abs=1e-10)
        assert res.vector[2:5].min() > 0
        assert res.vector[:2].max() == 0 and res.vector[5:].max() == 0
        # C4 (two cells of two twins) and K3 (three cells) both have lambda
        # exactly 2: the component with the lowest vertex wins either way
        c4 = [(0, 2), (0, 3), (1, 2), (1, 3)]
        k3 = [(4, 5), (4, 6), (5, 6)]
        for edges, support in ((c4 + k3, [0, 1, 2, 3]), ([(6 - a, 6 - b) for a, b in c4 + k3], [0, 1, 2])):
            for solve in (spectral_radius, signless_laplacian_spectrum):
                res = solve(Graph(7, edges))
                assert np.flatnonzero(res.vector).tolist() == support

    def test_empty_graph(self):
        res = spectral_radius(empty_graph(4))
        assert res.lam == 0.0
        assert res.vector.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_iteration_budget_error_carries_result(self):
        # the seeded loop converges in a step or two at any reachable tol,
        # so a tol below the rounding floor forces the budget to run out
        with pytest.raises(ConvergenceError) as info:
            spectral_radius(path_graph(30), tol=1e-300, max_iters=3)
        assert info.value.result.iterations == 3
        assert info.value.result.residual > 1e-300

    def test_structured_matches_dense(self):
        # twin-cell solves against the dense solve, with the residual
        # recomputed from the dense matrix on the returned vector; the
        # directly built StructuredGraph(sizes, patch) cases run the
        # quotient at sizes where the constructions come back dense
        rng = np.random.default_rng(5)
        prng = random.Random(9)
        cases = ((70, (2, 3)), (80, (3, 4)), (90, (1, 3)))
        graphs = [extremal_fan_graph(n, spec)[0] for n, spec in cases]
        graphs.append(split_graph(100, 2))
        graphs += [random_structured(n, prng) for n in (12, 20, 30, 70) for _ in range(4)]
        graphs.append(StructuredGraph((7, 6, 6), [(0, 1), (1, 2), (0, 2)]))
        graphs.append(StructuredGraph((3, 1, 1), [(0, 1), (0, 2), (1, 2)]))
        for sg in graphs:
            assert isinstance(sg, StructuredGraph)
            dense = sg.to_graph()
            for solve, m in (
                (spectral_radius, _adjacency(dense)),
                (signless_laplacian_spectrum, _q_matrix(dense)),
            ):
                res_s, res_d = solve(sg), solve(dense)
                assert res_s.lam == pytest.approx(res_d.lam, abs=1e-9)
                assert np.allclose(res_s.vector, res_d.vector, rtol=0, atol=1e-9)
                assert res_s.vector.max() == 1.0
                resid = np.max(np.abs(m @ res_s.vector - res_s.lam * res_s.vector))
                assert res_s.residual == pytest.approx(resid, abs=1e-9)
                assert abs(res_s.iterations - res_d.iterations) <= 1
            for x in (spectral_radius(sg).vector, rng.uniform(-1, 1, sg.n)):
                naive = x @ _adjacency(dense) @ x / (x @ x)
                assert rayleigh_quotient(sg, x) == pytest.approx(naive, abs=1e-9)
                assert rayleigh_quotient(dense, x) == pytest.approx(naive, abs=1e-9)

    def test_equal_parts_are_interchangeable(self):
        # the same patch in any of several equal parts gives bit-identical
        # solves, dense (n <= 64) or structured, so ties between such graphs
        # never fall to rounding
        triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (4, 5)]
        dense = 0
        for sizes in ((5, 5, 5, 5), (20, 20), (10, 10, 10, 10), (225, 225), (30, 30, 30), (40, 41, 40)):
            patch = triangles if sizes[0] >= 6 else triangles[:3]
            outcomes = []
            for host in (i for i, s in enumerate(sizes) if s == sizes[0]):
                g = embed_in_part(sizes, host, patch)
                dense += isinstance(g, Graph)
                outcomes.append(
                    [
                        (res.lam, res.residual, res.iterations)
                        for res in (spectral_radius(g), signless_laplacian_spectrum(g))
                    ]
                )
            assert len(outcomes) >= 2
            assert all(o == outcomes[0] for o in outcomes)
        assert dense == 10

    def test_twin_blowups_against_eigvalsh(self):
        # both solvers on twin blow-ups with several components and isolated
        # vertices: the dense eigenvalue, a vector constant on every twin
        # class with max entry 1, supported on one component that reaches
        # the eigenvalue; an edgeless graph gives e_0
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from test_patterns import random_blowup

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            pieces=st.integers(1, 3),
            isolated=st.integers(0, 4),
            data=st.data(),
        )
        def agrees(seed, pieces, isolated, data):
            rng = random.Random(seed)
            edges, n = [], 0
            for _ in range(pieces):
                b = random_blowup(rng, 4, 12)
                edges += [(u + n, v + n) for u, v in b.edges()]
                n += b.n
            n += isolated
            g = Graph(n, edges).relabel(data.draw(st.permutations(range(n))))
            comps = [[v for v in range(n) if m >> v & 1] for m in g.components()]
            for solve, m in ((spectral_radius, _adjacency(g)), (signless_laplacian_spectrum, _q_matrix(g))):
                res = solve(g)
                assert res.lam == pytest.approx(np.linalg.eigvalsh(m)[-1], abs=1e-9)
                assert res.vector.max() == 1.0
                support = [v for v in range(n) if res.vector[v] != 0]
                assert support in comps
                assert np.linalg.eigvalsh(m[np.ix_(support, support)])[-1] == pytest.approx(
                    res.lam, abs=1e-9
                )
                if g.edge_count:
                    for row in set(g.rows):
                        assert len({res.vector[v] for v in range(n) if g.rows[v] == row}) == 1
                else:
                    assert support == [0]

        agrees()
        for n in (1, 5, 40):
            for solve in (spectral_radius, signless_laplacian_spectrum):
                res = solve(empty_graph(n))
                assert (res.lam, res.residual, res.iterations) == (0.0, 0.0, 0)
                assert res.vector.tolist() == [1.0] + [0.0] * (n - 1)

    def test_nonconverged_vector_is_full_length(self):
        for g in (extremal_fan_graph(300, (3, 3))[0], Graph(5, [(0, 1), (2, 3), (3, 4)])):
            with pytest.raises(ConvergenceError) as info:
                spectral_radius(g, tol=1e-300, max_iters=2)
            assert info.value.result.vector.shape == (g.n,)

    def test_eigsh_cross_check(self):
        # an independent sparse operator for random structured graphs of
        # about 10^4 vertices: scaffold as (sum x) - B^T B x, patch as a
        # sparse matrix
        sp = pytest.importorskip("scipy.sparse")
        spla = pytest.importorskip("scipy.sparse.linalg")
        rng = random.Random(23)
        for _ in range(4):
            sizes, edges = random_parts(rng.randint(9000, 11000), rng, max_patch=40)
            sg = StructuredGraph(sizes, edges)
            n = sg.n
            part = np.repeat(np.arange(len(sizes)), sizes)
            b = sp.csr_matrix((np.ones(n), (part, np.arange(n))), shape=(len(sizes), n))
            rows = [a for a, _ in edges] + [b_ for _, b_ in edges]
            cols = [b_ for _, b_ in edges] + [a for a, _ in edges]
            patch = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
            degrees = (n - np.asarray(b.sum(axis=1)).ravel()[part]) + np.asarray(
                patch.sum(axis=1)
            ).ravel()
            for solve, diag in ((spectral_radius, 0.0), (signless_laplacian_spectrum, degrees)):
                op = spla.LinearOperator(
                    (n, n),
                    matvec=lambda x, d=diag: x.sum() - b.T @ (b @ x) + patch @ x + d * x,
                    dtype=float,
                )
                ref = float(spla.eigsh(op, k=1, which="LA", tol=1e-13)[0][0])
                lam = solve(sg, tol=1e-10 * n).lam
                assert lam == pytest.approx(ref, abs=1e-9 * n)

    def test_operator_degrees_match_degree_list(self):
        # the solver reads degrees off the quotient operator as B*1
        sg, _ = extremal_fan_graph(301, (3, 3))
        for g in (sg, sg.to_graph(), petersen()):
            (piece,) = _pieces(g)
            degrees = piece.expand(piece.matvec(np.ones(len(piece.sizes))))
            assert degrees.tolist() == [float(d) for d in g.degrees()]

    def test_operator_sums_the_smaller_side(self):
        # the operator sums over the neighbours of each cell in a sparse cell
        # graph and over the non-neighbours in a dense one; both give B x
        rng = random.Random(12)
        sides = set()
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for g in (random_graph(30, p, rng), random_structured(200, rng)):
                for piece in _pieces(g):
                    sides.add(2 * piece.adjacency.sum() <= piece.adjacency.size)
                    x = np.array([rng.random() for _ in piece.sizes], dtype=np.longdouble)
                    product = piece.matvec(x)
                    assert product.dtype == np.longdouble
                    assert np.allclose(product, (piece.adjacency * piece.sizes) @ x, rtol=1e-15, atol=0)
        assert sides == {True, False}

    def test_single_part_constructions_are_dense(self):
        for g in (turan_graph(100, 1), complete_multipartite([100])[0], split_graph(100, 0)):
            assert isinstance(g, Graph) and g.n == 100 and g.edge_count == 0
            res = spectral_radius(g)
            assert res.lam == 0.0 and res.iterations == 0
            assert res.vector.tolist() == [1.0] + [0.0] * 99

    def test_degree_sandwich_random(self):
        rng = random.Random(77)
        for _ in range(500):
            n = rng.randint(2, 40)
            g = random_graph(n, rng.random(), rng)
            lam = spectral_radius(g, tol=1e-8).lam
            degs = g.degrees()
            assert 2 * g.edge_count / n - 1e-6 <= lam <= max(degs) + 1e-6

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            spectral_radius(cycle_graph(3), tol=0)
        for g in (cycle_graph(3), extremal_fan_graph(100, (2, 3))[0]):
            for solve in (spectral_radius, signless_laplacian_spectrum):
                with pytest.raises(ValueError):
                    solve(g, max_iters=0)
                for tol in (float("nan"), float("inf")):
                    with pytest.raises(ValueError):
                        solve(g, tol=tol)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                multipartite_spectral_radius([3, 3], tol=tol)


def _unseeded(matvec, weights, x, *rest):
    """The power loop from the all-ones start, in place of the seed."""
    return _power(matvec, weights, np.ones(len(weights), dtype=np.longdouble), *rest)


class TestSeededSolve:
    """The power loop starts at the Perron vector of the symmetrized twin
    quotient, so a well-conditioned solve needs one step."""

    def test_split_graph_needs_no_polishing(self):
        # the shift max(1, maxdeg/2) is ~n/2 against lambda ~ sqrt(3n): 292
        # steps from the all-ones start
        assert spectral_radius(split_graph(5000, 3)).iterations <= 2

    def test_true_twins_share_one_seed_value(self):
        # the k clique vertices of a split graph are true twins in cells of
        # their own; an ulp-level spread between them in the seed decays at
        # a ratio near 1 and held the signless residual above the default
        # tol at these n (q ~ n, so tol is a few ulps)
        for n, k in ((196658, 4), (280788, 6), (422097, 6), (848722, 2)):
            res = signless_laplacian_spectrum(split_graph(n, k), max_iters=100)
            assert res.iterations <= 2
            assert set(res.vector[:k].tolist()) == {1.0}

    def test_many_cells_start_from_all_ones(self):
        # eigh is O(p^3): a piece of more than SEED_MAX_CELLS cells skips it
        # and starts from long-double all-ones, and a balanced Turan graph
        # is solved exactly in one step
        p = SEED_MAX_CELLS + 1
        starts = []

        def power(matvec, weights, x, *rest):
            starts.append(x)
            return _power(matvec, weights, x, *rest)

        with mock.patch("numpy.linalg.eigh", side_effect=AssertionError), mock.patch(
            "fanspec.spectral._power", power
        ):
            res = spectral_radius(turan_graph(2 * p, p))
        assert (res.lam, res.residual, res.iterations) == (2 * p - 2, 0.0, 1)
        (start,) = starts
        assert start.dtype == np.longdouble and start.tolist() == [1.0] * p

    def test_many_parts_converge_at_default_tol(self):
        # 50-80 unequal parts (n ~ 10^6) are more than SEED_MAX_CELLS cells;
        # a float64 all-ones loop stopped at the cap on 22 of these 24
        # solves, one ulp above the default tol
        rng = random.Random(5)
        for _ in range(12):
            sizes = [rng.randint(10**4, 2 * 10**4) for _ in range(rng.randint(50, 80))]
            sg = StructuredGraph(sizes)
            lam = spectral_radius(sg, max_iters=6000).lam
            assert lam == pytest.approx(multipartite_spectral_radius(sizes), rel=1e-12)
            # q x_i = (n - 2 s_i) x_i + sum_j s_j x_j on the parts of D + A
            q = signless_laplacian_spectrum(sg, max_iters=6000).lam
            assert math.fsum(s / (q - sg.n + 2 * s) for s in sizes) == pytest.approx(1, abs=1e-12)

    def test_fan_free_classes_at_seven(self):
        # the 400 solves of the enum7 job: 17,930 steps from all-ones
        free = [g for g in enumerate_graphs(7) if contains_fan(g, (2, 3)) is None]
        assert len(free) == 400
        steps = sum(spectral_radius(g).iterations for g in free)
        pieces = sum(len(list(_pieces(g))) for g in free)
        assert steps <= 2 * pieces

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is float64 on this platform, so the loop "
        "polishes in float64 and can stall one ulp above the default tol",
    )
    @pytest.mark.parametrize(
        "n, spec, solve",
        [
            (999999, (2, 5), signless_laplacian_spectrum),
            (749436, (2, 5), signless_laplacian_spectrum),
            (734143, (3, 3), spectral_radius),
            (574341, (2, 5), signless_laplacian_spectrum),
            (1000000, (3, 3), spectral_radius),
            (1000000, (3, 3), signless_laplacian_spectrum),
        ],
    )
    def test_float64_stalls_converge_in_long_double(self, n, spec, solve):
        # lambda ~ n puts the default tol at 1-2 ulps of lambda in float64.
        # A float64 loop from the seed stalled one ulp above tol on the first
        # four (a cycle of float iterates of period 1, 2, 2 and 3), and the
        # float64 all-ones loop on the last two.  In extended precision each
        # converges from the seed in a few steps, and from all-ones to the
        # same answer.
        g = extremal_fan_graph(n, spec)[0]
        seeded = solve(g, max_iters=100)
        assert seeded.residual <= 1e-10
        assert seeded.iterations <= 20
        with mock.patch("fanspec.spectral._power", _unseeded):
            plain = solve(g, max_iters=100)
        assert seeded.lam == pytest.approx(plain.lam, rel=1e-15)
        assert np.allclose(seeded.vector, plain.vector, rtol=0, atol=1e-14)

    def test_seed_agrees_with_unseeded_loop(self):
        # the same solve from the all-ones start of the plain power loop,
        # and the dense eigenvalue
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from test_patterns import random_blowup

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(seed=st.integers(0, 2**32 - 1))
        def agrees(seed):
            g = random_blowup(random.Random(seed), 4, 24)
            for solve, m in ((spectral_radius, _adjacency(g)), (signless_laplacian_spectrum, _q_matrix(g))):
                seeded = solve(g)
                with mock.patch("fanspec.spectral._power", _unseeded):
                    plain = solve(g)
                assert seeded.residual <= 1e-10
                assert seeded.lam == pytest.approx(np.linalg.eigvalsh(m)[-1], abs=1e-9)
                assert seeded.lam == pytest.approx(plain.lam, abs=1e-9)
                assert np.allclose(seeded.vector, plain.vector, rtol=0, atol=1e-9)

        agrees()


class TestRayleigh:
    def test_k2_ones(self):
        assert rayleigh_quotient(complete_graph(2), [1, 1]) == pytest.approx(1.0)

    def test_perron_vector_attains_radius(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(9, 0.5, rng)
            res = spectral_radius(g)
            assert rayleigh_quotient(g, res.vector) == pytest.approx(res.lam, abs=1e-8)

    def test_indicator_no_loops(self):
        assert rayleigh_quotient(cycle_graph(4), [1, 0, 0, 0]) == 0.0

    def test_never_exceeds_radius(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_graph(8, 0.5, rng)
            lam = spectral_radius(g).lam
            for _ in range(100):
                x = [rng.uniform(-1, 1) for _ in range(8)]
                if all(abs(v) < 1e-12 for v in x):
                    continue
                assert rayleigh_quotient(g, x) <= lam + 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(cycle_graph(3), [0, 0, 0])


def mp_radius(g):
    """The largest adjacency eigenvalue to 40 digits (mpmath)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.matrix([[int(g.has_edge(u, v)) for v in range(g.n)] for u in range(g.n)])
        return max(mpmath.eigsy(m, eigvals_only=True))


class TestExactRadius:
    """The integer brackets give float(λ) exactly, and None only below the
    cutoff."""

    @pytest.mark.parametrize(
        "g",
        [
            empty_graph(5),
            Graph(5, [(0, 1), (1, 2), (2, 3)]),  # a path and an isolated vertex
            cycle_graph(6),
            complete_multipartite([3, 4])[0],
            complete_graph(7),
            Graph(10, [(i + a, i + b) for i in (0, 5) for a, b in combinations(range(5), 2) if b - a in (1, 4)]),
            Graph(8, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (2, 3)]),
        ],
        ids=["edgeless", "isolated-vertex", "c6", "k3,4", "k7", "two-c5", "unequal-components"],
    )
    def test_named_graphs(self, g):
        assert exact_spectral_radius(g) == float(mp_radius(g))

    def test_correctly_rounded_and_cut(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(data=st.data())
        def exact(data):
            n = data.draw(st.integers(1, 10))
            pairs = list(combinations(range(n), 2))
            bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            lam = mp_radius(g)
            assert exact_spectral_radius(g) == float(lam)
            cutoff = float(lam) + data.draw(st.floats(-1, 1))
            got = exact_spectral_radius(g, cutoff)
            if got is None:
                assert lam < cutoff
            else:
                assert got == float(lam)

        exact()

    def test_bracket_still_open_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITERS", 1)
        with pytest.raises(ConvergenceError) as info:
            exact_spectral_radius(path_graph(4))
        res = info.value.result
        assert res.iterations == 1
        assert res.lam <= (1 + 5**0.5) / 2 <= res.lam + res.residual


class TestMultipartiteRadius:
    def test_known_values(self):
        assert multipartite_spectral_radius([2, 2]) == pytest.approx(2.0, abs=1e-9)
        assert multipartite_spectral_radius([4, 2]) == pytest.approx(math.sqrt(8), abs=1e-9)
        assert multipartite_spectral_radius([3, 3, 3]) == pytest.approx(6.0, abs=1e-9)

    def test_single_part_degenerate(self):
        assert multipartite_spectral_radius([5]) == 0.0

    def test_root_equation_and_power_iteration_agree(self):
        rng = random.Random(101)
        for _ in range(30):
            parts = rng.randint(2, 5)
            sizes = [rng.randint(1, 12) for _ in range(parts)]
            if sum(sizes) > 60:
                continue
            lam = multipartite_spectral_radius(sizes, tol=1e-12)
            assert abs(sum(s / (lam + s) for s in sizes) - 1) <= 1e-12
            g, _ = complete_multipartite(sizes)
            assert lam == pytest.approx(spectral_radius(g).lam, abs=1e-8)
            # the characteristic polynomial vanishes at the root, relative
            # to its scale one unit away
            val = multipartite_charpoly_eval(sizes, lam)
            scale = multipartite_charpoly_eval(sizes, lam + 1.0)
            assert abs(val) <= 1e-6 * abs(scale)

    def test_balancing_move_increases_radius(self):
        # moving a vertex from a large part to a small one (gap >= 2) raises
        # the radius strictly
        cases = [((5, 1), (4, 2)), ((6, 3, 1), (5, 3, 2)), ((4, 4, 2, 2), (4, 3, 3, 2))]
        for before, after in cases:
            assert (
                multipartite_spectral_radius(after)
                > multipartite_spectral_radius(before) + 1e-12
            )


def bareiss_det(m):
    """Fraction-free integer determinant (independent of the closed form)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
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
    return sign * a[n - 1][n - 1]


def charpoly_det(sizes, x):
    g, _ = complete_multipartite(sizes)
    m = [[(x if i == j else 0) - (1 if g.has_edge(i, j) else 0) for j in range(g.n)] for i in range(g.n)]
    return bareiss_det(m)


class TestCharpoly:
    def test_examples(self):
        assert multipartite_charpoly_eval([2, 2], 2) == 0
        assert multipartite_charpoly_eval([2, 2], 3) == 45
        assert multipartite_charpoly_eval([1, 1], 1) == 0

    def test_matches_determinant_samples(self):
        for sizes in ([3, 2], [2, 2, 1], [4, 3, 2], [1, 1, 1, 1]):
            for x in (-3, -1, 0, 1, 2, 5):
                assert multipartite_charpoly_eval(sizes, x) == charpoly_det(sizes, x)

    def test_root_at_radius(self):
        sizes = [4, 3, 1]
        lam = multipartite_spectral_radius(sizes, tol=1e-13)
        val = multipartite_charpoly_eval(sizes, lam)
        scale = multipartite_charpoly_eval(sizes, lam + 1.0)
        assert abs(val) <= 1e-6 * abs(scale)

    def test_exact_rational_arithmetic(self):
        v = multipartite_charpoly_eval([2, 2], Fraction(1, 2))
        assert v == Fraction(1, 16) - Fraction(4, 4)


class TestSignlessLaplacian:
    def test_complete_graphs(self):
        for n in range(2, 7):
            assert signless_laplacian_spectrum(complete_graph(n)).lam == pytest.approx(
                2 * n - 2, abs=1e-9
            )

    def test_cycles(self):
        for n in (3, 4, 5, 6):
            assert signless_laplacian_spectrum(cycle_graph(n)).lam == pytest.approx(4.0, abs=1e-9)

    def test_star(self):
        star = join(complete_graph(1), empty_graph(3))
        assert signless_laplacian_spectrum(star).lam == pytest.approx(4.0, abs=1e-9)

    def test_structured_split_graph(self):
        sg = split_graph(100, 2)
        dense_small = split_graph(50, 2)
        q100 = signless_laplacian_spectrum(sg).lam
        q50 = signless_laplacian_spectrum(dense_small).lam
        assert q100 > q50  # grows with the independent set
        eig = np.linalg.eigvalsh(_q_matrix(sg.to_graph()))
        assert q100 == pytest.approx(float(eig[-1]), abs=1e-7)

    def test_disconnected(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        assert signless_laplacian_spectrum(g).lam == pytest.approx(4.0, abs=1e-9)


def _q_matrix(g):
    return _adjacency(g) + np.diag([float(d) for d in g.degrees()])


class TestPerronBound:
    def test_complete_graph_symmetric(self):
        rep = perron_entry_bound_check(complete_graph(8), (1, 2))
        assert rep.min_entry == pytest.approx(1.0, abs=1e-9)
        assert rep.holds

    def test_negative_bound_trivially_holds(self):
        star = join(complete_graph(1), empty_graph(3))
        rep = perron_entry_bound_check(star, (1, 2))
        assert rep.bound == pytest.approx(1 - 80 / 4)
        assert rep.holds

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            perron_entry_bound_check(Graph(4, [(0, 1)]), (1, 3))

    def test_takes_no_tol(self):
        # the solve's tol follows from the width of `long double`
        with pytest.raises(TypeError):
            perron_entry_bound_check(complete_graph(8), (1, 2), tol=1e-8)

    def test_structured_construction(self):
        g, _ = extremal_fan_graph(300, (2, 3))
        rep = perron_entry_bound_check(g, (2, 3))
        assert rep.bound == pytest.approx(1 - 720 / 300)
        assert rep.holds
