"""Forbidden-pattern detection, packing, matching, cuts, the partition check."""

import random
from itertools import combinations, permutations

import pytest

from fanspec import (
    FanSpec,
    Graph,
    StructuredGraph,
    check_partition_inequality,
    clique_packing_number,
    complete_graph,
    complete_multipartite,
    contains_fan,
    cycle_graph,
    empty_graph,
    extremal_fan_graph,
    fan_graph,
    matching_number,
    max_cut_partition,
    spectral_radius,
    split_graph,
    turan_graph,
)
from fanspec.families import _g0_patch, balanced_sizes
from fanspec.graphs import consecutive_partition
from fanspec.patterns import _scan_centers, fan_free_through_last
from fanspec.spectral import signless_laplacian_spectrum


def naive_contains(g, k, r):
    """Injective-embedding oracle: try every injective map of the fan's
    vertices into g preserving edges (subgraph semantics)."""
    f = fan_graph((k, r))
    fedges = list(f.edges())
    for image in permutations(range(g.n), f.n):
        if all(g.has_edge(image[u], image[v]) for u, v in fedges):
            return True
    return False


def brute_matching(g):
    edges = list(g.edges())
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for sub in combinations(edges, size):
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                best = max(best, size)
                break
    return best


def random_graph(n, p, rng):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def any_graph(data, st, max_n):
    """A hypothesis draw of an arbitrary labeled graph on at most max_n vertices."""
    n = data.draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def disjoint_union(*graphs):
    rows, offset = [], 0
    for g in graphs:
        rows += [row << offset for row in g.rows]
        offset += g.n
    return Graph.from_rows(rows)


class TestCliquePacking:
    def test_examples(self):
        two_k3 = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert clique_packing_number(two_k3, 3, 5) == 2
        assert clique_packing_number(cycle_graph(5), 2, 5) == 2
        assert clique_packing_number(complete_graph(7), 3, 5) == 2

    def test_limit_caps_value(self):
        assert clique_packing_number(complete_graph(9), 3, 2) == 2
        assert clique_packing_number(complete_graph(9), 3, 0) == 0

    def test_singleton_cliques(self):
        assert clique_packing_number(empty_graph(4), 1, 10) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            clique_packing_number(empty_graph(2), 0, 1)
        with pytest.raises(ValueError):
            clique_packing_number(empty_graph(2), 2, -1)

    def test_agrees_with_bruteforce_packing(self):
        def brute_packing(g, s):
            cliques = [
                frozenset(c)
                for c in combinations(range(g.n), s)
                if all(g.has_edge(u, v) for u, v in combinations(c, 2))
            ]

            def rec(i, used):
                if i == len(cliques):
                    return 0
                best = rec(i + 1, used)
                if not cliques[i] & used:
                    best = max(best, 1 + rec(i + 1, used | cliques[i]))
                return best

            return rec(0, frozenset())

        # limits below the maximum take the search's early exit
        rng = random.Random(19)
        for _ in range(60):
            g = random_graph(8, rng.random(), rng)
            for s in (1, 2, 3, 4):
                expect = brute_packing(g, s)
                for limit in (1, 2, g.n):
                    assert clique_packing_number(g, s, limit) == min(expect, limit), (
                        sorted(g.edges()),
                        s,
                        limit,
                    )

    def test_disjoint_odd_cliques(self):
        # floor(|avail|/s) alone left the search branching over the cliques
        # of every component: 12 triangles took seconds and two K_15 (the
        # odd chvatal_hanson_extremal(15)) more than 30 s
        for t, m in ((3, 12), (5, 5), (15, 2), (21, 2)):
            g = disjoint_union(*[complete_graph(t)] * m)
            assert matching_number(g) == m * (t // 2)
            for s in (3, 4):
                assert clique_packing_number(g, s, g.n) == m * (t // s)

    def test_disjoint_union_adds(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(data=st.data(), s=st.integers(2, 4))
        def adds(data, s):
            parts = [any_graph(data, st, 6) for _ in range(data.draw(st.integers(1, 3)))]
            g = disjoint_union(*parts)
            expect = sum(clique_packing_number(p, s, p.n) for p in parts)
            assert clique_packing_number(g, s, g.n) == expect

        adds()


class TestMatching:
    def test_examples(self):
        assert matching_number(cycle_graph(5)) == 2
        assert matching_number(complete_graph(4)) == 2
        assert matching_number(empty_graph(5)) == 0

    def test_equals_pair_packing(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(8, 0.4, rng)
            assert matching_number(g) == clique_packing_number(g, 2, g.n)

    def test_agrees_with_subset_bruteforce(self):
        rng = random.Random(4)
        for _ in range(60):
            g = random_graph(6, rng.random(), rng)
            assert matching_number(g) == brute_matching(g)


class TestContainsFan:
    def test_k5_contains_bowtie(self):
        w = contains_fan(complete_graph(5), (2, 3))
        assert w is not None
        w.validate(complete_graph(5))

    def test_c5_triangle_free(self):
        assert contains_fan(cycle_graph(5), (1, 3)) is None

    def test_fan_contains_itself(self):
        for k in range(1, 5):
            for r in range(2, 6):
                g = fan_graph((k, r))
                w = contains_fan(g, (k, r))
                assert w is not None
                assert w.center == 0
                w.validate(g)

    def test_r2_is_degree_threshold(self):
        rng = random.Random(8)
        for _ in range(80):
            g = random_graph(6, rng.random(), rng)
            degs = g.degrees()
            for k in range(1, 5):
                w = contains_fan(g, (k, 2))
                assert (w is not None) == (max(degs, default=0) >= k)
                if w is not None:
                    # the first center in (-degree, label) order, with its k
                    # lowest neighbors
                    center = min(range(g.n), key=lambda v: (-degs[v], v))
                    picks = tuple(frozenset([u]) for u in g.neighbors(center)[:k])
                    assert (w.center, w.cliques) == (center, picks)

    def test_monotone_under_edge_deletion(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_graph(7, 0.6, rng)
            spec = (rng.randint(1, 2), rng.randint(3, 4))
            if contains_fan(g, spec) is not None:
                continue
            edges = list(g.edges())
            if not edges:
                continue
            drop = rng.choice(edges)
            smaller = Graph(7, [e for e in edges if e != drop])
            assert contains_fan(smaller, spec) is None

    def test_witness_validity_random(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(7, 0.7, rng)
            for spec in ((1, 3), (2, 3), (1, 4)):
                w = contains_fan(g, spec)
                if w is not None:
                    assert len(w.cliques) == spec[0]
                    assert all(len(c) == spec[1] - 1 for c in w.cliques)
                    w.validate(g)

    def test_agrees_with_naive_embedding_n5(self):
        rng = random.Random(33)
        for _ in range(40):
            g = random_graph(5, rng.random(), rng)
            for k, r in ((1, 3), (2, 3), (1, 4), (2, 2)):
                assert (contains_fan(g, (k, r)) is not None) == naive_contains(g, k, r)

    def test_agrees_with_naive_embedding_dense_n7(self):
        # at r >= 4 the packing runs only on the neighbors with r - 2
        # neighbors inside the neighborhood; (2,4) needs a center of degree 6,
        # so the graphs are dense
        rng = random.Random(45)
        found = 0
        for _ in range(60):
            g = random_graph(7, rng.uniform(0.6, 1.0), rng)
            for spec in ((2, 4), (1, 5)):
                w = contains_fan(g, spec)
                assert (w is not None) == naive_contains(g, *spec), (sorted(g.edges()), spec)
                if w is not None:
                    w.validate(g)
                    found += 1
        assert found > 20

    def test_agrees_with_naive_embedding_on_any_graph(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(
            data=st.data(),
            spec=st.sampled_from([(1, 2), (3, 2), (1, 3), (2, 3), (1, 4)]),
        )
        def agrees(data, spec):
            g = any_graph(data, st, 8)
            w = contains_fan(g, spec)
            assert (w is not None) == naive_contains(g, *spec)
            if w is not None:
                k, r = spec
                assert len(w.cliques) == k and all(len(c) == r - 1 for c in w.cliques)
                w.validate(g)

        agrees()


class TestFanFreeThroughLast:
    """`brute` builds a child P + w of a fan-free P and tests it for a fan
    only at the centres in N[w]; that must agree with the full detector."""

    @pytest.mark.parametrize("spec", [(1, 3), (2, 3), (3, 3), (2, 4), (2, 2), (3, 2)])
    def test_agrees_with_contains_fan(self, spec):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        found = []

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(data=st.data())
        def agrees(data):
            # any fan-free P on at most 9 vertices: its edges in any order,
            # each kept while P stays fan-free, as every subgraph of P is
            n = data.draw(st.integers(0, 9))
            order = data.draw(st.permutations(list(combinations(range(n), 2))))
            tried = order[: data.draw(st.integers(0, len(order)))]
            p = Graph(n)
            for u, v in tried:
                bigger = Graph.from_rows(
                    [row | (i == u) << v | (i == v) << u for i, row in enumerate(p.rows)]
                )
                if contains_fan(bigger, spec) is None:
                    p = bigger
            child = p.add_vertex(data.draw(st.integers(0, (1 << n) - 1)))
            free = contains_fan(child, spec) is None
            assert fan_free_through_last(child, FanSpec(*spec)) == free
            found.append(free)

        agrees()
        assert not all(found) and any(found)


def structured_hosts():
    """(graph, spec) pairs: StructuredGraph(sizes, patch) built directly, so
    the structured path runs at sizes where embed_in_part would return a
    dense graph.  The host is the balanced (r-1)-partite graph with the
    f(h-1, h-1) maximizer in its first part (and, up to n = 30, its last
    part) for h = k (fan-free) and h = k + 1 (contains the fan).  Then
    random graphs with patch edges in several parts and an empty part."""
    for n in (12, 20, 30, 70, 90):
        for k, r in ((1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5)):
            sizes = balanced_sizes(n, r - 1)
            for host_k in (k, k + 1):
                # the dense oracle needs 7-52 s for each fan-free (3,4)
                # host at n >= 70; the fan-containing ones take milliseconds
                if (k, r) == (3, 4) and n >= 70 and host_k == k:
                    continue
                m, patch = _g0_patch(host_k)
                for host in {0, len(sizes) - 1} if n <= 30 else {0}:
                    if sizes[host] < m:
                        continue
                    off = sum(sizes[:host])
                    edges = [(off + a, off + b) for a, b in patch]
                    yield StructuredGraph(sizes, edges), (k, r)
    # random patches in two or more parts, with an empty part among them
    rng = random.Random(12)
    for _ in range(48):
        sizes = [rng.randint(2, 7) for _ in range(rng.randint(3, 5))]
        sizes[rng.randrange(len(sizes))] = 0
        offs = [sum(sizes[:i]) for i in range(len(sizes))]
        nonempty = [i for i, s in enumerate(sizes) if s]
        patched = rng.sample(nonempty, rng.randint(2, len(nonempty)))
        edges = [
            (offs[i] + a, offs[i] + b)
            for i in patched
            for a, b in combinations(range(sizes[i]), 2)
            if rng.random() < 0.15
        ]
        sg = StructuredGraph(sizes, edges)
        for spec in ((2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)):
            yield sg, spec


class TestStructuredFan:
    def test_matches_dense_search(self):
        # the twin reduction against the unreduced dense scan: same answer,
        # same witness, and every witness valid on the full graph
        count = 0
        for sg, spec in structured_hosts():
            dense = sg.to_graph()
            w = contains_fan(sg, spec)
            assert w == _scan_centers(dense, dense.degrees(), *spec), (sg, spec)
            if w is not None:
                w.validate(dense)
                count += 1
        assert count > 20

    def test_never_densifies(self, monkeypatch):
        def refuse(self):
            raise AssertionError("densified a StructuredGraph")

        monkeypatch.setattr(StructuredGraph, "to_graph", refuse)
        monkeypatch.setattr(StructuredGraph, "degrees", refuse)
        n = 10**6
        for g in (extremal_fan_graph(n, (3, 3))[0], split_graph(n, 3)):
            assert isinstance(g, StructuredGraph)
            contains_fan(g, (3, 3))
            contains_fan(g, (2, 2))
            spectral_radius(g, tol=1e-10 * n)
            signless_laplacian_spectrum(g, tol=1e-10 * n)
        w = contains_fan(extremal_fan_graph(n, (4, 3))[0], (3, 3))
        assert w is not None and w.center == 0


def twin_blowup(base, sizes, perm):
    """Each vertex i of `base` replaced by sizes[i] pairwise non-adjacent
    twins, relabeled by perm[old] = new."""
    offs = [sum(sizes[:i]) for i in range(len(sizes))]
    edges = [
        (perm[offs[a] + i], perm[offs[b] + j])
        for a, b in base.edges()
        for i in range(sizes[a])
        for j in range(sizes[b])
    ]
    return Graph(sum(sizes), edges)


def random_blowup(rng, max_twins, max_n):
    while True:
        base = random_graph(rng.randint(3, 6), rng.uniform(0.4, 1.0), rng)
        sizes = [rng.randint(1, max_twins) for _ in range(base.n)]
        if sum(sizes) <= max_n:
            break
    perm = list(range(sum(sizes)))
    if rng.random() < 0.5:
        rng.shuffle(perm)
    return twin_blowup(base, sizes, perm)


class TestDenseTwinReduction:
    def test_matches_unreduced_scan(self):
        # blow-ups have twin classes of up to k + 3 members, so most are
        # searched on a proper reduction; the unreduced scan is the oracle
        rng = random.Random(36)
        reduced = found = 0
        for k, r in ((1, 3), (2, 3), (3, 3), (2, 4), (2, 5)):
            for _ in range(100):
                g = random_blowup(rng, k + 3, 40)
                reduced += g.twin_reduction(k)[0].n < g.n
                w = contains_fan(g, (k, r))
                assert w == _scan_centers(g, g.degrees(), k, r), (g.rows, k, r)
                if w is not None:
                    w.validate(g)
                    found += 1
        assert reduced > 450 and 150 < found < 350

    def test_no_copy_without_large_class(self):
        g, _ = complete_multipartite([2, 2, 1])
        small, labels, degs = g.twin_reduction(2)
        assert small is g and labels == range(5) and degs == g.degrees()
        assert g.twin_reduction(1)[0].n == 3

    def test_reduction_keeps_first_k_of_each_class(self):
        g, _ = complete_multipartite([4, 3, 1])
        small, labels, degs = g.twin_reduction(2)
        assert labels == [0, 1, 4, 5, 7] and degs == [4, 4, 5, 5, 7]
        assert small == complete_multipartite([2, 2, 1])[0]

    def test_agrees_with_naive_embedding(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=400, deadline=None, database=None)
        @hypothesis.given(
            data=st.data(),
            spec=st.sampled_from([(1, 2), (3, 2), (1, 3), (2, 3), (1, 4)]),
        )
        def agrees(data, spec):
            # a blow-up on at most 8 vertices of a graph on 3-6 vertices
            m = data.draw(st.integers(3, 6))
            sizes = data.draw(
                st.lists(st.integers(1, spec[0] + 3), min_size=m, max_size=m).filter(
                    lambda s: sum(s) <= 8
                )
            )
            edges = [e for e in combinations(range(m), 2) if data.draw(st.booleans())]
            perm = data.draw(st.permutations(range(sum(sizes))))
            g = twin_blowup(Graph(m, edges), sizes, perm)
            assert (contains_fan(g, spec) is not None) == naive_contains(g, *spec)

        agrees()


def brute_max_cut(g, p):
    best = 0
    for assign in range(p**g.n):
        a = [(assign // p**v) % p for v in range(g.n)]
        cut = sum(1 for u, v in g.edges() if a[u] != a[v])
        best = max(best, cut)
    return best


class TestMaxCut:
    def test_bipartite_cut_is_everything(self):
        res = max_cut_partition(cycle_graph(4), 2)
        assert res.crossing_edges == 4 and res.exact

    def test_triangle(self):
        assert max_cut_partition(complete_graph(3), 2).crossing_edges == 2

    def test_turan_canonical_parts(self):
        res = max_cut_partition(turan_graph(9, 3), 3)
        assert res.crossing_edges == 27
        assert {frozenset(p) for p in res.partition.parts} == {
            frozenset(range(0, 3)),
            frozenset(range(3, 6)),
            frozenset(range(6, 9)),
        }

    def test_exact_matches_bruteforce(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_graph(7, 0.5, rng)
            for p in (2, 3):
                res = max_cut_partition(g, p)
                assert res.exact
                assert res.crossing_edges == brute_max_cut(g, p)
                internal = sum(
                    1
                    for u, v in g.edges()
                    if any(u in part and v in part for part in res.partition.parts)
                )
                assert g.edge_count - internal == res.crossing_edges

    def test_local_mode_beyond_limit(self):
        g = turan_graph(20, 2)
        res = max_cut_partition(g, 2)
        assert not res.exact
        assert res.crossing_edges == 100  # local moves still find the bipartition

    def test_validation(self):
        with pytest.raises(ValueError):
            max_cut_partition(cycle_graph(4), 1)


class TestPartitionInequality:
    def test_turan_6_2(self):
        rep = check_partition_inequality(turan_graph(6, 2), consecutive_partition([3, 3]), 2)
        assert rep.lhs == 0 and rep.rhs == 1 and rep.holds
        assert rep.hyp1 and rep.hyp2 and rep.fan_free

    def test_construction_meets_equality_k2(self):
        g, parts = extremal_fan_graph(12, (2, 3))
        rep = check_partition_inequality(g, parts, 2)
        assert rep.lhs == rep.rhs == 1
        assert rep.hyp1 and rep.hyp2 and rep.holds and rep.fan_free

    def test_construction_meets_equality_k3(self):
        g, parts = extremal_fan_graph(18, (3, 3))
        rep = check_partition_inequality(g, parts, 3)
        assert rep.lhs == rep.rhs == 6
        assert rep.hyp1 and rep.hyp2 and rep.holds and rep.fan_free

    def test_missing_cross_edges_lower_lhs(self):
        g, _ = complete_multipartite([3, 3])
        edges = [e for e in g.edges() if e != (0, 3)]
        g2 = Graph(6, edges)
        rep = check_partition_inequality(g2, consecutive_partition([3, 3]), 2)
        assert rep.lhs == -1

    def test_hypothesis_violations_reported(self):
        # a triangle inside one part of K_{3,3} violates the degree half of
        # the first hypothesis for k=2
        g, _ = complete_multipartite([3, 3])
        g2 = Graph(6, list(g.edges()) + [(0, 1), (1, 2), (0, 2)])
        rep = check_partition_inequality(g2, consecutive_partition([3, 3]), 2)
        assert not rep.hyp1
        assert not rep.hyp2
