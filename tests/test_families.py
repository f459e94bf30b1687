"""Constructors for the named graph families."""

import random
from itertools import combinations

import pytest

from fanspec import (
    FanSpec,
    Graph,
    StructuredGraph,
    canonical_form,
    chvatal_hanson_extremal,
    chvatal_hanson_f,
    complete_graph,
    complete_multipartite,
    contains_fan,
    cycle_graph,
    extremal_fan_graph,
    fan_graph,
    join,
    matching_number,
    split_graph,
    turan_graph,
    turan_number_t,
)
from fanspec.families import PartitionSizes, balanced_sizes, embed_in_part, partition_sizes_of


def iso(a, b):
    return canonical_form(a) == canonical_form(b)


class TestPartitionSizes:
    def test_normalization_and_validation(self):
        assert partition_sizes_of([2, 3, 1]).sizes == (3, 2, 1)
        with pytest.raises(ValueError):
            PartitionSizes(())
        with pytest.raises(ValueError):
            partition_sizes_of([2, 0])

    def test_fanspec_validation(self):
        with pytest.raises(ValueError):
            FanSpec(0, 3)
        with pytest.raises(ValueError):
            FanSpec(1, 1)
        assert FanSpec(2, 3).order == 5


class TestCompleteMultipartite:
    def test_k22_is_c4(self):
        g, parts = complete_multipartite([2, 2])
        assert iso(g, cycle_graph(4))
        parts.validate(4)

    def test_singletons_give_clique(self):
        g, _ = complete_multipartite([1, 1, 1])
        assert g == complete_graph(3)

    def test_edge_count_322(self):
        g, _ = complete_multipartite([3, 2, 2])
        assert g.edge_count == 16

    def test_adjacency_is_cross_part_exactly(self):
        g, parts = complete_multipartite([3, 2])
        part_of = {}
        for i, p in enumerate(parts.parts):
            for v in p:
                part_of[v] = i
        for u in range(5):
            for v in range(u + 1, 5):
                assert g.has_edge(u, v) == (part_of[u] != part_of[v])


class TestEmbedInPart:
    def test_dense_matches_structured(self):
        # the dense builder against StructuredGraph.to_graph, the reference
        # densification, on random part sizes (empty parts included) and
        # random patches in a random host part
        rng = random.Random(8)
        checked = 0
        while checked < 200:
            sizes = [rng.choice((0, 1, rng.randint(2, 16))) for _ in range(rng.randint(2, 5))]
            if sum(1 for s in sizes if s) < 2 or sum(sizes) > 64:
                continue
            host = rng.randrange(len(sizes))
            edges = [e for e in combinations(range(sizes[host]), 2) if rng.random() < 0.3]
            dense = embed_in_part(sizes, host, edges)
            off = sum(sizes[:host])
            sg = StructuredGraph(sizes, [(off + a, off + b) for a, b in edges])
            assert isinstance(dense, Graph)
            assert dense == sg.to_graph(), (sizes, host, edges)
            checked += 1

    @pytest.mark.parametrize("sizes", [[3, 3], [3, 77]])
    def test_bad_edges_are_one_error_on_both_paths(self, sizes):
        # n = 6 is built dense and n = 80 structured; the edges are checked
        # before either path
        for edge, message in (
            ((0, 0), "loop in patch"),
            ((0, 4), "patch edges must stay inside one part"),
            ((0, 90), "patch vertex out of range"),
        ):
            with pytest.raises(ValueError, match=message):
                embed_in_part(sizes, 0, [edge])


class TestTuranGraph:
    def test_t2_of_5(self):
        g = turan_graph(5, 2)
        assert iso(g, complete_multipartite([3, 2])[0])
        assert g.edge_count == 6

    def test_t3_of_9(self):
        assert turan_graph(9, 3).edge_count == 27

    def test_turan_n_n_is_complete(self):
        for n in range(1, 9):
            assert turan_graph(n, n) == complete_graph(n)

    def test_edge_count_matches_formula(self):
        for n in range(0, 30):
            for p in range(1, 6):
                assert turan_graph(n, p).edge_count == turan_number_t(n, p)

    def test_balanced_sizes(self):
        assert balanced_sizes(10, 3) == (4, 3, 3)
        assert balanced_sizes(3, 5) == (1, 1, 1)


def maximal_cliques(g):
    """Bron-Kerbosch, small graphs only."""
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        for v in list(p):
            bk(r | {v}, p & set(g.neighbors(v)), x & set(g.neighbors(v)))
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(g.n)), set())
    return out


class TestFanGraph:
    def test_single_clique_is_complete(self):
        for r in range(2, 7):
            assert iso(fan_graph((1, r)), complete_graph(r))

    def test_bowtie(self):
        g = fan_graph((2, 3))
        assert g.n == 5 and g.edge_count == 6

    def test_three_four_fan_counts(self):
        g = fan_graph((3, 4))
        assert g.n == 10 and g.edge_count == 18

    def test_maximal_clique_structure(self):
        for k in range(1, 5):
            for r in range(3, 6):
                g = fan_graph((k, r))
                cliques = [c for c in maximal_cliques(g) if len(c) == r]
                assert len(cliques) == k
                assert all(0 in c for c in cliques)
                assert len(maximal_cliques(g)) == k


class TestChvatalHansonExtremal:
    def test_odd_k_is_two_cliques(self):
        g = chvatal_hanson_extremal(3)
        assert g.n == 6 and g.edge_count == 6
        assert iso(g, Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]))

    def test_k2_edge_plus_isolated(self):
        g = chvatal_hanson_extremal(2)
        assert g.n == 3 and g.edge_count == 1

    def test_k4_degree_sequence(self):
        g = chvatal_hanson_extremal(4)
        assert g.n == 7 and g.edge_count == 10
        assert sorted(g.degrees(), reverse=True) == [3, 3, 3, 3, 3, 3, 2]

    def test_bounds_hold_up_to_12(self):
        for k in range(1, 13):
            g = chvatal_hanson_extremal(k)
            assert g.edge_count == chvatal_hanson_f(k - 1, k - 1)
            if k >= 2:
                assert max(g.degrees()) == k - 1
            assert matching_number(g) <= k - 1

    def test_rows_match_the_edge_list_definition(self):
        # the rows are built directly; the definition as edges is the oracle,
        # labels included, since `construct ch` prints them as graph6
        for k in list(range(1, 41)) + [100, 101]:
            if k % 2:
                edges = [(p + i, p + j) for p in (0, k) for i, j in combinations(range(k), 2)]
                g = Graph(2 * k, edges)
            else:
                m = 2 * k - 1
                edges = [(i, (i + off) % m) for off in range(1, k // 2) for i in range(m)]
                g = Graph(m, edges + [(i, i + k - 1) for i in range(k - 1)])
            assert chvatal_hanson_extremal(k) == g, k


class TestExtremalFanGraph:
    def test_edge_count_at_200(self):
        g, _ = extremal_fan_graph(200, (2, 3))
        assert isinstance(g, StructuredGraph)
        assert g.edge_count() == 10001

    def test_k1_is_turan(self):
        for n in (7, 12, 20):
            for r in (3, 4):
                g, _ = extremal_fan_graph(n, (1, r))
                assert g == turan_graph(n, r - 1)

    def test_detector_reports_free_small(self):
        for n in range(6, 25):
            for k in (1, 2, 3):
                for r in (3, 4):
                    try:
                        g, _ = extremal_fan_graph(n, (k, r))
                    except ValueError:
                        continue  # a part too small to host the patch
                    assert contains_fan(g, (k, r)) is None, (n, k, r)

    def test_part_sizes_nearly_balanced(self):
        for n in (13, 22, 37):
            for r in (3, 4, 5):
                _, parts = extremal_fan_graph(n, (1, r))
                sizes = sorted(len(p) for p in parts.parts)
                assert sizes[-1] - sizes[0] <= 1

    def test_part_choice_override(self):
        g0, _ = extremal_fan_graph(12, (2, 3), 0)
        g1, _ = extremal_fan_graph(12, (2, 3), 1)
        assert iso(g0, g1)

    def test_errors(self):
        with pytest.raises(ValueError):
            extremal_fan_graph(10, (2, 2))
        with pytest.raises(ValueError):
            extremal_fan_graph(4, (3, 3))  # part of 2 cannot host 2K_3
        with pytest.raises(ValueError):
            extremal_fan_graph(12, (2, 3), 7)


class TestSplitGraph:
    def test_star(self):
        assert iso(split_graph(4, 1), join(complete_graph(1), Graph(3)))
        assert sorted(split_graph(4, 1).degrees()) == [1, 1, 1, 3]

    def test_complete_when_k_equals_n(self):
        for n in range(1, 7):
            assert iso(split_graph(n, n), complete_graph(n))

    def test_edge_count(self):
        assert split_graph(10, 2).edge_count == 17

    def test_structured_large(self):
        sg = split_graph(100, 3)
        assert isinstance(sg, StructuredGraph)
        assert sg.edge_count() == 3 + 3 * 97

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            split_graph(4, 5)
