"""Graph core: construction invariants, composition, graph6 codec."""

import random
import tracemalloc
from itertools import combinations

import pytest

from fanspec import (
    Graph,
    Graph6Error,
    StructuredGraph,
    VertexPartition,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_graph6,
    induced_subgraph,
    join,
    path_graph,
    to_graph6,
)
from fanspec.graphs import _multipartite_rows, consecutive_partition


def random_graph(n, p, rng):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def any_graph(data, st, max_n):
    """A hypothesis draw of an arbitrary labeled graph on at most max_n vertices."""
    n = data.draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def twinned_graph(data, st, max_n):
    """A hypothesis draw of a graph with many false twins: each vertex gets
    one of four types, two vertices are adjacent when their types are
    joined, and then up to three pairs are flipped.  Edgeless,
    disconnected and one-cell graphs are all in range."""
    n = data.draw(st.integers(0, max_n))
    types = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    joined = data.draw(st.sets(st.sampled_from(list(combinations(range(4), 2)))))
    pairs = list(combinations(range(n), 2))
    flips = data.draw(st.sets(st.sampled_from(pairs), max_size=3)) if pairs else set()
    return Graph(
        n,
        [
            (u, v)
            for u, v in pairs
            if (tuple(sorted((types[u], types[v]))) in joined) != ((u, v) in flips)
        ],
    )


def assert_same_graph(sg, g):
    """Every query of the blow-up `sg` agrees with the dense graph `g`."""
    assert sg.n == g.n
    assert sg.to_graph() == g
    assert sg.degrees() == g.degrees() == [sg.degree(v) for v in range(g.n)]
    assert sg.edge_count() == g.edge_count
    assert sg.is_connected() == g.is_connected()
    for u in range(g.n):
        for v in range(g.n):
            assert sg.has_edge(u, v) == g.has_edge(u, v)
    for bad in (-1, g.n):
        with pytest.raises(ValueError):
            sg.degree(bad)
        with pytest.raises(ValueError):
            sg.has_edge(bad, 0)


def assert_equitable(g):
    """The cells of `g` by size, ties by lowest vertex; the runs tile
    0..n-1; every vertex of cell i has sizes[j] neighbours in cell j when
    bit j of rows[i] is set and none otherwise."""
    dense = g if isinstance(g, Graph) else g.to_graph()
    cells = g.twin_cells()
    assert isinstance(cells, StructuredGraph) and cells.twin_cells() is cells
    assert sum(cells.sizes) == g.n
    bounds = [0] + [b for _, b, _ in cells.runs]
    assert [a for a, _, _ in cells.runs] == bounds[:-1] and bounds[-1] == g.n
    assert all(a < b for a, b, _ in cells.runs)
    members = [[] for _ in cells.sizes]
    for a, b, c in cells.runs:
        members[c].extend(range(a, b))
    assert [(len(m), m[0]) for m in members] == sorted((len(m), m[0]) for m in members)
    assert list(map(len, members)) == list(cells.sizes)
    for c, mc in enumerate(members):
        assert len({dense.rows[u] for u in mc}) == 1
        for d, md in enumerate(members):
            want = cells.sizes[d] if cells.rows[c] >> d & 1 else 0
            assert {sum(dense.has_edge(u, w) for w in md) for u in mc} == {want}


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


class TestGraphBasics:
    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_symmetry_and_irreflexivity(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(8, 0.4, rng)
            for u in range(g.n):
                assert not g.has_edge(u, u)
                for v in range(g.n):
                    assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_degree_sum_is_twice_edges(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(10, 0.3, rng)
            assert sum(g.degrees()) == 2 * g.edge_count

    def test_from_rows_validates(self):
        with pytest.raises(ValueError):
            Graph.from_rows((0b010, 0b000, 0b000))  # not symmetric

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.components()
        assert len(comps) == 3
        assert comps[0] == 0b00011
        assert not g.is_connected()
        assert cycle_graph(5).is_connected()


class TestJoin:
    def test_star_as_join(self):
        star = join(complete_graph(1), empty_graph(3))
        assert star.n == 4
        assert sorted(star.degrees()) == [1, 1, 1, 3]

    def test_k2_join_k1_is_triangle(self):
        assert join(complete_graph(2), complete_graph(1)) == complete_graph(3)

    def test_edge_count_formula_random(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng.randint(0, 6), 0.5, rng)
            h = random_graph(rng.randint(0, 6), 0.5, rng)
            assert join(g, h).edge_count == g.edge_count + h.edge_count + g.n * h.n

    def test_join_over_dense_limit_errors(self):
        with pytest.raises(ValueError):
            join(empty_graph(40), empty_graph(40))


class TestInducedSubgraph:
    def test_k5_restriction_is_k3(self):
        assert induced_subgraph(complete_graph(5), [0, 2, 4]) == complete_graph(3)

    def test_adjacent_pair_of_cycle(self):
        assert induced_subgraph(cycle_graph(5), [1, 2]) == complete_graph(2)

    def test_edge_monotone_random(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_graph(9, 0.4, rng)
            s = [v for v in range(9) if rng.random() < 0.5]
            assert induced_subgraph(g, s).edge_count <= g.edge_count

    def test_out_of_range_errors(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), [0, 5])


class TestGraph6:
    def test_documented_decodings(self):
        g = from_graph6("D?{")
        assert g.n == 5
        # bits x01..x24 in column-major order decode to the star at vertex 4
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
        k2 = from_graph6("A_")
        assert k2.n == 2 and k2.edge_count == 1

    def test_roundtrip_strings_all_graphs_up_to_5(self):
        for n in range(6):
            for g in all_labeled_graphs(n):
                s = to_graph6(g)
                assert to_graph6(from_graph6(s)) == s

    def test_roundtrip_graphs_n7(self):
        rng = random.Random(17)
        for _ in range(200):
            g = random_graph(7, rng.random(), rng)
            assert from_graph6(to_graph6(g)) == g

    def test_roundtrip_every_class_up_to_7(self):
        from fanspec import enumerate_graphs

        for n in range(8):
            for g in enumerate_graphs(n):
                assert from_graph6(to_graph6(g)) == g

    def test_roundtrip_any_graph(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(data=st.data())
        def roundtrip(data):
            g = any_graph(data, st, 10)
            text = to_graph6(g)
            assert from_graph6(text) == g
            assert to_graph6(from_graph6(text)) == text

        roundtrip()

    def test_header_prefix_accepted(self):
        assert from_graph6(">>graph6<<A_") == from_graph6("A_")

    def test_malformed_inputs(self):
        with pytest.raises(Graph6Error):
            from_graph6("")
        with pytest.raises(Graph6Error):
            from_graph6("\x7f??")  # header beyond short form
        with pytest.raises(Graph6Error):
            from_graph6("D?")  # truncated payload
        with pytest.raises(Graph6Error):
            from_graph6("D?{{")  # excess payload
        with pytest.raises(Graph6Error):
            from_graph6("A:")  # character below 63
        with pytest.raises(Graph6Error):
            from_graph6("A@")  # nonzero padding bits
        with pytest.raises(Graph6Error):
            to_graph6(empty_graph(258048))  # past the four-byte header
        with pytest.raises(Graph6Error):
            from_graph6("~??")  # truncated long-form header
        with pytest.raises(Graph6Error):
            from_graph6("~??~")  # long-form header for 63 vertices, no payload
        with pytest.raises(Graph6Error):
            from_graph6("~?@?")  # long-form header for a short-form size
        with pytest.raises(Graph6Error):
            from_graph6("~~??????")  # eight-byte header

    def test_long_form_header(self):
        assert to_graph6(empty_graph(63))[:4] == "~??~"
        assert to_graph6(empty_graph(300))[:4] == "~?Ck"  # 300 = 4*64 + 44
        assert from_graph6(to_graph6(empty_graph(300))) == empty_graph(300)

    def test_long_form_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        for n in (63, 64, 100, 1999):
            g = random_graph(n, rng.random(), rng)
            theirs = nx.Graph()
            theirs.add_nodes_from(range(n))
            theirs.add_edges_from(g.edges())
            text = to_graph6(g)
            assert text == nx.to_graph6_bytes(theirs, header=False).decode().strip()
            assert from_graph6(text) == g

    def test_encoding_peak_memory(self):
        # packed column by column: a '0'/'1' string of the whole upper
        # triangle would alone be six times the output (the bytes are
        # checked against networkx above)
        g = StructuredGraph((1000, 1000, 1000), [(0, 1), (0, 2), (1, 2)]).to_graph()
        tracemalloc.start()
        try:
            text = to_graph6(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 4 + (3000 * 2999 // 2 + 5) // 6
        assert peak < 3 * len(text)

    def test_decoding_peak_memory(self):
        # decoded column by column: a '0'/'1' string of the whole payload
        # would alone be six times the text
        rng = random.Random(37)
        g = Graph(3000, {(rng.randrange(v), v) for v in range(1, 3000) for _ in range(5)})
        text = to_graph6(g)
        tracemalloc.start()
        try:
            decoded = from_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decoded == g
        assert peak < 3 * len(text)

    def test_path_and_cycle_sanity(self):
        assert path_graph(4).edge_count == 3
        assert cycle_graph(4).edge_count == 4

    def test_wire_format_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(0, 20)
            g = random_graph(n, rng.random(), rng)
            theirs = nx.Graph()
            theirs.add_nodes_from(range(n))
            theirs.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(theirs, header=False).decode().strip()
            assert to_graph6(g) == ref
            back = nx.from_graph6_bytes(to_graph6(g).encode())
            assert set(back.edges()) == {tuple(e) for e in g.edges()}


class TestStructuredGraph:
    # (part sizes, patch) -> cell sizes
    CASES = {
        ((4, 3, 2), ((0, 2), (4, 5))): (1, 1, 1, 1, 1, 2, 2),
        ((2, 3), ((0, 1),)): (1, 1, 3),
        ((5, 1, 1), ()): (1, 1, 5),
        ((3, 0, 4), ((3, 5),)): (1, 1, 2, 3),
        # patch vertices 1 and 2 are twins: one cell when dense
        ((3, 3), ((0, 1), (0, 2))): (1, 1, 1, 3),
        ((0, 5, 1), ()): (1, 5),
    }

    def test_layout_and_adjacency(self):
        sg = StructuredGraph((3, 2), [(0, 1)])
        assert sg.n == 5
        assert sg.edge_count() == 3 * 2 + 1
        assert sg.has_edge(0, 3) and sg.has_edge(0, 1)
        assert not sg.has_edge(1, 2)
        assert sg.degree(0) == 2 + 1
        assert sg.to_graph().edge_count == sg.edge_count()

    def test_patch_must_stay_inside_part(self):
        with pytest.raises(ValueError):
            StructuredGraph((2, 2), [(0, 2)])

    def test_needs_two_nonempty_parts(self):
        # one nonempty part has no cross edges: it is just its patch
        for sizes in ((100,), (0, 5), (3, 0, 0)):
            with pytest.raises(ValueError):
                StructuredGraph(sizes)
        assert StructuredGraph((0, 5, 1)).is_connected()
        assert StructuredGraph((1, 1)).is_connected()

    def test_dense_agreement(self):
        # the blow-up built from parts and patch against the rows built
        # vertex by vertex from the same parts and patch
        rng = random.Random(41)
        cases = list(self.CASES)
        while len(cases) < 40:
            sizes = [rng.randint(0, 6) for _ in range(rng.randint(2, 5))]
            if sum(1 for s in sizes if s) < 2:
                continue
            start, patch = 0, set()
            for s in sizes:
                pairs = combinations(range(start, start + s), 2)
                patch.update(e for e in pairs if rng.random() < 0.3)
                start += s
            cases.append((tuple(sizes), tuple(sorted(patch))))
        for sizes, patch in cases:
            ref = Graph._from_rows_unchecked(_multipartite_rows(sizes, patch))
            assert_same_graph(StructuredGraph(sizes, patch), ref)

    def test_blow_up_of_dense_graph(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(data=st.data())
        def agree(data):
            g = twinned_graph(data, st, 14)
            assert_same_graph(g.twin_cells(), g)
            assert_equitable(g)

        agree()
        # edgeless, one cell, disconnected, all singleton cells
        for g in (Graph(0), Graph(1), Graph(5), Graph(6, [(0, 1), (2, 3), (4, 5)]), path_graph(4)):
            assert_same_graph(g.twin_cells(), g)
            assert_equitable(g)

    def test_twin_cells_are_equitable(self):
        checked = [Graph(0), Graph(4), Graph(7, [(0, 3), (1, 3), (2, 4), (5, 6)])]
        for (sizes, patch), want in self.CASES.items():
            sg = StructuredGraph(sizes, patch)
            assert sg.twin_cells() is sg and sg.sizes == want
            checked += [sg, sg.to_graph()]
        dense = StructuredGraph((3, 3), ((0, 1), (0, 2))).to_graph()
        assert dense.twin_cells().sizes == (1, 2, 3)
        for g in checked:
            assert_equitable(g)


class TestVertexPartition:
    def test_consecutive_parts_are_ranges(self):
        p = consecutive_partition([3, 0, 2])
        assert all(isinstance(part, range) for part in p.parts)
        assert p.n == 5
        p.validate(5)
        assert p.part_masks() == [0b00111, 0, 0b11000]
        assert p.part_masks() == VertexPartition.of(map(frozenset, p.parts)).part_masks()
        assert [frozenset(part) for part in p.parts] == [{0, 1, 2}, set(), {3, 4}]

    def test_validate_mixed_parts(self):
        VertexPartition((range(0, 2), frozenset({2, 3}))).validate(4)
        with pytest.raises(ValueError):
            VertexPartition((range(0, 3), frozenset({2, 3}))).validate(4)
        with pytest.raises(ValueError):
            VertexPartition((range(0, 2), frozenset({3}))).validate(4)
