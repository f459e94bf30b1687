"""Canonical labeling: invariance, idempotence, counts, orbit correctness."""

import hashlib
import random
from itertools import combinations, permutations

import pytest

from fanspec import Graph, canonical_form, complete_graph, cycle_graph, empty_graph, path_graph, to_graph6
from fanspec.canon import _individualize, _refine, canonical_info


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def any_graph(data, st, max_n):
    """A hypothesis draw of an arbitrary labeled graph on at most max_n vertices."""
    n = data.draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def brute_min_code(g):
    """Independent canonical invariant: minimum edge list over all n!
    relabelings."""
    best = None
    for p in permutations(range(g.n)):
        code = tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges()))
        if best is None or code < best:
            best = code
    return best


def brute_orbits(g):
    autos = [p for p in permutations(range(g.n)) if g.relabel(list(p)) == g]
    rep = list(range(g.n))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for a in autos:
        for v in range(g.n):
            ra, rb = find(v), find(a[v])
            if ra != rb:
                rep[max(ra, rb)] = min(ra, rb)
    return tuple(find(v) for v in range(g.n))


def test_relabeling_invariance():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_relabeling_invariance_any_graph():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def invariant(data):
        g = any_graph(data, st, 10)
        perm = data.draw(st.permutations(range(g.n)))
        assert canonical_form(g.relabel(perm)) == canonical_form(g)

    invariant()


def test_p3_relabelings_agree():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 0), (0, 2)])
    assert canonical_form(a) == canonical_form(b)


def test_distinguishes_cycle_from_path():
    assert canonical_form(cycle_graph(5)) != canonical_form(path_graph(5))


def test_idempotent():
    rng = random.Random(31)
    for _ in range(40):
        g = Graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.4])
        c = canonical_form(g)
        assert canonical_form(c) == c


def test_eleven_classes_on_four_vertices():
    forms = {canonical_form(g).rows for g in all_labeled_graphs(4)}
    assert len(forms) == 11
    # independent dedup oracle agrees
    assert len({brute_min_code(g) for g in all_labeled_graphs(4)}) == 11


def test_canonical_form_matches_brute_classes_n5():
    by_form = {}
    for g in all_labeled_graphs(5):
        by_form.setdefault(canonical_form(g).rows, set()).add(brute_min_code(g))
    assert len(by_form) == 34
    # one brute class per canonical form and vice versa
    assert all(len(v) == 1 for v in by_form.values())


def test_orbits_match_brute_force_up_to_6():
    seen = set()
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            c = canonical_form(g)
            if c.rows in seen:
                continue
            seen.add(c.rows)
            assert tuple(canonical_info(c).orbits) == brute_orbits(c)


def test_symmetric_graphs_fast_and_correct():
    for g in (empty_graph(9), complete_graph(9), cycle_graph(9)):
        info = canonical_info(g)
        # vertex-transitive: single orbit
        assert set(info.orbits) == {0}


def test_empty_and_singleton():
    assert canonical_form(Graph(0)).n == 0
    assert canonical_form(Graph(1)).n == 1


def test_graph_atlas_classes():
    # networkx's atlas lists every graph on at most 7 vertices once per
    # isomorphism class: an independent list to check labeling and the
    # enumerator against, past the n = 6 of the brute-force checks above
    nx = pytest.importorskip("networkx")
    from fanspec.oracle import _levels

    forms_by_order: dict[int, set] = {}
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for h in atlas:
        g = Graph(h.number_of_nodes(), list(h.edges()))
        forms = forms_by_order.setdefault(g.n, set())
        form = canonical_form(g).rows
        assert form not in forms, nx.to_graph6_bytes(h)
        forms.add(form)
    assert [len(forms_by_order[n]) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    for size, level in _levels(7):
        assert [rows for rows, _ in level] == sorted(forms_by_order[size]), size


def test_isomorphism_matches_networkx():
    # random graphs at n <= 20 in groups that share n and degree sequence
    # (regular graphs, and degree-preserving edge swaps of one G(n, p)), so
    # degrees alone cannot tell them apart: a relabeling keeps the form, and
    # two forms are equal exactly when networkx finds an isomorphism
    nx = pytest.importorskip("networkx")
    rng = random.Random(47)
    same = differ = 0
    for n in range(6, 21):
        groups = [
            [nx.random_regular_graph(d, n, seed=rng.randrange(2**32)) for _ in range(4)]
            for d in (2, 3, 4)
            if n * d % 2 == 0
        ]
        base = nx.gnp_random_graph(n, rng.uniform(0.2, 0.6), seed=rng.randrange(2**32))
        swapped = []
        for _ in range(4):
            h = base.copy()
            if h.number_of_edges() >= 2:
                nx.double_edge_swap(h, nswap=1, max_tries=100, seed=rng.randrange(2**32))
            swapped.append(h)
        groups.append(swapped)
        for hs in groups:
            forms = []
            for h in hs:
                g = Graph(n, list(h.edges()))
                perm = list(range(n))
                rng.shuffle(perm)
                forms.append(canonical_form(g))
                assert canonical_form(g.relabel(perm)) == forms[-1]
            for i, j in combinations(range(len(hs)), 2):
                iso = nx.is_isomorphic(hs[i], hs[j])
                assert (forms[i] == forms[j]) == iso, (n, nx.to_graph6_bytes(hs[i]), nx.to_graph6_bytes(hs[j]))
                same += iso
                differ += not iso
    assert same > 20 and differ > 200


# canonical graph6 of every class of _levels(7), one per line in level order
LEVELS7_FORMS_SHA256 = "f6eaf154f2fb561d51622ad59b1b89ad1b64232e822ce2282344ccc7801345a4"
# canonical_info(g).perm of every networkx atlas graph in its atlas labeling,
# space-separated, one per line in atlas order
ATLAS_PERMS_SHA256 = "dbccf33bbf87ca70d1013de9ebc9fe11c760fc8e37918428677db07146d1726d"


def test_pinned_canonical_forms():
    # the forms themselves, not only their invariance: a refinement that
    # reorders colours changes them, and with them the level order, the
    # witnesses and the checkpoints
    from fanspec.oracle import _levels

    forms = [to_graph6(Graph._from_rows_unchecked(rows)) for _, level in _levels(7) for rows, _ in level]
    assert len(forms) == 1253
    assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == LEVELS7_FORMS_SHA256


def test_pinned_atlas_labelings():
    nx = pytest.importorskip("networkx")
    perms = []
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), list(h.edges()))
        perms.append(" ".join(map(str, canonical_info(g).perm)))
    assert hashlib.sha256("\n".join(perms).encode()).hexdigest() == ATLAS_PERMS_SHA256


def full_signature_refine(rows, colors):
    """The slow reference, the refinement this package used before it
    counted incrementally: every pass counts each vertex's neighbours in
    every colour class and renumbers the classes 0..c-1 by ascending (old
    colour, signature)."""
    n = len(rows)
    ncls = (max(colors) + 1) if colors else 0
    while True:
        masks = [0] * ncls
        for v, c in enumerate(colors):
            masks[c] |= 1 << v
        sigs = [(colors[v], tuple((rows[v] & m).bit_count() for m in masks)) for v in range(n)]
        order = sorted(range(n), key=lambda v: sigs[v])
        new = [0] * n
        c = 0
        prev = sigs[order[0]]
        for v in order:
            if sigs[v] != prev:
                c += 1
                prev = sigs[v]
            new[v] = c
        if c + 1 == ncls:
            return new
        colors = new
        ncls = c + 1


def individualized_colors(colors, v):
    """colors with v alone in its class, ahead of the rest of the class."""
    cv = colors[v]
    out = []
    for u, c in enumerate(colors):
        if c < cv:
            out.append(c)
        elif c == cv:
            out.append(cv if u == v else cv + 1)
        else:
            out.append(c + 1)
    return out


def colors_of(n, cells):
    colors = [0] * n
    for i, cell in enumerate(cells):
        for v in range(n):
            if cell >> v & 1:
                colors[v] = i
    return colors


def unit_refined(rows):
    return _refine(rows, [(1 << len(rows)) - 1], [0])


def test_incremental_refinement_matches_full_signatures():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def same_colours(data):
        g = any_graph(data, st, 10)
        hypothesis.assume(g.n > 0)
        rows, n = g.rows, g.n
        cells = unit_refined(rows)
        colors = full_signature_refine(rows, [0] * n)
        assert colors_of(n, cells) == colors
        # down one path of the search tree, every vertex of a non-singleton
        # cell individualized at each node
        while len(cells) < n:
            for i, cell in enumerate(cells):
                if cell & (cell - 1):
                    for v in range(n):
                        if cell >> v & 1:
                            got = _refine(rows, _individualize(cells, i, v), [i])
                            want = full_signature_refine(rows, individualized_colors(colors, v))
                            assert colors_of(n, got) == want, (i, v)
            i = data.draw(st.sampled_from([i for i, cell in enumerate(cells) if cell & (cell - 1)]))
            v = data.draw(st.sampled_from([v for v in range(n) if cells[i] >> v & 1]))
            cells = _refine(rows, _individualize(cells, i, v), [i])
            colors = full_signature_refine(rows, individualized_colors(colors, v))

    same_colours()


def assert_labels_keep_colour_order(g):
    # each cell of the refined unit colouring takes the next block of labels
    cells = unit_refined(g.rows)
    perm = canonical_info(g).perm
    start = 0
    for cell in cells:
        members = [v for v in range(g.n) if cell >> v & 1]
        assert sorted(perm[v] for v in members) == list(range(start, start + len(members)))
        start += len(members)


def test_labels_keep_the_unit_refinement_colour_order():
    from fanspec.oracle import _levels

    rng = random.Random(53)
    for size, level in _levels(7):
        if size == 0:
            continue
        for rows, _ in level:
            perm = list(range(size))
            rng.shuffle(perm)
            assert_labels_keep_colour_order(Graph._from_rows_unchecked(rows).relabel(perm))


def test_labels_keep_the_unit_refinement_colour_order_any_graph():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def colour_order(data):
        g = any_graph(data, st, 10)
        hypothesis.assume(g.n > 0)
        assert_labels_keep_colour_order(g)

    colour_order()
