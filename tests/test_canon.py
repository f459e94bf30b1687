"""Canonical labeling: invariance, idempotence, counts, orbit correctness."""

import random
from itertools import combinations, permutations

import pytest

from fanspec import Graph, canonical_form, complete_graph, cycle_graph, empty_graph, path_graph
from fanspec.canon import canonical_info


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
