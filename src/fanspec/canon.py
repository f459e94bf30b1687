"""Exact canonical labeling for small graphs.

The labeling is found by iterated neighbor-count refinement (classic
equitable / degree refinement) followed by backtracking over
individualizations.  The canonical form is the vertex relabeling that
maximizes the adjacency code; discovered automorphisms prune branches that
can only revisit codes already seen, which keeps highly symmetric graphs
(empty, complete, clique unions) from exploding into factorial search.

The searcher also reports the automorphisms it discovered.  For every
graph the discovered set generates the full automorphism group (the
pruning only discards branches equivalent under already-known
automorphisms), which the test suite cross-checks against brute force on
all graphs with up to 6 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _mask_image


def permuted_rows(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacency rows after relabeling with perm[old] = new."""
    new = [0] * len(rows)
    for u, row in enumerate(rows):
        new[perm[u]] = _mask_image(row, perm)
    return tuple(new)


def _refine(rows: tuple[int, ...], colors: list[int]) -> list[int]:
    """Refine a coloring until stable under neighbor color counts.

    Classes are renumbered 0..c-1 by ascending (old color, signature), so
    the result is deterministic and order-compatible with the input.
    """
    n = len(rows)
    ncls = (max(colors) + 1) if colors else 0
    while True:
        masks = [0] * ncls
        for v, c in enumerate(colors):
            masks[c] |= 1 << v
        sigs = [
            (colors[v], tuple((rows[v] & m).bit_count() for m in masks))
            for v in range(n)
        ]
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


def _individualize(colors: list[int], v: int) -> list[int]:
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


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def orbits_from_perms(n: int, perms: list[tuple[int, ...]]) -> list[int]:
    """Orbit representative (minimum member) per vertex under the given
    permutations' generated group."""
    uf = _UnionFind(n)
    for p in perms:
        for v in range(n):
            uf.union(v, p[v])
    return [uf.find(v) for v in range(n)]


@dataclass(frozen=True)
class CanonicalInfo:
    """Canonical labeling plus the automorphisms discovered on the way."""

    perm: tuple[int, ...]
    aut_generators: tuple[tuple[int, ...], ...]
    orbits: tuple[int, ...]


def canonical_info(g: Graph) -> CanonicalInfo:
    n = g.n
    if n == 0:
        return CanonicalInfo((), (), ())
    rows = g.rows
    identity = tuple(range(n))

    best_code: tuple[int, ...] | None = None
    best_perm: tuple[int, ...] | None = None
    first_code: tuple[int, ...] | None = None
    first_perm: tuple[int, ...] | None = None
    auts: list[tuple[int, ...]] = []
    aut_seen: set[tuple[int, ...]] = set()

    def record_aut(p1: tuple[int, ...], p2: tuple[int, ...]) -> None:
        inv2 = [0] * n
        for v, lab in enumerate(p2):
            inv2[lab] = v
        a = tuple(inv2[p1[v]] for v in range(n))
        if a != identity and a not in aut_seen:
            aut_seen.add(a)
            auts.append(a)

    def leaf(colors: list[int]) -> None:
        nonlocal best_code, best_perm, first_code, first_perm
        perm = tuple(colors)
        code = permuted_rows(rows, perm)
        if first_code is None:
            first_code, first_perm = code, perm
        elif code == first_code and perm != first_perm:
            record_aut(perm, first_perm)
        if best_code is None or code > best_code:
            best_code, best_perm = code, perm
        elif code == best_code and perm != best_perm:
            record_aut(perm, best_perm)

    def target_class(colors: list[int]) -> list[int]:
        sizes: dict[int, int] = {}
        for c in colors:
            sizes[c] = sizes.get(c, 0) + 1
        cls = min(
            (c for c, s in sizes.items() if s > 1),
            key=lambda c: (sizes[c], c),
            default=-1,
        )
        if cls < 0:
            return []
        return [v for v in range(n) if colors[v] == cls]

    def search(colors: list[int], prefix: list[int]) -> None:
        members = target_class(colors)
        if not members:
            leaf(colors)
            return
        tried: list[int] = []
        for v in members:
            if tried:
                uf = _UnionFind(n)
                for a in auts:
                    if all(a[p] == p for p in prefix):
                        for w in range(n):
                            uf.union(w, a[w])
                if any(uf.find(v) == uf.find(u) for u in tried):
                    continue
            tried.append(v)
            prefix.append(v)
            search(_refine(rows, _individualize(colors, v)), prefix)
            prefix.pop()

    search(_refine(rows, [0] * n), [])
    assert best_perm is not None
    return CanonicalInfo(best_perm, tuple(auts), tuple(orbits_from_perms(n, auts)))


def canonical_form(g: Graph) -> Graph:
    """Canonical representative of g's isomorphism class.

    Isomorphic inputs map to identical outputs; the output is produced by
    relabeling g, so it is isomorphic to the input.
    """
    info = canonical_info(g)
    return Graph._from_rows_unchecked(permuted_rows(g.rows, info.perm))


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """Orbit representative per vertex under the full automorphism group."""
    return canonical_info(g).orbits
