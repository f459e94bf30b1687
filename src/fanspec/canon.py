"""Exact canonical labeling for small graphs.

The labeling is found by iterated neighbor-count refinement (classic
equitable / degree refinement) followed by backtracking over
individualizations.  The canonical form is the vertex relabeling that
maximizes the adjacency code; discovered automorphisms prune branches that
can only revisit codes already seen, which keeps highly symmetric graphs
(empty, complete, clique unions) from exploding into factorial search.

A colouring is an ordered partition into cells, and a cell's index is its
colour.  One refinement pass splits each cell by its vertices' neighbour
counts, sorted as tuples, and keeps the pieces in place in ascending order.
The colours are those of the full-signature pass, which counts into every
cell, but each pass counts only into the cells that split in the previous
pass, as nauty does (McKay & Piperno 2014): into every cell from the unit
colouring, and into the new singleton {v} alone after individualizing v.
The last piece of each split cell is left out too.  The order is the same
because:

- two vertices share a cell only if they had equal counts into every cell
  of the colouring before the last split (the previous pass's, or the
  equitable one that was individualized), so they have equal counts into
  every cell that did not split, and the full sort compares vertices only
  inside their own cell;
- the pieces of a split cell sum to the cell, so two vertices with equal
  counts into all pieces but the last have equal counts into the last too.
  Taken in index order, the pieces before it decide the order.

The searcher also reports the automorphisms it discovered.  For every
graph the discovered set generates the full automorphism group (the
pruning only discards branches equivalent under already-known
automorphisms), which the test suite cross-checks against brute force on
all graphs with up to 6 vertices.  The canonical labels keep the colour
order of the refined unit colouring: individualizing splits a cell in
place, so each vertex's label lies in its cell's range of indices there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _mask_bits, permuted_rows


def _split(rows: tuple[int, ...], cell: int, masks: list[int]) -> list[int]:
    """The pieces of cell by its vertices' neighbour counts into masks,
    compared as tuples: in ascending order, the cell itself if none differ."""
    if len(masks) == 1 and not masks[0] & (masks[0] - 1):
        # one singleton {w}: the non-neighbours of w, then its neighbours
        row = rows[masks[0].bit_length() - 1]
        return [p for p in (cell & ~row, cell & row) if p]
    groups: dict[tuple[int, ...], int] = {}
    rest = cell
    while rest:
        low = rest & -rest
        row = rows[low.bit_length() - 1]
        key = tuple([(row & m).bit_count() for m in masks])
        groups[key] = groups.get(key, 0) | low
        rest ^= low
    return [groups[k] for k in sorted(groups)]


def _refine(rows: tuple[int, ...], cells: list[int], active: list[int]) -> list[int]:
    """Refine an ordered partition until it is equitable.

    cells are vertex bitmasks, and a cell's index is its colour.  active
    lists, ascending, the indices of the cells that changed since the
    partition was last equitable, less the last piece of each cell that
    split; the unit partition's one cell is active.  Each pass splits every
    cell in place by its vertices' counts into the active cells, and the
    pieces of this pass, less the last of each split cell, are the next
    pass's active cells.
    """
    while active:
        masks = [cells[i] for i in active]
        out: list[int] = []
        active = []
        for cell in cells:
            if cell & (cell - 1):
                pieces = _split(rows, cell, masks)
                if len(pieces) > 1:
                    active.extend(range(len(out), len(out) + len(pieces) - 1))
                    out.extend(pieces)
                    continue
            out.append(cell)
        cells = out
    return cells


def _individualize(cells: list[int], i: int, v: int) -> list[int]:
    """cells with v, of cell i, split off in front of the rest of its cell.

    Of the two pieces only {v} is then active for `_refine`: the rest of
    the cell is the last piece, and its counts follow from those into {v}.
    """
    return cells[:i] + [1 << v, cells[i] ^ (1 << v)] + cells[i + 1 :]


def _join_orbits(orbits: list[int], perm: tuple[int, ...]) -> None:
    """Merge the cycles of perm into orbits, which maps each vertex to the
    minimum member of its orbit."""
    for v, pv in enumerate(perm):
        a, b = orbits[v], orbits[pv]
        if a != b:
            if b < a:
                a, b = b, a
            for w, r in enumerate(orbits):
                if r == b:
                    orbits[w] = a


def orbits_from_perms(n: int, perms: list[tuple[int, ...]]) -> list[int]:
    """Orbit representative (minimum member) per vertex under the given
    permutations' generated group."""
    orbits = list(range(n))
    for p in perms:
        _join_orbits(orbits, p)
    return orbits


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
        a = tuple([inv2[lab] for lab in p1])
        if a != identity and a not in aut_seen:
            aut_seen.add(a)
            auts.append(a)

    def leaf(cells: list[int]) -> None:
        nonlocal best_code, best_perm, first_code, first_perm
        labels = [0] * n
        for i, cell in enumerate(cells):
            labels[cell.bit_length() - 1] = i
        perm = tuple(labels)
        code = permuted_rows(rows, perm)
        if first_code is None:
            first_code, first_perm = code, perm
        elif code == first_code and perm != first_perm:
            record_aut(perm, first_perm)
        if best_code is None or code > best_code:
            best_code, best_perm = code, perm
        elif code == best_code and perm != best_perm:
            record_aut(perm, best_perm)

    def search(cells: list[int], prefix: list[int]) -> None:
        # the target is the first smallest non-singleton cell
        target, size = -1, n + 1
        for i, cell in enumerate(cells):
            s = cell.bit_count()
            if 1 < s < size:
                target, size = i, s
        if target < 0:
            leaf(cells)
            return
        cell = cells[target]
        tried: list[int] = []
        # orbits of the automorphisms found so far that fix the prefix,
        # adding before each sibling only those found since the last one
        orbits = list(range(n))
        known = 0
        for v in _mask_bits(cell):
            if tried:
                for a in auts[known:]:
                    if all(a[p] == p for p in prefix):
                        _join_orbits(orbits, a)
                known = len(auts)
                if any(orbits[u] == orbits[v] for u in tried):
                    continue
            tried.append(v)
            prefix.append(v)
            search(_refine(rows, _individualize(cells, target, v), [target]), prefix)
            prefix.pop()

    search(_refine(rows, [(1 << n) - 1], [0]), [])
    assert best_perm is not None
    return CanonicalInfo(best_perm, tuple(auts), tuple(orbits_from_perms(n, auts)))


def canonical_form(g: Graph) -> Graph:
    """Canonical representative of g's isomorphism class.

    Isomorphic inputs map to identical outputs; the output is produced by
    relabeling g, so it is isomorphic to the input.
    """
    return g.relabel(canonical_info(g).perm)


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """Orbit representative per vertex under the full automorphism group."""
    return canonical_info(g).orbits
