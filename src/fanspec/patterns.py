"""Exact forbidden-pattern detection and partition checks.

The workhorse is one branch-and-bound vertex-disjoint clique packing over
bitmask residual sets, for every clique size s >= 1: fan detection reduces
to packing (r-1)-cliques inside a neighborhood (single vertices at r = 2),
and maximum matching is the s = 2 case of the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .families import FanSpec, fanspec_of
from .formulas import chvatal_hanson_f
from .graphs import (
    AnyGraph,
    Graph,
    VertexPartition,
    _components,
    _mask_bits,
    induced_subgraph,
)


def _cliques_through(rows: tuple[int, ...], cur: int, cand: int, need: int) -> Iterator[int]:
    """The masks cur | c for the need-cliques c inside cand, in
    lexicographic order, assuming cand lies in the common neighborhood of
    cur: with cur = {v} and cand the neighbors of v above it, the s-cliques
    through v for need = s - 1."""
    if need == 0:
        yield cur
        return
    while cand:
        if cand.bit_count() < need:
            return
        low = cand & -cand
        cand ^= low
        if need == 1:
            # the last member: yielding here saves a generator per clique
            yield cur | low
        else:
            yield from _cliques_through(
                rows, cur | low, cand & rows[low.bit_length() - 1], need - 1
            )


def _branch_vertex(
    rows: tuple[int, ...], avail: int, s: int
) -> tuple[int, int, int, Iterator[int]] | None:
    """Scan avail upward from its lowest vertex, dropping the vertices that
    lie in no s-clique of avail, to the first vertex that lies in one.

    Returns (avail less the dropped vertices, that vertex's bit, its first
    clique, an iterator over its other cliques), or None if avail holds no
    s-clique.  A dropped vertex lies in no clique of any subset of avail."""
    rest = avail
    while rest:
        low = rest & -rest
        rest ^= low
        cliques = _cliques_through(rows, low, rest & rows[low.bit_length() - 1], s - 1)
        first = next(cliques, 0)
        if first:
            return rest | low, low, first, cliques
    return None


def _greedy_pack(rows: tuple[int, ...], avail: int, s: int, limit: int) -> list[int]:
    """Greedy packing of at most limit cliques: repeatedly take the first
    s-clique through the lowest vertex that lies in one."""
    cliques: list[int] = []
    while len(cliques) < limit:
        found = _branch_vertex(rows, avail, s)
        if found is None:
            break
        avail, _, first, _ = found
        avail &= ~first
        cliques.append(first)
    return cliques


def _color_capacity_bound(rows: tuple[int, ...], avail: int, s: int) -> int:
    """Upper bound on disjoint s-cliques via a greedy independent-set cover.

    Each class is independent, so a clique meets it at most once and a
    packing of P cliques satisfies s*P <= sum_i min(c_i, P); iterating that
    inequality downward from |avail|/s gives a sound bound.  This collapses
    the dense near-multipartite neighborhoods where plain branching blows
    up (few big independent classes, a couple of tiny ones)."""
    classes: list[int] = []
    a = avail
    while a:
        low = a & -a
        rv = rows[low.bit_length() - 1]
        for i, cm in enumerate(classes):
            if not rv & cm:
                classes[i] = cm | low
                break
        else:
            classes.append(low)
        a ^= low
    sizes = [cm.bit_count() for cm in classes]
    p = avail.bit_count() // s
    while True:
        cap = sum(min(c, p) for c in sizes) // s
        if cap >= p:
            return p
        p = cap


def _packing_search(
    rows: tuple[int, ...], avail: int, s: int, limit: int
) -> tuple[int, list[int] | None]:
    """Exact max vertex-disjoint s-clique packing, early-exiting at limit.

    Returns (min(true max, limit), packing masks if the limit was reached).
    One engine for every s >= 1.  Branches on the lowest-index vertex lying
    in any remaining s-clique: either one of the cliques through it joins
    the packing, or the vertex is excluded.  The greedy lower bound takes
    the first clique through that same vertex, found by the same scan,
    ``_branch_vertex``.  Pruned by floor(|avail|/s); where that fails, by
    the component bound, the sum of floor(|C|/s) over the connected
    components C of avail (a clique lies inside one component); by the
    independent-class capacity bound; and by the greedy packing.  The floor
    goes first because it is free and the component walk is not: on a
    dense graph where the floor prunes most nodes, walking every node's
    components made the search twenty times slower.
    """
    if limit <= 0:
        return 0, []
    best = 0
    best_cliques: list[int] | None = None
    stack: list[int] = []

    def search(avail: int, count: int) -> None:
        nonlocal best, best_cliques
        if count > best:
            best = count
            if count >= limit:
                best_cliques = stack.copy()
        if best >= limit:
            return
        if count + avail.bit_count() // s <= best:
            return
        if count + sum(c.bit_count() // s for c in _components(rows, avail)) <= best:
            return
        if count + _color_capacity_bound(rows, avail, s) <= best:
            return
        greedy = _greedy_pack(rows, avail, s, limit - count)
        if count + len(greedy) > best:
            best = count + len(greedy)
            if best >= limit:
                best_cliques = stack + greedy
                return
        found = _branch_vertex(rows, avail, s)
        if found is None:
            return
        avail, bit, first, rest = found
        for cl in chain((first,), rest):
            stack.append(cl)
            search(avail & ~cl, count + 1)
            stack.pop()
            if best >= limit:
                return
        search(avail & ~bit, count)

    search(avail, 0)
    return min(best, limit), best_cliques


def clique_packing_number(g: Graph, s: int, limit: int) -> int:
    """Maximum number of vertex-disjoint s-cliques in g, capped at limit
    (the search exits early once limit disjoint cliques are found)."""
    if s < 1:
        raise ValueError("clique size must be at least 1")
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    value, _ = _packing_search(g.rows, (1 << g.n) - 1, s, limit)
    return value


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (disjoint 2-clique packing, uncapped)."""
    return clique_packing_number(g, 2, g.n)


@dataclass(frozen=True)
class FanWitness:
    """A fan copy: k disjoint (r-1)-cliques inside the center's neighborhood."""

    center: int
    cliques: tuple[frozenset[int], ...]

    def validate(self, g: Graph) -> None:
        seen: set[int] = set()
        for clique in self.cliques:
            if self.center in clique:
                raise ValueError("center may not appear inside a clique")
            if clique & seen:
                raise ValueError("cliques are not disjoint")
            seen |= clique
            vs = sorted(clique) + [self.center]
            for i, u in enumerate(vs):
                for w in vs[i + 1 :]:
                    if not g.has_edge(u, w):
                        raise ValueError(f"missing edge ({u},{w}) in witness")


def contains_fan(g: AnyGraph, spec: FanSpec | tuple[int, int]) -> FanWitness | None:
    """Witness for k cliques of order r meeting in one vertex, or None.

    The search runs on the graph's twin reduction, ``g.twin_reduction(k)``,
    which keeps the first k members of each class of false twins.  A fan
    has independence number k, so each of its k cliques takes at most one
    member of a class, and a fan with a given center exists in ``g``
    exactly when it exists in the reduction.  A ``StructuredGraph`` is
    the blow-up of its classes and reduces with no pass over its
    vertices; a dense ``Graph`` finds them by grouping equal rows, and one
    in which no class has more than k members is searched as it is.

    Candidate centers are scanned in decreasing order of their degree in
    ``g`` (only vertices of degree >= k(r-1) can host the intersection),
    ties by label; each center is tested by packing (r-1)-cliques inside
    its neighborhood with early exit at k.  Twins have equal degrees, so
    the first twin in that order is always kept and the scan meets the
    same first center as on ``g``.  The witness is mapped back to the
    labels of ``g``.
    """
    spec = fanspec_of(spec)
    small, labels, degs = g.twin_reduction(spec.k)
    w = _scan_centers(small, degs, spec.k, spec.r)
    if w is None or small is g:
        return w
    cliques = tuple(frozenset(labels[u] for u in c) for c in w.cliques)
    return FanWitness(labels[w.center], cliques)


def _scan_centers(g: Graph, degs: Sequence[int], k: int, r: int) -> FanWitness | None:
    """The center scan of ``contains_fan`` on a dense graph, ordered by
    (-degs[v], v); `degs` may exceed the degrees in `g` (the degrees in the
    graph `g` was reduced from)."""
    for v in sorted(range(g.n), key=lambda u: (-degs[u], u)):
        if degs[v] < k * (r - 1):
            break
        masks = _fan_at(g.rows, v, k, r)
        if masks is not None:
            return FanWitness(v, tuple(frozenset(_mask_bits(m)) for m in masks))
    return None


def _fan_at(rows: tuple[int, ...], v: int, k: int, r: int) -> list[int] | None:
    """The cliques of a fan centred at v, as k disjoint (r-1)-clique masks
    inside v's neighborhood, or None if v centres no fan."""
    need = k * (r - 1)
    nbrs = rows[v]
    # a vertex of an (r-1)-clique inside the neighborhood has r - 2
    # neighbors there, so the packing lives on the vertices that do
    active = 0
    rest = nbrs
    while rest:
        low = rest & -rest
        if (rows[low.bit_length() - 1] & nbrs).bit_count() >= r - 2:
            active |= low
        rest ^= low
    if active.bit_count() < need:
        return None
    value, masks = _packing_search(rows, active, r - 1, k)
    if value < k:
        return None
    assert masks is not None
    return masks[:k]


def fan_free_through_last(g: Graph, spec: FanSpec) -> bool:
    """Whether g is F_{k,r}-free, given that g less its last vertex w is.
    Any fan of g then uses w, as a clique vertex or as the centre, so its
    centre lies in N[w]: only those centres are tested, each by the packing
    test of ``contains_fan``."""
    rows = g.rows
    w = g.n - 1
    k, r = spec.k, spec.r
    need = k * (r - 1)
    return not any(
        rows[v].bit_count() >= need and _fan_at(rows, v, k, r) is not None
        for v in _mask_bits(rows[w] | 1 << w)
    )


@dataclass(frozen=True)
class MaxCutResult:
    partition: VertexPartition
    crossing_edges: int
    exact: bool


EXACT_CUT_LIMIT = 16


def _local_max_cut(g: Graph, p: int) -> tuple[list[int], int]:
    """Deterministic greedy assignment plus single-vertex improvement to a
    local optimum (no vertex can move parts and gain crossing edges)."""
    n = g.n
    assign: list[int] = []
    for v in range(n):
        counts = [0] * p
        for u in _mask_bits(g.rows[v] & ((1 << v) - 1)):
            counts[assign[u]] += 1
        assign.append(min(range(p), key=lambda d: (counts[d], d)))
    improved = True
    while improved:
        improved = False
        for v in range(n):
            counts = [0] * p
            for u in _mask_bits(g.rows[v]):
                counts[assign[u]] += 1
            d = min(range(p), key=lambda q: (counts[q], q))
            if counts[d] < counts[assign[v]]:
                assign[v] = d
                improved = True
    internal = sum(
        1 for u, v in g.edges() if assign[u] == assign[v]
    )
    return assign, g.edge_count - internal


def _exact_max_cut(g: Graph, p: int, seed: list[int], seed_cut: int) -> tuple[list[int], int]:
    n = g.n
    low_nbrs = [list(_mask_bits(g.rows[v] & ((1 << v) - 1))) for v in range(n)]
    pending = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        pending[v] = pending[v + 1] + len(low_nbrs[v])
    best = seed_cut
    best_assign = list(seed)
    assign = [0] * n

    def rec(i: int, cut: int, maxused: int) -> None:
        nonlocal best, best_assign
        if i == n:
            if cut > best:
                best = cut
                best_assign = assign.copy()
            return
        if cut + pending[i] <= best:
            return
        nbrs = low_nbrs[i]
        for part in range(min(maxused + 1, p - 1) + 1):
            gain = sum(1 for u in nbrs if assign[u] != part)
            assign[i] = part
            rec(i + 1, cut + gain, max(maxused, part))

    rec(0, 0, -1)
    return best_assign, best


def max_cut_partition(g: Graph, p: int) -> MaxCutResult:
    """Partition into p parts maximizing crossing edges: exhaustive (with
    part-relabeling symmetry broken by restricted growth) up to 16 vertices,
    a deterministic single-vertex-move local optimum beyond."""
    if p < 2:
        raise ValueError("need at least 2 parts")
    assign, cut = _local_max_cut(g, p)
    exact = g.n <= EXACT_CUT_LIMIT
    if exact:
        assign, cut = _exact_max_cut(g, p, assign, cut)
    parts = VertexPartition.of(
        [frozenset(v for v in range(g.n) if assign[v] == i) for i in range(p)]
    )
    return MaxCutResult(partition=parts, crossing_edges=cut, exact=exact)


@dataclass(frozen=True)
class PartitionInequalityReport:
    """Both hypotheses and the edge-defect inequality of the partition
    bound, evaluated on a concrete partition."""

    hyp1: bool
    hyp2: bool
    lhs: int
    rhs: int
    holds: bool
    fan_free: bool


def check_partition_inequality(
    g: Graph, parts: VertexPartition, k: int
) -> PartitionInequalityReport:
    """Check, for a partition V1..V_{p}: the matching-sum and degree
    hypotheses, and whether

        sum_i e(G[Vi]) - (sum_{i<j} |Vi||Vj| - e_cross(G)) <= f(k-1, k-1).

    Also reports whether g is fan-free for r = p + 1 (the remaining
    hypothesis of the bound)."""
    parts.validate(g.n)
    masks = parts.part_masks()
    p = len(masks)
    subs = [induced_subgraph(g, _mask_bits(m)) for m in masks]
    e_in = [s.edge_count for s in subs]
    betas = [matching_number(s) for s in subs]
    deltas = [max(s.degrees(), default=0) for s in subs]
    sizes = [len(pt) for pt in parts.parts]
    cross_pairs = sum(
        sizes[i] * sizes[j] for i in range(p) for j in range(i + 1, p)
    )
    e_cross = g.edge_count - sum(e_in)
    lhs = sum(e_in) - (cross_pairs - e_cross)
    rhs = chvatal_hanson_f(k - 1, k - 1)

    total_beta = sum(betas)
    hyp1 = all(
        total_beta - betas[i] <= k - 1 and deltas[i] <= k - 1 for i in range(p)
    )

    hyp2 = True
    for i in range(p):
        for v in _mask_bits(masks[i]):
            inner = (g.rows[v] & masks[i]).bit_count()
            acc = inner
            for j in range(p):
                if j == i or acc > k - 1:
                    continue
                acc += matching_number(induced_subgraph(g, _mask_bits(g.rows[v] & masks[j])))
            if acc > k - 1:
                hyp2 = False
                break
        if not hyp2:
            break

    fan_free = contains_fan(g, (k, p + 1)) is None
    return PartitionInequalityReport(
        hyp1=hyp1,
        hyp2=hyp2,
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        fan_free=fan_free,
    )
