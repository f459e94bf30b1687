"""Constructors for the named graph families.

Everything here is deterministic: a family plus its parameters yields one
fixed labeled graph.  Constructions that exceed the dense-kernel limit and
have at least two parts are returned as ``StructuredGraph`` (multipartite
scaffold + patch edges); smaller or single-part ones come back as dense
``Graph`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import (
    DENSE_KERNEL_LIMIT,
    AnyGraph,
    Graph,
    StructuredGraph,
    VertexPartition,
    _multipartite_rows,
    consecutive_partition,
    empty_graph,
)


@dataclass(frozen=True)
class PartitionSizes:
    """Part sizes of a complete multipartite graph, normalized descending."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("at least one part size required")
        if any(s < 1 for s in self.sizes):
            raise ValueError("part sizes must be positive")
        if list(self.sizes) != sorted(self.sizes, reverse=True):
            raise ValueError("sizes must be sorted descending; use partition_sizes_of")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def num_parts(self) -> int:
        return len(self.sizes)


def partition_sizes_of(sizes: "PartitionSizes | Iterable[int]") -> PartitionSizes:
    if isinstance(sizes, PartitionSizes):
        return sizes
    return PartitionSizes(tuple(sorted((int(s) for s in sizes), reverse=True)))


@dataclass(frozen=True)
class FanSpec:
    """k cliques of order r intersecting in exactly one common vertex."""

    k: int
    r: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.r < 2:
            raise ValueError("r must be at least 2")

    @property
    def order(self) -> int:
        return (self.r - 1) * self.k + 1


def fanspec_of(spec: "FanSpec | tuple[int, int]") -> FanSpec:
    if isinstance(spec, FanSpec):
        return spec
    k, r = spec
    return FanSpec(int(k), int(r))


def balanced_sizes(n: int, p: int) -> tuple[int, ...]:
    """Part sizes of n as equal as possible over p parts, descending,
    empty parts dropped."""
    if p < 1:
        raise ValueError("p must be at least 1")
    q, rem = divmod(n, p)
    sizes = [q + 1] * rem + [q] * (p - rem)
    return tuple(s for s in sizes if s > 0)


def embed_in_part(
    sizes: Sequence[int], host: int, edges: Iterable[tuple[int, int]]
) -> AnyGraph:
    """Complete multipartite graph with parts laid out consecutively, plus
    `edges` (labeled from 0 within part `host`) added inside the host part.
    Dense up to the kernel limit or with a single part (then the graph is
    just the patch), a ``StructuredGraph`` otherwise."""
    offset = sum(sizes[:host])
    patch = [(offset + a, offset + b) for a, b in edges]
    n = sum(sizes)
    if n > DENSE_KERNEL_LIMIT and len(sizes) > 1:
        return StructuredGraph(sizes, patch)
    return Graph._from_rows_unchecked(_multipartite_rows(sizes, patch))


def complete_multipartite(
    sizes: PartitionSizes | Iterable[int],
) -> tuple[AnyGraph, VertexPartition]:
    """Complete multipartite graph with parts laid out consecutively,
    largest first.  Returns the graph together with its vertex partition."""
    ps = partition_sizes_of(sizes)
    return embed_in_part(ps.sizes, 0, ()), consecutive_partition(ps.sizes)


def turan_graph(n: int, p: int) -> AnyGraph:
    """Complete p-partite graph on n vertices with parts as equal as
    possible (parts collapse for n < p, giving the complete graph)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return empty_graph(0)
    sizes = balanced_sizes(n, p)
    g, _ = complete_multipartite(sizes)
    return g


def fan_graph(spec: FanSpec | tuple[int, int]) -> Graph:
    """k cliques of order r sharing exactly the center vertex 0."""
    spec = fanspec_of(spec)
    k, r = spec.k, spec.r
    edges = []
    for block in range(k):
        lo = 1 + block * (r - 1)
        vs = range(lo, lo + r - 1)
        for v in vs:
            edges.append((0, v))
        for i in vs:
            for j in vs:
                if i < j:
                    edges.append((i, j))
    return Graph(spec.order, edges)


def chvatal_hanson_extremal(k: int) -> Graph:
    """Canonical maximizer of edges under max degree <= k-1 and matching
    number <= k-1.

    Odd k: two disjoint complete graphs of order k.  Even k: the circulant
    on Z_{2k-1} with offsets 1..(k-2)/2 plus the near-perfect matching
    {i, i+k-1} for 0 <= i <= k-2.  The construction is self-checked against
    the required edge count, maximum degree, and matching bound.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k % 2 == 1:
        clique = (1 << k) - 1
        g = Graph._from_rows_unchecked(
            tuple(clique ^ (1 << i) for i in range(k))
            + tuple((clique << k) ^ (1 << (k + i)) for i in range(k))
        )
    else:
        m = 2 * k - 1
        full = (1 << m) - 1
        h = (k - 2) // 2
        # row 0 of the circulant: offsets 1..h and -1..-h; row i rotates it by i
        base = ((1 << (h + 1)) - 2) | (((1 << h) - 1) << (m - h))
        rows = [((base << i) | (base >> (m - i))) & full for i in range(m)]
        for i in range(k - 1):
            rows[i] |= 1 << (i + k - 1)
            rows[i + k - 1] |= 1 << i
        g = Graph._from_rows_unchecked(tuple(rows))

    from .formulas import chvatal_hanson_f
    from .patterns import matching_number

    expect = chvatal_hanson_f(k - 1, k - 1)
    if g.edge_count != expect:
        raise RuntimeError(f"construction has {g.edge_count} edges, expected {expect}")
    if k >= 2 and max(g.degrees()) != k - 1:
        raise RuntimeError("construction violates the maximum-degree bound")
    if matching_number(g) > k - 1:
        raise RuntimeError("construction violates the matching bound")
    return g


def _g0_patch(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Edges of the embedded graph relabeled onto 0..m-1 where m counts the
    non-isolated vertices (isolated vertices are indistinguishable from the
    rest of a host part, so the embedding skips them)."""
    g0 = chvatal_hanson_extremal(k)
    active = sorted(v for v in range(g0.n) if g0.degree(v) > 0)
    index = {v: i for i, v in enumerate(active)}
    return len(active), [(index[u], index[v]) for u, v in g0.edges()]


def extremal_fan_graph(
    n: int,
    spec: FanSpec | tuple[int, int],
    part_choice: int | None = None,
) -> tuple[AnyGraph, VertexPartition]:
    """Balanced complete (r-1)-partite graph with the bounded-degree,
    bounded-matching maximizer embedded into one part (a largest part by
    default).  This is the conjectured edge- and spectral-extremal graph
    for the (k, r) fan."""
    spec = fanspec_of(spec)
    if spec.r < 3:
        raise ValueError("construction requires clique order r >= 3")
    if n < spec.r - 1:
        raise ValueError(f"need at least r-1={spec.r - 1} vertices")
    sizes = balanced_sizes(n, spec.r - 1)
    host = 0 if part_choice is None else part_choice
    if not 0 <= host < len(sizes):
        raise ValueError(f"part_choice {host} out of range")
    m, patch_local = _g0_patch(spec.k)
    if sizes[host] < m:
        raise ValueError(
            f"part of size {sizes[host]} cannot host the {m}-vertex embedded graph"
        )
    return embed_in_part(sizes, host, patch_local), consecutive_partition(sizes)


def split_graph(n: int, k: int) -> AnyGraph:
    """Clique on vertices 0..k-1 joined completely to an independent set on
    the remaining n-k vertices: k singleton parts, then one part."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return embed_in_part([1] * k + ([n - k] if n - k else []), 0, ())
