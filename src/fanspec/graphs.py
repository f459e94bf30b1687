"""Immutable simple graphs.

Two representations live here:

* ``Graph`` -- dense adjacency stored as one Python-int bitmask per vertex.
  Bit-parallel neighborhood intersection is what makes the combinatorial
  kernels (clique packing, subgraph detection, canonical labeling) fast at
  desk scale.  The dense kernels are tuned for n <= 64 (a documented soft
  limit); the representation itself works for any n.

* ``StructuredGraph`` -- a complete multipartite scaffold plus an explicit
  set of intra-part "patch" edges, with at least two nonempty parts (so it
  is connected).  Constructions on hundreds to millions of vertices
  (balanced multipartite hosts with a small graph embedded in one part) use
  this form; fan detection and the spectral solves run on its twin cells
  (``StructuredGraph.twin_cells``), whose number does not grow with n.

Both types give ``twin_reduction(k)``, the dense graph induced on the first
k members of each class of false twins, which is what fan detection
searches.

Vertices are always 0-indexed integers.  All operations are pure; instances
are immutable and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

DENSE_KERNEL_LIMIT = 64


class Graph6Error(ValueError):
    """Raised for malformed graph6 text."""


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_image(mask: int, perm: Sequence[int]) -> int:
    """The vertex set `mask` after relabeling with perm[old] = new."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _edge_count(rows: Sequence[int]) -> int:
    """Edge count of a graph given by its adjacency bitmask rows."""
    return sum(row.bit_count() for row in rows) // 2


def _multipartite_rows(
    sizes: Sequence[int], patch: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """Bitmask rows of the complete multipartite graph with parts of the
    given sizes laid out consecutively, plus the `patch` edges."""
    full = (1 << sum(sizes)) - 1
    rows = []
    start = 0
    for s in sizes:
        rows.extend([full ^ (((1 << s) - 1) << start)] * s)
        start += s
    for a, b in patch:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return tuple(rows)


class Graph:
    """Undirected simple graph over vertices 0..n-1 with bitmask rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        g = object.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        full = (1 << g.n) - 1
        for u, row in enumerate(g.rows):
            if row >> g.n:
                raise ValueError("adjacency bits beyond vertex range")
            if row & (1 << u):
                raise ValueError(f"loop at vertex {u}")
            for v in _mask_bits(row & full):
                if not g.rows[v] >> u & 1:
                    raise ValueError("adjacency relation not symmetric")
        return g

    @classmethod
    def _from_rows_unchecked(cls, rows: tuple[int, ...]) -> "Graph":
        g = object.__new__(cls)
        g.n = len(rows)
        g.rows = rows
        return g

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, u: int) -> list[int]:
        return list(_mask_bits(self.rows[u]))

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    @property
    def edge_count(self) -> int:
        return _edge_count(self.rows)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.rows):
            for v in _mask_bits(row >> (u + 1) << (u + 1)):
                yield (u, v)

    def add_vertex(self, nbr_mask: int) -> "Graph":
        """New graph with vertex n appended, adjacent to the mask's bits."""
        if nbr_mask >> self.n:
            raise ValueError("neighbor mask out of range")
        rows = [row | ((nbr_mask >> u & 1) << self.n) for u, row in enumerate(self.rows)]
        rows.append(nbr_mask)
        return Graph._from_rows_unchecked(tuple(rows))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Relabel with perm[old] = new."""
        rows = [0] * self.n
        for u, row in enumerate(self.rows):
            new_row = 0
            for v in _mask_bits(row):
                new_row |= 1 << perm[v]
            rows[perm[u]] = new_row
        return Graph._from_rows_unchecked(tuple(rows))

    def twin_reduction(self, k: int) -> tuple[Graph, Sequence[int], list[int]]:
        """The induced subgraph on the first k members, in label order, of
        each class of false twins (vertices with the same neighbourhood,
        pairwise non-adjacent), relabeled in ascending order; returned with
        each kept vertex's label and degree in this graph.  Twins are
        interchangeable, so a subgraph with independence number at most k
        embeds here exactly when it embeds in the reduction.

        The classes are found in one pass, by grouping equal rows; vertices
        with equal rows are non-adjacent, since no row holds its own
        vertex.  When no class has more than k members, the reduction is
        the graph itself, with labels ``range(n)``, and nothing is copied.
        """
        degs = self.degrees()
        # a class of more than k members repeats its row at least k times
        if len(set(self.rows)) + k <= self.n:
            classes: dict[int, list[int]] = {}
            for v, row in enumerate(self.rows):
                classes.setdefault(row, []).append(v)
            kept = sorted(v for c in classes.values() for v in c[:k])
            if len(kept) < self.n:
                return induced_subgraph(self, kept), kept, [degs[v] for v in kept]
        return self, range(self.n), degs

    def components(self) -> list[int]:
        """Vertex masks of connected components, by lowest contained vertex."""
        seen = 0
        out = []
        full = (1 << self.n) - 1
        while seen != full:
            start = ((~seen) & full) & -((~seen) & full)
            comp = start
            frontier = start
            while frontier:
                nxt = 0
                for v in _mask_bits(frontier):
                    nxt |= self.rows[v]
                frontier = nxt & ~comp
                comp |= frontier
            out.append(comp)
            seen |= comp
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._from_rows_unchecked(tuple(full ^ (1 << u) for u in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets.

    The combined order must stay within the dense-kernel limit; large joins
    are built structurally instead (see StructuredGraph).
    """
    n = g.n + h.n
    if n > DENSE_KERNEL_LIMIT:
        raise ValueError(
            f"join would create {n} > {DENSE_KERNEL_LIMIT} vertices; "
            "use a structured construction instead"
        )
    h_all = ((1 << h.n) - 1) << g.n
    g_all = (1 << g.n) - 1
    rows = [row | h_all for row in g.rows]
    rows += [(row << g.n) | g_all for row in h.rows]
    return Graph._from_rows_unchecked(tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, relabeled 0..k-1 in ascending order."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("vertex out of range")
    index = {v: i for i, v in enumerate(vs)}
    keep = 0
    for v in vs:
        keep |= 1 << v
    rows = []
    for v in vs:
        row = 0
        rest = g.rows[v] & keep
        while rest:
            low = rest & -rest
            row |= 1 << index[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
    return Graph._from_rows_unchecked(tuple(rows))


def induced_subgraph_mask(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """Induced subgraph on a vertex bitmask plus the new->old vertex map."""
    vs = list(_mask_bits(mask))
    sub = induced_subgraph(g, vs)
    return sub, vs


@dataclass(frozen=True)
class VertexPartition:
    """Ordered partition of the vertex set into disjoint covering parts.

    A part is a frozenset, or a ``range`` for a run of consecutive vertices
    (what ``consecutive_partition`` builds, so a million-vertex partition
    holds no per-vertex sets); both support ``len``, ``in`` and iteration.
    Equality compares the parts as stored, so a range part and a frozenset
    of the same vertices are unequal; compare ``part_masks()`` to compare
    vertex sets."""

    parts: tuple[frozenset[int] | range, ...]

    @classmethod
    def of(cls, parts: Iterable[Iterable[int]]) -> "VertexPartition":
        return cls(tuple(frozenset(p) for p in parts))

    def validate(self, n: int) -> None:
        seen: set[int] = set()
        for part in self.parts:
            if not seen.isdisjoint(part):
                raise ValueError("partition parts overlap")
            seen.update(part)
        if seen != set(range(n)):
            raise ValueError("partition does not cover the vertex set")

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    def part_masks(self) -> list[int]:
        out = []
        for part in self.parts:
            m = 0
            for v in part:
                m |= 1 << v
            out.append(m)
        return out


def consecutive_partition(sizes: Sequence[int]) -> VertexPartition:
    """Partition laying out parts as consecutive vertex ranges."""
    parts = []
    start = 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    return VertexPartition(tuple(parts))


class TwinCells(NamedTuple):
    """The twin cells of a ``StructuredGraph``: each patch vertex alone, and
    the untouched rest of each part (the vertices no patch edge meets) as
    one cell.  Vertices of one rest cell are pairwise non-adjacent with the
    same neighbourhood, so the cells form an equitable partition.

    Cells are ordered: first the nonempty rest cells by size, ties by part,
    then one cell per patch vertex in ascending order (the last
    ``len(patch_vertices)`` cells).  Ordering rest cells by size means
    graphs that differ only in which of several equal parts holds the patch
    list the same cell sizes in the same order.  ``sizes`` and ``parts`` give each
    cell's vertex count and part."""

    sizes: tuple[int, ...]
    parts: tuple[int, ...]
    patch_vertices: tuple[int, ...]


class StructuredGraph:
    """Complete multipartite graph plus explicit intra-part patch edges.

    Vertices are laid out consecutively by part: part i occupies the range
    [offset_i, offset_i + sizes[i]).  Two vertices in different parts are
    always adjacent; vertices in the same part are adjacent exactly when
    listed in ``patch``.  This is the large-n representation for the
    extremal constructions (multipartite host with a small embedded graph).

    At least two parts must be nonempty: with one, there are no cross edges
    and the graph is just its patch, a dense ``Graph``.  So a
    ``StructuredGraph`` is always connected.

    The vertices of a part that no patch edge meets are false twins, so
    the graph has at most #parts + #patch vertices twin cells
    (``twin_cells``).  ``twin_reduction`` reads its classes off them, as
    a dense ``Graph`` reads its own off equal rows, so
    ``patterns.contains_fan`` searches a dense graph with at most k
    vertices of each cell; ``spectral`` iterates on the cell values and
    expands the vector to n entries once.  Neither densifies.
    ``to_graph`` and ``degrees`` are O(n^2 / 64) and O(n) conveniences
    that no solver calls.
    """

    __slots__ = ("sizes", "patch", "n", "_offsets")

    def __init__(self, sizes: Sequence[int], patch: Iterable[tuple[int, int]] = ()):
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 0 for s in sizes):
            raise ValueError("part sizes must be nonnegative and nonempty")
        if sum(1 for s in sizes if s > 0) < 2:
            raise ValueError("a structured graph needs at least two nonempty parts")
        self.sizes = sizes
        self.n = sum(sizes)
        offsets = []
        start = 0
        for s in sizes:
            offsets.append(start)
            start += s
        self._offsets = tuple(offsets)
        norm = set()
        for u, v in patch:
            if u == v:
                raise ValueError("loop in patch")
            a, b = (u, v) if u < v else (v, u)
            if not (0 <= a and b < self.n):
                raise ValueError("patch vertex out of range")
            if self.part_of(a) != self.part_of(b):
                raise ValueError("patch edges must stay inside one part")
            norm.add((a, b))
        self.patch = frozenset(norm)

    def part_of(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError("vertex out of range")
        for i in range(len(self.sizes) - 1, -1, -1):
            if v >= self._offsets[i]:
                return i
        raise ValueError("vertex out of range")

    def part_range(self, i: int) -> range:
        return range(self._offsets[i], self._offsets[i] + self.sizes[i])

    def edge_count(self) -> int:
        cross = (self.n * self.n - sum(s * s for s in self.sizes)) // 2
        return cross + len(self.patch)

    def degree(self, v: int) -> int:
        base = self.n - self.sizes[self.part_of(v)]
        return base + sum(1 for a, b in self.patch if a == v or b == v)

    def degrees(self) -> list[int]:
        out = [self.n - self.sizes[self.part_of(v)] for v in range(self.n)]
        for a, b in self.patch:
            out[a] += 1
            out[b] += 1
        return out

    def twin_cells(self) -> TwinCells:
        """The twin cells (see ``TwinCells``): at most #parts + #patch
        vertices of them, found without a pass over the n vertices."""
        patch_vertices = tuple(sorted({v for e in self.patch for v in e}))
        patch_parts = tuple(self.part_of(v) for v in patch_vertices)
        rest = list(self.sizes)
        for i in patch_parts:
            rest[i] -= 1
        nonempty = tuple(sorted((i for i, s in enumerate(rest) if s), key=rest.__getitem__))
        return TwinCells(
            sizes=tuple(rest[i] for i in nonempty) + (1,) * len(patch_vertices),
            parts=nonempty + patch_parts,
            patch_vertices=patch_vertices,
        )

    def twin_reduction(self, k: int) -> tuple[Graph, list[int], list[int]]:
        """As ``Graph.twin_reduction``, with the classes read off
        ``twin_cells``: the dense graph induced on the patch vertices plus
        the first min(rest, k) untouched vertices of each part, at most
        #patch + k * #parts vertices whatever n is, found with no pass over
        the n vertices."""
        cells = self.twin_cells()
        npatch = len(cells.patch_vertices)
        kept: list[list[int]] = [[] for _ in self.sizes]
        for v, i in zip(cells.patch_vertices, cells.parts[len(cells.parts) - npatch :]):
            kept[i].append(v)
        touched = set(cells.patch_vertices)
        for i, part in enumerate(kept):
            part.extend(islice((v for v in self.part_range(i) if v not in touched), k))
            part.sort()
        labels = [v for part in kept for v in part]
        index = {v: j for j, v in enumerate(labels)}
        patch = [(index[a], index[b]) for a, b in self.patch]
        degs = [self.n - size for part, size in zip(kept, self.sizes) for _ in part]
        for a, b in patch:
            degs[a] += 1
            degs[b] += 1
        rows = _multipartite_rows([len(part) for part in kept], patch)
        return Graph._from_rows_unchecked(rows), labels, degs

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if self.part_of(u) != self.part_of(v):
            return True
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self.patch

    def is_connected(self) -> bool:
        return True  # two nonempty parts, joined completely

    def to_graph(self) -> Graph:
        """Densify.  Cost is O(n^2 / 64) words; fine up to a few thousand."""
        full = (1 << self.n) - 1
        part_masks = []
        for i, s in enumerate(self.sizes):
            m = ((1 << s) - 1) << self._offsets[i]
            part_masks.append(m)
        rows = []
        for v in range(self.n):
            rows.append(full ^ part_masks[self.part_of(v)])
        for a, b in self.patch:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return Graph._from_rows_unchecked(tuple(rows))

    def __repr__(self) -> str:
        return f"StructuredGraph(sizes={self.sizes}, patch_edges={len(self.patch)})"


AnyGraph = Graph | StructuredGraph


# --- graph6 codec (short form, bit-exact) ---------------------------------


def to_graph6(g: Graph) -> str:
    """Encode in graph6 short form: header byte n+63, then the upper
    triangle in column-major order (x01, x02, x12, x03, ...) packed into
    6-bit groups, each offset by 63, zero-padded."""
    if g.n > 62:
        raise Graph6Error(f"graph6 short form supports at most 62 vertices, not {g.n}")
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 short-form string (n <= 62)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126")
    n = ord(s[0]) - 63
    if n > 62:
        raise Graph6Error("long-form graph6 header (n > 62) not supported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = s[1:]
    if len(payload) < need:
        raise Graph6Error("truncated graph6 bit payload")
    if len(payload) > need:
        raise Graph6Error("excess characters after graph6 payload")
    bits = 0
    for ch in payload:
        bits = (bits << 6) | (ord(ch) - 63)
    pad = 6 * need - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    bits >>= pad
    rows = [0] * n
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos -= 1
    return Graph._from_rows_unchecked(tuple(rows))
