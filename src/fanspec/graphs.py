"""Immutable simple graphs.

Two types live here:

* ``Graph`` -- dense adjacency stored as one Python-int bitmask per vertex.
  Bit-parallel neighborhood intersection is what makes the combinatorial
  kernels (clique packing, subgraph detection, canonical labeling) fast at
  desk scale.  The dense kernels are tuned for n <= 64 (a documented soft
  limit); the representation itself works for any n.

* ``StructuredGraph`` -- a blow-up of a small cell graph: each cell is an
  independent set of ``sizes[c]`` vertices, and two cells are joined
  completely or not at all.  It is the large-graph type.  Constructions on
  hundreds to millions of vertices (balanced multipartite hosts with a
  small graph embedded in one part) are built as one by
  ``StructuredGraph(sizes, patch)``, and their cells do not grow in number
  with n.

The cells of a graph are its classes of false twins, and
``Graph.twin_cells`` groups equal rows into that same blow-up.  Fan
detection searches ``twin_reduction(k)``, the dense graph induced on the
first k members of each cell, and the spectral solves iterate on the cell
values.

Vertices are always 0-indexed integers.  All operations are pure; instances
are immutable and safe to share across workers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence

DENSE_KERNEL_LIMIT = 64


class Graph6Error(ValueError):
    """Raised for malformed graph6 text."""


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_image(mask: int, perm: Sequence[int] | dict[int, int]) -> int:
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


def _components(rows: Sequence[int], mask: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph induced on
    `mask`, by lowest contained vertex."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            for v in _mask_bits(frontier):
                nxt |= rows[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


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
            rows[perm[u]] = _mask_image(row, perm)
        return Graph._from_rows_unchecked(tuple(rows))

    def twin_cells(self) -> StructuredGraph:
        """This graph as the blow-up of its classes of false twins (see
        ``StructuredGraph``), found in one pass by grouping equal rows;
        vertices with equal rows are non-adjacent, since no row holds its
        own vertex."""
        classes: dict[int, list[int]] = {}
        for v, row in enumerate(self.rows):
            classes.setdefault(row, []).append(v)
        cells = sorted(classes.values(), key=lambda c: (len(c), c[0]))
        cell_of = [0] * self.n
        for c, members in enumerate(cells):
            for v in members:
                cell_of[v] = c
        starts = [v for v in range(self.n) if not v or cell_of[v] != cell_of[v - 1]]
        return StructuredGraph._from_cells(
            tuple(_mask_image(self.rows[c[0]], cell_of) for c in cells),
            tuple(map(len, cells)),
            tuple(zip(starts, starts[1:] + [self.n], [cell_of[v] for v in starts])),
        )

    def twin_reduction(self, k: int) -> tuple[Graph, Sequence[int], list[int]]:
        """``StructuredGraph.twin_reduction(k)`` of ``twin_cells``, or, when
        no class of false twins has more than k members, the graph itself
        with labels ``range(n)`` and its degrees, with nothing copied."""
        # a class of more than k members repeats its row at least k times
        if len(set(self.rows)) + k <= self.n:
            cells = self.twin_cells()
            if cells.sizes[-1] > k:
                return cells.twin_reduction(k)
        return self, range(self.n), self.degrees()

    def components(self) -> list[int]:
        """Vertex masks of connected components, by lowest contained vertex."""
        return _components(self.rows, (1 << self.n) - 1)

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
    return Graph._from_rows_unchecked(tuple(_mask_image(g.rows[v] & keep, index) for v in vs))


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


class StructuredGraph:
    """A blow-up of a small cell graph: each cell is an independent set of
    ``sizes[c]`` vertices, and two vertices of different cells are adjacent
    exactly when their cells are.  The cells are classes of false twins
    and form an equitable partition (Godsil & Royle, *Algebraic Graph
    Theory* 9.3): a vertex of cell i has ``sizes[j]`` neighbours in cell j
    when bit j of ``rows[i]`` is set, and none otherwise.

    ``rows`` is the cell graph as bitmasks, ``sizes`` the cells' vertex
    counts, and ``runs`` the (start, stop, cell) runs of consecutive
    vertices, in vertex order.  Cells are ordered by size, ties by lowest
    vertex, so graphs that differ only in which of several equal parts
    holds a patch list the same cells in the same order.

    ``StructuredGraph(sizes, patch)`` is the complete multipartite graph
    with parts of the given sizes laid out consecutively, plus the
    ``patch`` edges inside parts: each patch vertex is a cell alone and the
    untouched rest of each part one cell, at most #parts + #patch vertices
    cells whatever n is.  At least two parts must be nonempty: with one,
    there are no cross edges and the graph is just its patch, a dense
    ``Graph``.  ``Graph.twin_cells`` gives any dense graph in this form.

    Fan detection and the spectral solves read only the cells, so neither
    densifies.  ``to_graph`` and ``degrees`` are O(n^2 / 64) and O(n)
    conveniences that no solver calls.
    """

    __slots__ = ("rows", "sizes", "runs", "n")

    def __init__(self, sizes: Sequence[int], patch: Iterable[tuple[int, int]] = ()):
        parts = tuple(int(s) for s in sizes)
        if not parts or any(s < 0 for s in parts):
            raise ValueError("part sizes must be nonnegative and nonempty")
        if sum(1 for s in parts if s > 0) < 2:
            raise ValueError("a structured graph needs at least two nonempty parts")
        n = sum(parts)
        offsets = list(accumulate(parts[:-1], initial=0))

        def part_of(v: int) -> int:
            return bisect_right(offsets, v) - 1

        edges = set()
        for u, v in patch:
            if u == v:
                raise ValueError("loop in patch")
            a, b = (u, v) if u < v else (v, u)
            if not (0 <= a and b < n):
                raise ValueError("patch vertex out of range")
            if part_of(a) != part_of(b):
                raise ValueError("patch edges must stay inside one part")
            edges.add((a, b))
        touched = sorted({v for e in edges for v in e})
        # size and lowest vertex of the untouched rest of each part
        rest, low = list(parts), offsets[:]
        for v in touched:
            i = part_of(v)
            rest[i] -= 1
            low[i] += low[i] == v
        # (size, lowest vertex, part, key): a patch vertex is keyed by
        # itself, the rest of part i by ~i
        cells = sorted(
            [(1, v, part_of(v), v) for v in touched]
            + [(s, low[i], i, ~i) for i, s in enumerate(rest) if s]
        )
        index = {key: c for c, (*_, key) in enumerate(cells)}
        part_masks = [0] * len(parts)
        for c, (_, _, i, _) in enumerate(cells):
            part_masks[i] |= 1 << c
        full = (1 << len(cells)) - 1
        rows = [full ^ part_masks[i] for _, _, i, _ in cells]
        for a, b in edges:
            rows[index[a]] |= 1 << index[b]
            rows[index[b]] |= 1 << index[a]
        cuts = sorted({n, *offsets, *touched, *(v + 1 for v in touched)})
        self.rows = tuple(rows)
        self.sizes = tuple(size for size, *_ in cells)
        self.runs = tuple(
            (a, b, index[a if a in index else ~part_of(a)]) for a, b in zip(cuts, cuts[1:])
        )
        self.n = n

    @classmethod
    def _from_cells(
        cls, rows: tuple[int, ...], sizes: tuple[int, ...], runs: tuple[tuple[int, int, int], ...]
    ) -> StructuredGraph:
        g = object.__new__(cls)
        g.rows, g.sizes, g.runs, g.n = rows, sizes, runs, sum(sizes)
        return g

    def __repr__(self) -> str:
        return f"StructuredGraph(n={self.n}, cells={len(self.sizes)})"

    def _cell_of(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError("vertex out of range")
        return self.runs[bisect_right(self.runs, v, key=itemgetter(0)) - 1][2]

    def _cell_degrees(self) -> list[int]:
        # few distinct sizes (thousands of equal Turán parts have one or
        # two), so count each row's neighbour cells of each size at once
        by_size: dict[int, int] = {}  # size -> mask of the cells of that size
        for c, s in enumerate(self.sizes):
            by_size[s] = by_size.get(s, 0) | 1 << c
        return [sum(s * (row & m).bit_count() for s, m in by_size.items()) for row in self.rows]

    def edge_count(self) -> int:
        return sum(map(mul, self.sizes, self._cell_degrees())) // 2

    def degree(self, v: int) -> int:
        return self._cell_degrees()[self._cell_of(v)]

    def degrees(self) -> list[int]:
        cell_degrees = self._cell_degrees()
        return [cell_degrees[c] for start, stop, c in self.runs for _ in range(start, stop)]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[self._cell_of(u)] >> self._cell_of(v) & 1)

    def is_connected(self) -> bool:
        # a cell of two or more vertices is connected only through another
        return self.n <= 1 or (
            len(self.rows) > 1 and len(_components(self.rows, (1 << len(self.rows)) - 1)) == 1
        )

    def twin_cells(self) -> StructuredGraph:
        return self

    def twin_reduction(self, k: int) -> tuple[Graph, list[int], list[int]]:
        """The dense graph induced on the first k members of each cell,
        relabeled in ascending order, with each kept vertex's label and
        degree in the whole graph: at most k * #cells vertices whatever n
        is.  Twins are interchangeable, so a subgraph with independence
        number at most k embeds in the graph exactly when it embeds here."""
        quota = [min(k, s) for s in self.sizes]
        labels: list[int] = []
        kept_cells: list[int] = []
        members = [0] * len(self.sizes)
        for start, stop, c in self.runs:
            take = min(stop - start, quota[c])
            quota[c] -= take
            for v in range(start, start + take):
                members[c] |= 1 << len(labels)
                labels.append(v)
                kept_cells.append(c)
        cell_rows = [0] * len(self.rows)
        cell_degrees = [0] * len(self.rows)
        for c, row in enumerate(self.rows):
            for d in _mask_bits(row):
                cell_rows[c] |= members[d]
                cell_degrees[c] += self.sizes[d]
        rows = tuple(cell_rows[c] for c in kept_cells)
        return Graph._from_rows_unchecked(rows), labels, [cell_degrees[c] for c in kept_cells]

    def to_graph(self) -> Graph:
        """Densify: the twin reduction that keeps every vertex, so no label
        moves.  Cost is O(n^2 / 64) words; fine up to a few thousand."""
        return self.twin_reduction(self.n)[0]


AnyGraph = Graph | StructuredGraph


# --- graph6 codec (bit-exact) -----------------------------------------------


def to_graph6(g: Graph) -> str:
    """Encode in graph6: the size (byte n+63 up to 62 vertices, else byte
    126 and n in three 6-bit groups, up to 258,047), then the upper triangle
    in column-major order (x01, x02, x12, x03, ...) packed into 6-bit
    groups, each offset by 63, zero-padded.  The groups are packed column
    by column, so no more than one column's bits are held as text."""
    if not isinstance(g, Graph):
        raise Graph6Error(
            f"graph6 output needs a dense graph; this one is structured "
            f"({g.n} vertices, dense only up to {DENSE_KERNEL_LIMIT} or with one part)"
        )
    n = g.n
    if n <= 62:
        header = chr(n + 63)
    elif n <= 258047:  # the largest n whose first size group stays below 63
        header = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    else:
        raise Graph6Error(f"graph6 here supports at most 258047 vertices, not {n}")
    out = bytearray(header, "ascii")
    bits = ""  # the last column's bits that do not fill a 6-bit group
    for j in range(1, n):
        # column j holds x_ij for i < j: the low j bits of row j, lowest first
        bits += format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1]
        cut = len(bits) - len(bits) % 6
        out.extend(int(bits[i : i + 6], 2) + 63 for i in range(0, cut, 6))
        bits = bits[cut:]
    if bits:
        out.append(int(bits.ljust(6, "0"), 2) + 63)
    return out.decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (n <= 258,047: the one-byte and four-byte
    size headers)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126")
    n, payload = ord(s[0]) - 63, s[1:]
    if n == 63:
        if len(s) < 4:
            raise Graph6Error("truncated long-form graph6 header")
        if s[1] == "~":
            raise Graph6Error("graph6 headers beyond 258047 vertices not supported")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        if n <= 62:
            raise Graph6Error("long-form graph6 header for a graph of at most 62 vertices")
        payload = s[4:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(payload) < need:
        raise Graph6Error("truncated graph6 bit payload")
    if len(payload) > need:
        raise Graph6Error("excess characters after graph6 payload")
    bits = "".join(format(ord(ch) - 63, "06b") for ch in payload)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        col = int(bits[pos : pos + j][::-1], 2)  # bit i is x_ij
        pos += j
        rows[j] |= col
        for i in _mask_bits(col):
            rows[i] |= 1 << j
    return Graph._from_rows_unchecked(tuple(rows))
