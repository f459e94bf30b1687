"""Eigenvalue computations: adjacency spectral radius with Perron vector,
Rayleigh quotients, the multipartite eigenvalue equation and characteristic
polynomial, and the signless Laplacian largest eigenvalue.

One driver, ``_spectrum``, serves the adjacency and the signless Laplacian
radius for both graph types, on one path: it reads the graph as the
blow-up of its twin cells, the classes of false twins (``twin_cells``,
which a ``StructuredGraph`` already is and a dense ``Graph`` builds by
grouping equal rows), through ``.rows``, ``.sizes`` and ``.runs``.  The
cells form an equitable partition (Brouwer & Haemers, *Spectra of Graphs*
2.3; Godsil & Royle, *Algebraic Graph Theory* 9.3), so ``_pieces`` works
on the cell values of each component, with the quotient matrix
B = A_sub * sizes: at most n cells for a dense ``Graph`` (n <= 64 in
practice), and for a host plus a small embedded graph at most #parts +
#embedded vertices whatever n is.  Cells are ordered by size, so graphs
that differ only in which of several equal parts holds the patch get the
same quotient and bit-identical results, and ties between them fall to the
caller's explicit key, not to rounding.  Components are taken by lowest vertex, and the first
one wins ties; an edgeless graph gives e_0.  The patch-free quotient is the
equation sum_i n_i / (lambda + n_i) = 1 of ``multipartite_spectral_radius``.

The one operator: B is never formed.  ``_quotient`` sums s_j x_j over
whichever side of each cell is smaller in the piece: its neighbours, which
gives Bx, or its non-neighbours (the cell itself included), which gives
(s^T x) * 1 - Bx.  That is O(#cells + min(#edges, #non-edges)) per step, in
the dtype of x.  The cell graph of a near-multipartite graph is nearly
complete (2,000 non-edge terms for ``turan:100000,2000``, against 4*10^6
entries of B), and that of a sparse dense ``Graph`` nearly empty; a cell
graph near half density costs about p^2/2 terms a step, and numpy sums
them in long double without BLAS.  ``rayleigh_quotient`` reads the same
cell adjacency.

The seed: with D = diag(sizes), B is similar to the symmetric
D^1/2 B D^-1/2 = A_sub * sqrt(s_i s_j) (plus diag(degrees) for D + A), and
one ``eigh`` of that small matrix gives the Perron pair.  Its top
eigenvector, mapped back by D^-1/2, taken in absolute value and scaled to
max entry 1, is the start of the power loop ``_power`` (``_seed``, which
also gives true-twin cells one value, as the all-ones start does).  Above
``SEED_MAX_CELLS`` cells (many-part graphs) the O(p^3) ``eigh`` costs more
than the steps it saves, and the loop starts from all-ones.

The polishing loop: ``_power`` keeps the residual contract and runs in
the dtype of its start, which is ``np.longdouble`` for every piece, seeded
or not: the products with the operator (whose entries are integers), the
weights, lambda and the residual are all in extended precision.  numpy has
no BLAS kernel for ``longdouble``, and the operator needs none.  Lambda is
the Rayleigh quotient of the expanded vector, and convergence is judged by
the infinity-norm eigen-residual ||Mx - lambda*x|| of the
extended-precision cell iterate (max entry 1), not by iterate distance and
never taken from ``eigh``; the returned vector is that iterate rounded to
float64.  Where lambda is ~n ~ 10^6 the default tol of 1e-10 is 1-2 ulps
of lambda in float64 but about 10^3 in the 64-bit significand of x86
extended precision, so a solve polishes to tol in a few steps (at most 48
from all-ones on 50-80 unequal parts) instead of stalling one ulp above it.
Where ``long double`` is float64 (some platforms) the old floor returns, as
a ``ConvergenceError`` (exit 3), never as a wrong lambda; ``max_iters`` and
``ConvergenceError`` mean what they did.

Why the shift stays: the loop runs on A + cI with c = max(1, maxdeg/2), so
connected graphs give a primitive matrix (no +/-lambda oscillation on
bipartite graphs) and the subdominant ratio stays bounded away from 1 on
the near-bipartite hosts; with c = 1 the rounding noise injected per step
gets amplified by 1/(1-ratio), which puts the float64 residual floor above
tolerance at thousands of vertices.  From the seed the shift costs no
steps where it used to cost hundreds (split graphs, where lambda ~
sqrt(3n) is far below maxdeg ~ n), and it still guards the hard solves
that keep polishing.  D + A is positive semidefinite and iterates
unshifted.

The exact path: ``exact_spectral_radius`` scores the small graphs of
``brute`` in Python ints on the same quotient, with no numpy and no tol,
by Collatz–Wielandt and Rayleigh brackets that stop when both round to one
float, or as soon as the upper one is below a cutoff.  numpy is imported
inside the functions that touch arrays, so it loads at the first float
solve, and commands that make none never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul, truediv
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .families import FanSpec, PartitionSizes, fanspec_of, partition_sizes_of
from .graphs import AnyGraph, Graph, _mask_bits

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 10**6
# ``eigh`` costs O(p^3) for p cells and saves power steps.  Timed with the
# one operator on 16 solves per cell count (lambda and qlambda on unequal
# complete multipartite graphs, which need the fewest steps from all-ones;
# three runs, 2-core x86-64 host), the seeded solve takes 0.61-0.72 of the
# all-ones time in the median at 48 cells and is faster in 47 of 48 solves;
# at 64 cells 0.81-0.94, faster in 36 of 48, and the medians cross 1 near
# 80.  The cap stays at 48, the largest count tried where the seed is
# faster in nearly every solve; at 64 it is slower in a quarter of them, and
# the median saving there is about 0.2 ms a solve.  BENCH_one_operator.json,
# "seed_cap_check"
SEED_MAX_CELLS = 48


@dataclass(eq=False)
class SpectrumResult:
    """Largest eigenvalue with its nonnegative eigenvector (max entry 1)."""

    lam: float
    vector: np.ndarray = field(repr=False)
    residual: float
    iterations: int


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the residual met tolerance; the
    best iterate reached is attached as .result."""

    def __init__(self, message: str, result: SpectrumResult):
        super().__init__(message)
        self.result = result

    def __reduce__(self):
        # the default rebuilds from .args alone, without the result, and
        # fails; a search's worker sends its error to the caller as a pickle
        return type(self), (self.args[0], self.result)


def _dense_adjacency(rows: tuple[int, ...]) -> np.ndarray:
    """The boolean adjacency matrix of the bitmask rows."""
    import numpy as np

    n = len(rows)
    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for row in rows)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(n, 8 * width)[:, :n].astype(bool)


class _Piece(NamedTuple):
    """A connected component as the power iteration sees it: the boolean
    adjacency of its twin cells, the cell sizes, the quotient operator
    x -> Bx (entry (i, j) of B counts the neighbours a vertex of cell i has
    in cell j, so B = adjacency * sizes), and the map of cell values to the
    n-vector."""

    adjacency: np.ndarray
    sizes: np.ndarray
    matvec: Callable[[np.ndarray], np.ndarray]
    expand: Callable[[np.ndarray], np.ndarray]


def _quotient(adjacency: np.ndarray, sizes: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> Bx from the sums of s_j x_j over the neighbours j of each cell,
    or, where the neighbours are the majority, as (s^T x) * 1 less the sums
    over the non-neighbours, the cell itself included: O(#cells +
    min(#edges, #non-edges)) per call, in the dtype of x.  numpy has no BLAS
    kernel for ``longdouble``, and this needs none."""
    import numpy as np

    sparse = 2 * np.count_nonzero(adjacency) <= adjacency.size
    rows, cols = np.nonzero(adjacency if sparse else ~adjacency)
    # a cell of a piece has a neighbour and is its own non-neighbour, so no
    # run of ``reduceat`` is empty
    starts = rows.searchsorted(np.arange(len(sizes)))
    if sparse:
        return lambda x: np.add.reduceat((sizes * x)[cols], starts)
    return lambda x: sizes @ x - np.add.reduceat((sizes * x)[cols], starts)


def _pieces(g: AnyGraph) -> Iterator[_Piece]:
    """The components with an edge, by lowest vertex: the components of the
    cell graph with two cells or more.  An iterate constant on every cell
    stays so, so the iteration on cell values with cell-size weights is the
    vertex iteration, step for step; only ``expand`` costs O(n)."""
    import numpy as np

    cells = g.twin_cells()
    cell_graph = Graph._from_rows_unchecked(cells.rows)
    adjacency = _dense_adjacency(cells.rows)
    sizes = np.array(cells.sizes, dtype=float)
    run_cells = np.array([c for _, _, c in cells.runs], dtype=np.intp)
    run_lengths = [stop - start for start, stop, _ in cells.runs]
    lowest = [0] * len(sizes)
    for start, _, c in reversed(cells.runs):
        lowest[c] = start
    comps = [list(_mask_bits(m)) for m in cell_graph.components()]
    for comp in sorted(comps, key=lambda comp: min(lowest[c] for c in comp)):
        if len(comp) == 1:
            continue  # isolated vertices

        def expand(x: np.ndarray, comp: list[int] = comp) -> np.ndarray:
            values = np.zeros(len(sizes))
            values[comp] = x
            return np.repeat(values[run_cells], run_lengths)

        sub, sub_sizes = adjacency.take(comp, axis=0).take(comp, axis=1), sizes[comp]
        yield _Piece(sub, sub_sizes, _quotient(sub, sub_sizes), expand)


def _power(
    matvec: Callable[[np.ndarray], np.ndarray],
    weights: np.ndarray,
    x: np.ndarray,
    tol: float,
    max_iters: int,
    shift: float,
) -> tuple[float, np.ndarray, float, int]:
    """Power iteration on M + shift*I, M = matvec, from the nonnegative
    start x (max entry 1), with the residual contract.

    The loop runs in the dtype of x: the products with M, the weights,
    lambda and the residual all follow it, so the ``np.longdouble`` start
    of every solve iterates in extended precision.  The iterate stays
    normalized to max entry 1, and the reported residual is exactly
    ||Mx - lambda*x||_inf of that iterate; the vector handed back is the
    iterate rounded to float64.  Entry i stands for weights[i] vertices of
    equal value, and lambda is the Rayleigh quotient of that expanded
    vector.  The normalizing maximum is positive: the iterate has an entry
    equal to 1, and M is nonnegative with shift >= 1 or (for D + A) a
    positive diagonal on a component with an edge.
    """
    lam = 0.0
    resid = math.inf
    for it in range(1, max_iters + 1):
        y = matvec(x)
        wx = weights * x
        lam = (wx @ y) / (wx @ x)
        resid = float(abs(y - lam * x).max())
        if resid <= tol:
            return float(lam), x.astype(float), resid, it
        x = y + shift * x
        x = x / x.max()
    raise ConvergenceError(
        f"residual {resid:.3e} > tol {tol:.3e} after {max_iters} iterations",
        SpectrumResult(lam=float(lam), vector=x.astype(float), residual=resid, iterations=max_iters),
    )


def _seed(piece: _Piece, diagonal: np.ndarray | None) -> np.ndarray:
    """Start vector of the power loop, as ``np.longdouble`` with max entry
    1: the Perron vector of the quotient B (plus `diagonal`) for a piece of
    at most SEED_MAX_CELLS cells, all-ones above.

    B = adjacency * sizes is similar to the symmetric D^1/2 B D^-1/2 =
    adjacency * sqrt(s_i s_j), D = diag(sizes), so one ``eigh`` gives its
    top eigenvector, mapped back by D^-1/2.  Equal rows of B + I are
    singleton cells with one closed neighbourhood (true twins), whose Perron
    entries are equal; they get one value, since an ulp-level spread between
    them decays at a ratio near 1 and holds the residual above tol where
    lambda is ~n.  The rows are size-weighted: two adjacent cells with one
    closed neighbourhood in the cell graph are true twins only when both
    are singletons.
    """
    import numpy as np

    if len(piece.sizes) > SEED_MAX_CELLS:
        return np.ones(len(piece.sizes), dtype=np.longdouble)
    root = np.sqrt(piece.sizes)
    sym = piece.adjacency * np.outer(root, root)
    if diagonal is not None:
        sym += np.diag(diagonal)
    x = np.abs(np.linalg.eigh(sym)[1][:, -1] / root)
    first: dict[bytes, int] = {}
    closed = piece.adjacency * piece.sizes + np.eye(len(x))
    x = x[[first.setdefault(row.tobytes(), i) for i, row in enumerate(closed)]]
    return (x / x.max()).astype(np.longdouble)


def _check_tol(tol: float) -> None:
    """Reject a tolerance outside 0 < tol < inf (NaN included)."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


def _spectrum(g: AnyGraph, tol: float, max_iters: int, signless: bool) -> SpectrumResult:
    """Largest eigenvalue of A (or of D + A when `signless`), per connected
    component; the vector is supported on the achieving component (first
    component wins ties), zeros elsewhere."""
    import numpy as np

    _check_tol(tol)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    best = None
    total_its = 0
    for piece in _pieces(g):
        degrees = piece.matvec(np.ones(len(piece.sizes)))
        if signless:
            # D + A is positive semidefinite; plain iteration, no shift
            matvec, shift = (lambda x: piece.matvec(x) + degrees * x), 0.0
        else:
            matvec, shift = piece.matvec, max(1.0, float(degrees.max()) / 2)
        start = _seed(piece, degrees if signless else None)
        try:
            lam, vec, resid, its = _power(matvec, piece.sizes, start, tol, max_iters, shift)
        except ConvergenceError as exc:
            exc.result.vector = piece.expand(exc.result.vector)
            raise
        total_its += its
        if best is None or lam > best[0]:
            best = lam, vec, resid, piece
    if best is None:
        # no edges: every vertex is a component of its own, and the first wins
        return SpectrumResult(0.0, np.eye(1, g.n)[0], 0.0, 0)
    lam, vec, resid, piece = best
    return SpectrumResult(lam=lam, vector=piece.expand(vec), residual=resid, iterations=total_its)


def spectral_radius(
    g: AnyGraph, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS
) -> SpectrumResult:
    """Largest adjacency eigenvalue with a nonnegative eigenvector,
    normalized to maximum entry exactly 1."""
    return _spectrum(g, tol, max_iters, signless=False)


def signless_laplacian_spectrum(
    g: AnyGraph, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS
) -> SpectrumResult:
    """Largest eigenvalue of D + A (degree diagonal plus adjacency), with
    its eigenvector (max entry 1), residual and iterations."""
    return _spectrum(g, tol, max_iters, signless=True)


def exact_spectral_radius(g: AnyGraph, cutoff: float = -math.inf) -> float | None:
    """Largest adjacency eigenvalue correctly rounded to a float, or None
    once it is shown to be below `cutoff`; for a graph on at least one
    vertex.  No numpy: Python ints on the twin quotient B = A_cell * sizes.

    From all-ones, x <- (B + I)x stays a positive integer vector, and it
    brackets lambda exactly.  Above: max_i (Bx)_i / x_i, since that is the
    largest row sum of diag(x)^-1 B diag(x), a matrix similar to B
    (Collatz 1942; Wielandt 1950).  Below: the size-weighted Rayleigh
    quotient sum_i s_i x_i (Bx)_i / sum_i s_i x_i^2, that of the expanded
    vector.  Each bound is an int/int true division, so correctly rounded,
    and rounding is monotone: the largest rounded ratio is the rounded
    largest ratio, an upper bound rounded below `cutoff` is below it
    exactly, and when the two bounds round to one float, lambda rounds to
    it too.  The shift by I makes B + I primitive on each component, so on
    bipartite graphs too both bounds converge to lambda; an isolated cell
    keeps x_i = 1 and ratio 0.  Raises ``ConvergenceError``, with the
    bracket as lam and residual and the unnormalized cell iterate as vector,
    when the bounds still round apart after DEFAULT_MAX_ITERS steps."""
    cells = g.twin_cells()
    sizes = cells.sizes
    nbrs = [list(_mask_bits(row)) for row in cells.rows]
    x = [1] * len(sizes)
    for _ in range(DEFAULT_MAX_ITERS):
        sx = list(map(mul, sizes, x))
        y = [sum([sx[j] for j in nb]) for nb in nbrs]
        upper = max(map(truediv, y, x))
        if upper < cutoff:
            return None
        lower = sum(map(mul, sx, y)) / sum(map(mul, sx, x))
        if lower == upper:
            return upper
        x = list(map(add, x, y))
    raise ConvergenceError(
        f"lambda in [{lower!r}, {upper!r}] after {DEFAULT_MAX_ITERS} iterations",
        SpectrumResult(lam=lower, vector=x, residual=upper - lower, iterations=DEFAULT_MAX_ITERS),
    )


def rayleigh_quotient(g: AnyGraph, x) -> float:
    """(2 sum_{uv in E} x_u x_v) / (sum_v x_v^2); at most the spectral radius.

    The numerator is S^T A_cell S on the sums S of x over the twin cells:
    cells are independent sets, and two cells are joined completely or not
    at all."""
    import numpy as np

    vec = np.asarray(x, dtype=float)
    if vec.shape != (g.n,):
        raise ValueError(f"vector must have length {g.n}")
    den = float(vec @ vec)
    if den == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero vector")
    cells = g.twin_cells()
    run_sums = np.add.reduceat(vec, [start for start, _, _ in cells.runs])
    sums = np.bincount([c for _, _, c in cells.runs], run_sums, len(cells.sizes))
    return float(sums @ _dense_adjacency(cells.rows) @ sums) / den


def multipartite_spectral_radius(
    sizes: PartitionSizes | list[int] | tuple[int, ...], tol: float = 1e-12
) -> float:
    """Spectral radius of the complete multipartite graph via its eigenvalue
    equation sum_i n_i / (lambda + n_i) = 1, solved by safeguarded
    Newton/bisection on the bracket [n - max - 1, n].

    A single part means the empty graph; 0 is returned for that degenerate
    case."""
    _check_tol(tol)
    ps = partition_sizes_of(sizes)
    if ps.num_parts == 1:
        return 0.0
    parts = [float(s) for s in ps.sizes]
    n = float(ps.n)

    def val(lam: float) -> float:
        return sum(s / (lam + s) for s in parts) - 1.0

    def deriv(lam: float) -> float:
        return -sum(s / (lam + s) ** 2 for s in parts)

    lo = max(0.0, n - parts[0] - 1.0)
    hi = n
    lam = 0.5 * (lo + hi)
    for _ in range(500):
        f = val(lam)
        if abs(f) <= tol:
            return lam
        if f > 0:
            lo = lam
        else:
            hi = lam
        step = lam - f / deriv(lam)
        lam = step if lo < step < hi else 0.5 * (lo + hi)
    raise RuntimeError("root solve failed to converge")


def multipartite_charpoly_eval(
    sizes: PartitionSizes | list[int] | tuple[int, ...], x
):
    """det(xI - A) of the complete multipartite graph, evaluated through the
    closed polynomial form x^(n-p) * (prod_j (x+n_j) - sum_i n_i prod_{j!=i}
    (x+n_j)).  Integer x gives exact integer arithmetic."""
    ps = partition_sizes_of(sizes)
    p = ps.num_parts
    n = ps.n
    shifted = [x + s for s in ps.sizes]
    prod_all = 1
    for t in shifted:
        prod_all = prod_all * t
    sig = 0
    for i, s in enumerate(ps.sizes):
        term = s
        for j, t in enumerate(shifted):
            if j != i:
                term = term * t
        sig += term
    return x ** (n - p) * (prod_all - sig)


@dataclass(frozen=True)
class PerronBoundReport:
    min_entry: float
    bound: float
    holds: bool


def perron_entry_bound_check(g: AnyGraph, spec: FanSpec | tuple[int, int]) -> PerronBoundReport:
    """Smallest Perron entry (max-1 normalization) against 1 - 20k^2r^2/n.

    The solve's tol is DEFAULT_TOL where ``long double`` is wider than
    float64, and 1e-8 where it is float64: there the loop polishes in
    float64, and at n ~ 10^6 the default tol of 1e-10 is 1-2 ulps of lambda,
    below what the loop can reach.  Requires a connected graph."""
    import numpy as np

    tol = DEFAULT_TOL if np.finfo(np.longdouble).eps < np.finfo(float).eps else 1e-8
    spec = fanspec_of(spec)
    if not g.is_connected():
        raise ValueError("graph must be connected")
    min_entry = float(spectral_radius(g, tol=tol).vector.min())
    bound = 1.0 - 20.0 * spec.k**2 * spec.r**2 / g.n
    return PerronBoundReport(min_entry=min_entry, bound=bound, holds=min_entry >= bound)
