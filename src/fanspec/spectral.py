"""Eigenvalue computations: adjacency spectral radius with Perron vector,
Rayleigh quotients, the multipartite eigenvalue equation and characteristic
polynomial, and the signless Laplacian largest eigenvalue.

One driver, ``_spectrum``, serves the adjacency and the signless Laplacian
radius for both graph types.  Only ``_matvec`` (the operator x -> Ax) and
``_pieces`` (the component split) tell a dense ``Graph`` from a
``StructuredGraph``.  The degree vector is read off the operator as A*1, so
no per-vertex degree pass runs.  Disconnected graphs are handled per
component, taking the maximum (first component wins ties); a
``StructuredGraph`` is connected by construction and is one piece.

Power iteration runs on A + cI with c = max(1, maxdeg/2), so connected
graphs give a primitive matrix (no +/-lambda oscillation on bipartite
graphs) and the subdominant ratio stays bounded away from 1 on the
near-bipartite hosts; with c = 1 the rounding noise injected per step gets
amplified by 1/(1-ratio), which puts the float64 residual floor above
tolerance at thousands of vertices.  D + A is positive semidefinite and
iterates unshifted.  Convergence is judged by the infinity-norm
eigen-residual ||Mx - lambda*x|| on the max-entry-1 normalized iterate, not
by iterate distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .families import FanSpec, PartitionSizes, fanspec_of, partition_sizes_of
from .graphs import AnyGraph, Graph, StructuredGraph, _mask_bits, induced_subgraph_mask

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 10**6


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


def _dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, row in enumerate(g.rows):
        for v in _mask_bits(row):
            a[u, v] = 1.0
    return a


def _structured_matvec(sg: StructuredGraph) -> Callable[[np.ndarray], np.ndarray]:
    pidx = np.repeat(np.arange(len(sg.sizes), dtype=np.intp), sg.sizes)
    nparts = len(sg.sizes)
    pa = np.array([a for a, _ in sorted(sg.patch)], dtype=np.intp)
    pb = np.array([b for _, b in sorted(sg.patch)], dtype=np.intp)

    def matvec(x: np.ndarray) -> np.ndarray:
        part_sums = np.bincount(pidx, weights=x, minlength=nparts)
        y = x.sum() - part_sums[pidx]
        if len(pa):
            np.add.at(y, pa, x[pb])
            np.add.at(y, pb, x[pa])
        return y

    return matvec


def _matvec(g: AnyGraph) -> Callable[[np.ndarray], np.ndarray]:
    """Adjacency operator x -> Ax, O(n) per call for a ``StructuredGraph``."""
    if isinstance(g, StructuredGraph):
        return _structured_matvec(g)
    a = _dense_adjacency(g)
    return lambda x: a @ x


def _pieces(g: AnyGraph) -> Iterator[tuple[AnyGraph, slice | list[int]]]:
    """Connected components with their new->old vertex maps, by lowest
    vertex.  A ``StructuredGraph`` is connected: one piece, mapped whole."""
    if isinstance(g, StructuredGraph):
        yield g, slice(None)
        return
    for comp in g.components():
        yield induced_subgraph_mask(g, comp)


def _power(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float,
    max_iters: int,
    diag: np.ndarray | None = None,
    shift: float = 1.0,
) -> tuple[float, np.ndarray, float, int]:
    """Power iteration on matvec(+diag) + shift*I with the residual contract.

    The iterate stays normalized to max entry 1, so the reported residual is
    exactly ||Mx - lambda*x||_inf for the returned vector.
    """
    x = np.ones(n)
    lam = 0.0
    resid = np.inf
    for it in range(1, max_iters + 1):
        y = matvec(x)
        if diag is not None:
            y = y + diag * x
        lam = float(x @ y) / float(x @ x)
        resid = float(np.max(np.abs(y - lam * x)))
        if resid <= tol:
            return lam, x, resid, it
        x = y + shift * x
        top = float(x.max())
        if top <= 0.0:
            # all-zero row pattern; cannot happen on a connected component
            return 0.0, np.ones(n), 0.0, it
        x = x / top
    raise ConvergenceError(
        f"residual {resid:.3e} > tol {tol:.3e} after {max_iters} iterations",
        SpectrumResult(lam=lam, vector=x, residual=resid, iterations=max_iters),
    )


def _spectrum(g: AnyGraph, tol: float, max_iters: int, signless: bool) -> SpectrumResult:
    """Largest eigenvalue of A (or of D + A when `signless`), per connected
    component; the vector is supported on the achieving component (first
    component wins ties), zeros elsewhere."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if g.n == 0:
        return SpectrumResult(0.0, np.zeros(0), 0.0, 0)
    best_lam = -np.inf
    total_its = 0
    for piece, vmap in _pieces(g):
        if piece.n == 1:
            lam, vec, resid, its = 0.0, np.ones(1), 0.0, 0
        else:
            mv = _matvec(piece)
            if signless:
                # D + A is positive semidefinite; plain iteration, no shift
                diag, shift = mv(np.ones(piece.n)), 0.0
            else:
                diag, shift = None, max(1.0, float(mv(np.ones(piece.n)).max()) / 2)
            lam, vec, resid, its = _power(
                mv, piece.n, tol, max_iters, diag=diag, shift=shift
            )
        total_its += its
        if lam > best_lam:
            best_lam, best_vec, best_resid, best_map = lam, vec, resid, vmap
    full = np.zeros(g.n)
    full[best_map] = best_vec
    return SpectrumResult(
        lam=max(best_lam, 0.0), vector=full, residual=best_resid, iterations=total_its
    )


def spectral_radius(
    g: AnyGraph, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS
) -> SpectrumResult:
    """Largest adjacency eigenvalue with a nonnegative eigenvector,
    normalized to maximum entry exactly 1."""
    return _spectrum(g, tol, max_iters, signless=False)


def signless_laplacian_radius(
    g: AnyGraph, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS
) -> float:
    """Largest eigenvalue of D + A (degree diagonal plus adjacency)."""
    return signless_laplacian_spectrum(g, tol, max_iters).lam


def signless_laplacian_spectrum(
    g: AnyGraph, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS
) -> SpectrumResult:
    """Full result (eigenvector, residual, iterations) for D + A."""
    return _spectrum(g, tol, max_iters, signless=True)


def rayleigh_quotient(g: AnyGraph, x) -> float:
    """(2 sum_{uv in E} x_u x_v) / (sum_v x_v^2); at most the spectral radius."""
    vec = np.asarray(x, dtype=float)
    n = g.n
    if vec.shape != (n,):
        raise ValueError(f"vector must have length {n}")
    den = float(vec @ vec)
    if den == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero vector")
    return float(vec @ _matvec(g)(vec)) / den


def multipartite_spectral_radius(
    sizes: PartitionSizes | list[int] | tuple[int, ...], tol: float = 1e-12
) -> float:
    """Spectral radius of the complete multipartite graph via its eigenvalue
    equation sum_i n_i / (lambda + n_i) = 1, solved by safeguarded
    Newton/bisection on the bracket [n - max - 1, n].

    A single part means the empty graph; 0 is returned for that degenerate
    case."""
    if tol <= 0:
        raise ValueError("tol must be positive")
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


def perron_entry_bound_check(
    g: AnyGraph, spec: FanSpec | tuple[int, int], tol: float = 1e-8
) -> PerronBoundReport:
    """Smallest Perron entry (max-1 normalization) against 1 - 20k^2r^2/n.

    Requires a connected graph.  The default tolerance is looser than the
    spectral default because at thousands of vertices the absolute residual
    floor of float64 scales with lambda; the bound margin dwarfs it."""
    spec = fanspec_of(spec)
    if not g.is_connected():
        raise ValueError("graph must be connected")
    res = spectral_radius(g, tol=tol)
    min_entry = float(res.vector.min())
    bound = 1.0 - 20.0 * spec.k**2 * spec.r**2 / g.n
    return PerronBoundReport(min_entry=min_entry, bound=bound, holds=min_entry >= bound)
