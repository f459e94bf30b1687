"""Ground-truth brute force over isomorph-free enumerations.

Graphs on n vertices are generated one representative per isomorphism
class by canonical augmentation (McKay 1998), at every level: extend each
parent by one vertex over orbit representatives of neighborhood subsets,
and accept a child exactly when the new vertex is automorphism-equivalent
to the canonical deletion vertex.  That vertex is the one with the largest
canonical label among the vertices whose invariant (degree, sum of
neighbour degrees) is largest, as in geng (McKay 1998; McKay & Piperno
2014).  A child whose new vertex does not have the largest invariant is
rejected from the parent's degrees and the mask alone, before it is built
or labeled.  A child whose new vertex alone has the largest invariant is
accepted unlabeled, since the new vertex is then the deletion vertex
itself; only children with a tie are labeled to decide.  The rule stays
exactly-once because the invariant and the canonical labels are both
isomorphism-equivariant, so the deletion vertex is fixed up to
automorphism by the child's class alone.  The acceptance test is local to
a parent, so no global seen set is needed and the parents of the last
level are independent tasks for the worker pool.

Each level stores its classes as canonical rows, so it is the sorted list
of their canonical forms whichever parent emitted them, and it labels the
children it accepted unlabeled to get them.  With the rows it stores the
automorphism generators of the class in the canonical frame: those its
labeling found, conjugated by the canonical permutation.  The next level
takes orbit representatives of neighbourhood subsets under them, so no
parent is labeled again.  The found generators generate the whole group,
so the orbits, and the minimum representatives taken from them, are the
ones a fresh labeling of the parent gives.  The last level is only
scanned, not stored: fan-freeness, edge count and λ do not depend on the
labeling, so its children stay as built.  `brute` labels only the graphs
it writes out as canonical graph6: the witnesses, and the witness window
at each checkpoint.

Enumeration accepts an optional hereditary predicate (closed under vertex
deletion, e.g. bounded degree + bounded matching); restricted to such a
class it remains exactly-once: every member's deletion parent is again a
member.  The invariant filter runs before the predicate, so the predicate
sees fewer children.  That restriction is what makes the
bounded-degree/bounded-matching edge maximum searchable at nine vertices.

`brute` in lambda mode solves only the fan-free children that can reach
the best value.  T(n, r−1) is K_r-free, so F_{k,r}-free, and its λ_T
(`multipartite_spectral_radius` on the balanced part sizes) is a floor
under the best λ.  A child's walk bound W = max_v Σ_{u∼v} d_u is the
largest row sum of A², so λ² = λ(A²) ≤ W, and a computed λ̂, a weighted
Rayleigh quotient, is at most √W too.  The worker skips the solve when
W < floor², with floor = λ_T − LAMBDA_WITNESS_WINDOW − 2·tol −
LAMBDA_FLOOR_SLACK (r ≥ 3 and floor > 0; otherwise nothing is skipped),
and still counts the child as fan-free.  No skipped child can be the
best or fall in the witness window: the Turán class is scanned and never
skipped (W_T ≥ λ_T² > floor²), and by Collatz–Wielandt its computed λ̂_T
is at least λ_T − 2·tol, since its Perron entries, proportional to
1/(λ + n_i), are within a factor 2 of each other and the solve stops at
residual tol.  So the best value is at least λ_T − 2·tol, the window
starts at or above floor + LAMBDA_FLOOR_SLACK, and every skipped λ̂ is
below floor.  Examined and fan-free counts, best value, witnesses and
checkpoints are those of solving every child; the one difference is that
a skipped child whose solve would have raised `ConvergenceError` no
longer raises.  At n = 7 the (2,3) scan solves 77 of its 400 fan-free
classes, and at n = 8 it solves 108 of 2,290.

Everything is deterministic: reports are identical regardless of worker
count (partials merge by order-free reductions and witness lists sort by
canonical graph6).
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from .canon import CanonicalInfo, canonical_form, canonical_info, permuted_rows
from .families import FanSpec, balanced_sizes, embed_in_part, fanspec_of
from .formulas import FormulaResult, fan_extremal_number
from .graphs import (
    DENSE_KERNEL_LIMIT,
    Graph,
    StructuredGraph,
    _edge_count,
    _mask_bits,
    _mask_image,
    from_graph6,
    to_graph6,
)
from .patterns import clique_packing_number, contains_fan, matching_number
from .spectral import _check_tol, multipartite_spectral_radius, spectral_radius

DEFAULT_ENUM_CAP = 10
LAMBDA_WITNESS_WINDOW = 1e-8
# rounding slack of the Turán floor under brute's λ solves (module docstring)
LAMBDA_FLOOR_SLACK = 1e-9


class EnumerationCapError(ValueError):
    """Requested order exceeds the enumeration cap (override to raise it)."""


def _mask_orbit_reps(n: int, gens: Sequence[tuple[int, ...]], min_size: int) -> list[int]:
    """One representative (minimum) per orbit of the generated group acting
    on the subsets of [n] with at least min_size members (a permutation
    keeps a subset's size, so these are whole orbits)."""
    total = 1 << n
    if not gens:
        return [m for m in range(total) if m.bit_count() >= min_size]
    seen = bytearray(total)
    reps = []
    for m in range(total):
        if seen[m] or m.bit_count() < min_size:
            continue
        reps.append(m)
        stack = [m]
        seen[m] = 1
        while stack:
            cur = stack.pop()
            for g in gens:
                img = _mask_image(cur, g)
                if not seen[img]:
                    seen[img] = 1
                    stack.append(img)
    return reps


Pred = Callable[[Graph], bool]
Rows = tuple[int, ...]
Perm = tuple[int, ...]
# one class of a level: canonical rows, and automorphism generators of them
ClassRep = tuple[Rows, tuple[Perm, ...]]
Level = list[ClassRep]


def _new_vertex_ties(
    rows: Rows, deg: list[int], nbr_sum: list[int], mask: int
) -> list[int] | None:
    """The vertices of the child parent + mask whose invariant (degree, sum
    of neighbour degrees) equals that of the new vertex n, n first; None
    when some vertex's invariant is larger.  Read off the parent's degrees
    and neighbour sums and the mask, without building the child."""
    n = len(rows)
    k = mask.bit_count()
    new_sum = k + sum(deg[w] for w in _mask_bits(mask))
    ties = [n]
    for u in range(n):
        joined = mask >> u & 1
        du = deg[u] + joined
        if du < k:
            continue
        if du > k:
            return None
        su = nbr_sum[u] + (rows[u] & mask).bit_count() + k * joined
        if su > new_sum:
            return None
        if su == new_sum:
            ties.append(u)
    return ties


def _children_of_parent_aug(
    parent: ClassRep, pred: Pred | None
) -> list[tuple[Rows, CanonicalInfo | None]]:
    """The accepted children of one class of a level, each as its rows (the
    parent's, plus the new vertex n) and its labeling, or None where the new
    vertex alone has the top invariant and so is the deletion vertex."""
    rows, gens = parent
    g = Graph._from_rows_unchecked(rows)
    n = g.n
    deg = g.degrees()
    nbr_sum = [sum(deg[w] for w in _mask_bits(row)) for row in rows]
    out: list[tuple[Rows, CanonicalInfo | None]] = []
    # a smaller neighbourhood leaves the new vertex below a vertex of top degree
    for mask in _mask_orbit_reps(n, gens, max(deg, default=0)):
        ties = _new_vertex_ties(rows, deg, nbr_sum, mask)
        if ties is None:
            continue
        child = g.add_vertex(mask)
        if pred is not None and not pred(child):
            continue
        if len(ties) == 1:
            out.append((child.rows, None))
            continue
        cinfo = canonical_info(child)
        deletion_vertex = max(ties, key=cinfo.perm.__getitem__)
        if cinfo.orbits[deletion_vertex] == cinfo.orbits[n]:
            out.append((child.rows, cinfo))
    return out


def _level_up(parents: Level, pred: Pred | None) -> Level:
    """The next level: every accepted child of every parent, sorted, each as
    canonical rows with its automorphism generators carried into that frame
    (a generator a becomes b with b[perm[v]] = perm[a[v]])."""
    out: Level = []
    for parent in parents:
        for rows, info in _children_of_parent_aug(parent, pred):
            if info is None:
                info = canonical_info(Graph._from_rows_unchecked(rows))
            perm = info.perm
            gens = []
            for a in info.aut_generators:
                b = [0] * len(perm)
                for v, pv in enumerate(perm):
                    b[pv] = perm[a[v]]
                gens.append(tuple(b))
            out.append((permuted_rows(rows, perm), tuple(gens)))
    out.sort()
    return out


def _levels(n_max: int, pred: Pred | None = None) -> Iterator[tuple[int, Level]]:
    """Yield (size, level) for sizes 0..n_max, one entry per class."""
    level: Level = [((), ())]
    yield 0, level
    for size in range(1, n_max + 1):
        level = _level_up(level, pred)
        yield size, level


def enumerate_graphs(n: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of simple graphs on
    n vertices, in canonical order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise EnumerationCapError(
            f"n={n} exceeds the enumeration cap {cap}; raise the cap explicitly"
        )
    for size, level in _levels(n):
        if size == n:
            for rows, _ in level:
                yield Graph._from_rows_unchecked(rows)


# --- reports ---------------------------------------------------------------


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


@dataclass
class ExtremalReport:
    """Outcome of an exhaustive or family search for extremal values."""

    n: int
    spec: FanSpec
    mode: str
    best_value: float | int | None
    witnesses: tuple[str, ...]
    graphs_examined: int
    free_count: int
    formula_value: FormulaResult | None
    matches_formula: bool | None
    wall_seconds: float | None = None
    winner: dict | None = None

    def to_json_dict(self, timing: bool = True) -> dict:
        best = self.best_value
        if isinstance(best, float):
            best = _round12(best)
        d = {
            "n": self.n,
            "k": self.spec.k,
            "r": self.spec.r,
            "mode": self.mode,
            "best_value": best,
            "formula_value": self.formula_value.value if self.formula_value else None,
            "applicable": self.formula_value.applicable if self.formula_value else None,
            "matches_formula": self.matches_formula,
            "witnesses": list(self.witnesses),
            "graphs_examined": self.graphs_examined,
            "free_count": self.free_count,
            "wall_seconds": self.wall_seconds if timing else None,
        }
        if self.winner is not None:
            d["winner"] = self.winner
        return d

    def to_json(self, timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(timing=timing))


def _formula_or_none(n: int, spec: FanSpec) -> FormulaResult | None:
    if spec.r < 3:
        return None
    return fan_extremal_number(n, spec)


# --- exhaustive extremal search ---------------------------------------------


def _walk_bound(rows: Rows) -> int:
    """max_v of the degree sum of v's neighbours: the largest row sum of A²,
    so λ(A)² = λ(A²) is at most it."""
    deg = [row.bit_count() for row in rows]
    return max(sum(deg[u] for u in _mask_bits(row)) for row in rows)


def _lambda_floor_sq(n: int, spec: FanSpec, tol: float) -> float:
    """The square of the floor below which no λ solve of `brute` can reach
    the best value or its witness window: λ(T(n, r−1)) less the window, the
    solve's 2·tol and LAMBDA_FLOOR_SLACK.  0 (skip nothing) when r < 3 or
    the floor is not positive; edges mode never reads it."""
    if spec.r < 3:
        return 0.0
    turan = multipartite_spectral_radius(balanced_sizes(n, spec.r - 1))
    floor = turan - LAMBDA_WITNESS_WINDOW - 2 * tol - LAMBDA_FLOOR_SLACK
    return floor * floor if floor > 0 else 0.0


def _scan_extremal_parent(
    parent: ClassRep, spec: FanSpec, mode: str, tol: float, floor_sq: float
) -> tuple[int, int, list[tuple[float | int, Rows]]]:
    """Worker: the number of final-level children of one parent, the number
    of them that are fan-free, and (value, rows) for each fan-free child it
    scores, its rows as built: fan-freeness, edges and λ do not depend on
    the labeling.  It scores every one in edges mode; in lambda mode a child
    whose walk bound is below floor_sq is counted but not solved.

    The augmentation acceptance test is exactly-once per isomorphism class
    across all parents, so the parents partition the class space."""
    children = _children_of_parent_aug(parent, None)
    free = 0
    scored = []
    for crows, _ in children:
        g = Graph._from_rows_unchecked(crows)
        if contains_fan(g, spec) is not None:
            continue
        free += 1
        if mode == "edges":
            scored.append((g.edge_count, crows))
        elif _walk_bound(crows) >= floor_sq:
            scored.append((spectral_radius(g, tol=tol).lam, crows))
    return len(children), free, scored


def _map(fn, tasks: Sequence, jobs: int, chunksize: int | None = None) -> Iterator:
    """fn over tasks, results in task order: the builtin map at one job,
    else a pool's imap in chunks of `chunksize` tasks, by default sized as
    Pool.map sizes them (about four per worker).  imap hands back a whole
    chunk at once, so a chunk is the least work the caller sees finish."""
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    with multiprocessing.Pool(processes=jobs) as pool:
        yield from pool.imap(fn, tasks, chunksize or -(-len(tasks) // (4 * jobs)))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def _graph6_of(cands: list[tuple[Rows, float | int]]) -> list[tuple[str, float | int]]:
    """Each (rows, value) as (canonical graph6, value)."""
    return [(to_graph6(canonical_form(Graph._from_rows_unchecked(c))), v) for c, v in cands]


def _write_json_atomic(path: str, obj) -> None:
    """Replace `path` with `obj` as JSON; a crash mid-write leaves the old
    file in place (the new one is written beside it, then renamed over)."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def brute_force_extremal(
    n: int,
    spec: FanSpec | tuple[int, int],
    mode: str = "edges",
    *,
    tol: float = 1e-10,
    jobs: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
    checkpoint_path: str | None = None,
    resume: bool = False,
    checkpoint_every: int | None = None,
) -> ExtremalReport:
    """Exact maximum edges or spectral radius over every fan-free
    isomorphism class on n vertices, with all achieving witnesses.

    With a checkpoint path, the state is saved after each parent that brings
    the classes examined since the last save to `checkpoint_every` (default
    10^6).  The pool then takes one parent a chunk, so a save can follow
    any parent and a kill loses at most the parents in flight."""
    spec = fanspec_of(spec)
    if mode not in ("edges", "lambda"):
        raise ValueError("mode must be 'edges' or 'lambda'")
    _check_tol(tol)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds the enumeration cap {cap}")
    if resume and not checkpoint_path:
        raise ValueError("resume needs a checkpoint path")
    if checkpoint_every is None:
        checkpoint_every = 10**6
    elif not checkpoint_path:
        raise ValueError("checkpoint_every needs a checkpoint path")
    elif checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    t0 = time.monotonic()

    for _, parents in _levels(n - 1):
        pass

    start = 0
    examined = 0
    free = 0
    best: float | int | None = None
    # the fan-free classes inside the witness window, as built: only a
    # checkpoint and the report label them, for canonical graph6
    cands: list[tuple[Rows, float | int]] = []

    ckpt_key = {
        "kind": "brute",
        "n": n,
        "k": spec.k,
        "r": spec.r,
        "mode": mode,
        "tol": tol if mode == "lambda" else None,
        # the acceptance rule decides which parent emits each class, so a
        # parent cursor means nothing under another rule
        "deletion_vertex": "max-invariant",
    }
    progress = ("parent_cursor", "examined", "free", "best", "cands")
    if resume and os.path.exists(checkpoint_path):
        with open(checkpoint_path) as fh:
            state = json.load(fh)
        # any other key (a batch cursor, say) belongs to another format
        if (
            not isinstance(state, dict)
            or state.keys() != {*ckpt_key, *progress}
            or {k: state[k] for k in ckpt_key} != ckpt_key
        ):
            raise ValueError("checkpoint does not match this run's parameters")
        start, examined, free, best, cands = (state[k] for k in progress)
        if not (
            _is_int(start)
            and 0 <= start <= len(parents)
            and _is_int(examined)
            and _is_int(free)
            and 0 <= free <= examined
            and (best is None or _is_number(best))
            and isinstance(cands, list)
            and all(
                isinstance(c, list)
                and len(c) == 2
                and isinstance(c[0], str)
                and _is_number(c[1])
                and from_graph6(c[0]).n == n
                for c in cands
            )
        ):
            raise ValueError("checkpoint progress is malformed")
        cands = [(from_graph6(s).rows, v) for s, v in cands]

    window = 0 if mode == "edges" else LAMBDA_WITNESS_WINDOW
    since_ckpt = 0
    floor_sq = _lambda_floor_sq(n, spec, tol)
    scan = partial(_scan_extremal_parent, spec=spec, mode=mode, tol=tol, floor_sq=floor_sq)
    results = _map(scan, parents[start:], jobs, 1 if checkpoint_path else None)
    for cursor, (count, count_free, scored) in enumerate(results, start + 1):
        examined += count
        free += count_free
        for value, crows in scored:
            if best is None or value > best:
                best = value
                cands = [(c, v) for c, v in cands if v >= best - window]
            if value >= best - window:
                cands.append((crows, value))
        since_ckpt += count
        if checkpoint_path and since_ckpt >= checkpoint_every:
            since_ckpt = 0
            state = dict(ckpt_key)
            state.update(zip(progress, (cursor, examined, free, best, _graph6_of(cands))))
            _write_json_atomic(checkpoint_path, state)

    witnesses = tuple(sorted(s for s, _ in _graph6_of(cands)))
    formula = _formula_or_none(n, spec)
    matches: bool | None = None
    if formula is not None:
        if mode == "edges":
            matches = best == formula.value
        else:
            edge_best = {from_graph6(s).edge_count for s in witnesses}
            matches = edge_best == {formula.value}
    return ExtremalReport(
        n=n,
        spec=spec,
        mode=mode,
        best_value=best,
        witnesses=witnesses,
        graphs_examined=examined,
        free_count=free,
        formula_value=formula,
        matches_formula=matches,
        wall_seconds=time.monotonic() - t0,
    )


# --- bounded degree + bounded matching edge maximum -------------------------


def _bounded_pred(beta: int, delta: int) -> Pred:
    def pred(g: Graph) -> bool:
        if g.n and max(g.degrees()) > delta:
            return False
        return clique_packing_number(g, 2, beta + 1) <= beta

    return pred


def _scan_f_parent(parent: ClassRep, beta: int, delta: int) -> list[int]:
    """Worker: the edge counts of one parent's children in the class."""
    pred = _bounded_pred(beta, delta)
    return [_edge_count(rows) for rows, _ in _children_of_parent_aug(parent, pred)]


@dataclass
class BoundedEdgeReport:
    beta: int
    delta: int
    n_max: int
    value: int
    graphs_examined: int
    wall_seconds: float | None = None

    def to_json_dict(self, timing: bool = True) -> dict:
        return {
            "beta": self.beta,
            "delta": self.delta,
            "n_max": self.n_max,
            "value": self.value,
            "graphs_examined": self.graphs_examined,
            "wall_seconds": self.wall_seconds if timing else None,
        }

    def to_json(self, timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(timing=timing))


def brute_force_f_report(
    beta: int,
    delta: int,
    n_max: int,
    *,
    jobs: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
) -> BoundedEdgeReport:
    """Exhaustive maximum edge count over all graphs on at most n_max
    vertices with matching number <= beta and max degree <= delta.

    Enumeration stays inside the hereditary class, so the search space is a
    tiny sliver of all isomorphism classes."""
    if n_max > cap:
        raise EnumerationCapError(f"n_max={n_max} exceeds the enumeration cap {cap}")
    if beta < 0 or delta < 0:
        raise ValueError("beta and delta must be nonnegative")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    t0 = time.monotonic()
    pred = _bounded_pred(beta, delta)
    best = 0
    examined = 0
    for _, level in _levels(n_max - 1, pred):
        examined += len(level)
        best = max(best, *(_edge_count(rows) for rows, _ in level))
    if n_max >= 1:  # the empty graph is the one class with no parent
        for counts in _map(partial(_scan_f_parent, beta=beta, delta=delta), level, jobs):
            examined += len(counts)
            best = max([best, *counts])
    return BoundedEdgeReport(
        beta=beta,
        delta=delta,
        n_max=n_max,
        value=best,
        graphs_examined=examined,
        wall_seconds=time.monotonic() - t0,
    )


# --- structured family search -----------------------------------------------


@dataclass(frozen=True)
class G0Candidate:
    """Embeddable graph: bounded degree, bounded matching, no isolated
    vertices (isolated vertices are indistinguishable inside a host part)."""

    graph: Graph
    max_degree: int
    matching: int


def g0_candidates(k: int, cap: int = DEFAULT_ENUM_CAP) -> list[G0Candidate]:
    """All isomorphism classes on at most 2k non-isolated vertices with max
    degree <= k-1 and matching number <= k-1, including the empty graph."""
    if 2 * k > cap:
        raise EnumerationCapError(f"2k={2 * k} exceeds the enumeration cap {cap}")
    pred = _bounded_pred(k - 1, k - 1)
    out = [G0Candidate(Graph(0), 0, 0)]
    for size, level in _levels(2 * k, pred):
        if size == 0:
            continue
        for rows, _ in level:
            g = Graph._from_rows_unchecked(rows)
            degs = g.degrees()
            if min(degs) == 0:
                continue
            out.append(G0Candidate(g, max(degs), matching_number(g)))
    return out


def _part_size_vectors(n: int, parts: int, max_imbalance: int) -> list[tuple[int, ...]]:
    """Descending part-size tuples of n into `parts` parts with the largest
    and smallest differing by at most max_imbalance."""
    out: list[tuple[int, ...]] = []
    lo_first = -(-n // parts)  # the largest part is at least ceil(n/parts)

    def rec(prefix: list[int], remaining: int, left: int) -> None:
        if left == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        hi = min(prefix[-1], remaining - (left - 1) * max(1, prefix[0] - max_imbalance))
        lo = max(1, prefix[0] - max_imbalance, -(-remaining // left))
        for s in range(hi, lo - 1, -1):
            rec(prefix + [s], remaining - s, left - 1)

    for first in range(lo_first, lo_first + max_imbalance + 1):
        if first > n - (parts - 1):
            break
        rec([first], n - first, parts - 1)
    return sorted(set(out), reverse=True)


def _scan_family_member(
    member: tuple[tuple[int, ...], str, int], spec: FanSpec, tol: float
) -> dict:
    """Worker: the record of one family member (sizes, g0 graph6, host)."""
    sizes, g0_g6, host = member
    g = embed_in_part(sizes, host, from_graph6(g0_g6).edges())
    witness = contains_fan(g, spec)
    rec = {
        "sizes": sizes,
        "g0": g0_g6,
        "host": host,
        "free": witness is None,
        "edges": g.edge_count() if isinstance(g, StructuredGraph) else g.edge_count,
    }
    if witness is None:
        rec["lam"] = spectral_radius(g, tol=tol).lam
    return rec


def family_search(
    n: int,
    spec: FanSpec | tuple[int, int],
    max_imbalance: int = 2,
    *,
    tol: float = 1e-10,
    jobs: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
) -> ExtremalReport:
    """Maximize the spectral radius over the structured family: every
    near-balanced part-size vector x every embeddable bounded graph x every
    host part, keeping only members the detector certifies fan-free.

    The imbalance sweep deliberately includes unbalanced vectors so balance
    is demonstrated rather than assumed."""
    spec = fanspec_of(spec)
    if spec.r < 3:
        raise ValueError("family search requires clique order r >= 3")
    _check_tol(tol)
    t0 = time.monotonic()
    vectors = _part_size_vectors(n, spec.r - 1, max_imbalance)
    if not vectors:
        raise ValueError(
            f"no part sizes for n={n} in {spec.r - 1} parts with imbalance "
            f"at most {max_imbalance}"
        )
    candidates = g0_candidates(spec.k, cap=cap)
    members = []
    for sizes in vectors:
        for cand in candidates:
            for host in range(len(sizes)):
                if sizes[host] < cand.graph.n:
                    continue
                members.append((sizes, to_graph6(cand.graph), host))

    examined = 0
    free_count = 0
    best: dict | None = None
    for rec in _map(partial(_scan_family_member, spec=spec, tol=tol), members, jobs):
        examined += 1
        if not rec["free"]:
            continue
        free_count += 1
        key = (rec["lam"], rec["edges"], rec["sizes"], rec["g0"], -rec["host"])
        if best is None or key > (
            best["lam"],
            best["edges"],
            best["sizes"],
            best["g0"],
            -best["host"],
        ):
            best = rec

    if best is None:
        raise RuntimeError("no fan-free member in the family sweep")
    formula = _formula_or_none(n, spec)
    witnesses: tuple[str, ...] = ()
    if n <= DENSE_KERNEL_LIMIT:
        # construction labeling is already deterministic; canonicalizing a
        # near-multipartite host would fight its huge automorphism group
        g = embed_in_part(best["sizes"], best["host"], from_graph6(best["g0"]).edges())
        witnesses = (to_graph6(g),)
    winner = {
        "part_sizes": list(best["sizes"]),
        "g0_graph6": best["g0"],
        "host_part": best["host"],
        "edges": best["edges"],
        "lambda": _round12(best["lam"]),
    }
    return ExtremalReport(
        n=n,
        spec=spec,
        mode="lambda",
        best_value=best["lam"],
        witnesses=witnesses,
        graphs_examined=examined,
        free_count=free_count,
        formula_value=formula,
        matches_formula=(formula is not None and best["edges"] == formula.value),
        wall_seconds=time.monotonic() - t0,
        winner=winner,
    )


@dataclass
class MainTheoremReport:
    """Does the family's spectral maximizer have exactly the closed-form
    extremal edge count; optionally cross-checked against the unrestricted
    brute-force maximizer at tiny orders (reported, never asserted)."""

    n: int
    spec: FanSpec
    family_winner_edges: int
    formula_edges: int
    agrees: bool
    brute_force_agrees: bool | None = None
    brute_best_lambda: float | None = None
    brute_best_edges: int | None = None
    wall_seconds: float | None = None

    def to_json_dict(self, timing: bool = True) -> dict:
        return {
            "n": self.n,
            "k": self.spec.k,
            "r": self.spec.r,
            "family_winner_edges": self.family_winner_edges,
            "formula_edges": self.formula_edges,
            "agrees": self.agrees,
            "brute_force_agrees": self.brute_force_agrees,
            "brute_best_lambda": (
                _round12(self.brute_best_lambda)
                if self.brute_best_lambda is not None
                else None
            ),
            "brute_best_edges": self.brute_best_edges,
            "wall_seconds": self.wall_seconds if timing else None,
        }

    def to_json(self, timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(timing=timing))


def verify_main_theorem(
    n: int,
    spec: FanSpec | tuple[int, int],
    max_imbalance: int = 2,
    *,
    tol: float = 1e-10,
    jobs: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
) -> MainTheoremReport:
    """Check that the family's spectral maximizer is edge-extremal (its edge
    count equals the closed form).  For n within the enumeration cap, also
    compare the unrestricted brute-force spectral maximizer's edges against
    the brute-force edge maximum."""
    spec = fanspec_of(spec)
    t0 = time.monotonic()
    fam = family_search(n, spec, max_imbalance, tol=tol, jobs=jobs, cap=cap)
    assert fam.winner is not None and fam.formula_value is not None
    agrees = fam.winner["edges"] == fam.formula_value.value

    brute_agrees = None
    brute_lam = None
    brute_edges = None
    if n <= cap:
        lam_rep = brute_force_extremal(n, spec, "lambda", tol=tol, jobs=jobs, cap=cap)
        edge_rep = brute_force_extremal(n, spec, "edges", jobs=jobs, cap=cap)
        brute_lam = float(lam_rep.best_value)
        brute_edges = int(edge_rep.best_value)
        witness_edges = {from_graph6(s).edge_count for s in lam_rep.witnesses}
        brute_agrees = witness_edges == {brute_edges}
    return MainTheoremReport(
        n=n,
        spec=spec,
        family_winner_edges=fam.winner["edges"],
        formula_edges=fam.formula_value.value,
        agrees=agrees,
        brute_force_agrees=brute_agrees,
        brute_best_lambda=brute_lam,
        brute_best_edges=brute_edges,
        wall_seconds=time.monotonic() - t0,
    )
