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
level are independent tasks: `_map` runs a stride of them in each forked
worker and another in the caller.

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
it writes out as canonical graph6: the witnesses, in the report and at
each checkpoint.

Enumeration accepts an optional hereditary predicate (closed under vertex
deletion, e.g. bounded degree + bounded matching); restricted to such a
class it remains exactly-once: every member's deletion parent is again a
member.  The invariant filter runs before the predicate, and the
predicate before any labeling, so it sees fewer children and a child it
rejects is never labeled.  It sees each child as built, the parent's rows
with the new vertex last, and every parent is a member, so a predicate may
assume that the child less its last vertex satisfies it.  That
restriction is what makes the bounded-degree/bounded-matching edge
maximum searchable at nine vertices.

`brute` walks the fan-free classes only: fan-freeness is hereditary, so
it is the predicate of every level and of the scan.  A fan of a child
P + w of a fan-free P uses w, as the centre or in a clique, so its centre
lies in N[w], and `fan_free_through_last` tests only those centres.  A
class that holds a fan is never built, nor is any class above it, since
each of those holds the fan too.  `graphs_examined` is still the number of
classes on n vertices, counted in closed form (`graph_count`), and the
walk builds the fan-free ones among them: at n = 7 for (2,3) it builds 400
children of 98 parents where the walk over every class built 1,044 of
156, and it labels 328 graphs against 638 (at n = 8, 1,577 against
5,660).

One walk scores both modes.  `_scan_parent` is the one worker of `brute`,
`brutef` and `verify`: it takes the predicate and an optional λ floor, and
hands back each parent's count of kept children, the children at the
parent's top edge count, and, given a floor, its λ-scored children.  The
merge keeps a (best, classes) pair per score, and so does the checkpoint.
A parent's children below its own top edge count cannot reach the best
edge count of the run, so only the top ones cross the pipe.  Edges mode
and `brutef` pass no floor and bracket nothing; a lambda walk reads the
edge count of every fan-free child for one `bit_count` sum each, so
`verify` takes the λ maximizers and the edge maximum from one walk, and
builds the fan-free levels once.

`brute` in lambda mode scores only the fan-free children that can reach
the best value, each by its exact λ, and its witnesses are the classes
whose score equals the best exactly, as in edges mode.  A score is λ
correctly rounded to a float: `exact_spectral_radius` brackets λ in Python
ints on the twin quotient (the Collatz–Wielandt max ratio above, the
Rayleigh quotient below) and returns the float both bounds round to.
Rounding is monotone, so λ ≤ μ gives score(λ) ≤ score(μ).  T(n, r−1) is
K_r-free, so F_{k,r}-free, and the floor is its score, computed once
before the scan.  A child's walk bound W = max_v Σ_{u∼v} d_u is the
largest row sum of A², so λ² = λ(A²) ≤ W, and its score is at most
`math.sqrt(W)`, the rounded √W.  The worker counts every fan-free child,
and takes those with `math.sqrt(W)` ≥ floor, in descending W, so the
likely winners come first.  It drops a child, unscored, once the rounded
upper bracket is below max(floor, the parent's best score so far).  The
Turán class is never skipped (λ_T ≤ √W_T, so its score, the floor, is at
most `math.sqrt(W_T)`) and never dropped at the floor (its upper bracket
is at least λ_T); it is dropped only below a better score of its own
parent.  Either way the best score is at least the floor.  A skipped child
scores at most `math.sqrt(W)`, below the floor, and a dropped one at most
its rounded upper bracket, below the floor or a score of the run.  So no
class the worker skips or drops scores the best, and the report is that of
scoring every child: the examined and fan-free counts, the witnesses, and
the best value to its 12 digits.  The state in a mid-run checkpoint is
not: with a worker that scores every child, the λ score's `best` and
`cands` also hold classes below the floor, which this worker never
scores.  What holds is
that a resume from any checkpoint ends in the same report, since every
class the worker skips is below the final best.  `brute` makes no float
solve, so `ConvergenceError` comes only from a bracket still open after
DEFAULT_MAX_ITERS steps.  At n = 7 the (2,3) scan brackets 77 of its 400
fan-free classes and scores 8 of them, besides the floor's own bracket of
T(7, 2); at n = 8 it brackets 108 of 2,290 and scores 8.  These counts are
those of the walk over every class: each fan-free class has the same
parent, and meets the same siblings before it, in both walks.

Everything is deterministic: reports are identical regardless of worker
count (partials merge by order-free reductions and witness lists sort by
canonical graph6).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, fields
from functools import partial
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .canon import CanonicalInfo, canonical_form, canonical_info
from .families import FanSpec, embed_in_part, fanspec_of, turan_graph
from .formulas import fan_extremal_number, graph_count
from .graphs import (
    DENSE_KERNEL_LIMIT,
    Graph,
    _edge_count,
    _mask_bits,
    _mask_image,
    from_graph6,
    permuted_rows,
    to_graph6,
)
from .patterns import (
    clique_packing_number,
    contains_fan,
    fan_free_through_last,
    matching_number,
)
from .spectral import exact_spectral_radius, spectral_radius

DEFAULT_ENUM_CAP = 10
# the family's part sizes differ by at most this much
MAX_IMBALANCE = 2
# classes built between two checkpoint saves of `brute_force_extremal`
CHECKPOINT_CLASSES = 10**6


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


def _json_value(x):
    """x as JSON data: floats to 12 significant digits, tuples and lists as
    lists, frozensets as sorted lists, dicts by value."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, (tuple, list)):
        return [_json_value(v) for v in x]
    if isinstance(x, frozenset):
        return [_json_value(v) for v in sorted(x)]
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    return x


def _fields_json(record) -> dict:
    """A dataclass record as a JSON object: its fields, in order."""
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record)}


class _Report:
    """A report's JSON line: its fields in order, `wall_seconds` nulled
    unless timing."""

    def to_json(self, timing: bool = True) -> str:
        d = _fields_json(self)
        if not timing:
            d["wall_seconds"] = None
        return json.dumps(d)


@dataclass
class ExtremalReport(_Report):
    """Outcome of an exhaustive search for extremal values; the closed form
    (`formula_value`, `applicable`) is None below clique order 3.

    `graphs_examined` counts the classes the search covers.  For `brute`
    that is every class on n vertices, by the cycle-index count
    `graph_count(n)`: the walk builds the fan-free ones (`free_count`) and
    rules out the rest by heredity, since a class with a fan never has a
    fan-free one above it.  For `family` it is the number of members."""

    n: int
    k: int
    r: int
    mode: str
    best_value: float | int | None
    formula_value: int | None
    applicable: bool | None
    matches_formula: bool | None
    witnesses: tuple[str, ...]
    graphs_examined: int
    free_count: int
    wall_seconds: float | None = None


@dataclass(kw_only=True)
class FamilyReport(ExtremalReport):
    """Outcome of the structured family search, with its winning member:
    part sizes, g0 graph6, host part, edges and λ."""

    winner: dict


def _formula(n: int, spec: FanSpec) -> tuple[int | None, bool | None]:
    """A report's `formula_value` and `applicable`: the closed form's, or
    None below clique order 3."""
    if spec.r < 3:
        return None, None
    formula = fan_extremal_number(n, spec)
    return formula.value, formula.applicable


# --- exhaustive extremal search ---------------------------------------------


def _walk_bound(rows: Rows) -> int:
    """max_v of the degree sum of v's neighbours: the largest row sum of A²,
    so λ(A)² = λ(A²) is at most it."""
    deg = [row.bit_count() for row in rows]
    return max(sum(deg[u] for u in _mask_bits(row)) for row in rows)


def _scan_parent(
    parent: ClassRep, pred: Pred, floor: float | None = None
) -> tuple[int, list[list[tuple[float | int, Rows]]]]:
    """Worker: the number of children of one parent that pred keeps, and
    (value, rows) for each child it scores, one list per score, the rows as
    built: the predicate, edges and λ do not depend on the labeling.  The
    first list holds the children at the parent's top edge count.  Given a
    λ floor, a second holds the children it scores, in descending walk
    bound W, among those with √W at least floor, each by its exact λ; it
    drops a child once its score is shown below floor and below this
    parent's best score so far.

    The augmentation acceptance test is exactly-once per isomorphism class
    across all parents, so the parents partition the classes pred keeps."""
    kept = [crows for crows, _ in _children_of_parent_aug(parent, pred)]
    edges = [_edge_count(crows) for crows in kept]
    top = max(edges, default=0)
    top_edges = [(e, crows) for e, crows in zip(edges, kept) if e == top]
    if floor is None:
        return len(kept), [top_edges]
    bounded = [(w, crows) for crows in kept if math.sqrt(w := _walk_bound(crows)) >= floor]
    bounded.sort(key=itemgetter(0), reverse=True)
    scored = []
    best = -math.inf
    for _, crows in bounded:
        lam = exact_spectral_radius(Graph._from_rows_unchecked(crows), max(floor, best))
        if lam is not None:
            scored.append((lam, crows))
            best = max(best, lam)
    return len(kept), [top_edges, scored]


def _serve(fn, tasks: Sequence, fd: int, inherited) -> None:
    """Worker: each result of fn over tasks, or the exception a task raised
    (then no more), as one pickle record on fd, flushed per result; then
    leave by os._exit, so nothing of the caller's runs in the worker.  A
    write after the caller has gone raises BrokenPipeError, which ends it."""
    import pickle

    try:
        for f in inherited:  # the read ends, which only the caller reads
            f.close()
        with open(fd, "wb") as out:
            for task in tasks:
                try:
                    ok, value = True, fn(task)
                except Exception as exc:
                    ok, value = False, exc
                out.write(pickle.dumps((ok, value)))
                out.flush()
                if not ok:
                    break
    finally:
        os._exit(0)


def _map(fn, tasks: Sequence, jobs: int) -> Iterator:
    """fn over tasks, results in task order.  At one job (or where there is
    no os.fork) the builtin map.  Else the caller is worker 0: it forks
    min(jobs, len(tasks)) − 1 workers, worker j runs tasks[j::jobs] from
    the memory it was forked with and streams its results through its own
    pipe, and the caller runs its own share between reading the others'.
    An exception a task raised is raised here in its turn.  However the map
    ends, normally, by an exception or because the caller stops reading, it
    closes the pipes and kills and reaps every worker it started."""
    jobs = min(jobs, len(tasks))
    if jobs <= 1 or not hasattr(os, "fork"):
        yield from map(fn, tasks)
        return
    import pickle
    import signal

    readers = []
    pids = []
    try:
        for j in range(1, jobs):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, tasks[j::jobs], w, readers)
                pids.append(pid)
            finally:
                os.close(w)
        for i, task in enumerate(tasks):
            if i % jobs == 0:
                yield fn(task)
                continue
            try:
                ok, value = pickle.load(readers[i % jobs - 1])
            except EOFError:
                raise ChildProcessError(f"a worker ended before task {i} was done") from None
            if not ok:
                raise value
            yield value
    finally:
        for f in readers:
            f.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_score_state(state, n: int) -> bool:
    """Whether a checkpoint's entry for one score is {"best", "cands"}: a
    finite number or None, and graph6 strings on n vertices, present exactly
    when best is."""
    return (
        isinstance(state, dict)
        and state.keys() == {"best", "cands"}
        # an int is finite, and math.isfinite overflows on a huge one
        and ((best := state["best"]) is None or _is_int(best)
             or isinstance(best, float) and math.isfinite(best))
        and isinstance(cands := state["cands"], list)
        and (best is None) == (not cands)
        and all(isinstance(s, str) and from_graph6(s).n == n for s in cands)
    )


def _graph6_of(cands: list[Rows]) -> list[str]:
    """Each class's rows as canonical graph6."""
    return [to_graph6(canonical_form(Graph._from_rows_unchecked(c))) for c in cands]


def _write_json_atomic(path: str, obj) -> None:
    """Replace `path` with `obj` as JSON; a crash mid-write leaves the old
    file in place (the new one is written beside it, then renamed over)."""
    import tempfile

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


def _fan_free_walk(
    n: int, spec: FanSpec, mode: str, jobs: int, checkpoint_path: str | None = None
) -> tuple[int, dict[str, list]]:
    """The number of fan-free classes on n vertices and, for each score the
    walk carries, [best value, the classes that score it, as built]: the
    edge count, and in lambda mode λ too, from the same children.

    With a checkpoint path, a file already there is resumed when its key
    (n, k, r, mode, acceptance rule, walk) is this run's and it holds every
    score the walk carries, and is otherwise a ValueError, and never
    written; only the cursor's upper bound, the number of fan-free parents,
    is checked after the levels are built.  The state is saved after each
    parent that brings the classes built since the last save to
    CHECKPOINT_CLASSES.  Results reach the merge one parent at a time at
    every job count, so a save can follow any parent, and a kill loses only
    the parents after the last save, with whatever the workers finished
    ahead of the merge."""
    start = free = 0
    # per score, the best value and the fan-free classes that score it, as
    # built: only a checkpoint and the report label them, for canonical
    # graph6.  Every walk scores edges, and a lambda walk λ too.
    scores: dict[str, list] = {s: [None, []] for s in ("edges", mode)}

    ckpt_key = {
        "kind": "brute",
        "n": n,
        "k": spec.k,
        "r": spec.r,
        "mode": mode,
        # the acceptance rule decides which parent emits each class, so a
        # parent cursor means nothing under another rule
        "deletion_vertex": "max-invariant",
        # the parents are the fan-free classes on n − 1 vertices; a cursor
        # over all classes belongs to another walk
        "walk": "fan-free",
    }
    if checkpoint_path and os.path.exists(checkpoint_path):
        with open(checkpoint_path) as fh:
            state = json.load(fh)
        # any other key (a batch cursor, or one best for the run) belongs to
        # another format
        if (
            not isinstance(state, dict)
            or state.keys() != {*ckpt_key, "parent_cursor", "free", *scores}
            or {k: state[k] for k in ckpt_key} != ckpt_key
        ):
            raise ValueError("checkpoint does not match this run's parameters")
        start, free = state["parent_cursor"], state["free"]
        if not (
            _is_int(start)
            and start >= 0
            and _is_int(free)
            and free >= 0
            and all(_is_score_state(state[s], n) for s in scores)
        ):
            raise ValueError("checkpoint progress is malformed")
        for s, pair in scores.items():
            pair[:] = state[s]["best"], [from_graph6(g).rows for g in state[s]["cands"]]

    fan_free = partial(fan_free_through_last, spec=spec)
    for _, parents in _levels(n - 1, fan_free):
        pass
    if start > len(parents):
        raise ValueError("checkpoint progress is malformed")

    since_ckpt = 0
    # T(n, r−1) is K_r-free, so fan-free, and its score is a floor under the
    # best λ (module docstring); edges mode passes none, and brackets nothing
    floor = exact_spectral_radius(turan_graph(n, spec.r - 1)) if mode == "lambda" else None
    scan = partial(_scan_parent, pred=fan_free, floor=floor)
    # closed here, not when the frame goes, so a failed save stops the workers
    with contextlib.closing(_map(scan, parents[start:], jobs)) as results:
        for cursor, (count, scored) in enumerate(results, start + 1):
            free += count
            for pair, values in zip(scores.values(), scored):
                for value, crows in values:
                    if pair[0] is None or value > pair[0]:
                        pair[:] = value, []
                    if value == pair[0]:
                        pair[1].append(crows)
            since_ckpt += count
            if checkpoint_path and since_ckpt >= CHECKPOINT_CLASSES:
                since_ckpt = 0
                state = {**ckpt_key, "parent_cursor": cursor, "free": free}
                for s, (best, cands) in scores.items():
                    state[s] = {"best": best, "cands": _graph6_of(cands)}
                _write_json_atomic(checkpoint_path, state)
    return free, scores


def brute_force_extremal(
    n: int,
    spec: FanSpec | tuple[int, int],
    mode: str = "edges",
    *,
    jobs: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
    checkpoint_path: str | None = None,
) -> ExtremalReport:
    """Exact maximum edges or spectral radius over every fan-free
    isomorphism class on n vertices, with all achieving witnesses: the
    pair of `mode` from one `_fan_free_walk`, which also saves and resumes
    the checkpoint at checkpoint_path."""
    spec = fanspec_of(spec)
    if mode not in ("edges", "lambda"):
        raise ValueError("mode must be 'edges' or 'lambda'")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds the enumeration cap {cap}")
    if checkpoint_path and not os.path.isdir(os.path.dirname(os.path.abspath(checkpoint_path))):
        raise ValueError(f"checkpoint directory of {checkpoint_path!r} does not exist")
    t0 = time.monotonic()
    free, scores = _fan_free_walk(n, spec, mode, jobs, checkpoint_path)
    best, cands = scores[mode]
    formula, applicable = _formula(n, spec)
    return ExtremalReport(
        n=n,
        k=spec.k,
        r=spec.r,
        mode=mode,
        best_value=best,
        formula_value=formula,
        applicable=applicable,
        matches_formula=None if formula is None else {_edge_count(c) for c in cands} == {formula},
        witnesses=tuple(sorted(_graph6_of(cands))),
        graphs_examined=graph_count(n),
        free_count=free,
        wall_seconds=time.monotonic() - t0,
    )


# --- bounded degree + bounded matching edge maximum -------------------------


def _bounded_pred(beta: int, delta: int) -> Pred:
    def pred(g: Graph) -> bool:
        if g.n and max(g.degrees()) > delta:
            return False
        return clique_packing_number(g, 2, beta + 1) <= beta

    return pred


@dataclass
class BoundedEdgeReport(_Report):
    beta: int
    delta: int
    n_max: int
    value: int
    graphs_examined: int
    wall_seconds: float | None = None


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
    tiny sliver of all isomorphism classes.  `graphs_examined` counts the
    classes on every order up to n_max, but the maximum is read off the
    last level alone: a graph padded with isolated vertices keeps its Δ and
    ν, so every smaller class has a copy on n_max vertices with its edges.
    That level is scanned, not stored, by the worker of `brute` with no λ
    floor, which hands back each parent's children at its top edge count."""
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
    if n_max >= 1:  # the empty graph is the one class with no parent
        for count, (top,) in _map(partial(_scan_parent, pred=pred), level, jobs):
            examined += count
            best = max([best, *(e for e, _ in top)])
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


def g0_candidates(k: int) -> list[G0Candidate]:
    """All isomorphism classes on at most 2k non-isolated vertices with max
    degree <= k-1 and matching number <= k-1, including the empty graph."""
    if 2 * k > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(f"2k={2 * k} exceeds the enumeration cap {DEFAULT_ENUM_CAP}")
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
    """Descending part-size tuples of n into `parts` positive parts with the
    largest and smallest differing by at most max_imbalance.  Every part
    then lies between ceil(n/parts) − max_imbalance and floor(n/parts) +
    max_imbalance; combinations of a descending range come out descending."""
    lo = max(1, -(-n // parts) - max_imbalance)
    sizes = range(n // parts + max_imbalance, lo - 1, -1)
    return [
        v
        for v in combinations_with_replacement(sizes, parts)
        if sum(v) == n and v[0] - v[-1] <= max_imbalance
    ]


# one family member: part sizes, g0 as graph6 and as edges, host part
Member = tuple[tuple[int, ...], str, tuple[tuple[int, int], ...], int]


def _family_members(n: int, spec: FanSpec) -> list[Member]:
    """Every part-size vector within MAX_IMBALANCE x every g0 candidate x
    every host part that can hold it."""
    vectors = _part_size_vectors(n, spec.r - 1, MAX_IMBALANCE)
    if not vectors:
        raise ValueError(
            f"no part sizes for n={n} in {spec.r - 1} parts with imbalance "
            f"at most {MAX_IMBALANCE}"
        )
    candidates = [
        (to_graph6(cand.graph), tuple(cand.graph.edges()), cand.graph.n)
        for cand in g0_candidates(spec.k)
    ]
    return [
        (sizes, g0_g6, g0_edges, host)
        for sizes in vectors
        for g0_g6, g0_edges, order in candidates
        for host in range(len(sizes))
        if sizes[host] >= order
    ]


def _member_edges(member: Member) -> int:
    """A member's edge count: the cross pairs of its parts plus g0's edges."""
    sizes, _, g0_edges, _ = member
    return (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2 + len(g0_edges)


def _member_lambda(member: Member, spec: FanSpec) -> float | None:
    """Worker: λ of one family member, or None when it contains the fan."""
    sizes, _, g0_edges, host = member
    g = embed_in_part(sizes, host, g0_edges)
    if contains_fan(g, spec) is not None:
        return None
    return spectral_radius(g).lam


def family_search(
    n: int, spec: FanSpec | tuple[int, int], *, jobs: int = 1
) -> FamilyReport:
    """Maximize the spectral radius over the structured family: every
    part-size vector of n into r - 1 parts whose sizes differ by at most
    MAX_IMBALANCE x every embeddable bounded graph (`g0_candidates(k)`) x
    every host part, keeping only members the detector certifies fan-free.
    Of the members with exactly the best λ the winner has the fewest edges.
    No member has more edges than the closed form, so `matches_formula`
    holds exactly when every maximizer in the family has the closed form's
    count.

    The sweep deliberately includes unbalanced vectors so balance is
    demonstrated rather than assumed."""
    spec = fanspec_of(spec)
    if spec.r < 3:
        raise ValueError("family search requires clique order r >= 3")
    t0 = time.monotonic()
    members = _family_members(n, spec)

    free_count = 0
    best = best_key = None
    scan = partial(_member_lambda, spec=spec)
    # strict: the map is read to its end, so its workers are reaped here
    for member, lam in zip(members, _map(scan, members, jobs), strict=True):
        if lam is None:
            continue
        free_count += 1
        sizes, g0_g6, _, host = member
        key = (lam, -_member_edges(member), sizes, g0_g6, -host)
        if best is None or key > best_key:
            best, best_key = member, key

    if best is None:
        raise RuntimeError("no fan-free member in the family sweep")
    sizes, g0_g6, g0_edges, host = best
    lam, edges = best_key[0], _member_edges(best)
    formula, applicable = _formula(n, spec)
    witnesses: tuple[str, ...] = ()
    if n <= DENSE_KERNEL_LIMIT:
        # construction labeling is already deterministic; canonicalizing a
        # near-multipartite host would fight its huge automorphism group
        witnesses = (to_graph6(embed_in_part(sizes, host, g0_edges)),)
    return FamilyReport(
        n=n,
        k=spec.k,
        r=spec.r,
        mode="lambda",
        best_value=lam,
        formula_value=formula,
        applicable=applicable,
        matches_formula=edges == formula,
        witnesses=witnesses,
        graphs_examined=len(members),
        free_count=free_count,
        wall_seconds=time.monotonic() - t0,
        winner={
            "part_sizes": list(sizes),
            "g0_graph6": g0_g6,
            "host_part": host,
            "edges": edges,
            "lambda": lam,
        },
    )


@dataclass
class MainTheoremReport(_Report):
    """Does the family's spectral maximizer have exactly the closed-form
    extremal edge count; optionally cross-checked against the unrestricted
    brute-force maximizer at tiny orders (reported, never asserted)."""

    n: int
    k: int
    r: int
    family_winner_edges: int
    formula_edges: int
    agrees: bool
    brute_force_agrees: bool | None = None
    brute_best_lambda: float | None = None
    brute_best_edges: int | None = None
    wall_seconds: float | None = None


def verify_main_theorem(
    n: int, spec: FanSpec | tuple[int, int], *, jobs: int = 1
) -> MainTheoremReport:
    """Check that the family's spectral maximizer is edge-extremal (its edge
    count equals the closed form).  For n <= DEFAULT_ENUM_CAP, also compare
    the edge counts of the unrestricted brute-force spectral maximizers with
    the brute-force edge maximum.  Both come from one lambda-mode walk of
    the fan-free classes (`_fan_free_walk`, as `brute` makes it), which
    carries the edge score beside λ; the report depends on n, k and r
    alone."""
    spec = fanspec_of(spec)
    t0 = time.monotonic()
    fam = family_search(n, spec, jobs=jobs)

    brute_agrees = brute_lam = brute_edges = None
    if n <= DEFAULT_ENUM_CAP:
        _, scores = _fan_free_walk(n, spec, "lambda", jobs)
        (brute_edges, _), (brute_lam, lam_cands) = scores.values()
        brute_agrees = {_edge_count(c) for c in lam_cands} == {brute_edges}
    return MainTheoremReport(
        n=n,
        k=spec.k,
        r=spec.r,
        family_winner_edges=fam.winner["edges"],
        formula_edges=fam.formula_value,
        agrees=fam.matches_formula,
        brute_force_agrees=brute_agrees,
        brute_best_lambda=brute_lam,
        brute_best_edges=brute_edges,
        wall_seconds=time.monotonic() - t0,
    )
