"""Closed-form extremal edge counts and their validity thresholds, and the
number of graphs on n vertices up to isomorphism.

Values below a threshold are still computed (they are useful as conjectured
targets for the brute-force oracle); the ``applicable`` flag records whether
the closed form is known to be exact at that order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd, prod
from typing import Iterator

from .families import FanSpec, fanspec_of


def turan_number_t(n: int, p: int) -> int:
    """Edge count of the balanced complete p-partite graph on n vertices."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    q, rem = divmod(n, p)
    # C(n,2) minus the within-part pairs: rem parts of size q+1, p-rem of size q
    internal = rem * (q + 1) * q // 2 + (p - rem) * q * (q - 1) // 2
    return n * (n - 1) // 2 - internal


def chvatal_hanson_f(beta: int, delta: int) -> int:
    """Maximum edges of a graph with matching number <= beta and maximum
    degree <= delta: delta*beta + floor(delta/2) * floor(beta / ceil(delta/2))."""
    if beta < 0 or delta < 0:
        raise ValueError("beta and delta must be nonnegative")
    if beta == 0 or delta == 0:
        return 0
    half_up = (delta + 1) // 2
    return delta * beta + (delta // 2) * (beta // half_up)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most largest, parts descending."""
    if n == 0:
        yield ()
        return
    for a in range(min(n, largest), 0, -1):
        for rest in _partitions(n - a, a):
            yield (a, *rest)


def graph_count(n: int) -> int:
    """The number of isomorphism classes of graphs on n vertices (OEIS
    A000088), by Pólya's cycle-index count (Harary & Palmer, *Graphical
    Enumeration*, 1973): by Burnside, the mean over the permutations of
    [n] of 2^(cycles they induce on the vertex pairs), summed by cycle
    type.  Cycles of lengths a and b give gcd(a, b) cycles of pairs, and
    one cycle of length a gives a // 2 on its own pairs."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for parts in _partitions(n, n):
        pair_cycles = sum(a // 2 for a in parts) + sum(
            gcd(a, b) for i, a in enumerate(parts) for b in parts[i + 1 :]
        )
        # n! / z is the number of permutations of this cycle type
        z = prod(a**m * factorial(m) for a, m in Counter(parts).items())
        total += factorial(n) // z << pair_cycles
    return total // factorial(n)


@dataclass(frozen=True)
class FormulaResult:
    value: int
    applicable: bool
    threshold: int


def fan_extremal_number(n: int, spec: FanSpec | tuple[int, int]) -> FormulaResult:
    """Maximum edges of an n-vertex graph with no k cliques of order r
    meeting in one vertex: t_{r-1}(n) + f(k-1, k-1).

    The exactness threshold is 50k^2 for r=3 and 16k^3 r^8 otherwise.
    """
    spec = fanspec_of(spec)
    if spec.r <= 2:
        raise ValueError("closed form requires clique order r >= 3")
    value = turan_number_t(n, spec.r - 1) + chvatal_hanson_f(spec.k - 1, spec.k - 1)
    if spec.r == 3:
        threshold = 50 * spec.k**2
    else:
        threshold = 16 * spec.k**3 * spec.r**8
    return FormulaResult(value=value, applicable=n >= threshold, threshold=threshold)
