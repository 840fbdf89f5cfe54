"""Simple reversible linear recurrence bi-sequences.

A bi-sequence u is defined for every integer index by an order-d
recurrence u_{n+d} = a_1 u_{n+d-1} + ... + a_d u_n together with an
initial window.  Integrality at negative indices holds exactly when
a_d = +-1 (Fatou), which is enforced at construction.

Growth certificate.  For a nonzero order-2 sequence with |a_1| >= 3 (and
|a_2| = 1), once |u_{n+1}| > |u_n| we have
|u_{n+2}| >= |a_1|*|u_{n+1}| - |u_n| > (|a_1| - 1)*|u_{n+1}| > |u_{n+1}|,
and the same holds backward.  So the indices where |u| rises form a
half-line in each direction, and `growth_radius` walks from index 0 to
the first rise each way.  Every Pell orbit has a_1 = 2*w0 >= 4.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .numtheory import union_classes

__all__ = ["Lrbs", "IndexSet", "period_mod", "filter_congruence", "growth_radius"]


@dataclass(frozen=True)
class Lrbs:
    """Integer bi-sequence with reversible recurrence (trailing coefficient +-1)."""

    coeffs: tuple[int, ...]   # a_1 .. a_d
    initial: tuple[int, ...]  # u_0 .. u_{d-1}

    def __post_init__(self) -> None:
        if not self.coeffs or len(self.coeffs) != len(self.initial):
            raise ValueError("need d >= 1 coefficients and an initial window of the same length")
        if self.coeffs[-1] not in (1, -1):
            raise ValueError("reversibility requires the trailing coefficient to be +-1")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def eval(self, n: int) -> int:
        """u_n by forward or backward recurrence."""
        d = self.order
        window = list(self.initial)
        if 0 <= n < d:
            return window[n]
        if n >= d:
            for _ in range(n - d + 1):
                nxt = sum(self.coeffs[i] * window[d - 1 - i] for i in range(d))
                window = window[1:] + [nxt]
            return window[-1]
        ad = self.coeffs[-1]
        for _ in range(-n):
            head = window[-1] - sum(self.coeffs[i] * window[d - 2 - i] for i in range(d - 1))
            # ad = +-1 so the division is exact
            window = [head if ad == 1 else -head] + window[:-1]
        return window[0]

    def values(self, lo: int, hi: int) -> list[int]:
        """u_lo .. u_hi via a single sweep."""
        out = [self.eval(lo + i) for i in range(min(self.order, hi - lo + 1))]
        for _ in range(hi - lo + 1 - self.order):
            out.append(sum(c * out[-1 - i] for i, c in enumerate(self.coeffs)))
        return out


@lru_cache(maxsize=None)
def period_mod(seq: Lrbs, modulus: int) -> tuple[int, tuple[int, ...]]:
    """Minimal P with u_{n+P} = u_n (mod modulus) for all n, plus one period of residues.

    The state map on windows mod M is invertible (trailing coefficient is a
    unit mod anything), so the orbit of the initial window is purely
    periodic and the first return gives the exact period.
    """
    if modulus < 1:
        raise ValueError("need modulus >= 1")
    if modulus == 1:
        return 1, (0,)
    d = seq.order
    start = tuple(u % modulus for u in seq.initial)
    state = start
    table = [start[0]]
    steps = 0
    limit = modulus**d + 1
    while True:
        nxt = sum(seq.coeffs[i] * state[d - 1 - i] for i in range(d)) % modulus
        state = state[1:] + (nxt,)
        steps += 1
        if state == start:
            break
        table.append(state[0])
        if steps > limit:  # pragma: no cover
            raise ArithmeticError("state map failed to cycle; invariant broken")
    return steps, tuple(table)


@dataclass(frozen=True)
class IndexSet:
    """The indices n with n mod `period` in `residues`, at the least period.

    The same (period, residues) form that `numtheory.residue_classes`
    returns: `residues` is ascending, and no proper divisor of `period` is
    a period of the set.  The empty set is (1, ()).  Every operation
    expands both sides to the lcm of their periods and reduces the result
    through `numtheory.union_classes`.
    """

    period: int = 1
    residues: tuple[int, ...] = ()

    @staticmethod
    def nothing() -> "IndexSet":
        return IndexSet()

    @staticmethod
    def from_residues(modulus: int, residues) -> "IndexSet":
        return IndexSet(*union_classes([(modulus, {r % modulus for r in residues})]))

    def __contains__(self, n: int) -> bool:
        return n % self.period in self.residues

    def is_empty(self) -> bool:
        return not self.residues

    def _at(self, L: int) -> set[int]:
        return {r + self.period * k for r in self.residues for k in range(L // self.period)}

    def _combine(self, other: "IndexSet", op) -> "IndexSet":
        L = math.lcm(self.period, other.period)
        return IndexSet.from_residues(L, op(self._at(L), other._at(L)))

    def intersect(self, other: "IndexSet") -> "IndexSet":
        return self._combine(other, operator.and_)

    def subtract(self, other: "IndexSet") -> "IndexSet":
        return self._combine(other, operator.sub)

    def union(self, other: "IndexSet") -> "IndexSet":
        return self._combine(other, operator.or_)

    def map_affine(self, stride: int, offset: int) -> "IndexSet":
        """Image under n |-> stride*n + offset (stride != 0)."""
        if stride == 0:
            raise ValueError("stride must be nonzero")
        return IndexSet.from_residues(abs(stride) * self.period, [stride * r + offset for r in self.residues])


def filter_congruence(seq: Lrbs, modulus: int, residue: int) -> IndexSet:
    """Exact set of indices n with u_n = residue (mod modulus), at its least period."""
    if modulus < 1 or not 0 <= residue < modulus:
        raise ValueError("need modulus >= 1 and 0 <= residue < modulus")
    period, table = period_mod(seq, modulus)
    hits = [s for s in range(period) if table[s] == residue % modulus]
    return IndexSet.from_residues(period, hits)


def _first_rise(a1: int, a2: int, u: int, v: int) -> int:
    """The least n >= 0 with |u_{n+1}| > |u_n|, from (u_0, u_1) = (u, v)."""
    n = 0
    while abs(v) <= abs(u):
        n, u, v = n + 1, v, a1 * v + a2 * u
    return n


def growth_radius(seq: Lrbs) -> int:
    """The least R >= 0 with |u_{n+1}| > |u_n| for every n >= R and
    |u_{n-1}| > |u_n| for every n <= -R.

    Needs the growth certificate's precondition: order 2, |a_1| >= 3 and
    a nonzero sequence.  The backward direction is the forward walk of the
    mirrored sequence u_{-n}, whose recurrence is (-a_1*a_2, a_2).
    """
    if seq.order != 2 or abs(seq.coeffs[0]) < 3:
        raise ValueError("the growth certificate needs order 2 and |a_1| >= 3")
    if not any(seq.initial):
        raise ValueError("the zero sequence does not grow")
    (a1, a2), (u0, u1) = seq.coeffs, seq.initial
    return max(_first_rise(a1, a2, u0, u1), _first_rise(-a1 * a2, a2, u0, a2 * (u1 - a1 * u0)))
