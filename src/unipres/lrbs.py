"""Simple reversible linear recurrence bi-sequences.

A bi-sequence u is defined for every integer index by an order-d
recurrence u_{n+d} = a_1 u_{n+d-1} + ... + a_d u_n together with an
initial window.  Integrality at negative indices holds exactly when
a_d = +-1 (Fatou), which is enforced at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .pell import QuadNum

__all__ = ["Lrbs", "IndexSet", "GrowthRank", "period_mod", "filter_congruence", "growth_rank"]


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

    def is_simple(self) -> bool:
        """Characteristic polynomial squarefree (orders 1 and 2 only)."""
        if self.order == 1:
            return True
        if self.order == 2:
            a1, a2 = self.coeffs
            return a1 * a1 + 4 * a2 != 0
        raise NotImplementedError("simplicity test implemented for order <= 2")

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
        if hi < lo:
            return []
        out = [self.eval(lo)]
        d = self.order
        window = [self.eval(lo + i) for i in range(d)]
        for n in range(lo + 1, hi + 1):
            if n < lo + d:
                out.append(window[n - lo])
                continue
            nxt = sum(self.coeffs[i] * window[d - 1 - i] for i in range(d))
            window = window[1:] + [nxt]
            out.append(nxt)
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
    """(union of arithmetic progressions) + added points - removed points.

    Progressions are (offset, modulus) with modulus >= 1 and reduced
    offsets.  `added` and `removed` are disjoint from / contained in the
    progression union, giving a representation closed under complement.
    """

    aps: tuple[tuple[int, int], ...] = ()
    added: frozenset[int] = frozenset()
    removed: frozenset[int] = frozenset()

    @staticmethod
    def nothing() -> "IndexSet":
        return IndexSet()

    @staticmethod
    def from_residues(modulus: int, residues) -> "IndexSet":
        return IndexSet(aps=tuple(sorted((r % modulus, modulus) for r in set(residues))))

    def _in_aps(self, n: int) -> bool:
        return any(n % m == o for o, m in self.aps)

    def __contains__(self, n: int) -> bool:
        if n in self.removed:
            return False
        return n in self.added or self._in_aps(n)

    def is_empty(self) -> bool:
        return not self.aps and not self.added

    def _lcm(self) -> int:
        L = 1
        for _, m in self.aps:
            L = L * m // math.gcd(L, m)
        return L

    def _residues(self, L: int) -> set[int]:
        out: set[int] = set()
        for o, m in self.aps:
            out.update(range(o % m, L, m))
        return out

    def _canon(self, L: int, residues: set[int], added: set[int], removed: set[int]) -> "IndexSet":
        added = {n for n in added if n % L not in residues}
        removed = {n for n in removed if n % L in residues}
        if len(residues) == L:
            aps: tuple[tuple[int, int], ...] = ((0, 1),)
        else:
            aps = tuple(sorted((r, L) for r in residues))
        return IndexSet(aps, frozenset(added), frozenset(removed))

    def intersect(self, other: "IndexSet") -> "IndexSet":
        L = self._lcm() * other._lcm() // math.gcd(self._lcm(), other._lcm())
        res = self._residues(L) & other._residues(L)
        added = {n for n in self.added | other.added if n in self and n in other}
        removed = set(self.removed | other.removed)
        return self._canon(L, res, added, removed)

    def subtract(self, other: "IndexSet") -> "IndexSet":
        L = self._lcm() * other._lcm() // math.gcd(self._lcm(), other._lcm())
        res = self._residues(L) - other._residues(L)
        added = {n for n in self.added if n not in other}
        removed = set(self.removed) | {n for n in other.added if self._in_aps(n)}
        return self._canon(L, res, added, removed)

    def union(self, other: "IndexSet") -> "IndexSet":
        L = self._lcm() * other._lcm() // math.gcd(self._lcm(), other._lcm())
        res = self._residues(L) | other._residues(L)
        added = set(self.added | other.added)
        removed = {n for n in self.removed | other.removed if n not in self and n not in other}
        return self._canon(L, res, added, removed)

    def complement(self) -> "IndexSet":
        L = self._lcm()
        res = set(range(L)) - self._residues(L)
        return self._canon(L, res, set(self.removed), set(self.added))

    def map_affine(self, stride: int, offset: int) -> "IndexSet":
        """Image under n |-> stride*n + offset (stride != 0)."""
        if stride == 0:
            raise ValueError("stride must be nonzero")
        aps = tuple(sorted(((stride * o + offset) % (abs(stride) * m), abs(stride) * m) for o, m in self.aps))
        return IndexSet(
            aps,
            frozenset(stride * n + offset for n in self.added),
            frozenset(stride * n + offset for n in self.removed),
        )


def filter_congruence(seq: Lrbs, modulus: int, residue: int) -> IndexSet:
    """Exact set of indices n with u_n = residue (mod modulus), as progressions."""
    if modulus < 1 or not 0 <= residue < modulus:
        raise ValueError("need modulus >= 1 and 0 <= residue < modulus")
    period, table = period_mod(seq, modulus)
    hits = [s for s in range(period) if table[s] == residue % modulus]
    return IndexSet.from_residues(period, hits)


@dataclass(frozen=True)
class GrowthRank:
    """Dominant characteristic-root magnitude, held exactly."""

    rate: QuadNum | Fraction
    degree: int            # degree of the polynomial factor; 0 for simple sequences
    growing: bool          # |u_n| -> infinity in both directions
    mono_fwd: int | None   # |u_{n+1}| > |u_n| for all n >= mono_fwd
    mono_bwd: int | None   # |u_{n-1}| > |u_n| for all n <= mono_bwd


def _abs_quad(q: QuadNum) -> QuadNum:
    return -q if q.sign() < 0 else q


def growth_rank(seq: Lrbs) -> GrowthRank:
    """Exact dominant-root data for order <= 2 simple sequences."""
    if seq.order > 2:
        raise NotImplementedError("growth analysis implemented for order <= 2")
    if not seq.is_simple():
        raise ValueError("sequence is not simple")
    if all(u == 0 for u in seq.initial):
        return GrowthRank(Fraction(0), 0, False, None, None)
    if seq.order == 1:
        return GrowthRank(Fraction(1), 0, False, None, None)
    a1, a2 = seq.coeffs
    disc = a1 * a1 + 4 * a2
    if disc < 0 or math.isqrt(max(disc, 0)) ** 2 == disc:
        # Complex roots of modulus 1, or rational roots +-1: bounded orbit.
        return GrowthRank(Fraction(1), 0, False, None, None)
    # lam = (a1 + sqrt(disc))/2 and its conjugate; |dominant| = (|a1| + sqrt(disc))/2.
    rate = QuadNum(Fraction(abs(a1), 2), Fraction(1, 2), disc)
    one = QuadNum(Fraction(1), Fraction(0), disc)
    if not one < rate:
        return GrowthRank(rate, 0, False, None, None)
    lam = QuadNum(Fraction(a1, 2), Fraction(1, 2), disc)
    lam2 = QuadNum(Fraction(a1, 2), Fraction(-1, 2), disc)
    u0, u1 = seq.initial
    denom = lam - lam2
    A = (QuadNum(Fraction(u1), Fraction(0), disc) - lam2 * u0) * denom.inverse()
    B = (lam * u0 - QuadNum(Fraction(u1), Fraction(0), disc)) * denom.inverse()
    # A, B nonzero for a nonzero integer bi-sequence: a vanishing coefficient
    # would make the sequence decay to noninteger values in one direction.
    absA, absB = _abs_quad(A), _abs_quad(B)
    eps = rate
    growth = eps - one
    eps2 = eps * eps
    eps2_inv = eps2.inverse()

    def dominance_index(P: QuadNum, Q: QuadNum) -> int:
        # Minimal n with P * eps^(2n) > 2 * Q; the condition is monotone in n.
        target = Q * 2
        n = 0
        cur = P
        if target < cur:
            while target < cur * eps2_inv:
                cur = cur * eps2_inv
                n -= 1
        else:
            while not target < cur:
                cur = cur * eps2
                n += 1
        return n

    # |A| eps^n (eps-1) > 2 |B| eps^-n forces |u_{n+1}| > |u_n| from n on;
    # the mirror-image condition bounds the backward direction.
    fwd = dominance_index(absA * growth, absB)
    bwd = -dominance_index(absB * growth, absA)
    return GrowthRank(rate, 0, True, fwd, bwd)
