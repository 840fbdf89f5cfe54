"""Exact Pell-equation machinery.

Fundamental solutions of w^2 - n*z^2 = 1 come from the continued fraction
of sqrt(n).  The full solution set of a generalized equation
w^2 - n*z^2 = N is organized into finitely many classes, each the orbit of
a generating pair under multiplication by the fundamental unit; a class
expands into a pair of order-2 integer bi-sequences.

Solutions (w, z) and (-w, -z) are identified throughout: they expand to
the same values up to a global sign, and every consumer in this package
(square maps, congruence filters) is insensitive to that sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .numtheory import factor

__all__ = [
    "QuadNum",
    "PellClass",
    "PellSolutionSet",
    "fundamental",
    "solve_generalized",
    "unit_exponent",
    "squarefree_kernel",
]


def squarefree_kernel(n: int) -> tuple[int, int]:
    """n = s**2 * d with d squarefree; returns (d, s).  Requires n > 0."""
    if n <= 0:
        raise ValueError("need n > 0")
    d, s = 1, 1
    for p, e in factor(n).factors:
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return d, s


@dataclass(frozen=True)
class QuadNum:
    """a + b*sqrt(n) with rational a, b and a fixed positive non-square n."""

    a: Fraction
    b: Fraction
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.n <= 0 or math.isqrt(self.n) ** 2 == self.n:
            raise ValueError(f"radicand must be positive and non-square, got {self.n}")

    def _check(self, other: "QuadNum") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed radicands {self.n} and {other.n}")

    def __add__(self, other: "QuadNum") -> "QuadNum":
        self._check(other)
        return QuadNum(self.a + other.a, self.b + other.b, self.n)

    def __sub__(self, other: "QuadNum") -> "QuadNum":
        self._check(other)
        return QuadNum(self.a - other.a, self.b - other.b, self.n)

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.a, -self.b, self.n)

    def __mul__(self, other: "QuadNum | int | Fraction") -> "QuadNum":
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.a * other, self.b * other, self.n)
        self._check(other)
        return QuadNum(
            self.a * other.a + self.b * other.b * self.n,
            self.a * other.b + self.b * other.a,
            self.n,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.a, -self.b, self.n)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.n

    def inverse(self) -> "QuadNum":
        nr = self.norm()
        if nr == 0:
            raise ZeroDivisionError("QuadNum with zero norm")
        return self.conjugate() * (1 / nr)

    def __pow__(self, e: int) -> "QuadNum":
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        acc = QuadNum(Fraction(1), Fraction(0), self.n)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        big_a = a * a > b * b * self.n
        if a > 0:  # b < 0
            return 1 if big_a else -1
        return -1 if big_a else 1

    def reduce_radicand(self) -> "QuadNum":
        """Rewrite over the squarefree kernel of the radicand."""
        d, s = squarefree_kernel(self.n)
        if d == self.n:
            return self
        return QuadNum(self.a, self.b * s, d)


def _convergents(n: int) -> Iterator[tuple[int, int]]:
    """Continued-fraction convergents h/k of sqrt(n), n non-square."""
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        yield h, k
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


@lru_cache(maxsize=None)
def fundamental(n: int) -> tuple[int, int]:
    """Minimal (w0, z0) with w0, z0 > 0 and w0^2 - n*z0^2 = 1.

    Computed from the continued-fraction expansion of sqrt(n); the first
    convergent solving the equation is the fundamental solution.
    """
    if n < 2 or math.isqrt(n) ** 2 == n:
        raise ValueError(f"need n >= 2 and non-square, got {n}")
    for h, k in _convergents(n):
        if h * h - n * k * k == 1:
            return h, k


def _mul_unit(w: int, z: int, n: int, w0: int, z0: int, direction: int) -> tuple[int, int]:
    if direction > 0:
        return w * w0 + n * z * z0, w * z0 + z * w0
    return w * w0 - n * z * z0, z * w0 - w * z0


def _sign_norm(w: int, z: int) -> tuple[int, int]:
    if w < 0 or (w == 0 and z < 0):
        return -w, -z
    return w, z


def _orbit_key(w: int, z: int) -> tuple[int, int]:
    return abs(w), 0 if z >= 0 else 1


def _canonical(w: int, z: int, n: int, w0: int, z0: int) -> tuple[int, int]:
    """Orbit representative minimizing (|w|, z >= 0), signs identified."""
    best = _sign_norm(w, z)
    for direction in (1, -1):
        cur = _sign_norm(w, z)
        worse = 0
        while worse < 3:
            cur = _sign_norm(*_mul_unit(cur[0], cur[1], n, w0, z0, direction))
            if _orbit_key(*cur) < _orbit_key(*best):
                best = cur
                worse = 0
            else:
                worse += 1
    return best


@dataclass(frozen=True)
class PellClass:
    """One orbit of solutions of w^2 - n*z^2 = N under the fundamental unit."""

    n: int
    N: int
    rep: tuple[int, int]
    fundamental: tuple[int, int]

    def __post_init__(self) -> None:
        w, z = self.rep
        if w * w - self.n * z * z != self.N:
            raise ValueError("representative does not satisfy the equation")
        w0, z0 = self.fundamental
        if w0 * w0 - self.n * z0 * z0 != 1:
            raise ValueError("fundamental pair does not satisfy the unit equation")

    def closed_form(self) -> tuple[QuadNum, QuadNum, QuadNum, QuadNum]:
        """(A1, A2, B1, B2) with w_m = A1 e^m + A2 e^-m, z_m = B1 e^m + B2 e^-m."""
        w, z = self.rep
        n = self.n
        a1 = QuadNum(Fraction(w, 2), Fraction(z, 2), n)
        a2 = QuadNum(Fraction(w, 2), Fraction(-z, 2), n)
        b1 = QuadNum(Fraction(z, 2), Fraction(w, 2 * n), n)
        b2 = QuadNum(Fraction(z, 2), Fraction(-w, 2 * n), n)
        return a1, a2, b1, b2


@dataclass(frozen=True)
class PellSolutionSet:
    n: int
    N: int
    fundamental: tuple[int, int]
    classes: tuple[PellClass, ...]


def solve_generalized(n: int, N: int) -> PellSolutionSet:
    """Complete, duplicate-free generating classes of w^2 - n*z^2 = N.

    Representatives are found by scanning z over the classical window
    derived from the fundamental unit (a function of |N| and the unit),
    then reduced to canonical orbit representatives.
    """
    if n < 2 or math.isqrt(n) ** 2 == n:
        raise ValueError(f"need n >= 2 and non-square, got {n}")
    if N == 0:
        raise ValueError("need N != 0")
    w0, z0 = fundamental(n)
    # Window: any class has a member with z0^2*|N| >= 2*(w0-1)*z^2 (covers
    # both signs of N with room to spare).
    zmax = math.isqrt((z0 * z0 * abs(N)) // (2 * (w0 - 1)) + 1) + 2
    reps = set()
    for z in range(zmax + 1):
        w2 = N + n * z * z
        if w2 < 0:
            continue
        w = math.isqrt(w2)
        if w * w != w2:
            continue
        for cand in {(w, z), (-w, z)}:
            reps.add(_canonical(cand[0], cand[1], n, w0, z0))
    classes = tuple(
        PellClass(n, N, rep, (w0, z0))
        for rep in sorted(reps, key=lambda r: (_orbit_key(*r), r))
    )
    return PellSolutionSet(n, N, (w0, z0), classes)


def unit_exponent(q: QuadNum, eps: QuadNum, limit: int = 512) -> int | None:
    """Integer e with q == +-eps**e, or None.  eps must exceed 1."""
    if q.is_zero():
        return None
    if q.sign() < 0:
        q = -q
    one = QuadNum(Fraction(1), Fraction(0), q.n)
    cur = one
    for e in range(limit):
        if cur.a == q.a and cur.b == q.b:
            return e
        cur = cur * eps
    cur = one
    inv = eps.inverse()
    for e in range(1, limit):
        cur = cur * inv
        if cur.a == q.a and cur.b == q.b:
            return -e
    return None
