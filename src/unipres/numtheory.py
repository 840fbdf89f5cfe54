"""Exact integer and rational kernels: CRT, valuations, roots, factoring,
polynomial congruences.

Everything here operates on Python ints and Fractions.  The decision
procedure uses no floating point anywhere; only the encoder's optional
numpy equivalence check computes in floats, on integers below 2**50,
where its sums, products and square tests are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "ResidueClass",
    "Factorization",
    "crt_extended",
    "valuation",
    "kth_root",
    "is_kth_power",
    "is_prime",
    "factor",
    "divisors",
    "divisor_pairs",
    "residue_classes",
    "union_classes",
    "floor_root",
    "integer_numerators",
    "integer_roots",
    "depressed_cubic_roots",
]


@dataclass(frozen=True)
class ResidueClass:
    """The set {residue + modulus*t : t in Z}, stored with 0 <= residue < modulus."""

    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def __contains__(self, n: int) -> bool:
        return n % self.modulus == self.residue


def crt_extended(classes: Iterable[ResidueClass]) -> ResidueClass | None:
    """Intersect residue classes with arbitrary (not necessarily coprime) moduli.

    Returns the class modulo the lcm of the moduli containing the
    intersection, or None when the intersection is empty.
    """
    m, r = 1, 0
    for c in classes:
        g = math.gcd(m, c.modulus)
        if (c.residue - r) % g != 0:
            return None
        lcm = m // g * c.modulus
        m2 = c.modulus // g
        if m2 > 1:
            t = ((c.residue - r) // g * pow(m // g, -1, m2)) % m2
        else:
            t = 0
        r = (r + m * t) % lcm
        m = lcm
    return ResidueClass(m, r)


def valuation(p: int, n: int) -> int:
    """Largest e with p**e dividing n.  n == 0 is rejected; callers branch first."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined here; handle zero before calling")
    if p < 2 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# Moduli whose k-th power residues certify most non-powers as such before
# any root is extracted; reducing n modulo their product first keeps the
# table lookups on small ints even when n has thousands of bits.
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23)
_SIEVE_PRODUCT = math.prod(_SIEVE_MODULI)
_sieve_tables: dict[int, tuple[tuple[int, bytes], ...]] = {}


def _power_sieve(k: int) -> tuple[tuple[int, bytes], ...]:
    """(modulus, is-k-th-power-residue table) pairs that can reject, built on first use of k."""
    tables = _sieve_tables.get(k)
    if tables is None:
        found = []
        for m in _SIEVE_MODULI:
            table = bytearray(m)
            for u in range(m):
                table[pow(u, k, m)] = 1
            if not all(table):
                found.append((m, bytes(table)))
        tables = _sieve_tables[k] = tuple(found)
    return tables


def _floor_root(n: int, k: int) -> int:
    """Largest u with u**k <= n, for n >= 0 and k >= 2."""
    if n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton iteration on integers from a seed above the root.  For a large
    # n the seed is one more than the root of n's top half, shifted back:
    # it already holds half the bits, so a few full-size steps finish.
    bits = n.bit_length()
    if bits <= k:  # n < 2**k
        return 1
    if 50 * bits <= 79 * k:  # 2**k <= n < 2**(1.58*k) < 3**k
        return 2
    if bits < 64 * k:
        x = 1 << (-(-bits // k))
    else:
        m = bits // (2 * k)
        x = (_floor_root(n >> (k * m), k) + 1) << m
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def kth_root(n: int, k: int) -> int | None:
    """Return u with u**k == n, or None.  For even k the nonnegative root.

    Most non-powers are rejected by their residues modulo the sieve moduli
    before any root is extracted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return n
    negative = n < 0
    if negative:
        if k % 2 == 0:
            return None
        n = -n
    if n > 1:
        r = n % _SIEVE_PRODUCT
        for m, table in _power_sieve(k):
            if not table[r % m]:
                return None
    x = _floor_root(n, k)
    if x**k != n:
        return None
    return -x if negative else x


def is_kth_power(n: int, k: int) -> bool:
    return kth_root(n, k) is not None


def floor_root(n: int, k: int) -> int:
    """Largest u with u**k <= n (n >= 0, k >= 1)."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return n if k == 1 else _floor_root(n, k)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for all n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p**e); primes strictly increasing, exponents >= 1."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v


def factor(n: int) -> Factorization:
    """Complete prime factorization by trial division plus Pollard rho."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    p = 41
    while p * p <= n and p < 100_000:
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(sign, tuple(sorted(counts.items())))


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    if n == 0:
        raise ValueError("0 has infinitely many divisors")
    ds = [1]
    for p, e in factor(n).factors:
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def divisor_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered signed factorizations (d, n/d) of nonzero n."""
    out = []
    for d in divisors(n):
        out.append((d, n // d))
        out.append((-d, n // -d))
    return out


# ---------------------------------------------------------------------------
# Polynomial congruences: solution classes at their least period.


def residue_classes(conditions) -> tuple[int, tuple[int, ...]]:
    """The u with f(u) = 0 (mod m) for every condition (f, m), as classes.

    Each f lists ascending integer coefficients and each m is >= 1.
    Returns (P, residues): u is a solution exactly when u mod P is in the
    ascending `residues`, and no proper divisor of P is a period.  No
    solution gives (1, ()).

    Per prime p of the moduli the roots mod p are scanned, then lifted one
    power q of p at a time: as p | q, f(r + q*t) = f(r) + q*t*f'(r)
    (mod q*p), so a root r has one lift when f'(r) != 0 (mod p), all p
    lifts when also f(r)/q = 0 (mod p), and none otherwise.  A condition is
    checked only up to its own power of p.  The p-part of P is the least
    p^j such that the roots mod the top power p^E are every lift of their
    reductions mod p^j.  The primes combine by the Chinese remainder
    theorem.
    """
    by_prime: dict[int, list] = {}
    for f, m in conditions:
        for p, e in factor(m).factors if m > 1 else ():
            by_prime.setdefault(p, []).append((e, f))
    period, residues = 1, [0]
    for p, conds in sorted(by_prime.items()):
        roots = _roots_mod_prime(conds[0][1], p)
        for _, f in conds[1:]:
            roots = [u for u in roots if _poly_eval(f, u) % p == 0]
        q = p
        for k in range(2, max(e for e, _ in conds) + 1):
            live = [(f, [i * c for i, c in enumerate(f)][1:]) for e, f in conds if e >= k]
            lifts = []
            for r in roots:
                ts = range(p)
                for f, df in live:
                    v, d = _poly_eval(f, r) // q % p, _poly_eval(df, r) % p
                    if d:
                        t = -v * pow(d, -1, p) % p
                        ts = [t] if t in ts else []
                    elif v:
                        ts = []
                lifts.extend(r + q * t for t in ts)
            roots = lifts
            q *= p
        if not roots:
            return 1, ()
        pj = 1
        while len(base := {r % pj for r in roots}) * (q // pj) != len(roots):
            pj *= p
        inv = pow(period, -1, pj)
        residues = [r + period * ((s - r) * inv % pj) for r in residues for s in base]
        period *= pj
    return period, tuple(sorted(residues))


def _roots_mod_prime(f, p: int) -> list[int]:
    """The u in range(p) with f(u) = 0 (mod p); a binomial c*u^d + c0 costs one pow per u."""
    f = [c % p for c in f]
    d = len(f) - 1
    if d >= 1 and f[d] and not any(f[1:d]):
        target = -f[0] * pow(f[d], -1, p) % p
        return [u for u in range(p) if pow(u, d, p) == target]
    return [u for u in range(p) if _poly_eval(f, u) % p == 0]


def union_classes(parts) -> tuple[int, tuple[int, ...]]:
    """The union of the class sets (P_i, residues_i), at its least period."""
    L = math.lcm(*(P for P, _ in parts))
    union = {r + P * k for P, rs in parts for r in rs for k in range(L // P)}
    period = L
    for p, _ in factor(L).factors:
        while period % p == 0 and all((r + period // p) % L in union for r in union):
            period //= p
    return period, tuple(sorted(r for r in union if r < period))


# ---------------------------------------------------------------------------
# Exact integer roots of rational-coefficient polynomials.


def integer_numerators(coeffs: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(nums, den) with coeffs[i] == nums[i] / den; den > 0 is the least common denominator."""
    if all(map(isinstance, coeffs, itertools.repeat(int))):  # one pass in C
        return list(coeffs), 1
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    """Horner at x of ascending coefficients; a Fraction if they are Fractions."""
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _taylor_shift(coeffs: Sequence[int], w: int, scale: int = 1) -> list[int]:
    """Ascending coefficients in t of the polynomial at u = w + scale*t."""
    cs = list(coeffs)
    if w:  # the O(d^2) shift; at w = 0 every step adds 0
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] += w * cs[j + 1]
    if scale == 1:
        return cs
    return [c * scale**i for i, c in enumerate(cs)]


def _cauchy_bound(coeffs: Sequence[int]) -> int:
    # All real roots lie in |x| <= 1 + max |c_i / c_d|.
    lead = coeffs[-1]
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return 1 + m // abs(lead) + 1


def _bisect(coeffs: Sequence[int], lo: int, hi: int, flo: int) -> tuple[int, int]:
    """Narrow the sign change of the polynomial on a monotone stretch [lo, hi].

    Needs flo = f(lo) and f(hi) nonzero with opposite signs.  Returns (r, r)
    for the integer root r, or (a, a + 1) when the root lies strictly between.
    """
    positive = flo > 0
    a, b = lo, hi
    while b - a > 1:
        mid = (a + b) // 2
        fm = _poly_eval(coeffs, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == positive:
            a = mid
        else:
            b = mid
    return a, b


def _roots_on_stretches(coeffs: Sequence[int], grid: Sequence[int]) -> tuple[set[int], set[int]]:
    """(roots, brackets) over the ascending grid, on whose stretches f is monotone.

    Grid points that are roots are tested directly; every sign change
    between neighbours is bisected, and `brackets` collects the points
    `_bisect` returned.
    """
    vals = [_poly_eval(coeffs, x) for x in grid]
    roots = {x for x, fx in zip(grid, vals) if fx == 0}
    brackets: set[int] = set()
    for i in range(len(grid) - 1):
        flo, fhi = vals[i], vals[i + 1]
        if flo and fhi and (flo > 0) != (fhi > 0):
            a, b = _bisect(coeffs, grid[i], grid[i + 1], flo)
            if a == b:
                roots.add(a)
            brackets.update((a, b))
    return roots, brackets


def _monotone_grid(coeffs: list[int]) -> list[int]:
    """Ascending integers spanning every real root, with f monotone between neighbours."""
    bound = _cauchy_bound(coeffs)
    pts = {-bound, bound}
    if len(coeffs) > 2:
        pts.update(_sign_breakpoints([i * coeffs[i] for i in range(1, len(coeffs))]))
    return sorted(pts)


def _sign_breakpoints(coeffs: list[int]) -> list[int]:
    """Integers bracketing every real root of the polynomial, ascending.

    Between consecutive returned points the polynomial has constant sign at
    integer arguments, which is what the binary searches rely on.
    """
    deg = len(coeffs) - 1
    if deg <= 0:
        return []
    if deg == 1:
        c0, c1 = coeffs
        q = -c0 // c1
        return [q - 1, q, q + 1]
    grid = _monotone_grid(coeffs)
    _, brackets = _roots_on_stretches(coeffs, grid)
    return sorted(brackets.union(grid))


def integer_roots(coeffs: Sequence[Fraction | int]) -> list[int]:
    """All integer roots of the polynomial sum(coeffs[i] * x**i), ascending.

    Exact: isolates monotone stretches via recursive derivative breakpoints,
    then bisects with integer arithmetic only.
    """
    cs, _ = integer_numerators(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("the zero polynomial has every integer as a root")
    if len(cs) == 1:
        return []
    roots = set()
    # Factor out x**v so breakpoint logic sees a nonzero constant term.
    v = 0
    while cs[v] == 0:
        v += 1
    if v:
        roots.add(0)
        cs = cs[v:]
        if len(cs) == 1:
            return sorted(roots)
    found, _ = _roots_on_stretches(cs, _monotone_grid(cs))
    return sorted(roots | found)


def depressed_cubic_roots(lin: int, v: int) -> list[int]:
    """All integers u with u**3 + lin*u == v, ascending.

    g(u) = u**3 + lin*u is odd, so the roots for v < 0 are the negated
    roots for -v.  For v >= 0, with c = floor_root(v, 3), the monotone
    stretches of g and the windows holding its roots are closed forms:

    - lin > 0: g increases.  A root has u**3 <= v, so u <= c, and then
      v = u*(u*u + lin) <= u*(c*c + lin), so u >= v // (c*c + lin).
    - lin = -L < 0: with s = isqrt(L // 3), g increases up to -s - 1,
      decreases on [-s, s] and increases from s + 1.  A negative root has
      u*u <= L, so u >= -isqrt(L).  A positive one has u**3 = v + L*u >= v,
      so u >= c, and u < c + isqrt(L) + 2, since beyond that g(u) exceeds
      (c + 1)**3 > v.  The turning points +-s (and their neighbours) are
      grid points, which catches a double root there.

    Each window spans at most about isqrt(|lin|) + 2 integers, so the
    bisection cost follows |lin| and not the size of v.
    """
    if lin == 0:
        r = kth_root(v, 3)
        return [] if r is None else [r]
    if v < 0:
        return sorted(-u for u in depressed_cubic_roots(lin, -v))
    c = _floor_root(v, 3)
    if lin > 0:
        grid = (min(v // (c * c + lin), c), c)
    else:
        r, s = math.isqrt(-lin), math.isqrt(-lin // 3)
        # (-s - 1, -s) and (s, s + 1) hold no integer strictly inside.
        grid = (-r - 1, -s - 1, -s, s, s + 1, max(s + 1, c), c + r + 2)
    roots, _ = _roots_on_stretches((-v, lin, 0, 1), grid)
    return sorted(roots)
