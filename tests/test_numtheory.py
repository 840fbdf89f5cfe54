import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from unipres.numtheory import (
    ResidueClass,
    _poly_eval,
    _taylor_shift,
    crt_extended,
    depressed_cubic_roots,
    divisor_pairs,
    divisors,
    factor,
    floor_root,
    integer_roots,
    is_kth_power,
    is_prime,
    kth_root,
    residue_classes,
    union_classes,
    valuation,
)


def brute_crt(classes):
    lcm = 1
    for c in classes:
        lcm = lcm * c.modulus // math.gcd(lcm, c.modulus)
    assert lcm <= 10**4, "keep the brute oracle within its contract"
    return [r for r in range(lcm) if all(r in c for c in classes)]


def test_crt_examples():
    assert crt_extended([ResidueClass(4, 1), ResidueClass(6, 5)]) == ResidueClass(12, 5)
    assert crt_extended([ResidueClass(4, 1), ResidueClass(6, 2)]) is None
    assert crt_extended([ResidueClass(5, 3)]) == ResidueClass(5, 3)


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 200)), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_crt_matches_scan(pairs):
    classes = [ResidueClass(m, r) for m, r in pairs]
    merged = crt_extended(classes)
    hits = brute_crt(classes)
    if merged is None:
        assert hits == []
    else:
        assert hits and hits[0] == merged.residue
        assert all(h in merged for h in hits)


def test_valuation_examples():
    assert valuation(2, 20) == 2
    assert valuation(3, 1) == 0
    assert valuation(5, -250) == 3
    with pytest.raises(ValueError):
        valuation(2, 0)
    with pytest.raises(ValueError):
        valuation(4, 8)


@given(st.integers(-10**6, 10**6).filter(bool), st.integers(-10**6, 10**6).filter(bool))
@settings(max_examples=200, deadline=None)
def test_valuation_additive(a, b):
    for p in (2, 3, 5, 7):
        assert valuation(p, a * b) == valuation(p, a) + valuation(p, b)


def binary_search_root(n, k):
    # Independent float-free oracle for the k-th root.
    if n < 0:
        if k % 2 == 0:
            return None
        r = binary_search_root(-n, k)
        return None if r is None else -r
    lo, hi = 0, 1
    while hi**k < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def test_kth_root_examples():
    assert kth_root(16, 4) == 2
    assert kth_root(-27, 3) == -3
    assert kth_root(2, 2) is None
    assert kth_root(0, 5) == 0
    assert kth_root(1, 9) == 1


@given(st.integers(-(10**18), 10**18), st.integers(2, 7))
@settings(max_examples=300, deadline=None)
def test_kth_root_matches_binary_search(n, k):
    assert kth_root(n, k) == binary_search_root(n, k)


def test_kth_root_on_large_powers_and_neighbours(rng):
    # The residue sieve must never reject a power; the neighbours of a
    # power are (almost always) rejected by it, so both paths are covered.
    for k in range(2, 8):
        for _ in range(12):
            base = rng.randrange(1 << (200 // k + 1), 1 << (200 // k + 40))
            n = base**k
            assert n.bit_length() >= 200
            for m in (n - 1, n, n + 1):
                assert kth_root(m, k) == binary_search_root(m, k)
                if k % 2:
                    assert kth_root(-m, k) == binary_search_root(-m, k)


def test_kth_root_accepts_every_small_power():
    for k in range(2, 8):
        for u in range(3000):
            assert kth_root(u**k, k) == u


@given(st.integers(0, 10**12), st.integers(2, 6))
@settings(max_examples=200, deadline=None)
def test_floor_root(n, k):
    r = floor_root(n, k)
    assert r**k <= n < (r + 1) ** k


def test_floor_root_of_a_huge_exponent_near_small_powers():
    # Roots 1, 2 and 3 of exponents up to 1,000 at the edges of each power.
    for k in (*range(3, 80), 997, 1000):
        for base in (2, 3, 4):
            for n in (base**k - 1, base**k, base**k + 1):
                r = floor_root(n, k)
                assert r**k <= n < (r + 1) ** k, (n, k)


def test_factor_examples():
    assert factor(500).factors == ((2, 2), (5, 3))
    assert factor(1).factors == ()
    f = factor(-97)
    assert f.sign == -1 and f.factors == ((97, 1),)


@given(st.integers(-(10**9), 10**9).filter(bool))
@settings(max_examples=200, deadline=None)
def test_factor_roundtrip(n):
    f = factor(n)
    assert f.value == n
    for p, e in f.factors:
        assert is_prime(p) and e >= 1


def test_factor_large_semiprime():
    n = 1_000_003 * 999_983
    assert factor(n).factors == ((999_983, 1), (1_000_003, 1))


def test_divisor_pairs():
    assert set(divisor_pairs(4)) == {(1, 4), (2, 2), (4, 1), (-1, -4), (-2, -2), (-4, -1)}
    assert set(divisor_pairs(1)) == {(1, 1), (-1, -1)}
    assert len(divisor_pairs(6)) == 8
    assert all(d * e == -4 for d, e in divisor_pairs(-4))


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_integer_roots():
    assert integer_roots([-8, 0, 0, 1]) == [2]          # t^3 = 8
    assert integer_roots([0, -4, 0, 1]) == [-2, 0, 2]   # t^3 - 4t
    assert integer_roots([-6, 0, 0, 1]) == []           # t^3 = 6
    assert integer_roots([2, 3, 1]) == [-2, -1]         # (t+1)(t+2)


def test_integer_roots_random(rng):
    for _ in range(200):
        roots = sorted({rng.randint(-30, 30) for _ in range(rng.randint(0, 3))})
        lead = rng.choice([1, -1, 2, 3])
        coeffs = [lead]
        for r in roots:
            # multiply by (x - r)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] -= c * r
            coeffs = nxt
        asc = list(reversed(coeffs))
        if len(asc) == 1:
            continue
        assert integer_roots(asc) == roots


def test_integer_roots_misses_nothing_nearby(rng):
    for _ in range(100):
        asc = [rng.randint(-50, 50) for _ in range(rng.randint(2, 7))]
        if all(c == 0 for c in asc[1:]):
            continue
        found = set(integer_roots(asc))
        for t in range(-60, 61):
            v = sum(c * t**i for i, c in enumerate(asc))
            assert (v == 0) == (t in found)


def _cubic_cases(rng):
    # Double roots at the turning points: u^3 - 3t^2 u = +-2t^3 has the
    # double root -+t and the simple root +-2t.
    for t in range(-40, 41):
        yield -3 * t * t, 2 * t**3
        yield -3 * t * t, -2 * t**3
        yield -t * t, 0  # roots -|t|, 0, |t|
    for _ in range(400):
        lin = rng.randint(-(10**6), 10**6)
        if rng.random() < 0.5:
            u = rng.randint(-(10**6), 10**6)
            yield lin, u**3 + lin * u
        else:
            yield lin, rng.randint(-(10**20), 10**20)
    for _ in range(400):
        lin = rng.randint(-300, 300)
        yield lin, rng.randint(-(10**4), 10**4)


def test_depressed_cubic_roots_match_integer_roots(rng):
    for lin, v in _cubic_cases(rng):
        assert depressed_cubic_roots(lin, v) == integer_roots([-v, lin, 0, 1]), (lin, v)


def test_depressed_cubic_double_roots():
    assert depressed_cubic_roots(-12, 16) == [-2, 4]    # (u + 2)^2 (u - 4)
    assert depressed_cubic_roots(-12, -16) == [-4, 2]
    assert depressed_cubic_roots(-3, 2) == [-1, 2]
    assert depressed_cubic_roots(-1, 0) == [-1, 0, 1]
    assert depressed_cubic_roots(-4, 0) == [-2, 0, 2]
    assert depressed_cubic_roots(0, -(10**60)) == [-(10**20)]


def _random_conditions(rng):
    """1-3 congruences f(u) = 0 (mod m) whose moduli have an lcm <= 20,000."""
    while True:
        conditions = []
        for _ in range(rng.randint(1, 3)):
            f = [rng.randint(-30, 30) for _ in range(rng.randint(1, 5))] + [rng.choice((1, 1, -1, 2, 3, 4, 9))]
            m = rng.choice((rng.randint(1, 300), 2 ** rng.randint(0, 10), 3 ** rng.randint(0, 7), 5 ** rng.randint(0, 4),
                            rng.choice((72, 100, 144, 216, 243, 512, 1000))))
            conditions.append((f, m))
        L = math.lcm(*(m for _, m in conditions))
        if L <= 20_000:
            return conditions, L


def _assert_least_period(period, residues):
    members = set(residues)
    for p, _ in factor(period).factors:
        assert any((r + period // p) % period not in members for r in residues), (period, p)


def test_residue_classes_match_brute_force(rng):
    for _ in range(2000):
        conditions, L = _random_conditions(rng)
        # Each condition's roots mod its own modulus, then every u mod L.
        roots = [(m, {u for u in range(m) if sum(c * u**i for i, c in enumerate(f)) % m == 0}) for f, m in conditions]
        want = [u for u in range(L) if all(u % m in rs for m, rs in roots)]
        period, residues = residue_classes(conditions)
        assert L % period == 0, conditions
        if not want:
            assert (period, residues) == (1, ()), conditions
            continue
        assert list(residues) == sorted(residues) and all(0 <= r < period for r in residues)
        got = {r + period * k for r in residues for k in range(L // period)}
        assert got == set(want), conditions
        _assert_least_period(period, residues)


def test_residue_classes_examples():
    assert residue_classes([]) == (1, (0,))
    assert residue_classes([([5, 0, 1], 1)]) == (1, (0,))
    # u^2 = 5 (mod 8) has no root; u^2 = 1 (mod 8) holds on the odd u.
    assert residue_classes([([-5, 0, 1], 8)]) == (1, ())
    assert residue_classes([([-1, 0, 1], 8)]) == (2, (1,))
    # The 3^9 roots of u^10 = 0 (mod 3^10) are the one class of 3.
    assert residue_classes([([0] * 10 + [1], 3**10)]) == (3, (0,))
    # Singular roots lift to every residue: 1 class mod 5 of u^2 = 0 (mod 25).
    assert residue_classes([([0, 0, 1], 25)]) == (5, (0,))
    # Two primes and a lattice: u = 1 (mod 3) with u^2 = 4 (mod 7).
    assert residue_classes([([-4, 0, 1], 7), ([-1, 1], 3)]) == (21, (16, 19))


def test_union_classes(rng):
    assert union_classes([]) == (1, ())
    assert union_classes([(4, (1,)), (4, (3,))]) == (2, (1,))
    assert union_classes([(6, (0, 3)), (9, (0, 3, 6))]) == (3, (0,))
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 3)):
            P = rng.randint(1, 60)
            parts.append((P, tuple(sorted(rng.sample(range(P), rng.randint(0, min(P, 4)))))))
        period, residues = union_classes(parts)
        L = math.lcm(period, *(P for P, _ in parts))
        want = {u for u in range(L) if any(u % P in rs for P, rs in parts)}
        assert {r + period * k for r in residues for k in range(L // period)} == want, parts
        _assert_least_period(period, residues)


def test_taylor_shift_agrees_with_direct_evaluation():
    rng = random.Random(17)
    for _ in range(300):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        w = rng.choice((0, rng.randint(-20, 20)))
        scale = rng.choice((1, rng.randint(-6, 6)))
        shifted = _taylor_shift(coeffs, w, scale)
        assert len(shifted) == len(coeffs)
        for t in range(-5, 6):
            assert _poly_eval(shifted, t) == _poly_eval(coeffs, w + scale * t), (coeffs, w, scale)
