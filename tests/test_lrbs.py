import math
import random

import pytest

from unipres.lrbs import IndexSet, Lrbs, filter_congruence, growth_radius, period_mod
from unipres.numtheory import factor
from unipres.pell import solve_generalized
from unipres.power_solver import _pell_orbit_entries


PELL = Lrbs((6, -1), (1, 3))      # 1, 3, 17, 99, ...
FIB = Lrbs((1, 1), (0, 1))


def test_eval_examples():
    assert PELL.eval(2) == 17
    assert PELL.eval(0) == 1
    assert PELL.eval(-1) == 3          # backward recurrence
    assert FIB.eval(10) == 55
    assert FIB.eval(-6) == -8


def test_eval_forward_backward_consistency():
    rng = random.Random(3)
    for _ in range(50):
        seq = Lrbs((rng.randint(-5, 5), rng.choice((1, -1))), (rng.randint(-9, 9), rng.randint(-9, 9)))
        vals = seq.values(-30, 30)
        assert vals == [seq.eval(n) for n in range(-30, 31)]
        # u_{n+2} = a1 u_{n+1} + a2 u_n across the whole window
        a1, a2 = seq.coeffs
        for i in range(len(vals) - 2):
            assert vals[i + 2] == a1 * vals[i + 1] + a2 * vals[i]


def test_reversibility_rejected():
    with pytest.raises(ValueError):
        Lrbs((3, 2), (0, 1))


def test_period_mod_examples():
    assert period_mod(Lrbs((1,), (7,)), 12)[0] == 1      # constant sequence
    assert period_mod(FIB, 10)[0] == 60                  # Pisano period
    period, table = period_mod(PELL, 8)
    scan = [PELL.eval(n) % 8 for n in range(3 * period)]
    assert all(scan[n] == scan[n + period] for n in range(2 * period))
    assert tuple(scan[:period]) == table


def test_period_is_minimal():
    for seq, M in ((FIB, 10), (PELL, 8), (PELL, 5)):
        period, _ = period_mod(seq, M)
        vals = [seq.eval(n) % M for n in range(2 * period)]
        for cand in range(1, period):
            if period % cand:
                continue
            if all(vals[n + cand] == vals[n] for n in range(period)):
                pytest.fail(f"period {period} not minimal; {cand} works for {seq} mod {M}")


def test_filter_congruence_matches_scan():
    for seq, M, r in ((PELL, 3, 0), (PELL, 3, 2), (FIB, 5, 0), (FIB, 4, 1)):
        got = filter_congruence(seq, M, r)
        period, _ = period_mod(seq, M)
        for n in range(-3 * period, 3 * period + 1):
            assert (n in got) == (seq.eval(n) % M == r), (seq, M, r, n)


def test_filter_congruence_everything_and_nothing():
    const = Lrbs((1,), (4,))
    assert 17 in filter_congruence(const, 5, 4)
    assert filter_congruence(const, 5, 1).is_empty()


def _orbit_sequences():
    """The w- and z-sequence of every class of w^2 - n*z^2 = N for non-square
    n < 160 and 0 < |N| <= 40, as the solver builds and streams them."""
    for n in range(2, 160):
        if math.isqrt(n) ** 2 == n:
            continue
        for N in range(-40, 41):
            if N:
                for entry in _pell_orbit_entries(solve_generalized(n, N), [(1, 0)], [(1, 0)], None, "w"):
                    yield entry.value_seq
                    yield entry.partner_seq


def _random_growing_sequences(count):
    """Nonzero sequences under the certificate with either sign of a_1 and a_2."""
    rng = random.Random(21)
    for _ in range(count):
        initial = (rng.randint(-50, 50), rng.randint(-50, 50))
        yield Lrbs((rng.choice((1, -1)) * rng.randint(3, 7), rng.choice((1, -1))), initial if any(initial) else (1, 0))


@pytest.mark.slow
def test_growth_radius_on_pell_orbits():
    # The z-window scan of `solve_generalized` for n = 109 and 157, whose
    # fundamental units exceed 10^13, takes most of this test's time.
    orbits = list(_orbit_sequences())
    assert len(orbits) > 10_000
    for seq in orbits + list(_random_growing_sequences(500)):
        R = growth_radius(seq)
        vals = seq.values(-R - 31, R + 31)

        def mag(n):
            return abs(vals[n + R + 31])

        assert all(mag(m + 1) > mag(m) for m in range(R, R + 31)), seq
        assert all(mag(m - 1) > mag(m) for m in range(-R - 30, -R + 1)), seq
        # R is least: at R - 1 one of the two directions does not yet rise.
        assert R == 0 or mag(R) <= mag(R - 1) or mag(-R) <= mag(-R + 1), seq


def test_growth_radius_examples():
    assert growth_radius(PELL) == 0                       # ..., 3, 1, 3, 17, ...
    assert growth_radius(Lrbs((6, -1), (3, 17))) == 1     # least at u_-1 = 1
    assert growth_radius(Lrbs((6, -1), (99, 17))) == 3    # 99, 17, 3, 1, 3: least at u_3
    assert growth_radius(Lrbs((3, 1), (1, -1))) == 1      # -4, 1, -1, -2: |u_0| = |u_1|


def test_growth_radius_rejects_non_growing():
    for seq in (
        Lrbs((1,), (5,)),               # order 1, constant
        Lrbs((-1,), (3,)),              # order 1, alternating
        Lrbs((2, -1), (1, 2)),          # |a_1| < 3: u_n = n + 1
        Lrbs((1, -1), (1, 1)),          # sixth roots of unity
        Lrbs((0, 1), (1, 2)),           # roots +-1
        Lrbs((6, -1), (0, 0)),          # the zero sequence
    ):
        with pytest.raises(ValueError):
            growth_radius(seq)


def test_growth_radius_rejects_higher_order():
    with pytest.raises(ValueError):
        growth_radius(Lrbs((1, 1, 1), (0, 0, 1)))


def test_fatou_integrality_window():
    rng = random.Random(9)
    for _ in range(100):
        seq = Lrbs((rng.randint(-4, 4), rng.choice((1, -1))), (rng.randint(-9, 9), rng.randint(-9, 9)))
        vals = seq.values(-50, 50)
        assert all(isinstance(v, int) for v in vals)


def test_index_set_algebra():
    a = IndexSet.from_residues(3, [1])
    b = IndexSet.from_residues(2, [0])
    inter = a.intersect(b)
    for n in range(-30, 31):
        assert (n in inter) == (n % 3 == 1 and n % 2 == 0)
    diff = a.subtract(b)
    for n in range(-30, 31):
        assert (n in diff) == (n % 3 == 1 and n % 2 == 1)
    union = a.union(b)
    for n in range(-30, 31):
        assert (n in union) == (n % 3 == 1 or n % 2 == 0)


def test_index_set_map_affine_exact():
    a = IndexSet.from_residues(3, [1])
    mapped = a.map_affine(2, 5)
    members = {2 * n + 5 for n in range(-100, 101) if n in a}
    for n in range(-60, 61):
        assert (n in mapped) == (n in members)


def _random_index_set(rng):
    period = rng.randint(1, 36)
    return IndexSet.from_residues(period, rng.sample(range(period), rng.randint(0, period)))


def _assert_least_period(s):
    assert s.residues == tuple(sorted(set(s.residues))) and all(0 <= r < s.period for r in s.residues)
    for p, _ in factor(s.period).factors if s.period > 1 else ():
        shift = s.period // p
        assert not all((n in s) == (n + shift in s) for n in range(s.period)), (s, p)


def test_index_set_operations_match_membership():
    rng = random.Random(13)
    for _ in range(400):
        a, b = _random_index_set(rng), _random_index_set(rng)
        stride, offset = rng.choice((-4, -3, -2, -1, 1, 2, 3, 6)), rng.randint(-40, 40)
        cases = (
            (a.union(b), lambda n: n in a or n in b),
            (a.intersect(b), lambda n: n in a and n in b),
            (a.subtract(b), lambda n: n in a and n not in b),
            (a.map_affine(stride, offset), lambda n: (n - offset) % stride == 0 and (n - offset) // stride in a),
        )
        L = math.lcm(a.period, b.period, abs(stride) * a.period)
        for got, member in cases:
            _assert_least_period(got)
            assert all((n in got) == member(n) for n in range(-L, 2 * L)), (a, b, stride, offset, got)
    assert IndexSet.from_residues(12, []) == IndexSet.nothing() == IndexSet(1, ())
    assert IndexSet.from_residues(12, [1, 5, 9, 13]) == IndexSet(4, (1,))
