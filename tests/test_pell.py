import math

import pytest

from unipres.pell import _canonical, _mul_unit, fundamental, solve_generalized, squarefree_kernel
from unipres.poly_solver import _unit_shift
from unipres.power_solver import _pell_orbit_entries


def in_classes(s, w: int, z: int) -> bool:
    """Whether (w, z) lies in an orbit of the solution set s.  `_canonical`
    walks only the orbit of (w, z), so its representative is a class
    representative of s exactly when (w, z) lies in that class."""
    return _canonical(w, z, s.n, *s.fundamental) in {c.rep for c in s.classes}


def brute_fundamental(n, zmax=10**7):
    for z in range(1, zmax):
        w2 = n * z * z + 1
        w = math.isqrt(w2)
        if w * w == w2:
            return w, z
    raise AssertionError("no fundamental solution found in range")


def brute_solutions(n, N, zmax):
    out = []
    for z in range(-zmax, zmax + 1):
        w2 = N + n * z * z
        if w2 < 0:
            continue
        w = math.isqrt(w2)
        if w * w == w2:
            out.append((w, z))
            if w:
                out.append((-w, z))
    return out


def test_fundamental_small():
    assert fundamental(2) == (3, 2) == brute_fundamental(2)
    assert fundamental(5) == (9, 4) == brute_fundamental(5)
    assert fundamental(3) == (2, 1)


def test_fundamental_61():
    w, z = fundamental(61)
    assert (w, z) == (1766319049, 226153980)
    assert w * w - 61 * z * z == 1


def test_fundamental_rejects():
    with pytest.raises(ValueError):
        fundamental(9)
    with pytest.raises(ValueError):
        fundamental(1)


def test_fundamental_minimality_scan():
    for n in (2, 3, 5, 6, 7, 10, 13):
        w0, z0 = fundamental(n)
        for w in range(1, w0):
            z2, rem = divmod(w * w - 1, n)
            if rem == 0 and z2 >= 0:
                z = math.isqrt(z2)
                assert z * z != z2 or z == 0, f"smaller solution ({w},{z}) for n={n}"


def test_generalized_examples():
    s = solve_generalized(2, 7)
    reps = {c.rep for c in s.classes}
    assert reps == {(3, 1), (3, -1)}
    assert in_classes(s, 3, 1) and in_classes(s, 5, 3) and in_classes(s, 13, 9)
    assert not solve_generalized(2, 3).classes
    s1 = solve_generalized(3, 1)
    assert [c.rep for c in s1.classes] == [(1, 0)]


ORBIT_EQUATIONS = ((2, 7), (3, -2), (13, -4), (6, 10), (7, 2))


def orbit_pairs(n, N, lo, hi):
    """(class, [(w_m, z_m) for m in lo..hi]) along the w- and z-sequences
    that `_pell_orbit_entries` builds for each class of w^2 - n*z^2 = N."""
    for entry in _pell_orbit_entries(solve_generalized(n, N), [(1, 0)], [(1, 0)], None, "w"):
        yield entry.pell_class, list(zip(entry.value_seq.values(lo, hi), entry.partner_seq.values(lo, hi)))


def test_expand_recurrence_and_identity():
    for n, N in ORBIT_EQUATIONS:
        classes = list(orbit_pairs(n, N, -4, 4))
        assert len(classes) == len(solve_generalized(n, N).classes) > 0, (n, N)
        for cls, pairs in classes:
            assert pairs[4] == cls.rep
            w0, z0 = cls.fundamental
            assert all(w * w - n * z * z == N for w, z in pairs)
            for (w, z), step in zip(pairs, pairs[1:]):
                assert step == (w * w0 + n * z * z0, w * z0 + z * w0)  # one unit multiplication


def test_orbit_is_the_representative_times_unit_powers():
    # (w_m, z_m) = (w_0 + z_0*sqrt n) * eps^m, powered on integer pairs.
    for n, N in ORBIT_EQUATIONS:
        for cls, pairs in orbit_pairs(n, N, -3, 3):
            for direction in (1, -1):
                cur = cls.rep
                for m in range(0, 4 * direction, direction):
                    assert pairs[m + 3] == cur, (n, N, m)
                    cur = _mul_unit(*cur, n, *cls.fundamental, direction)


def test_unit_powers_reach_the_sympy_fundamental():
    # n = s^2*d: the unit of Z[sqrt n] is a positive power of fundamental(d),
    # and its inverse the negative power.
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    for n in range(2, 200):
        if math.isqrt(n) ** 2 == n:
            continue
        d, s = squarefree_kernel(n)
        [(w, z)] = diop_DN(n, 1)
        unit = (int(w), int(z) * s)
        e = _unit_shift(unit, (1, 0), d)
        assert e is not None and e >= 1, n
        assert _unit_shift((1, 0), unit, d) == -e
        cur = (1, 0)
        for _ in range(e):
            cur = _mul_unit(*cur, d, *fundamental(d), 1)
        assert cur == unit, n


def test_unit_shift_identifies_signs_and_rejects_other_classes():
    eps2 = _mul_unit(*fundamental(2), 2, *fundamental(2), 1)
    eps4 = _mul_unit(*eps2, 2, *eps2, 1)
    assert _unit_shift(eps4, (1, 0), 2) == 4
    assert _unit_shift((-eps4[0], -eps4[1]), (1, 0), 2) == 4
    assert _unit_shift((3, 1), _mul_unit(3, 1, 2, *eps4, 1), 2) == -4
    assert _unit_shift((3, 1), (3, -1), 2) is None  # two classes of w^2 - 2z^2 = 7
    assert _unit_shift((1, 1), (1, 0), 2) is None  # norm -1


def test_desk_scale_completeness():
    for n in (2, 3, 5, 6, 7, 8):
        for N in (-9, -4, -1, 1, 2, 4, 7, 9):
            sols = brute_solutions(n, N, 2000)
            if not sols:
                continue
            s = solve_generalized(n, N)
            for w, z in sols:
                assert in_classes(s, w, z), (n, N, w, z)


def test_squarefree_kernel():
    assert squarefree_kernel(8) == (2, 2)
    assert squarefree_kernel(2) == (2, 1)
    assert squarefree_kernel(36) == (1, 6)


def test_solve_generalized_matches_sympy():
    # An independent solver: sympy's diop_DN returns one fundamental
    # solution per class of w^2 - n*z^2 = N.
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    for n in range(2, 40):
        if math.isqrt(n) ** 2 == n:
            continue
        for N in range(-10, 11):
            if N == 0:
                continue
            ours = solve_generalized(n, N)
            theirs = diop_DN(n, N)
            assert len(ours.classes) == len(theirs), (n, N)
            for w, z in theirs:
                assert in_classes(ours, int(w), int(z)), (n, N, w, z)
