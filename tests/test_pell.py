import math
from fractions import Fraction

import pytest

from unipres.pell import (
    QuadNum,
    _canonical,
    fundamental,
    solve_generalized,
    squarefree_kernel,
    unit_exponent,
)
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


def test_closed_form_coefficients():
    for n, N in ORBIT_EQUATIONS:
        for cls, pairs in orbit_pairs(n, N, -3, 3):
            a1, a2, b1, b2 = cls.closed_form()
            eps = QuadNum(*cls.fundamental, n)
            for m, (w, z) in zip(range(-3, 4), pairs):
                wq = a1 * eps**m + a2 * eps**-m
                zq = b1 * eps**m + b2 * eps**-m
                assert (wq.a, wq.b) == (w, 0) and (zq.a, zq.b) == (z, 0), (n, N, m)


def test_desk_scale_completeness():
    for n in (2, 3, 5, 6, 7, 8):
        for N in (-9, -4, -1, 1, 2, 4, 7, 9):
            sols = brute_solutions(n, N, 2000)
            if not sols:
                continue
            s = solve_generalized(n, N)
            for w, z in sols:
                assert in_classes(s, w, z), (n, N, w, z)


def test_quadnum_arithmetic():
    a = QuadNum(Fraction(3), Fraction(2), 2)
    assert a.norm() == 1
    assert (a * a.inverse()).a == 1 and (a * a.inverse()).b == 0
    assert (a**3).a == 99
    assert (a**-1).a == 3 and (a**-1).b == -2
    assert a.sign() == 1 and (-a).sign() == -1
    b = QuadNum(Fraction(1), Fraction(-2), 2)  # 1 - 2*sqrt(2) < 0
    assert b.sign() == -1


def test_squarefree_kernel():
    assert squarefree_kernel(8) == (2, 2)
    assert squarefree_kernel(2) == (2, 1)
    assert squarefree_kernel(36) == (1, 6)


def test_unit_exponent():
    eps = QuadNum(Fraction(3), Fraction(2), 2)
    assert unit_exponent(eps**4, eps) == 4
    assert unit_exponent(eps**-3, eps) == -3
    assert unit_exponent(-(eps**2), eps) == 2
    assert unit_exponent(QuadNum(Fraction(1), Fraction(1), 2), eps) is None


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
