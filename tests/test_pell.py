import math
from fractions import Fraction

import pytest

from unipres.pell import (
    PellClass,
    QuadNum,
    expand,
    fundamental,
    solve_generalized,
    squarefree_kernel,
    unit_exponent,
)


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
    assert s.contains(3, 1) and s.contains(5, 3) and s.contains(13, 9)
    assert not solve_generalized(2, 3).classes
    s1 = solve_generalized(3, 1)
    assert [c.rep for c in s1.classes] == [(1, 0)]


def test_expand_recurrence_and_identity():
    s = solve_generalized(2, 7)
    for cls in s.classes:
        pairs = cls.pairs(0, 4)
        assert pairs[0] == cls.rep
        w0, _ = cls.fundamental
        for i in range(2, len(pairs)):
            assert pairs[i][0] == 2 * w0 * pairs[i - 1][0] - pairs[i - 2][0]
            assert pairs[i][1] == 2 * w0 * pairs[i - 1][1] - pairs[i - 2][1]
        for w, z in cls.pairs(-4, 4):
            assert w * w - 2 * z * z == 7


def test_expand_function():
    s = solve_generalized(2, 7)
    pairs = expand(s, (0, 1))
    assert len(pairs) == 2 * len(s.classes)
    assert all(w * w - 2 * z * z == 7 for w, z in pairs)


def test_closed_form_coefficients():
    s = solve_generalized(2, 7)
    cls = s.classes[0]
    a1, a2, b1, b2 = cls.closed_form()
    eps = cls.unit()
    for m in range(-3, 4):
        w, z = cls.pair_at(m)
        wq = a1 * eps**m + a2 * eps**-m
        zq = b1 * eps**m + b2 * eps**-m
        assert wq.a == w and wq.b == 0
        assert zq.a == z and zq.b == 0


def test_desk_scale_completeness():
    for n in (2, 3, 5, 6, 7, 8):
        for N in (-9, -4, -1, 1, 2, 4, 7, 9):
            sols = brute_solutions(n, N, 2000)
            if not sols:
                continue
            s = solve_generalized(n, N)
            for w, z in sols:
                assert s.contains(w, z), (n, N, w, z)


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
                assert ours.contains(int(w), int(z)), (n, N, w, z)
