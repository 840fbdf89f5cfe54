"""The reference evaluator agrees with unipres.oracle and with sympy."""

import bench_paths  # noqa: F401  (must precede the imports below)

import random
from fractions import Fraction

import pytest

import corpus
import reference
import unipres
import unipres.encoder
from unipres import oracle


def _sentences(seed, n):
    rng = random.Random(seed)
    return [corpus.mixed_sentence(rng, i, 0.0) for i in range(n)]


def test_holds_agrees_with_oracle_eval_at():
    rng = random.Random(11)
    for s in _sentences(1, 60):
        f = unipres.parse(s.text())
        for x in [rng.randint(-60, 60) for _ in range(12)] + [rng.randint(-10**9, 10**9)]:
            assert reference.holds(s, x) == oracle.eval_at(f, x), (s.text(), x)


def test_truth_set_agrees_with_pointwise_holds():
    for s in _sentences(2, 60) + [c.sentence for c in corpus.WORKLOADS["wide-modulus"].build(1)[:30]]:
        want = {x for x in range(-40, 41) if reference.holds(s, x)}
        assert reference.truth_set(s, 40) == want, s.text()


def test_value_set_membership_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    rng = random.Random(5)
    for i in range(60):
        _, coeffs = corpus.random_pred(rng, "P", 2 + i % 2)
        f = sum(sympy.Rational(c.numerator, c.denominator) * u**k for k, c in enumerate(reversed(coeffs)))
        for _ in range(3):
            v = int(f.subs(u, rng.randint(-40, 40))) + rng.choice((0, 0, 1, -1))
            want = bool(sympy.roots(sympy.Poly(f - v, u), filter="Z"))
            assert reference.in_value_set(coeffs, v) == want, (coeffs, v)


def test_powers_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(9)
    for _ in range(300):
        k = rng.randint(2, 7)
        t = rng.choice((rng.randint(-10**6, 10**6), rng.randint(0, 40) ** k, rng.randint(10**30, 10**31) ** k))
        want = t >= 0 and sympy.integer_nthroot(t, k)[1] or t < 0 and k % 2 == 1 and sympy.integer_nthroot(-t, k)[1]
        assert reference.is_power(t, k) == bool(want), (t, k)


def test_cubic_roots_match_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        g = [rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-30, 30) for _ in range(3)]
        want = [u for u in range(-200, 201) if ((g[0] * u + g[1]) * u + g[2]) * u + g[3] == 0]
        assert reference.poly_roots(g) == want, g


def test_refutes_verdicts():
    s = corpus.WRONG_CUBIC_MERGE.sentence
    assert reference.refutes(s, "unsat", None, 50) == "x=12 satisfies the body"
    assert reference.refutes(s, "sat", 12, 50) is None
    assert reference.refutes(s, "sat", 13, 50) is not None
    assert reference.refutes(s, "unknown", None, 50) is None
    slow = corpus.SLOW_COALESCED_POWER.sentence
    assert reference.refutes(slow, "unsat", None, 50) == "x=30 satisfies the body"
    always = corpus.Sentence((), "forall", ("or", (("cmp", ">", (1, 0), (0, 0)), ("cmp", "<", (1, 0), (0, 1)))))
    assert reference.refutes(always, "sat", None, 50) is None
    assert reference.refutes(always, "unsat", 3, 50) is not None
    never = corpus.Sentence((), "forall", ("cmp", ">", (1, 0), (0, 0)))
    assert reference.refutes(never, "sat", None, 50) == "x=0 falsifies the body"
    assert reference.refutes(never, "unsat", -2, 50) is None


def test_encoding_check_uses_the_generated_polynomial():
    case = corpus.WORKLOADS["encode"].build(1)[5]
    h = unipres.encoder.parse_poly(case.text)
    grid_points = (2 * case.grid + 1) ** h.nvars
    good = ("encoded", h.nvars, h.monomials, True, None, grid_points)
    assert reference.refutes_encoding(case, good) is None
    assert reference.refutes_encoding(case, good[:3] + (False, (0,) * h.nvars, 1)) is not None
    assert reference.refutes_encoding(case, good[:5] + (grid_points - 1,)) is not None
    other = tuple((e, c + 1) for e, c in h.monomials)
    assert reference.refutes_encoding(case, good[:2] + (other,) + good[3:]) is not None


def test_fraction_coefficients_round_trip():
    coeffs = (Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3), Fraction(0))  # C(u, 3)
    assert reference.in_value_set(coeffs, 10) and reference.in_value_set(coeffs, 20)
    assert not reference.in_value_set(coeffs, 11)
