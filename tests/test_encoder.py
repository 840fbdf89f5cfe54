import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest

import unipres

from unipres.encoder import (
    EquivReport,
    MultiPoly,
    SAnd,
    SEq,
    SExists,
    SLin,
    SSquare,
    check_equiv,
    encode,
    eval_square_formula,
    parse_poly,
)

# (polynomial, grid): 1-3 variables, degrees 2-4, negative coefficients,
# every one with a zero on its grid.
ROUND_TRIP = [
    ("(+ (* x1 x1) -4)", 3),
    ("(+ (* x1 x1 x1 x1) (* -5 x1 x1) 4)", 3),
    ("(+ (* -2 x1 x1 x1) (* 3 x1) 1)", 4),
    ("(+ (* x1 x2) -6)", 4),
    ("(- (* x1 x1) (* 2 x2 x2))", 3),
    ("(+ (* x1 x2 x3) (* -2 x3) 1)", 2),
]


def shifted(h: MultiPoly, d: int) -> MultiPoly:
    """h + d."""
    terms = dict(h.monomials)
    zero = (0,) * h.nvars
    terms[zero] = terms.get(zero, 0) + d
    return MultiPoly.from_dict(h.nvars, terms)


def grid_index(point, grid: int) -> int:
    """Position of a point in the scan order: x1 slowest, xn fastest."""
    idx = 0
    for v in point:
        idx = idx * (2 * grid + 1) + (v + grid)
    return idx


def exact_check(monkeypatch, h, f, grid) -> EquivReport:
    """check_equiv with numpy hidden, so it takes the exact path."""
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "numpy", None)
        return check_equiv(h, f, grid)


def ambiguous_formula():
    """exists b. Z^2(b - 2) & Z^2(b - 3 x1 - 2) & Z^2(b - 3 x1 - 1).

    Both adjacent pairs are chain recipes for b; at x1 = 3 the first gives
    b = 27, which fails the third atom, and the second gives b = 11, which
    satisfies all three.
    """
    return SExists("b", SAnd((
        SSquare(SLin.of(-2, b=1)),
        SSquare(SLin.of(-2, b=1, x1=-3)),
        SSquare(SLin.of(-1, b=1, x1=-3)),
    )))


@pytest.mark.parametrize("text,grid", ROUND_TRIP)
def test_encoding_matches_h_on_the_grid(text, grid):
    h = parse_poly(text)
    assert check_equiv(h, encode(h), grid) == EquivReport(True, None, (2 * grid + 1) ** h.nvars)


@pytest.mark.parametrize("text,grid", ROUND_TRIP)
@pytest.mark.parametrize("d", (1, -1))
def test_wrong_encoding_fails_where_the_zero_sets_differ(text, grid, d):
    h = parse_poly(text)
    wrong = shifted(h, d)
    report = check_equiv(h, encode(wrong), grid)
    assert not report.passed
    p = report.counterexample
    assert len(p) == h.nvars and all(abs(v) <= grid for v in p)
    assert (h.eval(p) == 0) != (wrong.eval(p) == 0)


def test_ambiguous_chain_point_is_searched_exactly():
    f = ambiguous_formula()
    assert {v for v in range(-4, 5) if eval_square_formula(f, {"x1": v})} == {0, 3}
    # The premise: at x1 = 3 the first chain candidate fails, the second holds.
    atoms = f.body.args
    assert not all(_is_sq(a.arg.eval({"b": 27, "x1": 3})) for a in atoms)
    assert all(_is_sq(a.arg.eval({"b": 11, "x1": 3})) for a in atoms)
    # The grid check sees the same truth set: x1 (x1 - 3) = 0 passes ...
    assert check_equiv(parse_poly("(+ (* x1 x1) (* -3 x1))"), f, 4) == EquivReport(True, None, 9)
    # ... and x1 = 0 first disagrees at x1 = 3, the eighth point.
    assert check_equiv(parse_poly("x1"), f, 4) == EquivReport(False, (3,), 8)


def _is_sq(v: int) -> bool:
    return v >= 0 and math.isqrt(v) ** 2 == v


def halving_formula():
    """exists b. 2b - x1 = 0 & b - 1 = 0, true only at x1 = 2 (b = x1 / 2 must be exact)."""
    return SExists("b", SAnd((SEq(SLin.of(0, b=2, x1=-1)), SEq(SLin.of(-1, b=1)))))


def strided_chain_formula():
    """exists b. Z^2(2b - 2) & Z^2(2b + 2 x1 - 1): the chain gives 2b - 2 = x1^2, so x1 is even."""
    return SExists("b", SAnd((SSquare(SLin.of(-2, b=2)), SSquare(SLin.of(-1, b=2, x1=2)))))


def divisor_chain_formula():
    """exists b. Z^2(17b) & Z^2(17b + 2 x1 + 1): the chain gives b = x1^2 / 17.

    At x1 = 4 that is not an integer, so the formula is false there, even
    though b = 0 makes both atoms squares (0 and 9).
    """
    return SExists("b", SAnd((SSquare(SLin.of(0, b=17)), SSquare(SLin.of(1, b=17, x1=2)))))


def odd_step_chain_formula():
    """exists b. Z^2(b) & Z^2(b + x1 + 1): the chain needs x1 even (t = x1 / 2)."""
    return SExists("b", SAnd((SSquare(SLin.of(0, b=1)), SSquare(SLin.of(1, b=1, x1=1)))))


def broken_chain_formula():
    """exists b. Z^2(b) & Z^2(b + 2 x1 + 1) & Z^2(b + 4 x1 + 6): false everywhere.

    The pairs give b = x1^2 and b = x1^2 + 2 x1 + 3; either way one atom
    is a square plus 2.
    """
    return SExists("b", SAnd((
        SSquare(SLin.of(0, b=1)),
        SSquare(SLin.of(1, b=1, x1=2)),
        SSquare(SLin.of(6, b=1, x1=4)),
    )))


def test_recipes_with_a_coefficient_other_than_one():
    assert check_equiv(parse_poly("(+ x1 -2)"), halving_formula(), 4) == EquivReport(True, None, 9)
    evens = {v for v in range(-4, 5) if eval_square_formula(strided_chain_formula(), {"x1": v})}
    assert evens == {-4, -2, 0, 2, 4}
    assert check_equiv(parse_poly("x1"), strided_chain_formula(), 4) == EquivReport(False, (-4,), 1)
    assert check_equiv(parse_poly("x1"), divisor_chain_formula(), 4) == EquivReport(True, None, 9)


def test_chains_that_do_not_pin_a_square():
    x1_cubed_minus_4x1 = parse_poly("(- (* x1 x1 x1) (* 4 x1))")  # zero at -2, 0, 2
    assert check_equiv(x1_cubed_minus_4x1, odd_step_chain_formula(), 2) == EquivReport(True, None, 5)
    assert check_equiv(parse_poly("1"), broken_chain_formula(), 3) == EquivReport(True, None, 7)


def test_values_past_the_float_range_take_the_exact_path():
    """b = c = x1 and 2^53 b - 2^53 c + b - x1 = 0 hold everywhere; in
    float64, 3 * 2^53 + 3 is not representable."""
    big = 2**53
    f = SExists("b", SExists("c", SAnd((
        SEq(SLin.of(0, b=1, x1=-1)),
        SEq(SLin.of(0, c=1, x1=-1)),
        SEq(SLin.of(0, b=big + 1, c=-big, x1=-1)),
    ))))
    assert check_equiv(parse_poly("(- x1 x1)"), f, 5) == EquivReport(True, None, 11)


def _agreement_cases():
    for text, grid in ROUND_TRIP[:5]:
        h = parse_poly(text)
        yield h, encode(h), grid
        yield h, encode(shifted(h, 1)), grid
    yield parse_poly("(+ (* x1 x1) (* -3 x1))"), ambiguous_formula(), 4
    yield parse_poly("x1"), ambiguous_formula(), 4
    yield parse_poly("(+ x1 -2)"), halving_formula(), 4
    yield parse_poly("x1"), strided_chain_formula(), 4
    yield parse_poly("x1"), divisor_chain_formula(), 4
    yield parse_poly("(- (* x1 x1 x1) (* 4 x1))"), odd_step_chain_formula(), 2


def test_exact_path_agrees_with_the_vectorised_path(monkeypatch):
    for h, f, grid in _agreement_cases():
        fast = check_equiv(h, f, grid)
        exact = exact_check(monkeypatch, h, f, grid)
        assert exact.passed == fast.passed
        if fast.passed:
            assert exact == fast


def test_counterexample_does_not_depend_on_the_path(monkeypatch):
    h = parse_poly("(- (* x1 x1) x2)")
    f = encode(parse_poly("(- (* x2 x2) x1)"))
    want = EquivReport(False, (-1, 1), 9)
    assert check_equiv(h, f, 2) == want
    assert exact_check(monkeypatch, h, f, 2) == want
    for h, f, grid in _agreement_cases():
        fast = check_equiv(h, f, grid)
        assert exact_check(monkeypatch, h, f, grid) == fast
        if not fast.passed:
            # checked counts the points up to and including the mismatch.
            assert fast.checked == grid_index(fast.counterexample, grid) + 1


def test_exact_evaluation_matches_h_at_every_grid_point():
    h = parse_poly("(+ (* x1 x1 x2) (* -2 x2) -1)")  # zero at (1, -1) and (-1, -1)
    f = encode(h)
    for p in itertools.product(range(-2, 3), repeat=2):
        assert eval_square_formula(f, {"x1": p[0], "x2": p[1]}) == (h.eval(p) == 0)


def test_importing_the_cli_does_not_import_numpy():
    src = str(Path(unipres.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import unipres.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
