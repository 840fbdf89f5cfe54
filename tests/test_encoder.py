import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import unipres

from unipres import ParseError
from unipres.cli import main as cli_main
from unipres.encoder import (
    EquivReport,
    MultiPoly,
    SAnd,
    SEq,
    SExists,
    SLin,
    SSquare,
    _bound,
    _compile,
    _search,
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


def split_chain_formula():
    """exists b. Z^2(b) & Z^2(b + 2 x1 + 1) & 0 = 0 & Z^2(b + 4 x1 + 1) & Z^2(b + 6 x1 + 4).

    The two chain recipes for b have the same dm1 up to a constant and
    fit its constant, but not its linear part: b = x1^2 and b = x1^2 - 2 x1,
    so b is a "chain" column, not a pinned one.  On |x1| <= 6 the formula
    holds only at x1 = 0.
    """
    return SExists("b", SAnd((
        SSquare(SLin.of(0, b=1)),
        SSquare(SLin.of(1, b=1, x1=2)),
        SEq(SLin.of(0)),
        SSquare(SLin.of(1, b=1, x1=4)),
        SSquare(SLin.of(4, b=1, x1=6)),
    )))


def strided_run_formula():
    """exists b. Z^2(2b + 2i x1 + i^2) for i < 5: a Buchi chain on w = 2b.

    Its five atoms are one run, but with cv = 2 the value b = x1^2 / 2 is
    not integral everywhere, so b is a "chain" column with one candidate;
    the formula holds exactly where x1 is even.
    """
    return SExists("b", SAnd(tuple(SSquare(SLin.of(i * i, b=2, x1=2 * i)) for i in range(5))))


def twice_pinned_formula():
    """exists b. chain(b, x1) & 0 = 0 & chain(b, x1): one pinned chain written twice.

    Each chain is a run that pins b = x1^2, so the formula holds everywhere;
    with two ready run recipes, b is a "chain" column with two candidates
    of equal value, and every atom is checked.
    """
    chain = tuple(SSquare(SLin.of(i * i, b=1, x1=2 * i)) for i in range(5))
    return SExists("b", SAnd(chain + (SEq(SLin.of(0)),) + chain))


def bent_run_formula():
    """exists b. Z^2(b) & Z^2(b + 2 x1 + 1) & Z^2(b + 2 x1 + 4).

    The third atom's constant step is 2 more than the second's, but its
    linear step differs, so the atoms are two runs: b = x1^2 and b = -2 x1.
    Either way |b| <= 16 on |x1| <= 4, and the formula holds at x1 = 0
    and -2 only.
    """
    return SExists("b", SAnd((
        SSquare(SLin.of(0, b=1)),
        SSquare(SLin.of(1, b=1, x1=2)),
        SSquare(SLin.of(4, b=1, x1=2)),
    )))


def brute_truth(f, x1: int, window: int = 64) -> bool:
    """exists b. AND(atoms) at x1, by trying every |b| <= window."""
    atoms = f.body.args

    def holds(atom, env):
        return _is_sq(atom.arg.eval(env)) if isinstance(atom, SSquare) else atom.lhs.eval(env) == 0

    return any(all(holds(a, {"b": b, "x1": x1}) for a in atoms) for b in range(-window, window + 1))


# (formula, step kinds with their candidate counts, x1 where it holds on |x1| <= 4, h with that zero set)
RUN_CASES = [
    (strided_run_formula, [("chain", 1)], {-4, -2, 0, 2, 4}, "(* x1 (+ (* x1 x1) -4) (+ (* x1 x1) -16))"),
    (twice_pinned_formula, [("chain", 2)], set(range(-4, 5)), "(- x1 x1)"),
    (bent_run_formula, [("chain", 2)], {-2, 0}, "(* x1 (+ x1 2))"),
]


@pytest.mark.parametrize("make,kinds,holds,text", RUN_CASES)
def test_runs_the_compiler_reads_as_one_recipe(monkeypatch, make, kinds, holds, text):
    f = make()
    plan = _compile(f, ("x1",))
    assert [(kind, len(recipes)) for _, kind, recipes in plan.steps] == kinds
    truth = [brute_truth(f, v) for v in range(-4, 5)]
    assert {v for v, t in zip(range(-4, 5), truth) if t} == holds
    for h in (parse_poly(text), parse_poly("x1")):
        first = next(((v,) for v, t in zip(range(-4, 5), truth) if (h.eval((v,)) == 0) != t), None)
        want = EquivReport(True, None, 9) if first is None else EquivReport(False, first, grid_index(first, 4) + 1)
        assert check_equiv(h, f, 4) == exact_check(monkeypatch, h, f, 4) == want, h


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
    yield parse_poly("x1"), split_chain_formula(), 4


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


EXACT_CASES = [
    ("(+ (* x1 x1 x2) (* -2 x2) -1)", 2),  # zero at (1, -1) and (-1, -1)
    ("(+ (* x1 x1 x1 x1 x1 x1) (* -16 x1 x1))", 3),  # degree 6, zero at 0 and +-2
    ("(+ (* x1 x1 x1 x2 x2 x2) -8)", 2),  # zero at (1, 2) and (2, 1)
    ("(- (* x1 x2 x3 x1 x2 x3) (* 4 x3 x3))", 2),  # zero where x3 = 0 or x1 x2 = +-2
]


def test_exact_evaluation_matches_h_at_every_grid_point():
    for (text, grid), chain_len in itertools.product(EXACT_CASES, (5, 6)):
        h = parse_poly(text)
        plan = _compile(encode(h, chain_len), tuple(f"x{i + 1}" for i in range(h.nvars)))
        points = list(itertools.product(range(-grid, grid + 1), repeat=h.nvars))
        for p in points:
            assert _search(plan, p) == (h.eval(p) == 0), (text, chain_len, p)
        # Against h + 1, the first point where the zero sets differ is the counterexample.
        wrong = shifted(h, 1)
        first = next(p for p in points if (h.eval(p) == 0) != (wrong.eval(p) == 0))
        want = EquivReport(False, first, grid_index(first, grid) + 1)
        assert check_equiv(h, encode(wrong, chain_len), grid) == want, (text, chain_len)


def test_importing_the_cli_does_not_import_numpy():
    src = str(Path(unipres.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import unipres.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# --- reference constructions ---------------------------------------------------
# The encoder built with SLin arithmetic, and the compiler ordering columns by
# rescanning the remaining ones; the module must give equal results.


def _reference_chain(w, t, chain_len):
    return [SSquare(w + t.scale(2 * i) + SLin.of(i * i)) for i in range(chain_len)]


def _reference_split(vs):
    """(head, rest) of a product of factors, or None for one factor or a square."""
    if len(vs) == 1 or len(vs) == 2 and vs[0] == vs[1]:
        return None
    counts = {v: vs.count(v) for v in vs}
    odd = [v for v, n in counts.items() if n == 1]
    head = odd[0] if len(vs) == 3 and len(counts) == 2 else vs[0]
    rest = list(vs)
    rest.remove(head)
    return head, tuple(rest)


def _reference_splits(vs) -> int:
    split = _reference_split(vs)
    return 0 if split is None else 1 + _reference_splits(split[1])


def _reference_reduce_monomial(coeff, vs, pair, other, chain_len):
    """(bound, conjuncts, form) with form = coeff * prod(vs), from SLin arithmetic."""
    if len(vs) == 1:
        return (), (), SLin.of(0, **{vs[0]: coeff})
    if len(vs) == 2 and vs[0] == vs[1]:
        p = pair[0]
        chain = _reference_chain(SLin.of(0, **{p: 1}), SLin.of(0, **{vs[0]: 1}), chain_len)
        return (p,), tuple(chain), SLin.of(0, **{p: coeff})
    head, rest = _reference_split(vs)
    bound, conj, g = _reference_reduce_monomial(coeff // 4, rest, other, pair, chain_len)
    u, v = pair
    chains = _reference_chain(SLin.of(0, **{u: 1}), SLin.of(0, **{head: 1}) + g, chain_len)
    chains += _reference_chain(SLin.of(0, **{v: 1}), SLin.of(0, **{head: -1}) + g, chain_len)
    body = conj + tuple(chains)
    if bound:
        inner = SAnd(body)
        for var in reversed(bound):
            inner = SExists(var, inner)
        body = (inner,)
    return pair, body, SLin.of(0, **{u: 1}) + SLin.of(0, **{v: -1})


def _reference_factors(expo) -> tuple:
    vs = []
    for i, e in enumerate(expo):
        vs.extend([f"x{i + 1}"] * e)
    return tuple(vs)


def reference_encode(h: MultiPoly, chain_len: int):
    # Each split divides the coefficient by 4.
    scale = 4 ** max((_reference_splits(_reference_factors(e)) for e, _ in h.monomials if sum(e) >= 2), default=0)
    linear = SLin.of(0)
    monos = []
    for expo, c in h.monomials:
        d = sum(expo)
        if d == 0:
            linear += SLin.of(c * scale)
        elif d == 1:
            linear += SLin.of(0, **{f"x{expo.index(1) + 1}": c * scale})
        else:
            monos.append((c * scale, _reference_factors(expo)))
    if not monos:
        return SEq(linear)

    def rule1_name(r):
        return "t0" if r % 2 == 1 else "t1"

    p = len(monos)
    acc = SEq(SLin.of(0, **{rule1_name(p): 1}) + linear.scale(-1))
    for r in range(p, 0, -1):
        cur = rule1_name(r)
        eq_lin = SLin.of(0, **{cur: 1})
        if r >= 2:
            eq_lin = eq_lin + SLin.of(0, **{rule1_name(r - 1): -1})
        coeff, vs = monos[r - 1]
        bound, conj, g = _reference_reduce_monomial(coeff, vs, ("t2", "t3"), ("t0", "t1"), chain_len)
        level = SAnd((SEq(eq_lin + g),) + conj)
        for var in reversed(bound):
            level = SExists(var, level)
        acc = SExists(cur, SAnd((level, acc)))
    return acc


def reference_compile(f, free):
    nfree = ncols = len(free)
    atoms = []

    def walk(node, scope):
        nonlocal ncols
        if isinstance(node, SExists):
            ncols += 1
            walk(node.body, {**scope, node.var: ncols - 1})
        elif isinstance(node, SAnd):
            for a in node.args:
                walk(a, scope)
        else:
            sl = node.lhs if isinstance(node, SEq) else node.arg
            atoms.append((isinstance(node, SSquare), {scope[v]: c for v, c in sl.coeffs}, sl.const))

    walk(f, {v: i for i, v in enumerate(free)})
    recipes = [[] for _ in range(ncols)]
    for i, (is_sq, lin, c) in enumerate(atoms):
        if not is_sq:
            for j, cv in lin.items():
                if j >= nfree:
                    num = tuple((k, -a) for k, a in lin.items() if k != j)
                    deps = {k for k, _ in num if k >= nfree}
                    recipes[j].append((deps, (i,) if abs(cv) == 1 else (), (cv, (num, -c), None)))
    for i, ((sq0, a0, c0), (sq1, a1, c1)) in enumerate(zip(atoms, atoms[1:])):
        if not (sq0 and sq1):
            continue
        diff = {k: d for k in a0.keys() | a1.keys() if (d := a1.get(k, 0) - a0.get(k, 0))}
        dm1 = (tuple(diff.items()), c1 - c0 - 1)
        for j, cv in a0.items():
            if j >= nfree and j not in diff:
                rest = tuple((k, a) for k, a in a0.items() if k != j)
                deps = {k for k in itertools.chain(diff, a0) if k >= nfree and k != j}
                recipes[j].append((deps, (i, i + 1), (cv, (rest, c0), dm1)))

    steps, proven, known = [], set(), set()
    remaining = list(range(nfree, ncols))
    while True:
        for j in remaining:
            ready = [r for r in recipes[j] if r[0] <= known]
            if ready:
                break
        else:
            break
        if ready[0][2][2] is None:
            proven.update(ready[0][1])
            steps.append((j, "eq", (ready[0][2],)))
        elif _reference_pinned([r[2] for r in ready]):
            proven.update(i for r in ready for i in r[1])
            steps.append((j, "pinned", (ready[0][2],)))
        else:
            steps.append((j, "chain", tuple(r[2] for r in ready)))
        known.add(j)
        remaining.remove(j)

    stage = {j: i for i, (j, _, _) in enumerate(steps)}
    checks = [[] for _ in range(len(steps) + 1)]
    if not remaining:
        for i, (_, lin, _) in enumerate(atoms):
            if i not in proven:
                checks[1 + max((stage[j] for j in lin if j >= nfree), default=-1)].append(i)
    forms = tuple((is_sq, (tuple(lin.items()), c)) for is_sq, lin, c in atoms)
    return nfree, ncols, forms, tuple(steps), tuple(tuple(c) for c in checks), not remaining


def _reference_pinned(chains):
    cv, (rest, c), (dm1, d) = chains[0]
    lin = dict(dm1)
    base = dict(rest)
    for cv_b, (rest_b, c_b), (dm1_b, d_b) in chains:
        if cv_b != cv or abs(cv) != 1 or d_b % 2 or dict(dm1_b) != lin:
            return False
        e = (d_b - d) // 2
        want = {k: base.get(k, 0) + e * lin.get(k, 0) for k in base.keys() | lin.keys()}
        if dict(rest_b) != {k: a for k, a in want.items() if a} or c_b != c + e * d + e * e:
            return False
    return not any(a % 2 for a in lin.values())


def seeded_polys(seed: int, count: int):
    """Polynomials in 1-3 variables of degree <= 4, some of them linear."""
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            expo = [0] * nvars
            for _ in range(rng.randint(0, 4)):
                expo[rng.randrange(nvars)] += 1
            terms[tuple(expo)] = rng.choice((-1, 1)) * rng.randint(1, 5)
        yield MultiPoly.from_dict(nvars, terms)


def test_encode_equals_the_slin_reference():
    for i, h in enumerate(seeded_polys(3, 300)):
        chain_len = 5 + i % 3
        assert encode(h, chain_len) == reference_encode(h, chain_len), h


# Chains per monomial: one per square, two per split of a product.
CHAIN_COUNTS = [
    ("(* x1 x1)", 1),
    ("(* x1 x2)", 2),
    ("(* x1 x1 x1)", 3),
    ("(* x1 x1 x2)", 3),
    ("(* x1 x2 x3)", 4),
    ("(* x1 x2 x3 x1 x2 x3)", 9),
    ("(* x1 x1 x1 x1 x1 x1 x1 x1)", 13),
]


def _squares_and_bound_names(f):
    """Number of SSquare atoms in f and the names its SExists bind."""
    if isinstance(f, SSquare):
        return 1, set()
    if isinstance(f, SExists):
        n, names = _squares_and_bound_names(f.body)
        return n, names | {f.var}
    if isinstance(f, SAnd):
        parts = [_squares_and_bound_names(a) for a in f.args]
        return sum(n for n, _ in parts), set().union(*(names for _, names in parts))
    return 0, set()


@pytest.mark.parametrize("text,chains", CHAIN_COUNTS)
def test_each_monomial_takes_the_fewest_chains(text, chains):
    squares, names = _squares_and_bound_names(encode(parse_poly(text), 5))
    assert squares == 5 * chains
    assert names <= {"t0", "t1", "t2", "t3"}


def test_a_degree_d_monomial_takes_at_most_2_d_minus_1_chains():
    for i, h in enumerate(seeded_polys(6, 200)):
        chain_len = 5 + i % 3
        squares, names = _squares_and_bound_names(encode(h, chain_len))
        assert squares % chain_len == 0
        assert squares // chain_len <= sum(2 * (sum(e) - 1) for e, _ in h.monomials if sum(e) >= 2), h
        assert names <= {"t0", "t1", "t2", "t3"}


def test_compile_order_equals_the_rescanning_reference():
    formulas = [(encode(h, 5 + i % 3), h.nvars) for i, h in enumerate(seeded_polys(4, 150))]
    hand_built = (ambiguous_formula, halving_formula, strided_chain_formula, divisor_chain_formula,
                  odd_step_chain_formula, broken_chain_formula, split_chain_formula)
    formulas += [(make(), 1) for make in hand_built]
    kinds = set()
    for f, nvars in formulas:
        free = tuple(f"x{j + 1}" for j in range(nvars))
        plan = _compile(f, free)
        want = reference_compile(f, free)
        assert (plan.nfree, plan.ncols, plan.atoms, plan.steps, plan.checks, plan.resolved) == want, f
        kinds.update(kind for _, kind, _ in plan.steps)
    assert kinds == {"eq", "pinned", "chain"}


def reference_bound(plan, grid: int) -> int:
    """`_bound` taking its atom term over every atom, also those a recipe makes true."""
    b = [grid] * plan.nfree + [0] * (plan.ncols - plan.nfree)

    def row(form) -> int:
        items, c = form
        return abs(c) + sum(abs(k) * b[j] for j, k in items)

    worst = grid
    for col, _, recipes in plan.steps:
        for cv, form, dm1 in recipes:
            if dm1 is None:
                num = row(form)
            else:
                t = row(dm1) // 2 + 1
                num = t * t + row(form)
            worst = max(worst, num)
            b[col] = max(b[col], num // abs(cv) + 1)
    return max([worst, *b, *(row(form) for _, form in plan.atoms)])


def test_bound_over_the_checked_atoms(monkeypatch):
    seeded = [(h, encode(h), 2) for h in seeded_polys(7, 200)]
    lower = 0
    for h, f, grid in list(_agreement_cases()) + seeded:
        plan = _compile(f, tuple(f"x{i + 1}" for i in range(h.nvars)))
        bound, everything = _bound(plan, grid), reference_bound(plan, grid)
        assert bound <= everything
        lower += bound < everything
        assert check_equiv(h, f, grid) == exact_check(monkeypatch, h, f, grid), h
    assert lower  # the checked atoms do leave some out
    # The encodings hold exactly where h = 0 on the whole grid.
    assert all(exact_check(monkeypatch, h, f, grid).passed for h, f, grid in seeded)


def square_chain(chain_len: int):
    """Z^2(w + 2i T + i^2) for i < chain_len, over the free variables w and T."""
    return SAnd(tuple(SSquare(SLin.of(i * i, w=1, T=2 * i)) for i in range(chain_len)))


def test_a_chain_below_the_buchi_constant_is_rejected():
    # With four atoms, w = 36 and T = 246 pass (6^2, 23^2, 32^2, 39^2) though T^2 != w.
    assert 246**2 != 36
    assert eval_square_formula(square_chain(4), {"w": 36, "T": 246})
    assert not eval_square_formula(square_chain(5), {"w": 36, "T": 246})
    h = parse_poly("(* x1 x1)")
    for chain_len in (-1, 0, 4):
        with pytest.raises(ValueError):
            encode(h, chain_len)


@pytest.mark.parametrize("chain", ["0", "-1", "4"])
def test_cli_encode_rejects_a_short_chain(tmp_path, capsys, chain):
    path = tmp_path / "square.txt"
    path.write_text("(* x1 x1)\n")
    assert cli_main(["encode", "--chain", chain, str(path)]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


SQUARE_ENCODING = (
    "(exists t0 (and (exists t2 (and (= (+ t0 t2) 0) (pow 2 t2) (pow 2 (+ t2 (* 2 x1) 1))"
    " (pow 2 (+ t2 (* 4 x1) 4)) (pow 2 (+ t2 (* 6 x1) 9)) (pow 2 (+ t2 (* 8 x1) 16)))) (= t0 0)))"
)


def test_cli_encode_prints_one_chain_for_a_square(capsys):
    assert cli_main(["encode", "(* x1 x1)"]) == 0
    assert capsys.readouterr() == (SQUARE_ENCODING + "\n", "")


# One split: the scale is 4, so g = x2 and the chains are (x1 + x2)^2 and (-x1 + x2)^2.
PRODUCT_ENCODING = (
    "(exists t0 (and (exists t2 (exists t3 (and (= (+ t0 t2 (* -1 t3)) 0)"
    " (pow 2 t2) (pow 2 (+ t2 (* 2 x1) (* 2 x2) 1)) (pow 2 (+ t2 (* 4 x1) (* 4 x2) 4))"
    " (pow 2 (+ t2 (* 6 x1) (* 6 x2) 9)) (pow 2 (+ t2 (* 8 x1) (* 8 x2) 16))"
    " (pow 2 t3) (pow 2 (+ t3 (* -2 x1) (* 2 x2) 1)) (pow 2 (+ t3 (* -4 x1) (* 4 x2) 4))"
    " (pow 2 (+ t3 (* -6 x1) (* 6 x2) 9)) (pow 2 (+ t3 (* -8 x1) (* 8 x2) 16))))) (= t0 0)))"
)


def test_cli_encode_scales_a_product_by_4_per_split(capsys):
    assert cli_main(["encode", "(* x1 x2)"]) == 0
    assert capsys.readouterr() == (PRODUCT_ENCODING + "\n", "")


@pytest.mark.parametrize("text, message", [
    ("(+)", r"\(\+\) needs arguments at 1:2"),
    ("(*)", r"\(\*\) needs two or more arguments at 1:2"),
    ("(+ 1\n  (* x1))", r"\(\*\) needs two or more arguments at 2:4"),
])
def test_parse_poly_follows_its_grammar(text, message):
    with pytest.raises(ParseError, match=message):
        parse_poly(text)
