import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unipres import ParseError, PolyAtom, SolveOptions, Verdict, format_formula, normalize, parse
from unipres import poly_solver
from unipres.cli import solve_formula
from unipres._ast import Cmp, LinTerm, PredAtomNode, PredicateDecl, Quant
from unipres import oracle
from unipres.encoder import parse_poly
from unipres.formula import _scaled_value_set_contains, parse_multi, read_sexprs
from unipres.numtheory import integer_roots


def test_parse_power_sentence():
    f = parse("(exists x (and (> x 8) (pow 2 x) (pow 3 (+ x 1))))")
    assert f.root.kind == "exists"
    body = f.root.body
    assert body.args[0] == Cmp(">", LinTerm(1, 0), LinTerm(0, 8))
    assert body.args[1].k == 2 and body.args[1].term == LinTerm(1, 0)
    assert body.args[2].k == 3 and body.args[2].term == LinTerm(1, 1)


def test_parse_pred_atom():
    f = parse("(declare-pred T (coeffs 1/2 1/2 0)) (exists x (pred T (+ (* 2 x) 1)))")
    assert f.decls[0].coeffs == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    node = f.root.body
    assert isinstance(node, PredAtomNode) and node.term == LinTerm(2, 1)


def test_parse_errors():
    with pytest.raises(ParseError, match="power exponent"):
        parse("(exists x (pow 1 x))")
    with pytest.raises(ParseError, match="unknown predicate"):
        parse("(exists x (pred T x))")
    with pytest.raises(ParseError, match="unknown symbol"):
        parse("(exists x (> x y))")
    with pytest.raises(ParseError, match="integer-valued"):
        parse("(declare-pred B (coeffs 1/3 0 0)) (exists x (pred B x))")
    with pytest.raises(ParseError, match="degree"):
        parse("(declare-pred B (coeffs 1 0 0 0 0)) (exists x (pred B x))")
    with pytest.raises(ParseError):
        parse("(exists x (> x 0)")  # unclosed


def test_parse_error_positions():
    try:
        parse("(exists x\n  (pow 1 x))")
    except ParseError as exc:
        assert exc.line == 2 and exc.col == 8
    else:
        pytest.fail("expected a ParseError")


def test_round_trip():
    texts = [
        "(exists x (and (> x 8) (pow 2 x) (pow 3 (+ x 1))))",
        "(forall x (not (pow 2 (- (* 3 x) 5))))",
        "(declare-pred T (coeffs 1/2 1/2 0))\n(exists x (or (pred T x) (mod x 7 3)))",
        "(exists x (= (* 2 x) (+ x 5)))",
    ]
    for t in texts:
        f = parse(t)
        assert parse(format_formula(f)) == f


def test_normalize_crt_example():
    nf = normalize(parse("(exists x (and (mod x 4 1) (mod x 6 5)))"))
    assert not nf.negated
    assert len(nf.systems) == 1
    s = nf.systems[0]
    assert s.substitution == (12, 5)
    assert not s.positives
    assert s.resolved is not None and s.resolved.is_sat
    assert s.resolved.witness % 12 == 5 and s.resolved.witness % 4 == 1 and s.resolved.witness % 6 == 5


def test_normalize_infeasible_crt():
    nf = normalize(parse("(exists x (and (mod x 4 1) (mod x 6 2)))"))
    assert nf.systems == []


def test_normalize_interval():
    nf = normalize(parse("(exists x (and (> x 0) (< x 5) (pow 2 x)))"))
    sats = [s.resolved for s in nf.systems if s.resolved is not None]
    assert len(sats) == 1 and sats[0].is_sat
    assert sats[0].witness in (1, 4)


def test_normalize_interval_unsat_drops():
    nf = normalize(parse("(exists x (and (> x 4) (< x 9) (pow 2 x)))"))
    assert nf.systems == []


def test_normalize_forall():
    nf = normalize(parse("(forall x (not (pow 2 x)))"))
    assert nf.negated
    # The negated body is exists Z^2(x): case-split systems carry Z^2 atoms.
    atoms = [a for s in nf.systems for a in s.positives]
    assert any(a == PolyAtom(2, 0, 1, 0, 1, 0) for a in atoms)


def test_normalize_negative_power_coefficient_tail():
    # not Z^2(-2x + 30): beyond x = 15 the term is negative, so the
    # negation holds for free; below it a finite check decides.
    nf = normalize(parse("(exists x (and (> x 0) (pow 3 x) (not (pow 2 (+ (* -2 x) 30)))))"))
    assert nf.systems
    for s in nf.systems:
        for atom in s.positives + s.negatives:
            assert atom.a > 0


def test_normalize_positive_atoms_positive_coefficient():
    rngtexts = [
        "(exists x (and (> x -20) (pow 2 (- 5 x))))",
        "(exists x (and (< x 20) (pow 3 (- 5 (* 2 x)))))",
        "(exists x (pow 2 (- (* -3 x) 7)))",
    ]
    for t in rngtexts:
        for s in normalize(parse(t)).systems:
            for atom in s.positives + s.negatives:
                assert atom.a > 0
            assert s.lower is not None or s.resolved is not None


def test_normalize_pairwise_non_similar():
    # 5x and 4x are similar terms: they coalesce into one sixth power of 500x.
    nf = normalize(parse("(exists x (and (> x 0) (pow 2 (* 5 x)) (pow 3 (* 4 x))))"))
    assert [s.positives for s in nf.systems] == [[PolyAtom(6, 0, 500, 0, 1, 0)]]
    for s in nf.systems:
        pows = s.positives
        for i, a in enumerate(pows):
            for b in pows[i + 1 :]:
                assert a.a * b.b != a.b * b.a


def test_degree_one_pred_becomes_congruence():
    # f(u) = 3u + 1: value set is 1 mod 3
    nf = normalize(parse("(declare-pred L (coeffs 3 1)) (exists x (and (pred L x) (> x 0)))"))
    assert len(nf.systems) == 1
    s = nf.systems[0]
    assert s.substitution == (3, 1) and not s.positives


def test_degree_zero_pred_becomes_equality():
    nf = normalize(parse("(declare-pred Z (coeffs 7)) (exists x (pred Z (+ x 2)))"))
    sats = [s for s in nf.systems if s.resolved is not None and s.resolved.is_sat]
    assert len(sats) == 1 and sats[0].resolved.witness == 5


def _random_formula(rng: random.Random):
    decls = {
        "T": (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        "Q": (Fraction(1), Fraction(0), Fraction(-2)),
        "C": (Fraction(1), Fraction(0), Fraction(-3), Fraction(0)),
        "L": (Fraction(4), Fraction(1)),
    }

    def term():
        return f"(+ (* {rng.randint(-4, 4)} x) {rng.randint(-20, 20)})"

    def atom():
        roll = rng.random()
        if roll < 0.2:
            return f"({rng.choice(['<', '>', '='])} {term()} {term()})"
        if roll < 0.4:
            return f"(mod {term()} {rng.randint(2, 9)} {rng.randint(0, 8)})"
        if roll < 0.75:
            return f"(pow {rng.randint(2, 4)} {term()})"
        return f"(pred {rng.choice(list(decls))} {term()})"

    def body(depth):
        if depth == 0 or rng.random() < 0.4:
            return atom()
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            return f"(not {body(depth - 1)})"
        parts = " ".join(body(depth - 1) for _ in range(rng.randint(2, 3)))
        return f"({op} {parts})"

    header = "".join(
        f"(declare-pred {n} (coeffs {' '.join(str(c) for c in cs)}))" for n, cs in decls.items()
    )
    return header + f"(exists x {body(2)})"


def test_normalized_systems_hold_only_poly_atoms():
    rng = random.Random(11)
    degrees = set()
    for _ in range(300):
        for s in normalize(parse(_random_formula(rng))).systems:
            atoms = s.positives + s.negatives
            assert all(isinstance(a, PolyAtom) for a in atoms), s
            degrees.update(a.degree for a in atoms)
    assert degrees == {2, 3, 4}


def _system_satisfied_at(system, x: int) -> bool:
    if system.sign_flipped:
        x = -x
    m, r = system.substitution
    if (x - r) % m:
        return False
    y = (x - r) // m
    if system.resolved is not None:
        if not system.resolved.is_sat:
            return False
        if system.resolved_all:
            return True
        return system.resolved_points is not None and y in system.resolved_points
    if system.lower is not None and y <= system.lower:
        return False
    if y in system.excluded:
        return False
    if not all(oracle.atom_eval(a, y) for a in system.positives):
        return False
    return not any(oracle.atom_eval(a, y) for a in system.negatives)


@pytest.mark.slow
def test_semantic_preservation_500():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(500):
        text = _random_formula(rng)
        f = parse(text)
        nf = normalize(f)
        for x in range(-200, 201):
            direct = oracle.eval_at(f, x)
            covered = any(_system_satisfied_at(s, x) for s in nf.systems)
            assert covered == direct, (text, x)
        checked += 1
    assert checked == 500


def test_semantic_preservation_smoke():
    rng = random.Random(7)
    for _ in range(40):
        text = _random_formula(rng)
        f = parse(text)
        nf = normalize(f)
        for x in range(-60, 61):
            direct = oracle.eval_at(f, x)
            covered = any(_system_satisfied_at(s, x) for s in nf.systems)
            assert covered == direct, (text, x)


def test_sentence_differential_against_the_oracle():
    # Every sat witness satisfies the sentence, and no unsat sentence has a
    # witness in |x| <= 200.
    rng = random.Random(20261018)
    opts = SolveOptions(enum_bound=200)
    for _ in range(1000):
        text = _random_formula(rng)
        f = parse(text)
        v = solve_formula(f, opts).verdict
        if v.is_sat:
            assert oracle.eval_at(f, v.witness), (text, v)
        elif v.is_unsat:
            assert oracle.scan(f, 200).witnesses == (), text


@pytest.mark.parametrize("body, preds", [
    # finite check of a bounded interval
    ("(and (> x 10) (< x 3000) (pred T (+ (* 2 x) 1)) (not (pred C x)) (not (pow 2 x)))", 2),
    # equality path
    ("(and (= (* 2 x) 12) (pred T x) (not (pred C (+ x 1))))", 2),
])
def test_finite_checks_build_each_predicate_atom_once(monkeypatch, body, preds):
    calls = []
    depress_ascending = poly_solver.depress_ascending

    def counted(*args):
        calls.append(args)
        return depress_ascending(*args)

    monkeypatch.setattr(poly_solver, "depress_ascending", counted)
    f = parse(f"(declare-pred T (coeffs 1/2 1/2 0)) (declare-pred C (coeffs 1 0 -3 0)) (exists x {body})")
    nf = normalize(f)
    assert len(calls) <= preds
    [system] = nf.systems
    assert system.resolved is not None and system.resolved.is_sat
    assert oracle.eval_at(f, system.resolved.witness)


def test_parse_multi():
    fs = parse_multi("(declare-pred T (coeffs 1/2 1/2 0)) (exists x (pred T x)) (forall x (> x 0))")
    assert len(fs) == 2
    assert fs[0].decls and fs[1].root.kind == "forall"


# --- the s-expression reader ---------------------------------------------


def _error_at(text: str, parser=parse) -> tuple[str, int, int]:
    with pytest.raises(ParseError) as info:
        parser(text)
    return str(info.value), info.value.line, info.value.col


def _shape(node):
    if isinstance(node, list):
        return [_shape(n) for n in node]
    return (node.text, node.line, node.col)


def test_unexpected_close_paren_position():
    text = "; a comment (not read)\r\n\t(exists x\r\n\t\t(> x 0)))"
    msg, line, col = _error_at(text)
    assert msg == "unexpected ')' at 3:11" and (line, col) == (3, 11)


def test_unclosed_paren_names_the_innermost():
    text = "; c\n(exists x\r\n\t(and (> x 0)\n\t (pow 2 x)"
    msg, line, col = _error_at(text)
    assert msg == "unclosed '(' at 3:2" and (line, col) == (3, 2)


def test_unknown_symbol_position_after_comment_tab_and_crlf():
    text = "(exists x ; the body follows\r\n\t(> x\ty))"
    msg, line, col = _error_at(text)
    assert msg.startswith("unknown symbol 'y' in term") and (line, col) == (2, 7)


def test_form_feed_stays_inside_a_symbol():
    assert _shape(read_sexprs("(a\fb c\v)")) == [[("a\fb", 1, 2), ("c\v", 1, 6)]]
    msg, _, _ = _error_at("(exists x (> x\f 0))")
    assert msg.startswith("unknown symbol 'x\f'")


def test_read_sexprs_token_structure():
    text = (
        "; header (ignored)\n"
        "(declare-pred T (coeffs 1/2 1/2 0)) ; trailing\n"
        "\t(exists x\r\n"
        "  (and (> x 1) ;; inner (comment\n"
        "       (pred T x)))\n"
    )
    assert _shape(read_sexprs(text)) == [
        [("declare-pred", 2, 2), ("T", 2, 15), [("coeffs", 2, 18), ("1/2", 2, 25), ("1/2", 2, 29), ("0", 2, 33)]],
        [
            ("exists", 3, 3),
            ("x", 3, 10),
            [("and", 4, 4), [(">", 4, 9), ("x", 4, 11), ("1", 4, 13)], [("pred", 5, 9), ("T", 5, 14), ("x", 5, 16)]],
        ],
    ]
    assert read_sexprs("") == [] and read_sexprs(" ; only a comment") == []


def test_parse_poly_unknown_symbol_position():
    msg, line, col = _error_at("(+ x1\n  ; c (\n  (* 2 y))", parser=parse_poly)
    assert msg == "unknown symbol 'y' at 3:8" and (line, col) == (3, 8)


def test_sentence_count_errors():
    decl = "(declare-pred T (coeffs 1 0 0))"
    assert _error_at("; nothing") == ("no sentence found", None, None)
    assert _error_at(" ", parser=parse_multi) == ("no sentence found", None, None)
    assert _error_at(decl) == ("no sentence found after declarations", None, None)
    assert _error_at(decl, parser=parse_multi) == ("no sentence found", None, None)
    # The second sentence is reported before the first one is read.
    msg, line, col = _error_at(f"(exists x (> x y))\n  {decl}")
    assert msg.startswith("more than one sentence") and (line, col) == (2, 4)
    fs = parse_multi(f"(exists x (> x 0)) {decl} (exists x (pred T x))")
    assert [len(f.decls) for f in fs] == [0, 1]


@pytest.mark.parametrize(
    "decl, message",
    [
        ("(declare-pred A)", "(declare-pred NAME (coeffs ...)) at 1:2"),
        ("(declare-pred (A) (coeffs 1))", "expected a predicate name at 1:16"),
        ("(declare-pred A (coeffs))", "expected (coeffs c_d ... c_0) at 1:18"),
        ("(declare-pred A ((1)))", "expected coeffs at 1:19"),
        ("(declare-pred A (coeffs 1 (2)))", "expected a rational at 1:28"),
        ("(declare-pred A (coeffs 1 1/0))", "expected a rational, got '1/0' at 1:27"),
    ],
)
def test_parse_and_parse_multi_share_declaration_errors(decl, message):
    text = f"{decl} (exists x (> x 0))"
    assert _error_at(text)[0] == _error_at(text, parser=parse_multi)[0] == message


# --- integer arithmetic of predicate declarations and literals -------------


def _fraction_eval(coeffs, u):
    v = Fraction(0)
    for c in coeffs:
        v = v * u + c
    return v


_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@given(st.lists(_rationals, min_size=2, max_size=4).filter(lambda cs: cs[0] != 0))
@settings(max_examples=400, deadline=None)
def test_integer_valuedness_check_matches_fraction_evaluation(coeffs):
    bad = [u for u in range(len(coeffs)) if _fraction_eval(coeffs, u).denominator != 1]
    if bad:
        u = bad[0]
        with pytest.raises(ParseError) as info:
            PredicateDecl("P", tuple(coeffs))
        assert str(info.value) == f"predicate P is not integer-valued (f({u}) = {_fraction_eval(coeffs, u)})"
        return
    decl = PredicateDecl("P", tuple(coeffs))
    assert decl.coeffs == tuple(coeffs) and all(type(c) is Fraction for c in decl.coeffs)
    assert decl.den == math.lcm(*(c.denominator for c in coeffs))
    assert tuple(Fraction(n, decl.den) for n in decl.nums) == decl.ascending()


@pytest.mark.parametrize(
    "coeffs, nums, den",
    [
        ((Fraction(1, 2), Fraction(1, 2), Fraction(0)), (0, 1, 1), 2),                    # (u^2 + u)/2
        ((Fraction(1, 6), Fraction(0), Fraction(-1, 6), Fraction(0)), (0, -1, 0, 1), 6),  # (u^3 - u)/6
        ((Fraction(3), Fraction(-1)), (-1, 3), 1),
    ],
)
def test_predicate_integer_numerators(coeffs, nums, den):
    decl = PredicateDecl("P", coeffs)
    assert (decl.nums, decl.den) == (nums, den)
    for u in range(-20, 21):
        assert Fraction(sum(n * u**i for i, n in enumerate(decl.nums)), decl.den) == decl.eval(u)


_leading = st.integers(1, 12)
_lower = st.integers(-300, 300)


@given(
    st.one_of(st.tuples(_lower, _lower, _leading), st.tuples(_lower, _lower, _lower, _leading)),
    st.integers(-(10**4), 10**4),
    st.integers(-(10**6), 10**6),
)
@settings(max_examples=600, deadline=None)
def test_scaled_value_set_contains_matches_integer_roots(asc, u, v):
    hit = sum(c * u**i for i, c in enumerate(asc))
    for value in (hit, v):
        cs = [asc[0] - value, *asc[1:]]
        assert _scaled_value_set_contains(asc, value) == bool(integer_roots(cs)), (asc, value)
    assert _scaled_value_set_contains(asc, hit)


@pytest.mark.parametrize(
    "decl",
    [
        "(declare-pred T (coeffs 1/2 1/2 0))",
        "(declare-pred C (coeffs 1/6 0 -1/6 0))",
        "(declare-pred N (coeffs -1/6 0 1/6 0))",
        "(declare-pred M (coeffs -1/2 -1/2 3))",
        "(declare-pred V (coeffs 1/2 -19/2 50))",  # least value 5, at u = 9 and 10
    ],
)
def test_denominator_predicates_agree_with_the_oracle(decl):
    name = decl.split()[1]
    terms = ["x", "(+ (* 3 x) -2)", "(- 7 (* 2 x))", "(* -4 x)", "5"]
    for t in terms:
        for body in (f"(pred {name} {t})", f"(and (> x -30) (not (pred {name} {t})))"):
            f = parse(f"{decl} (exists x (and (< x 40) {body}))")
            nf = normalize(f)
            for x in range(-60, 61):
                direct = oracle.eval_at(f, x)
                covered = any(_system_satisfied_at(s, x) for s in nf.systems)
                assert covered == direct, (decl, t, body, x)
