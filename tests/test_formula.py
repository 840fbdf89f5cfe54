import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from unipres import ParseError, PolyAtom, SolveOptions, Verdict, decide, format_formula, normalize, parse
from unipres import encoder, formula, poly_solver
from unipres.cli import solve_formula
from unipres._ast import Cmp, LinTerm, PredAtomNode, PredicateDecl, Quant
from unipres import oracle
from unipres.encoder import parse_poly
from unipres.formula import SToken, parse_multi, read_sexprs
from unipres.numtheory import integer_roots

from conftest import no_similar_powers, system_satisfied_at


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
    # A bounded conjunct becomes one open system that `decide` scans.
    nf = normalize(parse("(exists x (and (> x 0) (< x 5) (pow 2 x)))"))
    [s] = nf.systems
    assert (s.lower, s.upper, s.resolved) == (0, 5, None)
    assert s.trace == ["interval:enumerated"]
    assert decide(s) == Verdict.sat(1)


def test_normalize_interval_unsat_drops():
    # No square lies in 4 < x < 9: the bounded system decides unsat.
    nf = normalize(parse("(exists x (and (> x 4) (< x 9) (pow 2 x)))"))
    [s] = nf.systems
    assert (s.lower, s.upper) == (4, 9)
    assert decide(s).is_unsat


def test_normalize_forall():
    nf = normalize(parse("(forall x (not (pow 2 x)))"))
    assert nf.negated
    # The negated body is exists Z^2(x): case-split systems carry Z^2 atoms.
    atoms = [a for s in nf.systems for a in s.positives]
    assert any(a == PolyAtom(2, 0, 1, 0, 1, 0) for a in atoms)


def test_normalize_negative_power_coefficient_tail():
    # not Z^2(-2x + 30): beyond x = 15 the term is negative, so the
    # negation holds for free; below it a bounded system keeps its atoms
    # as they are for `decide` to test, and every other system has a > 0.
    nf = normalize(parse("(exists x (and (> x 0) (pow 3 x) (not (pow 2 (+ (* -2 x) 30)))))"))
    bounded = [s for s in nf.systems if s.upper is not None]
    unbounded = [s for s in nf.systems if s.upper is None]
    assert [(s.lower, s.upper) for s in bounded] == [(0, 16)] and unbounded
    for s in unbounded:
        for atom in s.positives + s.negatives:
            assert atom.a > 0
    assert decide(bounded[0]) == Verdict.sat(1)


def test_normalize_positive_atoms_positive_coefficient():
    rngtexts = [
        "(exists x (and (> x -20) (pow 2 (- 5 x))))",
        "(exists x (and (< x 20) (pow 3 (- 5 (* 2 x)))))",
        "(exists x (pow 2 (- (* -3 x) 7)))",
    ]
    for t in rngtexts:
        for s in normalize(parse(t)).systems:
            if s.upper is None:
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
    sats = [v for v in map(decide, nf.systems) if v.is_sat]
    assert len(sats) == 1 and sats[0].witness == 5
    assert [(s.lower, s.upper) for s in nf.systems] == [(4, 6)]


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
            degrees.update(a.degree for a in s.positives + s.negatives)
            for p in poly_solver.prepare(s):
                assert no_similar_powers(p), p
    assert degrees == {2, 3, 4}
    # Two similar powers coalesce into one: 2x a square and 4x a cube
    # hold together exactly when 32x is a sixth power.
    [system] = normalize(parse("(exists x (and (> x 0) (pow 2 (* 2 x)) (pow 3 (* 4 x))))")).systems
    assert (system.positives, system.negatives) == ([PolyAtom(6, 0, 32, 0, 1, 0)], [])


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
            covered = any(system_satisfied_at(s, x) for s in nf.systems)
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
            covered = any(system_satisfied_at(s, x) for s in nf.systems)
            assert covered == direct, (text, x)


def _assert_conjuncts_match_their_systems(text: str, radius: int = 200):
    nf = normalize(parse(text))
    for i, conj in enumerate(nf.conjuncts):
        systems = nf.systems_of(i)
        for x in range(-radius, radius + 1):
            covered = any(system_satisfied_at(s, x) for s in systems)
            assert covered == formula.conjunct_holds(conj, x), (text, i, x)


@pytest.mark.parametrize("body", [
    # witnesses at y = 0 of x = M*y + r, where the y >= 0 half starts
    "(and (mod x 7 3) (pow 2 (+ x 1)))",
    "(and (mod x 6 4) (mod (* 3 x) 4 0) (pow 2 (+ x -4)))",
    "(and (mod x 5 2) (not (pow 2 (+ x 2))))",
    "(and (mod (+ x 1) 9 5) (pow 3 (+ (* -2 x) 9)))",
    "(or (and (mod x 4 1) (pow 2 (+ (* -3 x) 4))) (and (mod x 3 2) (not (pow 3 (+ x 6)))))",
])
def test_each_conjunct_is_the_union_of_its_systems(body):
    _assert_conjuncts_match_their_systems(f"(exists x {body})")


def test_random_conjuncts_are_the_union_of_their_systems():
    rng = random.Random(20261021)
    for _ in range(150):
        _assert_conjuncts_match_their_systems(_random_formula(rng))


def test_conjunct_frame_by_brute_force():
    rng = random.Random(5)
    atom = ("pred", 1, PolyAtom(2, 0, 1, 0, 1, 0))  # ignored by the frame

    def literal():
        tag = rng.choice(["gt", "lt", "eq", "mod", "mod", "pred"])
        if tag == "mod":
            m = rng.randint(2, 12)
            return ("mod", m, rng.randrange(m))
        return atom if tag == "pred" else (tag, rng.randint(-120, 120))

    def holds(lit, x):
        tag = lit[0]
        if tag == "mod":
            return x % lit[1] == lit[2]
        return tag == "pred" or (x > lit[1] if tag == "gt" else x < lit[1] if tag == "lt" else x == lit[1])

    for _ in range(3000):
        lits = [literal() for _ in range(rng.randint(0, 5))]
        lo = rng.choice([None, rng.randint(-100, 100)])
        hi = rng.choice([None, rng.randint(-100, 100)])
        frame = formula.conjunct_frame(lits, lo, hi)
        mods = [l for l in lits if l[0] == "mod"]
        period = math.lcm(*(l[1] for l in mods))
        if frame is None:
            assert mods and not any(all(holds(l, x) for l in mods) for x in range(period)), lits
            continue
        M, r, flo, fhi = frame
        assert M == period and 0 <= r < M, (lits, frame)
        assert (flo is None) == (lo is None and not any(l[0] in ("gt", "eq") for l in lits)), (lits, lo, frame)
        assert (fhi is None) == (hi is None and not any(l[0] in ("lt", "eq") for l in lits)), (lits, hi, frame)
        for x in range(-150, 151):
            want = all(holds(l, x) for l in lits) and (lo is None or x >= lo) and (hi is None or x <= hi)
            got = x % M == r and (flo is None or x >= flo) and (fhi is None or x <= fhi)
            assert got == want, (lits, lo, hi, frame, x)


def test_power_atoms_of_every_degree_and_sign_against_the_oracle():
    # (pow k t) for k = 2..6 and every x-coefficient a in -4..4: the
    # odd-degree flip u -> -u and the even-degree upper bound reach u^5
    # and u^6, which `_random_formula` never draws.
    rng = random.Random(31)
    opts = SolveOptions(enum_bound=200)
    for k in range(2, 7):
        for a in range(-4, 5):
            for negated in (False, True):
                for bounded in (False, True):
                    body = f"(pow {k} (+ (* {a} x) {rng.randint(-20, 20)}))"
                    if negated:
                        body = f"(not {body})"
                    if bounded:
                        body = f"(and ({rng.choice('<>')} x {rng.randint(-30, 30)}) {body})"
                    text = f"(exists x {body})"
                    f = parse(text)
                    nf = normalize(f)
                    for x in range(-60, 61):
                        covered = any(system_satisfied_at(s, x) for s in nf.systems)
                        assert covered == oracle.eval_at(f, x), (text, x)
                    v = solve_formula(f, opts).verdict
                    if v.is_sat:
                        assert oracle.eval_at(f, v.witness), (text, v)
                    elif v.is_unsat:
                        assert oracle.scan(f, 200).witnesses == (), text


def test_sign_fix_keeps_each_atom_on_its_lattice():
    # An odd atom with a < 0 turns by u -> -u, which moves its witness
    # class: C(u) = u^3 + u^2 at 7 - x lands on u = 2 (mod 3).
    f = parse("(declare-pred C (coeffs 1 1 0 0)) (exists x (and (> x 0) (pred C (- 7 x))))")
    [system] = normalize(f).systems
    assert system.positives == [PolyAtom(3, -3, 27, -187, 3, 2)]
    assert [x for x in range(1, 80) if system.positives[0].holds(x)] == [
        x for x in range(1, 80) if oracle.eval_at(f, x)
    ]
    # An even atom with a < 0 is bounded by its least value on the witness
    # lattice: 12u^2 + 12u >= 0, so not P(5 - x) holds for every x > 5.
    f = parse("(declare-pred P (coeffs 12 12 0)) (exists x (and (> x 0) (not (pred P (- 5 x)))))")
    head, tail = normalize(f).systems
    assert (head.lower, head.upper) == (0, 6)
    assert [x for x in range(1, 6) if system_satisfied_at(head, x)] == [1, 2, 3, 4]
    assert decide(head) == Verdict.sat(1)
    assert (tail.lower, tail.positives, tail.negatives) == (5, [], [])


def test_sentence_differential_against_the_oracle():
    # Every sat witness satisfies the sentence, and no unsat sentence has a
    # witness in |x| <= 200.  Under forall, which decides the negated body,
    # a sat sentence has no counterexample in |x| <= 200 and an unsat one
    # carries a counterexample.  A witness or counterexample w with
    # |w| <= 200 is the least (|x|, x) one.
    rng = random.Random(20261018)
    opts = SolveOptions(enum_bound=200)
    key = lambda x: (abs(x), x)  # noqa: E731
    obstructed = 0
    for _ in range(1000):
        text = _random_formula(rng)
        f = parse(text)
        outcome = solve_formula(f, opts)
        v = outcome.verdict
        obstructed += any(t.startswith("local-obstruction:") for t in outcome.case_trace)
        if v.is_sat:
            assert oracle.eval_at(f, v.witness), (text, v)
            if abs(v.witness) <= 200:
                assert min(oracle.scan(f, abs(v.witness)).witnesses, key=key) == v.witness, (text, v)
        elif v.is_unsat:
            assert oracle.scan(f, 200).witnesses == (), text
        text = text.replace("(exists x ", "(forall x ")
        f = parse(text)
        v = solve_formula(f, opts).verdict
        if v.is_sat:
            assert all(oracle.eval_at(f, x) for x in range(-200, 201)), text
        elif v.is_unsat:
            assert v.witness is not None and not oracle.eval_at(f, v.witness), (text, v)
            w = abs(v.witness)
            if w <= 200:
                misses = set(range(-w, w + 1)) - set(oracle.scan(f, w).witnesses)
                assert min(misses, key=key) == v.witness, (text, v)
    # The residue sieve refutes some systems before they are routed.
    assert obstructed > 0


@pytest.mark.parametrize("body, atoms, labels", [
    # a bounded interval; (pow 2 x) is an atom literal too
    ("(and (> x 10) (< x 3000) (pred T (+ (* 2 x) 1)) (not (pred C x)) (not (pow 2 x)))", 3,
     ["interval:enumerated"]),
    # equality path
    ("(and (= (* 2 x) 12) (pred T x) (not (pred C (+ x 1))))", 2, ["equality:substituted"]),
    # no comparison: the halves y >= 0 and y < 0; T has no value below 0,
    # so the flipped half's upper bound leaves it no point
    ("(and (pred T x) (not (pred C (+ x 1))))", 2, ["case-split:positive"]),
    # both halves, each with a bounded head below the negative's tail
    ("(and (pred C x) (not (pred T (+ x 1))))", 2,
     ["case-split:positive", "case-split:negative", "case-split:negative"]),
])
def test_finite_checks_build_each_predicate_atom_once(monkeypatch, body, atoms, labels):
    calls = []
    depress_ascending = poly_solver.depress_ascending

    def counted(*args):
        calls.append(args)
        return depress_ascending(*args)

    monkeypatch.setattr(poly_solver, "depress_ascending", counted)
    f = parse(f"(declare-pred T (coeffs 1/2 1/2 0)) (declare-pred C (coeffs 1 0 -3 0)) (exists x {body})")
    nf = normalize(f)
    assert len(calls) == atoms
    assert [s.trace[0] for s in nf.systems] == labels
    verdicts = [decide(s) for s in nf.systems]
    assert len(calls) == atoms  # `decide` builds no atom
    assert any(v.is_sat for v in verdicts)
    assert all(oracle.eval_at(f, v.witness) for v in verdicts if v.is_sat)


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


# One malformed input for each `raise ParseError` of the reader and the
# parsers, with its message and (line, col).
PARSE_ERRORS = [
    (parse, "(exists x\n  (> x 0)))", "unexpected ')' at 2:11", 2, 11),
    (parse, "(exists x\n\t(and (> x 0)\n\t (pow 2 x)", "unclosed '(' at 2:2", 2, 2),
    (parse, "(exists x (> ((x)) 0))", "expected a term operator at 1:16", 1, 16),
    (parse, "(exists x\n  ((and) (> x 0)))", "expected a connective or atom at 2:5", 2, 5),
    (parse, "(exists x (() (> x 0)))", "expected a connective or atom", None, None),
    (parse, "(exists x (pred (T) x))", "expected a predicate name at 1:18", 1, 18),
    (parse, "(declare-pred T ((coeffs) 1 0)) (exists x (> x 0))", "expected coeffs at 1:19", 1, 19),
    (parse, "((exists) x (> x 0))", "expected a quantifier at 1:3", 1, 3),
    (parse, "(exists (x) (> x 0))", "expected a variable name at 1:10", 1, 10),
    (parse, "(exists x (mod x (7) 1))", "expected an integer at 1:19", 1, 19),
    (parse, "(declare-pred T (coeffs (1) 0 0)) (exists x (pred T x))", "expected a rational at 1:26", 1, 26),
    (parse, "(exists x (pow two x))", "expected an integer, got 'two' at 1:16", 1, 16),
    (parse, "(declare-pred T\n (coeffs 1/0 0 0)) (exists x (pred T x))", "expected a rational, got '1/0' at 2:10", 2, 10),
    (parse, "(exists x ; body\r\n\t(> x\ty))", "unknown symbol 'y' in term (the bound variable is 'x') at 2:7", 2, 7),
    (parse, "(exists x (> () 0))", "empty term", None, None),
    (parse, "(exists x (> (+) 0))", "(+) needs arguments at 1:15", 1, 15),
    (parse, "(exists x (> (- x 1 2) 0))", "(-) takes one or two arguments at 1:15", 1, 15),
    (parse, "(exists x (> (* 2) 0))", "(*) takes an integer and a term at 1:15", 1, 15),
    (parse, "(exists x (> (/ x 2) 0))", "unknown term operator '/' at 1:15", 1, 15),
    (parse, "(exists x true)", "expected a formula, got 'true' at 1:11", 1, 11),
    (parse, "(exists x ())", "empty formula", None, None),
    (parse, "(exists x (and))", "(and) needs arguments at 1:12", 1, 12),
    (parse, "(exists x (not))", "(not) takes one argument at 1:12", 1, 12),
    (parse, "(exists x (= x))", "(=) takes two terms at 1:12", 1, 12),
    (parse, "(exists x (mod x 7))", "(mod) takes a term, a modulus, and a residue at 1:12", 1, 12),
    (parse, "(exists x (mod x 1 0))", "modulus must be >= 2, got 1 at 1:18", 1, 18),
    (parse, "(exists x (pow 2))", "(pow) takes an exponent and a term at 1:12", 1, 12),
    (parse, "(exists x\n  (pow 1 x))", "power exponent must be >= 2, got 1 at 2:8", 2, 8),
    (parse, "(exists x (pred T))", "(pred) takes a name and a term at 1:12", 1, 12),
    (parse, "(exists x (pred T x))", "unknown predicate 'T' at 1:17", 1, 17),
    (parse, "(exists x (foo x))", "unknown form 'foo' at 1:12", 1, 12),
    (parse, "; nothing", "no sentence found", None, None),
    (parse, "(exists x (> x 0))\n(exists x (> x 1))", "more than one sentence; use --multi for batches at 2:2", 2, 2),
    (parse, "(declare-pred T (coeffs 1 0 0))", "no sentence found after declarations", None, None),
    (parse, "(declare-pred T) (exists x (> x 0))", "(declare-pred NAME (coeffs ...)) at 1:2", 1, 2),
    (parse, "(declare-pred T (coeffs)) (exists x (> x 0))", "expected (coeffs c_d ... c_0) at 1:18", 1, 18),
    (parse, "(declare-pred T 3) (exists x (> x 0))", "expected (coeffs c_d ... c_0) at 1:17", 1, 17),
    (parse, "exists", "expected (exists x ...) or (forall x ...) at 1:1", 1, 1),
    (parse, "(exists x)", "a sentence is (exists VAR BODY) or (forall VAR BODY) at 1:2", 1, 2),
    (parse, "(some x (> x 0))", "expected exists/forall, got 'some' at 1:2", 1, 2),
    (parse_multi, " ", "no sentence found", None, None),
    (parse_multi, "(declare-pred T (coeffs 1 0 0))", "no sentence found", None, None),
    (parse_multi, "(exists x (> x 0)) (forall y (pow 1 y))", "power exponent must be >= 2, got 1 at 1:35", 1, 35),
    (parse_poly, "x1 x2", "expected exactly one polynomial term", None, None),
    (parse_poly, "(+ x1\n  (* 2 y))", "unknown symbol 'y' at 2:8", 2, 8),
    (parse_poly, "(+ x1 ())", "empty term", None, None),
    (parse_poly, "(* x1 (+))", "(+) needs arguments at 1:8", 1, 8),
    (parse_poly, "(- x1 x2 x3)", "(-) takes one or two arguments at 1:2", 1, 2),
    (parse_poly, "(* x1)", "(*) needs two or more arguments at 1:2", 1, 2),
    (parse_poly, "(^ x1 2)", "unknown operator '^' at 1:2", 1, 2),
    (parse_poly, "((+ x1) x2)", "unknown operator 'None'", None, None),
    (parse_poly, "(+ x1 x2", "unclosed '(' at 1:1", 1, 1),
    (parse_poly, "(+ x1 x2))", "unexpected ')' at 1:10", 1, 10),
    (parse_poly, "x\u00b2", "unknown symbol 'x\u00b2' at 1:1", 1, 1),
    (parse_poly, "(+ x1 x\u00b2)", "unknown symbol 'x\u00b2' at 1:7", 1, 7),
]


@pytest.mark.parametrize(
    "parser, text, message, line, col", PARSE_ERRORS, ids=[f"{p.__name__}-{i}" for i, (p, *_) in enumerate(PARSE_ERRORS)]
)
def test_parse_error_golden(parser, text, message, line, col):
    assert _error_at(text, parser) == (message, line, col)


@pytest.mark.parametrize("parser, text, message, line, col", [
    (parse, "(declare-pred P (coeffs 0 1 0)) (exists x (pred P x))",
     "predicate P: leading coefficient must be nonzero at 1:2", 1, 2),
    (parse, "; c\n  (declare-pred P (coeffs 1 0 0 0 0))\n(exists x (pred P x))",
     "predicate P: degree 4 exceeds 3 at 2:4", 2, 4),
    (parse_multi, "(exists x (> x 0))\n(declare-pred P (coeffs 1/3 0 0))",
     "predicate P is not integer-valued (f(1) = 1/3) at 2:2", 2, 2),
])
def test_declaration_errors_name_their_declare_pred(parser, text, message, line, col):
    assert _error_at(text, parser) == (message, line, col)


def _random_poly_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((f"x{rng.randint(1, 3)}", str(rng.randint(-9, 9))))
    op = rng.choice("+-*")
    n = {"+": rng.randint(1, 3), "-": rng.randint(1, 2), "*": rng.randint(2, 3)}[op]
    return f"({op} {' '.join(_random_poly_text(rng, depth - 1) for _ in range(n))})"


def _leaf_types(node) -> set:
    if isinstance(node, list):
        return set().union(*map(_leaf_types, node)) if node else set()
    return {type(node)}


def _located_only(text, parse_tree, *args):
    return parse_tree(read_sexprs(text), *args)


def test_plain_and_located_leaves_give_the_same_trees(monkeypatch, stokens_built):
    rng = random.Random(20261018)
    sentences = [_random_formula(rng) for _ in range(300)]
    polys = [_random_poly_text(rng, 3) for _ in range(300)]
    for text in sentences + polys:
        plain, located = read_sexprs(text, located=False), read_sexprs(text)
        assert plain == located and _leaf_types(plain) == {str} and _leaf_types(located) == {SToken}
    want = [parse(t) for t in sentences], [parse_poly(t) for t in polys]
    stokens_built.clear()
    monkeypatch.setattr(formula, "_read_and_parse", _located_only)
    monkeypatch.setattr(encoder, "_read_and_parse", _located_only)
    assert ([parse(t) for t in sentences], [parse_poly(t) for t in polys]) == want
    assert len(stokens_built) > 600


@pytest.mark.parametrize("parser, good, bad", [
    (parse, "(declare-pred T (coeffs 1/2 1/2 0)) (exists x (or (pred T x) (mod x 7 3)))", "(exists x (pow 1 x))"),
    (parse_multi, "(exists x (> x 0)) ; c\n(forall y (pow 2 y))", "(exists x (> x 0)) (forall y (> y z))"),
    (parse_poly, "(+ (* x1 x2) (- x3 4))", "(+ x1 (* x2))"),
])
def test_only_a_parse_error_builds_located_tokens(parser, good, bad, stokens_built):
    parser(good)
    assert stokens_built == []
    with pytest.raises(ParseError):
        parser(bad)
    assert stokens_built == formula._TOKEN.findall(bad)  # one located reading


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


def test_predicate_coefficients_become_fractions_once():
    from_ints = PredicateDecl("P", (1, 0, -3, 0))
    from_fractions = PredicateDecl("P", (Fraction(1), Fraction(0), Fraction(-3), Fraction(0)))
    assert from_ints == from_fractions
    assert all(type(c) is Fraction for c in from_ints.coeffs + from_fractions.coeffs)
    kept = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert all(a is b for a, b in zip(PredicateDecl("T", kept).coeffs, kept))


# --- the plain pass's split tokens and integer declarations ---------------


def test_split_guard_names_every_separator_the_regex_keeps():
    every = "".join(map(chr, range(0x110000)))
    kept = {c for c in every if c.isspace()} - set(" \t\r\n")
    assert set(formula._SPLIT_UNSAFE.findall(every)) == kept | {";"}


@given(st.text(alphabet="();  \t\r\n\f\v\x1c\x85\xa0\u2028\u3000ab9/-", max_size=40))
@settings(max_examples=600, deadline=None)
def test_plain_tokens_equal_the_regex_tokens(text):
    assert formula._plain_tokens(text) == formula._TOKEN.findall(text)
    try:
        located = read_sexprs(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as plain:
            read_sexprs(text, located=False)
        assert plain.value.line is None and str(exc) == f"{plain.value} at {exc.line}:{exc.col}"
    else:
        assert read_sexprs(text, located=False) == located


def test_parse_poly_reads_only_decimal_variable_indices():
    assert parse_poly("x\u0663") == parse_poly("x3")  # int() reads the Arabic-Indic digit three
    with pytest.raises(ParseError, match="unknown symbol 'x\u00b2'"):
        parse_poly("x\u00b2")


def _reference_rational(token: str) -> Fraction | None:
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        return None


def _reference_declaration(tokens):
    """(nums, den, coeffs) of the declared polynomial by `Fraction`s, or the error and its column."""
    coeffs = [_reference_rational(t) for t in tokens]
    if None in coeffs:
        i = coeffs.index(None)
        col = len("(declare-pred P (coeffs ") + 1 + sum(len(t) + 1 for t in tokens[:i])
        return f"expected a rational, got '{tokens[i]}' at 1:{col}"
    if coeffs[0] == 0:
        return "predicate P: leading coefficient must be nonzero at 1:2"
    if len(coeffs) > 4:
        return f"predicate P: degree {len(coeffs) - 1} exceeds 3 at 1:2"
    for u in range(len(coeffs)):
        if _fraction_eval(coeffs, u).denominator != 1:
            return f"predicate P is not integer-valued (f({u}) = {_fraction_eval(coeffs, u)}) at 1:2"
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * den) for c in reversed(coeffs)), den, tuple(coeffs)


_coefficient_tokens = st.one_of(
    st.sampled_from(["4/6", "1/-2", "-0/5", "+3", "1_0", "1/0", "1/2/3", "x", "/2", "1/", "0", "-1/2", "1/6", "2/4"]),
    st.integers(-(10**30), 10**30).map(str),
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(-12, 12)),
)


@given(st.lists(_coefficient_tokens, min_size=1, max_size=5))
@example(["2/4", "1/-2", "-0/5"])     # (u^2 - u)/2, read over the unreduced lcm 4
@example(["1", "x", "1/0"])           # two bad tokens: the leftmost is reported
@example(["4/6", "-2/3", "+3", "1_0"])
@settings(max_examples=500, deadline=None)
def test_declarations_read_as_the_fraction_reference(tokens):
    text = f"(declare-pred P (coeffs {' '.join(tokens)})) (exists x (pred P x))"
    want = _reference_declaration(tokens)
    if isinstance(want, str):
        assert _error_at(text)[0] == want
        return
    decl = parse(text).decls[0]
    assert (decl.nums, decl.den, decl.coeffs) == want
    assert decl == PredicateDecl("P", want[2])


def test_parse_builds_no_fraction(monkeypatch):
    text = (
        "(declare-pred T (coeffs 1/2 1/2 0)) (declare-pred C (coeffs 1/6 -1/2 1/3 0))\n"
        "(exists x (and (pred T x) (not (pred C (+ x 1))) (pow 2 x)))"
    )
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    f = parse(text)
    assert [(d.nums, d.den) for d in f.decls] == [((0, 1, 1), 2), ((0, 2, -3, 1), 6)]
    assert oracle.value_set_member(f.decls[0], 36) == (True, [-9, 8])
    assert built == []
    assert f.decls[1].coeffs == (Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3), Fraction(0)) and built


_leading = st.integers(1, 12)
_lower = st.integers(-300, 300)


@given(
    st.one_of(st.tuples(_lower, _lower, _leading), st.tuples(_lower, _lower, _lower, _leading)),
    st.integers(-(10**4), 10**4),
    st.integers(-(10**6), 10**6),
)
@settings(max_examples=600, deadline=None)
def test_constant_term_atom_matches_integer_roots(asc, u, v):
    # A constant term (a = 0) is decided by its atom: f(u) = value has an
    # integer root exactly when the atom holds at any point.
    hit = sum(c * u**i for i, c in enumerate(asc))
    for value in (hit, v):
        cs = [asc[0] - value, *asc[1:]]
        atom = poly_solver.depress_ascending(asc, 0, value)
        assert atom.holds(0) == bool(integer_roots(cs)), (asc, value)
    assert poly_solver.depress_ascending(asc, 0, hit).holds(0)


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
                covered = any(system_satisfied_at(s, x) for s in nf.systems)
                assert covered == direct, (decl, t, body, x)
