import random
from fractions import Fraction
from pathlib import Path

import pytest

from unipres._ast import ConstraintSystem, PolyAtom, PredicateDecl
from unipres.power_solver import (
    EmptySolutions,
    FiniteSolutions,
    LrbsUnion,
    PolyImages,
    SolveOptions,
    _poly_residues,
    _single_poly_images,
    members,
    solve_positive,
)
from unipres.poly_solver import (
    RedundancyData,
    _derive_curve_case,
    _square_split,
    _triple_4c,
    _try_discard_sets,
    depress,
    depress_ascending,
    poly_redundant,
    preprocess_poly,
    subtract_discarded,
)
from unipres import oracle, parse
from unipres.cli import solve_formula

from conftest import (
    brute_first_witness,
    decide_prepared,
    eval_system_directly,
    random_int_valued_pred,
    random_poly_system,
)

OPTS = SolveOptions(enum_bound=2000, scan_cap=20_000, value_bits=4000)

TRIANGULAR = PredicateDecl("T", (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
GESSEL_CUBIC = PredicateDecl("G", (Fraction(1), Fraction(0), Fraction(-3), Fraction(0)))


class TestDepress:
    def test_identity_square(self):
        d = depress(PredicateDecl("S", (Fraction(1), Fraction(0), Fraction(0))), 1, 0)
        assert d.atom == PolyAtom(2, 0, 1, 0, 1, 0)

    def test_triangular(self):
        d = depress(TRIANGULAR, 1, 0)
        assert d.atom == PolyAtom(2, 0, 8, 1, 2, 1)

    def test_shifted_cube(self):
        pred = PredicateDecl("C", (Fraction(1), Fraction(3), Fraction(3), Fraction(1)))
        d = depress(pred, 1, 0)
        assert d.atom == PolyAtom(3, 0, 1, 0, 1, 0)

    def test_pointwise_equivalence_random(self, rng):
        for _ in range(100):
            deg = rng.choice((2, 3))
            pred = random_int_valued_pred(rng, "P", deg)
            a, b = rng.randint(1, 9), rng.randint(-9, 9)
            atom = depress(pred, a, b).atom
            for x in range(-100, 101):
                direct = oracle.value_set_member(pred, a * x + b)[0]
                assert atom.holds(x) == direct, (pred.coeffs, a, b, x)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            depress(PredicateDecl("L", (Fraction(2), Fraction(1))), 1, 0)


class TestPolyRedundant:
    def test_quadratic_square_ratio(self):
        data = poly_redundant(PolyAtom(2, 0, 1, 0, 1, 0), PolyAtom(2, 0, 4, 0, 1, 0))
        assert data is not None and data.kind == "line"
        assert data.slope == Fraction(1, 2)

    def test_degree_mismatch(self):
        assert poly_redundant(PolyAtom(2, 0, 1, 0, 1, 0), PolyAtom(3, 0, 1, 0, 1, 0)) is None

    def test_necessary_condition(self):
        assert poly_redundant(PolyAtom(3, 1, 1, 0, 1, 0), PolyAtom(3, 1, 1, 1, 1, 0)) is None

    def test_quadratic_point_only(self):
        data = poly_redundant(PolyAtom(2, 0, 1, 0, 1, 0), PolyAtom(2, 0, 3, 0, 1, 0))
        assert data is not None and data.kind == "point" and data.points == ((0, 0),)

    def test_cubic_line_and_conic(self):
        # f1 = f2 = u^3 - 4u with a1 = a2 = 1: the line is u1 = u2.
        p1 = PolyAtom(3, -4, 1, 0, 1, 0)
        p2 = PolyAtom(3, -4, 1, 0, 1, 0)
        data = poly_redundant(p1, p2)
        assert data is not None and data.kind == "line+conic"
        assert data.slope == Fraction(-1)  # u1 = u2 line (factor u1 - u2)
        # conic points satisfy a2 f1(u1) = a1 f2(u2)
        for u1, u2 in data.points:
            assert u1**3 - 4 * u1 == u2**3 - 4 * u2
        assert (0, 2) in data.points or (2, 0) in data.points  # both roots of u^3-4u

    def test_cubic_line_without_linear_term(self):
        # a1 = 1, a2 = 8, no linear terms: the curve 8 u1^3 = u2^3 holds the
        # line u1 = u2 / 2, so the slope is -1/2.
        data = poly_redundant(PolyAtom(3, 0, 1, 0, 1, 0), PolyAtom(3, 0, 8, 0, 1, 0))
        assert data is not None and data.kind == "line+conic"
        assert data.slope == Fraction(-1, 2)

    def test_above_degree_three_is_left_to_power_preprocessing(self):
        # x and 16x are fourth powers together; `power_solver.preprocess`
        # settles such pairs before the atoms become PolyAtoms.
        assert poly_redundant(PolyAtom(4, 0, 1, 0, 1, 0), PolyAtom(4, 0, 16, 0, 1, 0)) is None

    @pytest.mark.parametrize("p1, p2", [
        (PolyAtom(3, -4, 1, 0, 1, 0), PolyAtom(3, -4, 1, 0, 1, 0)),
        (PolyAtom(3, 0, 1, 0, 1, 0), PolyAtom(3, 0, 8, 0, 1, 0)),
    ], ids=["linear-term", "no-linear-term"])
    def test_cubic_line_lies_on_curve(self, p1, p2):
        # Every integer point of u1 = -slope*u2 satisfies a2 f1(u1) = a1 f2(u2).
        data = poly_redundant(p1, p2)
        on_line = 0
        for u2 in range(-20, 21):
            u1 = -data.slope * u2
            if u1.denominator != 1:
                continue
            u1 = int(u1)
            on_line += 1
            assert p2.a * (u1**3 + p1.lin * u1) == p1.a * (u2**3 + p2.lin * u2), (u1, u2)
        assert on_line > 10


class TestSolvePositive:
    def test_triangular_images(self):
        atom = depress(TRIANGULAR, 1, 0).atom
        s = solve_positive([atom], options=OPTS)
        assert isinstance(s, PolyImages)
        first = sorted(x for _, x in zip(range(8), members(s, OPTS)))
        assert first == [0, 1, 3, 6, 10, 15, 21, 28]

    def test_fermat_elliptic(self):
        atoms = [depress(TRIANGULAR, 1, 0).atom, PolyAtom(3, 0, 1, 0, 1, 0)]
        s = solve_positive(atoms, options=OPTS)
        assert isinstance(s, FiniteSolutions) and not s.complete
        assert s.values == (0, 1)

    def test_empty(self):
        s = solve_positive([], options=OPTS)
        assert s.case == "power:none"

    def test_quad_pair_matches_scan(self):
        # The strided witness u = 1 (mod 3) gives a w-filter of stride > 1.
        for first in (PolyAtom(2, 0, 1, 0, 1, 0), PolyAtom(2, 0, 1, 0, 3, 1)):
            atoms = [first, PolyAtom(2, 0, 2, 8, 1, 0)]
            s = solve_positive(atoms, options=OPTS)
            assert isinstance(s, LrbsUnion) and s.case == "poly:pair:pell"
            got = [x for _, x in zip(range(4), members(s, OPTS))]
            scan = [x for x in range(0, 10**6) if all(oracle.atom_eval(a, x) for a in atoms)]
            assert got == scan[: len(got)] == [4, 196, 6724, 228484], first

    def test_double_root_images(self):
        # T(x) & G(x+2) with G = {u^3 - 3u}: the scaled curve acquires a
        # double root, so x is parametrized by degree-6 images.
        quad = depress(TRIANGULAR, 1, 0).atom
        cub = depress(GESSEL_CUBIC, 1, 2).atom
        s = solve_positive([quad, cub], options=OPTS)
        scan = [x for x in range(-50, 4 * 10**6) if quad.holds(x) and cub.holds(x)]
        if isinstance(s, PolyImages):
            sample = sorted(x for _, x in zip(range(60), members(s, OPTS)))
            for x in scan:
                assert s.contains(x), x
            for x in sample[:10]:
                assert quad.holds(x) and cub.holds(x)
        else:
            for x in scan:
                assert s.contains(x)

    def test_residue_scan_matches_brute_force(self, rng):
        for _ in range(60):
            pred = random_int_valued_pred(rng, "P", rng.choice((2, 3)))
            atom = depress(pred, rng.randint(1, 12), rng.randint(-50, 50)).atom
            # Brute force over three periods of the witness lattice, with the
            # polynomial evaluated in Fractions; the scan yields the lattice
            # points of the first period.
            hits = set()
            for j in range(3 * atom.a):
                w = Fraction(atom.offset + atom.stride * j)
                if (w**atom.degree + atom.lin * w - atom.b) % atom.a == 0:
                    hits.add(atom.offset + atom.stride * (j % atom.a))
            assert list(_poly_residues(atom)) == sorted(hits), atom

    def test_single_images_are_the_atom_solutions(self, rng):
        for _ in range(12):
            pred = random_int_valued_pred(rng, "P", rng.choice((2, 3)))
            atom = depress(pred, rng.randint(1, 12), rng.randint(-20, 20)).atom
            s = _single_poly_images(atom, _poly_residues(atom), None)
            for poly in s.polys:
                for t in range(-4, 5):
                    assert oracle.atom_eval(atom, poly.eval(t)), (atom, t)
            for x in range(-120, 121):
                assert s.contains(x) == oracle.atom_eval(atom, x), (atom, x)

    def test_mixed_power_poly(self):
        # x a fourth power, as `prepare` rewrites PowerAtom(4, 1, 0).
        atoms = [depress(TRIANGULAR, 1, 0).atom, PolyAtom(4, 0, 1, 0, 1, 0)]
        s = solve_positive(atoms, options=OPTS)
        assert isinstance(s, FiniteSolutions)
        scan = [x for x in range(0, 2000) if all(oracle.atom_eval(a, x) for a in atoms)]
        for x in scan:
            assert x in s.values


class TestPreprocess:
    def test_direct_contradiction(self):
        atom = depress(TRIANGULAR, 1, 0).atom
        sys_ = ConstraintSystem(lower=0, positives=[atom], negatives=[atom])
        assert preprocess_poly(sys_) == []

    def test_redundant_positive_pair_merges(self):
        # T(x) and T(9x+1) encode the same witnesses through u2 = 3u1.
        a1 = depress(TRIANGULAR, 1, 0).atom
        a2 = depress(TRIANGULAR, 9, 1).atom
        sys_ = ConstraintSystem(lower=-1, positives=[a1, a2])
        subs = preprocess_poly(sys_)
        assert subs
        scan = [x for x in range(0, 3000) if oracle.atom_eval(a1, x) and oracle.atom_eval(a2, x)]
        for x in scan:
            assert _kept_by_some_branch(subs, x), x

    def test_redundant_cubic_pair_merges(self):
        # A(x) and B(8x) with B(2u) = 8 A(u): the witnesses satisfy u2 = 2u1,
        # a line of a strided cubic merge.
        A = PredicateDecl("A", (Fraction(1), Fraction(1), Fraction(0), Fraction(0)))
        B = PredicateDecl("B", (Fraction(1), Fraction(2), Fraction(0), Fraction(0)))
        a1 = depress(A, 1, 0).atom
        a2 = depress(B, 8, 0).atom
        sys_ = ConstraintSystem(lower=-1, positives=[a1, a2])
        subs = preprocess_poly(sys_)
        assert subs
        scan = [x for x in range(0, 3000) if oracle.atom_eval(a1, x) and oracle.atom_eval(a2, x)]
        assert 12 in scan
        for x in scan:
            assert _kept_by_some_branch(subs, x), x

    def test_conic_point_resolves_once_with_its_point(self):
        # Both cubics meet on the line branch and at conic points that all
        # give x = 0: one resolved system stands for that point.
        P = PolyAtom(3, -4, 8, 0, 1, 0)
        Q = PolyAtom(3, -1, 1, 0, 2, 1)
        subs = preprocess_poly(ConstraintSystem(lower=-5, positives=[P, Q]))
        points = [s for s in subs if s.resolved is not None]
        assert [(s.resolved.witness, s.resolved_points) for s in points] == [(0, (0,))]
        assert points[0].trace == ["poly-redundant:conic-point"]
        scan = [x for x in range(-4, 3000) if P.holds(x) and Q.holds(x)]
        assert 0 in scan
        for x in scan:
            assert _kept_by_some_branch(subs, x), x


def _kept_by_some_branch(subs, x):
    """Whether a preprocessed branch still admits x."""
    return any(
        s.resolved is None and all(a.holds(x) for a in s.positives) or
        (s.resolved is not None and s.resolved_points and x in s.resolved_points)
        for s in subs
    )


class Test4c:
    def setup_method(self):
        self.q1 = PolyAtom(2, 0, 1, 0, 1, 0)
        self.q3 = PolyAtom(2, 0, 2, 8, 1, 0)
        self.neg = depress(GESSEL_CUBIC, 1, 2).atom

    def test_curve_case_split(self):
        d1 = _derive_curve_case(self.q1, self.neg)
        d3 = _derive_curve_case(self.q3, self.neg)
        assert d1.split == (1, 1, 1, -2)
        assert d3.split == (1, -1, 2, 4)

    def test_split_reassembly(self):
        # (alpha u + beta)^2 (gamma u + delta) must reproduce the scaled curve.
        for quad, cub in ((self.q1, self.neg), (self.q3, self.neg)):
            d = _derive_curve_case(quad, cub)
            alpha, beta, gamma, delta = d.split
            for u in range(-10, 11):
                lhs = (alpha * u + beta) ** 2 * (gamma * u + delta)
                rhs = quad.a * (u**3 + cub.lin * u) + (cub.a * quad.b - quad.a * cub.b)
                assert lhs == rhs, (d.split, u)

    def test_square_split_matches_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        u = sympy.Symbol("u")
        repeated_seen = 0
        for _ in range(400):
            aq = rng.randint(1, 30)
            if rng.random() < 0.5:
                # A double root at rho (a triple one at rho = 0).
                rho = rng.randint(-6, 6)
                lin, c0 = -3 * rho * rho, 2 * aq * rho**3
            else:
                lin, c0 = rng.randint(-20, 20), rng.randint(-300, 300)
            cubic = aq * u**3 + aq * lin * u + c0
            _, factors = sympy.sqf_list(cubic)
            repeated = [f for f, m in factors if m > 1]
            split = _square_split(aq, aq * lin, c0)
            assert (split is None) == (not repeated), (aq, lin, c0, factors)
            if split is None:
                continue
            repeated_seen += 1
            alpha, beta, gamma, delta = split
            assert sympy.expand((alpha * u + beta) ** 2 * (gamma * u + delta) - cubic) == 0
            assert any(f.subs(u, sympy.Rational(-beta, alpha)) == 0 for f in repeated)
        assert repeated_seen > 100

    def test_triple_4c_never_raises_on_probe_pairs(self):
        # Every ordered pair of distinct quadratics with a in 1..6, b in
        # {0, 4a} and stride <= 3 against the Gessel cubic G(x + 2).  The
        # derived image x(v1) is integral only on the filtered residues.
        quads = [PolyAtom(2, 0, a, b, q, r) for a in range(1, 7) for b in (0, 4 * a)
                 for q in (1, 2, 3) for r in range(q)]
        pell = 0
        for q1 in quads:
            for q3 in quads:
                if q1 is q3:
                    continue
                sol = _triple_4c(q1, self.neg, q3, None, OPTS, "probe")
                if isinstance(sol, LrbsUnion):
                    pell += 1
                    for _, x in zip(range(2), members(sol, OPTS)):
                        assert q1.holds(x) and q3.holds(x) and self.neg.holds(x), (q1, q3, x)
        assert len(quads) * (len(quads) - 1) == 5112 and pell == 456

    def test_triple_4c_members(self):
        s = solve_positive([self.q1, self.q3, self.neg], options=OPTS)
        assert isinstance(s, LrbsUnion) and "4c" in s.case
        got = [x for _, x in zip(range(3), members(s, OPTS))]
        for x in got:
            assert self.q1.holds(x) and self.q3.holds(x) and self.neg.holds(x), x
        assert got[0] == 196

    def test_subtract_discarded_residual(self):
        S = solve_positive([self.q1, self.q3], options=OPTS)
        sys_ = ConstraintSystem(lower=4, positives=[self.q1, self.q3], negatives=[self.neg])
        discards = _try_discard_sets(sys_, sorted([self.q1, self.q3]), OPTS)
        assert discards
        S2 = subtract_discarded(S, discards)
        for old, new in zip(S.entries, S2.entries):
            for k in range(-50, 51):
                if k not in old.indices:
                    assert k not in new.indices
                    continue
                x = old.vmap.apply(old.value_seq.eval(k))
                discarded = self.neg.holds(x)
                assert (k in new.indices) == (not discarded), (k, x)

    def test_decide_sat_on_residual(self):
        sys_ = ConstraintSystem(lower=4, positives=[self.q1, self.q3], negatives=[self.neg])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 6724
        assert "discard:index-progressions" in sys_.trace

    def test_decide_unsat_when_fully_discarded(self):
        # Restrict the second witness to 0 mod 5: exactly the discarded
        # progression survives the stride, so the negative empties S.
        q3s = PolyAtom(2, 0, 2, 8, 5, 0)
        sys_ = ConstraintSystem(lower=0, positives=[self.q1, q3s], negatives=[self.neg])
        v = decide_prepared(sys_, OPTS)
        assert v.is_unsat
        assert "discard:all-indices-removed" in sys_.trace

    def test_irrational_radicand_is_vacuous(self):
        # A negative whose curve data does not split leaves the set alone.
        other_neg = PolyAtom(3, 0, 1, 5, 1, 0)
        S = solve_positive([self.q1, self.q3], options=OPTS)
        sys_ = ConstraintSystem(lower=4, positives=[self.q1, self.q3], negatives=[other_neg])
        discards = _try_discard_sets(sys_, sorted([self.q1, self.q3]), OPTS)
        S2 = subtract_discarded(S, discards)
        for old, new in zip(S.entries, S2.entries):
            assert old.indices.aps == new.indices.aps


class TestDecidePoly:
    def test_pure_power_positive_with_negative_predicate(self):
        # The fourth power is the only positive atom; the cube predicate is negated.
        f = parse("(declare-pred K (coeffs 1 0 0 0)) (exists x (and (> x 0) (pow 4 x) (not (pred K (+ x 1)))))")
        v = solve_formula(f).verdict
        assert v.is_sat and v.witness == 1
        assert oracle.eval_at(f, v.witness)

    def test_forced_contradiction(self):
        atom = depress(TRIANGULAR, 1, 0).atom
        sys_ = ConstraintSystem(lower=0, positives=[atom], negatives=[atom])
        assert decide_prepared(sys_, OPTS).is_unsat

    def test_fermat_never_sat(self):
        atoms = [depress(TRIANGULAR, 1, 0).atom, PolyAtom(3, 0, 1, 0, 1, 0)]
        sys_ = ConstraintSystem(lower=1, positives=atoms)
        v = decide_prepared(sys_, OPTS)
        assert v.is_unknown

    def test_triangular_cube_below_threshold(self):
        atoms = [depress(TRIANGULAR, 1, 0).atom, PolyAtom(3, 0, 1, 0, 1, 0)]
        sys_ = ConstraintSystem(lower=0, positives=list(atoms))
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 1


FIXTURES = Path(__file__).parent / "fixtures"


class TestCubicMerge:
    """Sentences whose two cubic predicates merge along a strided line."""

    def test_fixture_is_sat(self):
        f = parse((FIXTURES / "cubic_merge_sat.sexp").read_text())
        v = solve_formula(f).verdict
        assert v.is_sat and v.witness == 12
        assert oracle.eval_at(f, v.witness)

    @pytest.mark.parametrize("coeffs_a, coeffs_b, term_a, term_b, lower", [
        ("1 2 -2 0", "1 4 -8 0", "(+ x 3)", "(+ (* 8 x) 24)", 5),
        ("1 -1 1 0", "1 2 4 0", "(+ x -2)", "(+ (* -8 x) 16)", -1),
        ("3 3 1 0", "3 6 4 0", "x", "(* 8 x)", 0),  # no linear term after depressing
    ], ids=["shift-3", "scale-minus-8", "no-linear-term"])
    def test_strided_pairs_are_sat(self, coeffs_a, coeffs_b, term_a, term_b, lower):
        f = parse(
            f"(declare-pred A (coeffs {coeffs_a})) (declare-pred B (coeffs {coeffs_b})) "
            f"(exists x (and (> x {lower}) (pred A {term_a}) (pred B {term_b})))"
        )
        v = solve_formula(f).verdict
        assert v.is_sat and v.witness is not None
        assert oracle.eval_at(f, v.witness)

    def test_fixture_trace_holds_each_entry_once(self):
        f = parse((FIXTURES / "cubic_merge_sat.sexp").read_text())
        assert solve_formula(f).case_trace == [
            "depress:A", "depress:B", "poly-redundant:merge:3", "poly:single:images", "witness-scan:hit",
        ]

    def test_negated_pair_names_its_case(self):
        f = parse(
            "(declare-pred A (coeffs 3 3 1 0)) (declare-pred B (coeffs 3 6 4 0)) "
            "(exists x (and (> x 0) (pred A x) (not (pred B (* 8 x)))))"
        )
        out = solve_formula(f)
        assert out.verdict.is_unsat
        assert "poly-redundant:negative-covers-positive" in out.case_trace

    @pytest.mark.parametrize("negated, verdict", [(False, "sat"), (True, "unsat")])
    def test_huge_cube_ratio(self, negated, verdict):
        # A(x) and A(N x) with N = (2 * 10**110)**3, far past the float range.
        n = 8 * 10**330
        second = f"(not (pred A (* {n} x)))" if negated else f"(pred A (* {n} x))"
        f = parse(f"(declare-pred A (coeffs 1 0 0 0)) (exists x (and (> x 0) (pred A x) {second}))")
        v = solve_formula(f).verdict
        assert v.status == verdict
        if v.is_sat:
            assert v.witness == 1 and oracle.eval_at(f, 1)

    def test_negated_pair_is_unsat(self):
        # B(2u) = 8 A(u), so B(8x) holds wherever A(x) does.
        f = parse(
            "(declare-pred A (coeffs 3 3 1 0)) (declare-pred B (coeffs 3 6 4 0)) "
            "(exists x (and (> x 0) (pred A x) (not (pred B (* 8 x)))))"
        )
        assert solve_formula(f).verdict.is_unsat
        assert oracle.scan(f, 300).witnesses == ()


@pytest.mark.slow
def test_differential_poly_suite_slow():
    rng = random.Random(4321)
    check_poly_differential(rng, 60, bound=4000)


def check_poly_differential(rng, count, bound):
    opts = SolveOptions(enum_bound=1200, scan_cap=4000, value_bits=2500)
    for i in range(count):
        sys_ = random_poly_system(rng)
        v = decide_prepared(sys_.clone(), opts)
        if v.is_sat:
            x = v.witness
            if sys_.sign_flipped:
                x = -x
            m, r = sys_.substitution
            assert (x - r) % m == 0
            assert eval_system_directly(sys_, (x - r) // m), (i, sys_, v)
        witness = brute_first_witness(sys_, bound)
        if witness is not None:
            assert not v.is_unsat, (i, sys_, v, witness)
        if v.is_unsat:
            assert witness is None, (i, sys_, v)


def test_differential_poly_smoke(rng):
    check_poly_differential(rng, 20, bound=1500)


def test_every_unsat_fixture_names_its_case():
    opts = SolveOptions(enum_bound=200, scan_cap=2000)
    unsat = 0
    for path in sorted(FIXTURES.glob("*.sexp")):
        if path.stem == "malformed":
            continue
        out = solve_formula(parse(path.read_text()), opts)
        if out.verdict.is_unsat:
            unsat += 1
            assert out.case_trace, path.name
    assert unsat >= 1
