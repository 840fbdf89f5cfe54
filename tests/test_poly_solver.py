import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from unipres._ast import ConstraintSystem, PolyAtom, PredicateDecl, Verdict
from unipres.power_solver import (
    ImagePoly,
    LrbsEntry,
    MemberStream,
    SolveOptions,
    _atom_classes,
    _single_poly_images,
    decide,
    solve_positive,
)
from unipres.poly_solver import (
    RedundancyData,
    _derive_curve_case,
    _pair_mixed,
    _square_split,
    _triple_4c,
    _try_discard_sets,
    depress_ascending,
    discard_pell_indices,
    poly_redundant,
    preprocess_poly,
    subtract_discarded,
)
from unipres import oracle, parse
from unipres.cli import solve_formula
from unipres.formula import normalize

from conftest import (
    brute_first_witness,
    decide_prepared,
    oracle_hits,
    random_int_valued_pred,
    random_poly_system,
    stream_prefix,
    system_satisfied_at,
)

FIXTURES = Path(__file__).parent / "fixtures"
OPTS = SolveOptions(enum_bound=2000, scan_cap=20_000, value_bits=4000)

TRIANGULAR = PredicateDecl("T", (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
GESSEL_CUBIC = PredicateDecl("G", (Fraction(1), Fraction(0), Fraction(-3), Fraction(0)))


class TestDepress:
    def test_identity_square(self):
        square = PredicateDecl("S", (Fraction(1), Fraction(0), Fraction(0)))
        assert depress_ascending(square.ascending(), 1, 0) == PolyAtom(2, 0, 1, 0, 1, 0)

    def test_triangular(self):
        assert depress_ascending(TRIANGULAR.ascending(), 1, 0) == PolyAtom(2, 0, 8, 1, 2, 1)

    def test_shifted_cube(self):
        pred = PredicateDecl("C", (Fraction(1), Fraction(3), Fraction(3), Fraction(1)))
        assert depress_ascending(pred.ascending(), 1, 0) == PolyAtom(3, 0, 1, 0, 1, 0)

    def test_pointwise_equivalence_random(self, rng):
        for _ in range(100):
            deg = rng.choice((2, 3))
            pred = random_int_valued_pred(rng, "P", deg)
            a, b = rng.randint(1, 9), rng.randint(-9, 9)
            atom = depress_ascending(pred.ascending(), a, b)
            for x in range(-100, 101):
                direct = oracle.value_set_member(pred, a * x + b)[0]
                assert atom.holds(x) == direct, (pred.coeffs, a, b, x)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            depress_ascending(PredicateDecl("L", (Fraction(2), Fraction(1))).ascending(), 1, 0)


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
        atom = depress_ascending(TRIANGULAR.ascending(), 1, 0)
        s = solve_positive([atom], options=OPTS)
        assert s.families and all(isinstance(f, ImagePoly) for f in s.families)
        first = sorted(x for _, x in zip(range(8), MemberStream(s, OPTS)))
        assert first == [0, 1, 3, 6, 10, 15, 21, 28]

    def test_fermat_elliptic(self):
        atoms = [depress_ascending(TRIANGULAR.ascending(), 1, 0), PolyAtom(3, 0, 1, 0, 1, 0)]
        s = solve_positive(atoms, options=OPTS)
        assert s.families == () and not s.complete
        assert s.values == (0, 1)

    def test_empty(self):
        s = solve_positive([], options=OPTS)
        assert s.case == "power:none"

    def test_quad_pair_matches_scan(self):
        # The strided witness u = 1 (mod 3) gives a w-filter of stride > 1.
        for first in (PolyAtom(2, 0, 1, 0, 1, 0), PolyAtom(2, 0, 1, 0, 3, 1)):
            atoms = [first, PolyAtom(2, 0, 2, 8, 1, 0)]
            s = solve_positive(atoms, options=OPTS)
            assert s.families and all(isinstance(f, LrbsEntry) for f in s.families)
            assert s.case == "poly:pair:pell"
            got = [x for _, x in zip(range(4), MemberStream(s, OPTS))]
            scan = [x for x in range(0, 10**6) if all(oracle.atom_eval(a, x) for a in atoms)]
            assert got == scan[: len(got)] == [4, 196, 6724, 228484], first

    def test_double_root_images(self):
        # Against G(x+2) with G = {u^3 - 3u}, a square x gives the scaled
        # curve a double root, so x is parametrized by degree-6 images; T(x)
        # gives none and takes the bounded walk.  Either way the members with
        # |x| <= B are exactly the oracle's solutions there.
        cub = depress_ascending(GESSEL_CUBIC.ascending(), 1, 2)
        for quad, B, case, count in (
            (PolyAtom(2, 0, 1, 0, 1, 0), 10**6, "poly:pair:double-root-images", 10),
            (depress_ascending(TRIANGULAR.ascending(), 1, 0), 4 * 10**6, "poly:pair:elliptic:bounded", 2),
        ):
            s = solve_positive([quad, cub], options=OPTS)
            got = sorted(stream_prefix(s, B, OPTS))
            assert s.case == case and len(got) == count
            assert got == oracle_hits([quad, cub], -B, B), case

    def test_residue_scan_matches_brute_force(self, rng):
        for _ in range(60):
            pred = random_int_valued_pred(rng, "P", rng.choice((2, 3)))
            atom = depress_ascending(pred.ascending(), rng.randint(1, 12), rng.randint(-50, 50))
            # Brute force over three periods of the witness lattice, with the
            # polynomial evaluated in Fractions; the classes hold exactly the
            # hits, at a period dividing the lattice's stride*a.
            period, residues = _atom_classes(atom)
            L = atom.stride * atom.a
            assert L % period == 0, atom
            for u in range(-L, 2 * L):
                w = Fraction(u)
                hit = u % atom.stride == atom.offset and (w**atom.degree + atom.lin * w - atom.b) % atom.a == 0
                assert hit == (u % period in residues), (atom, u)

    def test_single_images_are_the_atom_solutions(self, rng):
        for _ in range(12):
            pred = random_int_valued_pred(rng, "P", rng.choice((2, 3)))
            atom = depress_ascending(pred.ascending(), rng.randint(1, 12), rng.randint(-20, 20))
            s = _single_poly_images(atom, _atom_classes(atom))
            for poly in s.families:
                for t in range(-4, 5):
                    assert oracle.atom_eval(atom, poly.eval(t)), (atom, t)
            assert stream_prefix(s, 120, OPTS) == sorted(oracle_hits([atom], -120, 120), key=lambda x: (abs(x), x)), atom

    def test_mixed_power_poly(self):
        # x a fourth power: the atom of (pow 4 x).
        atoms = [depress_ascending(TRIANGULAR.ascending(), 1, 0), PolyAtom(4, 0, 1, 0, 1, 0)]
        s = solve_positive(atoms, options=OPTS)
        assert s.families == ()
        scan = [x for x in range(0, 2000) if all(oracle.atom_eval(a, x) for a in atoms)]
        for x in scan:
            assert x in s.values


class TestPreprocess:
    def test_direct_contradiction(self):
        atom = depress_ascending(TRIANGULAR.ascending(), 1, 0)
        sys_ = ConstraintSystem(lower=0, positives=[atom], negatives=[atom])
        assert preprocess_poly(sys_) == []

    def test_redundant_positive_pair_merges(self):
        # T(x) and T(9x+1) encode the same witnesses through u2 = 3u1.
        a1 = depress_ascending(TRIANGULAR.ascending(), 1, 0)
        a2 = depress_ascending(TRIANGULAR.ascending(), 9, 1)
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
        a1 = depress_ascending(A.ascending(), 1, 0)
        a2 = depress_ascending(B.ascending(), 8, 0)
        sys_ = ConstraintSystem(lower=-1, positives=[a1, a2])
        subs = preprocess_poly(sys_)
        assert subs
        scan = [x for x in range(0, 3000) if oracle.atom_eval(a1, x) and oracle.atom_eval(a2, x)]
        assert 12 in scan
        for x in scan:
            assert _kept_by_some_branch(subs, x), x

    def test_conic_point_resolves_once_with_its_point(self):
        # Both cubics meet on the line branch and at conic points that all
        # give x = 0: one system pinned to that point stands for it.
        P = PolyAtom(3, -4, 8, 0, 1, 0)
        Q = PolyAtom(3, -1, 1, 0, 2, 1)
        subs = preprocess_poly(ConstraintSystem(lower=-5, positives=[P, Q]))
        points = [s for s in subs if s.upper is not None]
        assert [(s.lower, s.upper) for s in points] == [(-1, 1)]
        assert decide(points[0], OPTS) == Verdict.sat(0)
        assert points[0].trace == ["poly-redundant:conic-point"]
        scan = [x for x in range(-4, 3000) if P.holds(x) and Q.holds(x)]
        assert 0 in scan
        for x in scan:
            assert _kept_by_some_branch(subs, x), x


def _kept_by_some_branch(subs, x):
    """Whether a preprocessed branch still admits x: its positive atoms
    hold there and, on a branch pinned to one point, x is that point."""
    return any(
        (s.upper is None or s.lower < x < s.upper) and all(a.holds(x) for a in s.positives)
        for s in subs
    )


class Test4c:
    def setup_method(self):
        self.q1 = PolyAtom(2, 0, 1, 0, 1, 0)
        self.q3 = PolyAtom(2, 0, 2, 8, 1, 0)
        self.neg = depress_ascending(GESSEL_CUBIC.ascending(), 1, 2)

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

    def test_curve_classes_match_the_rho_scan(self, rng):
        checked = 0
        while checked < 150:
            quad, cubic = _random_double_root_pair(rng)
            reference = _reference_curve_residues(quad, cubic)
            if reference is None:
                continue
            modulus, residues = reference
            data = _derive_curve_case(quad, cubic)
            assert modulus % data.modulus == 0, (quad, cubic)
            expanded = {r + data.modulus * k for r in data.residues for k in range(modulus // data.modulus)}
            assert expanded == set(residues), (quad, cubic)
            checked += 1

    def test_curve_case_above_the_former_scan_cap(self):
        # u^2 = 64x + 5 has no witness (5 is not a square mod 8).  The scan
        # modulus, 64^3 * 64, was past its 200,000 cap, which made the pair
        # look squarefree; the classes now certify it empty.
        quad = PolyAtom(2, 0, 64, 5, 1, 0)
        cubic = depress_ascending(GESSEL_CUBIC.ascending(), 64, 7)
        data = _derive_curve_case(quad, cubic)
        assert data is not None and data.residues == ()
        sol = _pair_mixed(quad, cubic, OPTS, "poly:pair")
        assert (sol.families, sol.values, sol.complete) == ((), (), True)
        assert sol.case == "poly:pair:double-root:empty"

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
                sol = _triple_4c(q1, self.neg, q3, "probe")
                if sol is not None and sol.families:
                    assert all(isinstance(f, LrbsEntry) for f in sol.families)
                    pell += 1
                    for _, x in zip(range(2), MemberStream(sol, OPTS)):
                        assert q1.holds(x) and q3.holds(x) and self.neg.holds(x), (q1, q3, x)
        assert len(quads) * (len(quads) - 1) == 5112 and pell == 456

    def test_triple_4c_members(self):
        s = solve_positive([self.q1, self.q3, self.neg], options=OPTS)
        assert s.families and all(isinstance(f, LrbsEntry) for f in s.families) and "4c" in s.case
        got = [x for _, x in zip(range(3), MemberStream(s, OPTS))]
        for x in got:
            assert self.q1.holds(x) and self.q3.holds(x) and self.neg.holds(x), x
        assert got[0] == 196

    def test_subtract_discarded_residual(self):
        S = solve_positive([self.q1, self.q3], options=OPTS)
        sys_ = ConstraintSystem(lower=4, positives=[self.q1, self.q3], negatives=[self.neg])
        discards = _try_discard_sets(sys_, sorted([self.q1, self.q3]))
        assert discards
        S2 = subtract_discarded(S, discards)
        for old, new in zip(S.families, S2.families):
            for k in range(-50, 51):
                if k not in old.indices:
                    assert k not in new.indices
                    continue
                x = old.vmap.apply(old.value_seq.eval(k))
                discarded = self.neg.holds(x)
                assert (k in new.indices) == (not discarded), (k, x)

    def test_subtract_discarded_on_probe_pairs(self):
        # Every eighth unordered pair of the probe quadratics whose Pell
        # orbits meet a discard set: each kept index is one where the
        # negative fails, and each removed index one where it holds.
        quads = [PolyAtom(2, 0, a, b, q, r) for a in range(1, 7) for b in (0, 4 * a)
                 for q in (1, 2, 3) for r in range(q)]
        pairs = []
        for i, q1 in enumerate(quads):
            for q3 in quads[i + 1:]:
                if q1.a * q3.b == q3.a * q1.b or not _try_discard_sets(
                        ConstraintSystem(positives=[q1, q3], negatives=[self.neg]), sorted([q1, q3])):
                    continue
                pairs.append((q1, q3))
        assert len(pairs) == 228
        for q1, q3 in pairs[::8]:
            S = solve_positive([q1, q3], options=OPTS)
            sys_ = ConstraintSystem(positives=[q1, q3], negatives=[self.neg])
            S2 = subtract_discarded(S, _try_discard_sets(sys_, sorted([q1, q3])))
            removed = 0
            for old, new in zip(S.families, S2.families):
                for k in range(-50, 51):
                    if k not in old.indices:
                        assert k not in new.indices
                        continue
                    discarded = self.neg.holds(old.vmap.apply(old.value_seq.eval(k)))
                    assert (k in new.indices) == (not discarded), (q1, q3, k)
                    removed += discarded
            assert removed, (q1, q3)

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
        assert sys_.trace[-2:] == ["discard:index-progressions", "witness-scan:exhausted"]
        sol = discard_pell_indices(sys_.clone(), solve_positive(sys_.positives, options=OPTS))
        assert sol.families and all(e.indices.is_empty() for e in sol.families)

    @pytest.mark.parametrize("text", [
        (FIXTURES / "pell_discard.sexp").read_text(),
        # The second witness on 0 mod 5 (Q(u) = (5u)^2): the negative removes every index.
        "(declare-pred G (coeffs 1 0 -3 0)) (declare-pred Q (coeffs 25 0 0)) "
        "(exists x (and (> x 0) (pow 2 x) (pred Q (+ (* 2 x) 8)) (not (pred G (+ x 2)))))",
    ], ids=["fixture", "stride-5"])
    def test_discard_sentences_agree_with_the_oracle(self, text):
        f = parse(text)
        out = solve_formula(f, SolveOptions(enum_bound=200))
        assert "discard:index-progressions" in out.case_trace
        v = out.verdict
        if v.is_sat:
            assert oracle.scan(f, abs(v.witness)).witnesses == (v.witness,)
        else:
            assert v.is_unsat and out.case_trace[-1] == "witness-scan:exhausted"
            assert oracle.scan(f, 20_000).witnesses == ()

    def test_irrational_radicand_is_vacuous(self):
        # A negative whose curve data does not split leaves the set alone.
        other_neg = PolyAtom(3, 0, 1, 5, 1, 0)
        S = solve_positive([self.q1, self.q3], options=OPTS)
        sys_ = ConstraintSystem(lower=4, positives=[self.q1, self.q3], negatives=[other_neg])
        discards = _try_discard_sets(sys_, sorted([self.q1, self.q3]))
        S2 = subtract_discarded(S, discards)
        for old, new in zip(S.families, S2.families):
            assert old.indices == new.indices


class TestDecidePoly:
    def test_pure_power_positive_with_negative_predicate(self):
        # The fourth power is the only positive atom; the cube predicate is negated.
        f = parse("(declare-pred K (coeffs 1 0 0 0)) (exists x (and (> x 0) (pow 4 x) (not (pred K (+ x 1)))))")
        v = solve_formula(f).verdict
        assert v.is_sat and v.witness == 1
        assert oracle.eval_at(f, v.witness)

    def test_forced_contradiction(self):
        atom = depress_ascending(TRIANGULAR.ascending(), 1, 0)
        sys_ = ConstraintSystem(lower=0, positives=[atom], negatives=[atom])
        assert decide_prepared(sys_, OPTS).is_unsat

    def test_fermat_never_sat(self):
        atoms = [depress_ascending(TRIANGULAR.ascending(), 1, 0), PolyAtom(3, 0, 1, 0, 1, 0)]
        sys_ = ConstraintSystem(lower=1, positives=atoms)
        v = decide_prepared(sys_, OPTS)
        assert v.is_unknown

    def test_triangular_cube_below_threshold(self):
        atoms = [depress_ascending(TRIANGULAR.ascending(), 1, 0), PolyAtom(3, 0, 1, 0, 1, 0)]
        sys_ = ConstraintSystem(lower=0, positives=list(atoms))
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 1


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
        # The window answers x = 12 before any solution set is built; the
        # merged system's set is still the single atom's images.
        f = parse((FIXTURES / "cubic_merge_sat.sexp").read_text())
        assert solve_formula(f).case_trace == ["poly-redundant:merge:3", "witness-scan:window"]
        [system] = normalize(f).systems
        assert solve_positive(system.positives).case == "poly:single:images"

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
            assert system_satisfied_at(sys_, v.witness), (i, sys_, v)
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


def _random_double_root_pair(rng):
    """A quadratic and a cubic atom whose curve aq*g = ... has a double root at rho."""
    aq, rho, m = rng.randint(1, 12), rng.randint(-4, 4), rng.randint(1, 4)
    if rng.random() < 0.5:
        ac, bq = aq * m, rng.randint(-40, 40)
        bc = m * bq - 2 * rho**3
    else:
        ac, k = rng.randint(1, 30), rng.randint(-5, 5)
        bq, bc = aq * k, ac * k - 2 * rho**3
    q1, q2 = rng.randint(1, 3), rng.randint(1, 3)
    quad = PolyAtom(2, 0, aq, bq, q1, rng.randrange(q1))
    cubic = PolyAtom(3, -3 * rho * rho, ac, bc, q2, rng.randrange(q2))
    return quad, cubic


def _reference_curve_residues(quad, cubic, cap=200_000):
    """The rho classes of the curve case by the former scan over one full
    modulus, or None when that modulus passes the cap."""
    aq, bq, ac = quad.a, quad.b, cubic.a
    alpha, beta, gamma, delta = _square_split(aq, aq * cubic.lin, ac * bq - aq * cubic.b)
    modulus = math.lcm(ac * gamma * cubic.stride, ac * ac * gamma * quad.stride, aq * ac * ac * gamma)
    if modulus > cap:
        return None
    residues = []
    for rho in range(modulus):
        t1 = rho * rho - ac * delta
        if t1 % (ac * gamma):
            continue
        u2 = t1 // (ac * gamma)
        if u2 % cubic.stride != cubic.offset:
            continue
        t2 = alpha * rho**3 + ac * (beta * gamma - alpha * delta) * rho
        if t2 % (ac * ac * gamma):
            continue
        u1 = t2 // (ac * ac * gamma)
        if u1 % quad.stride != quad.offset:
            continue
        if (u1 * u1 - bq) % aq:
            continue
        residues.append(rho)
    return modulus, residues
