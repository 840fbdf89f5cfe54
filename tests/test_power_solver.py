import random
from fractions import Fraction

import pytest

from unipres._ast import ConstraintSystem, PolyAtom, PowerAtom
from unipres.power_solver import (
    AllSolutions,
    EmptySolutions,
    FiniteSolutions,
    ImagePoly,
    LrbsUnion,
    PolyImages,
    SolveOptions,
    coalesce_similar,
    is_redundant,
    _bounded_curve,
    members,
    solve_positive,
)
from unipres.poly_solver import prepare
from unipres import oracle

from conftest import (
    brute_first_witness,
    decide_prepared,
    eval_system_directly,
    random_mixed_system,
    random_power_system,
)

OPTS = SolveOptions(enum_bound=2000, scan_cap=20_000, value_bits=4000)


class TestRedundancy:
    def test_forced_true(self):
        assert is_redundant(PowerAtom(2, 1, 0), PowerAtom(4, 16, 0)) is True

    def test_forced_false(self):
        assert is_redundant(PowerAtom(2, 3, 0), PowerAtom(4, 16, 0)) is False

    def test_not_redundant(self):
        assert is_redundant(PowerAtom(2, 1, 1), PowerAtom(4, 16, 0)) is None
        assert is_redundant(PowerAtom(4, 1, 0), PowerAtom(2, 1, 0)) is None  # 4 does not divide 2

    def test_forced_value_matches_semantics(self, rng):
        for _ in range(300):
            c1 = PowerAtom(rng.randint(2, 4), rng.randint(1, 12), rng.randint(-12, 12))
            c2 = PowerAtom(rng.randint(2, 4), rng.randint(1, 12), rng.randint(-12, 12))
            forced = is_redundant(c1, c2)
            if forced is None:
                continue
            for x in range(-300, 301):
                if oracle.atom_eval(c2, x) and c2.a * x + c2.b != 0:
                    assert oracle.atom_eval(c1, x) == forced, (c1, c2, x)


class TestCoalesce:
    def test_golden_500x(self):
        assert coalesce_similar([PowerAtom(2, 5, 0), PowerAtom(3, 4, 0)]) == PowerAtom(6, 500, 0)

    def test_singleton(self):
        assert coalesce_similar([PowerAtom(2, 1, 0)]) == PowerAtom(2, 1, 0)

    def test_mixed_exponent_same_term(self):
        merged = coalesce_similar([PowerAtom(2, 8, 0), PowerAtom(4, 2, 0)])
        assert merged == PowerAtom(4, 2, 0)
        for x in range(-(10**5), 10**5 + 1):
            both = oracle.atom_eval(PowerAtom(2, 8, 0), x) and oracle.atom_eval(PowerAtom(4, 2, 0), x)
            assert both == oracle.atom_eval(merged, x)

    def test_equivalence_random(self, rng):
        for _ in range(40):
            a, b = rng.randint(1, 6), rng.randint(-6, 6)
            atoms = []
            for _ in range(rng.randint(2, 3)):
                m = rng.randint(1, 4)
                atoms.append(PowerAtom(rng.randint(2, 4), a * m, b * m))
            merged = coalesce_similar(atoms)
            for x in range(-2000, 2001):
                all_hold = all(oracle.atom_eval(at, x) for at in atoms)
                if merged is None:
                    if a * x + b != 0:
                        assert not all_hold, (atoms, x)
                else:
                    assert all_hold == oracle.atom_eval(merged, x), (atoms, merged, x)

    def test_rejects_dissimilar(self):
        with pytest.raises(ValueError):
            coalesce_similar([PowerAtom(2, 1, 0), PowerAtom(2, 1, 1)])


def _binomial(i):
    """Ascending Fraction coefficients of C(t, i) = t (t-1) ... (t-i+1) / i!."""
    p = [Fraction(1)]
    for j in range(i):
        nxt = [Fraction(0)] * (len(p) + 1)
        for d, c in enumerate(p):
            nxt[d + 1] += c / (j + 1)
            nxt[d] -= c * j / (j + 1)
        p = nxt
    return p


class TestImagePoly:
    def test_eval_matches_fraction_horner(self, rng):
        for _ in range(200):
            degree = rng.randint(2, 5)
            asc = [Fraction(0)] * (degree + 1)
            for i in range(degree + 1):
                c = rng.randint(1, 9) if i == degree else rng.randint(-(10**6), 10**6)
                for d, b in enumerate(_binomial(i)):
                    asc[d] += c * b
            poly = ImagePoly(asc)
            for t in range(-25, 26):
                v = Fraction(0)
                for c in reversed(asc):
                    v = v * t + c
                assert v.denominator == 1
                assert poly.eval(t) == v, (asc, t)

    def test_integer_coefficients_have_denominator_one(self):
        poly = ImagePoly([3, -2, 5])
        assert poly.nums == (3, -2, 5) and poly.den == 1
        assert poly.eval(-4) == 3 + 8 + 80

    def test_rejects_non_integer_valued(self):
        with pytest.raises(ValueError):
            ImagePoly([Fraction(1, 2), 0, 1])
        with pytest.raises(ValueError):
            ImagePoly([0, 1, -1])

    def test_contains_matches_eval(self):
        poly = ImagePoly([Fraction(0), Fraction(1, 2), Fraction(1, 2)])  # t (t + 1) / 2
        values = {poly.eval(t) for t in range(-60, 60)}
        for x in range(-5, 200):
            assert poly.contains(x) == (x in values)


def _pow(k, a, b):
    """The atom `prepare` makes of PowerAtom(k, a, b)."""
    return PolyAtom(k, 0, a, b, 1, 0)


class TestSolvePositive:
    def test_empty_list_is_everything(self):
        s = solve_positive([], lower=3)
        assert isinstance(s, AllSolutions) and s.lower == 3

    def test_empty_residues(self):
        s = solve_positive([_pow(2, 4, 2)])
        assert isinstance(s, EmptySolutions) and s.complete

    def test_single_images(self):
        s = solve_positive([_pow(2, 1, 0)])
        assert isinstance(s, PolyImages)
        first = [x for _, x in zip(range(6), members(s))]
        assert first == [0, 1, 4, 9, 16, 25]

    def test_single_images_respect_congruence(self):
        s = solve_positive([_pow(3, 5, 2)])  # 5x+2 a cube
        got = sorted(x for _, x in zip(range(30), members(s, OPTS)))
        scan = [x for x in range(-4000, 4001) if oracle.atom_eval(PowerAtom(3, 5, 2), x)]
        assert set(scan) <= set(got) | {x for x in scan if abs(x) > max(abs(g) for g in got)}
        for x in got:
            assert oracle.atom_eval(PowerAtom(3, 5, 2), x)

    def test_pell_pair(self):
        s = solve_positive([_pow(2, 1, 0), _pow(2, 2, 1)], options=OPTS)
        assert isinstance(s, LrbsUnion) and s.complete
        got = [x for _, x in zip(range(4), members(s, OPTS))]
        assert got == [0, 4, 144, 4900]
        scan = [x for x in range(0, 10**6) if oracle.atom_eval(PowerAtom(2, 1, 0), x) and oracle.atom_eval(PowerAtom(2, 2, 1), x)]
        assert scan == [0, 4, 144, 4900, 166464]

    def test_divisor_pair(self):
        s = solve_positive([_pow(2, 1, 0), _pow(2, 1, 1)], options=OPTS)
        assert isinstance(s, FiniteSolutions) and s.complete
        assert s.values == (0,)
        scan = [x for x in range(-(10**6), 10**6) if oracle.atom_eval(PowerAtom(2, 1, 0), x) and oracle.atom_eval(PowerAtom(2, 1, 1), x)]
        assert scan == [0]

    @pytest.mark.parametrize(
        "atoms, case, values",
        [
            # x+1 and x+16 squares: a square product, solved by factoring 15.
            ([_pow(2, 1, 1), _pow(2, 1, 16), _pow(2, 2, 4)], "poly:multi:divisor:filtered", (0, 48)),
            # {1, 3, 8, 120}: Pell orbits of the first pair, filtered by the third.
            (
                [_pow(2, 1, 1), _pow(2, 3, 1), _pow(2, 8, 1)],
                "poly:multi:pell:filtered:bounded",
                (0, 120),
            ),
        ],
    )
    def test_three_squares_match_scan(self, atoms, case, values):
        s = solve_positive(atoms, options=OPTS)
        assert s.case == case and s.values == values
        scan = [x for x in range(-(10**4), 10**4 + 1) if all(oracle.atom_eval(a, x) for a in atoms)]
        assert scan == list(values)

    def test_membership_and_no_stragglers(self, rng):
        for _ in range(25):
            atoms = [PowerAtom(rng.randint(2, 3), rng.randint(1, 8), rng.randint(-8, 8)) for _ in range(rng.randint(1, 3))]
            sys_ = ConstraintSystem(lower=-(10**4) - 1, positives=list(atoms))
            subs = prepare(sys_)
            if len(subs) != 1 or subs[0].resolved is not None:
                continue
            s = solve_positive(subs[0].positives, subs[0].lower, OPTS)
            sample = [x for _, x in zip(range(50), members(s, OPTS))] if not isinstance(s, AllSolutions) else []
            for x in sample:
                assert all(oracle.atom_eval(a, x) for a in atoms), (atoms, x)
            if isinstance(s, (EmptySolutions, FiniteSolutions)) and not s.complete:
                continue
            for x in range(-(10**4), 10**4 + 1):
                if all(oracle.atom_eval(a, x) for a in atoms):
                    assert s.contains(x), (atoms, x, s.case)


class TestBoundedWalk:
    def test_walk_reaches_the_far_negative_lattice_points(self):
        # u = 3 (mod 4) with |u| <= 9 is -9, -5, -1, 3, 7.
        s = _bounded_curve(PolyAtom(3, 0, 1, 0, 4, 3), [], None, SolveOptions(enum_bound=9), "t")
        assert s.values == (-729, -125, -1, 27, 343)

    def test_walk_covers_every_lattice_point(self, rng):
        for _ in range(400):
            degree = rng.randint(2, 6)
            lin = rng.randint(-6, 6) if degree == 3 else 0
            stride = rng.randint(1, 5)
            atom = PolyAtom(degree, lin, rng.randint(1, 4), rng.randint(-10, 10), stride, rng.randrange(stride))
            H = rng.randint(1, 30)
            want = set()
            for u in range(-H, H + 1):
                num = u**degree + lin * u - atom.b
                if u % stride == atom.offset and num % atom.a == 0:
                    want.add(num // atom.a)
            got = _bounded_curve(atom, [], None, SolveOptions(enum_bound=H), "t")
            assert got.values == tuple(sorted(want)), (atom, H)

    def test_walk_filters_by_the_rest(self, rng):
        for _ in range(100):
            walked = _pow(rng.randint(2, 6), rng.randint(1, 4), rng.randint(-10, 10))
            rest = [_pow(rng.randint(2, 3), rng.randint(1, 4), rng.randint(-10, 10)),
                    PolyAtom(3, rng.randint(-6, 6), rng.randint(1, 4), rng.randint(-10, 10), 2, 1)]
            full = _bounded_curve(walked, [], None, SolveOptions(enum_bound=40), "t")
            got = _bounded_curve(walked, rest, None, SolveOptions(enum_bound=40), "t")
            assert got.values == tuple(x for x in full.values if all(oracle.atom_eval(a, x) for a in rest))


def test_oracle_and_holds_find_every_root_of_every_degree(rng):
    for _ in range(200):
        degree = rng.randint(2, 6)
        lin = rng.randint(-5, 5) if degree == 3 else 0
        stride = rng.randint(1, 4)
        atom = PolyAtom(degree, lin, rng.randint(1, 5), rng.randint(-20, 20), stride, rng.randrange(stride))
        # |a*x + b| <= 520 keeps every root within |u| <= 40.
        values = {u**degree + lin * u for u in range(-40, 41) if u % stride == atom.offset}
        for x in range(-100, 101):
            want = atom.a * x + atom.b in values
            assert oracle.atom_eval(atom, x) == want and atom.holds(x) == want, (atom, x)


def test_prepare_leaves_only_poly_atoms(rng):
    seen = set()
    for _ in range(300):
        for s in prepare(random_power_system(rng)):
            atoms = s.positives + s.negatives
            assert all(isinstance(a, PolyAtom) for a in atoms), s
            seen.update(a.degree for a in atoms)
    assert seen == {2, 3, 4, 5}


class TestDecide:
    def test_sat_square_not_fourth(self):
        sys_ = ConstraintSystem(lower=0, positives=[PowerAtom(2, 1, 0)], negatives=[PowerAtom(4, 1, 0)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 4

    def test_direct_contradiction(self):
        sys_ = ConstraintSystem(lower=0, positives=[PowerAtom(2, 1, 0)], negatives=[PowerAtom(2, 1, 0)])
        assert decide_prepared(sys_, OPTS).is_unsat

    def test_catalan_unknown(self):
        sys_ = ConstraintSystem(lower=8, positives=[PowerAtom(2, 1, 0), PowerAtom(3, 1, 1)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_unknown

    def test_forced_false_positive_keeps_zero_point(self):
        # Z^4(16x) & Z^2(3x) forces a contradiction away from x = 0, where
        # both terms vanish; x = 0 is a genuine witness.
        sys_ = ConstraintSystem(lower=-5, positives=[PowerAtom(4, 16, 0), PowerAtom(2, 3, 0)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 0

    def test_forced_false_negative_excludes_zero_point(self):
        # not Z^2(3x) is free given Z^4(16x) except at x = 0, which the
        # discard must carve out: the witness skips 0 and lands on 1.
        sys_ = ConstraintSystem(lower=-5, positives=[PowerAtom(4, 16, 0)], negatives=[PowerAtom(2, 3, 0)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 1
        assert not eval_system_directly(sys_, 0)  # 3*0 = 0 is a square

    def test_scan_visits_abs_order_above_a_negative_bound(self):
        # 0 is a square, so the scan moves on to -1 before 1 and -2.
        sys_ = ConstraintSystem(lower=-4, negatives=[PowerAtom(2, 1, 0)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == -1
        assert sys_.trace == ["power:none", "witness-scan:hit"]

    def test_substitution_mapping(self):
        sys_ = ConstraintSystem(
            lower=0, positives=[PowerAtom(2, 1, 0)], substitution=(3, 1), sign_flipped=True
        )
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat
        # witness x = -(3y + 1) for the smallest square y > 0
        assert v.witness == -(3 * 1 + 1)


@pytest.mark.slow
def test_differential_power_suite_slow():
    rng = random.Random(1234)
    check_differential_batch(rng, 150, bound=10**4)


def check_differential_batch(rng, count, bound):
    opts = SolveOptions(enum_bound=1500, scan_cap=5000, value_bits=3000)
    for i in range(count):
        sys_ = random_power_system(rng)
        v = decide_prepared(sys_.clone(), opts)
        if v.is_sat:
            assert eval_system_directly(sys_, _pullback(sys_, v.witness)), (i, sys_, v)
        witness = brute_first_witness(sys_, bound)
        if witness is not None:
            assert not v.is_unsat, (i, sys_, v, witness)
        if v.is_unsat:
            assert witness is None, (i, sys_, v, witness)


def _pullback(system, x):
    if system.sign_flipped:
        x = -x
    m, r = system.substitution
    assert (x - r) % m == 0
    return (x - r) // m


def test_differential_power_smoke(rng):
    check_differential_batch(rng, 40, bound=3000)


def test_differential_mixed_power_and_predicate(rng):
    # Powers next to predicates take the same routes as powers alone; the
    # bounded walk enumerates the atom of highest degree.
    opts = SolveOptions(enum_bound=300, scan_cap=4000, value_bits=2500)
    decided = 0
    for i in range(60):
        sys_ = random_mixed_system(rng)
        v = decide_prepared(sys_.clone(), opts)
        if v.is_sat:
            assert eval_system_directly(sys_, _pullback(sys_, v.witness)), (i, sys_, v)
        witness = brute_first_witness(sys_, 2000)
        if witness is not None:
            assert not v.is_unsat, (i, sys_, v, witness)
        if v.is_unsat:
            assert witness is None, (i, sys_, v)
        decided += not v.is_unknown
    assert decided >= 20
