import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from unipres._ast import ConstraintSystem, PolyAtom, Verdict
from unipres.numtheory import floor_root
from unipres.power_solver import (
    ImagePoly,
    LrbsEntry,
    MemberStream,
    SolutionSet,
    SolveOptions,
    coalesce_similar,
    decide,
    is_redundant,
    _bounded_curve,
    _by_magnitude,
    _image_radius,
    _local_obstruction,
    _turn_bound,
    image_polys,
    solve_positive,
)
from unipres.poly_solver import prepare
from unipres import oracle, parse
from unipres.cli import solve_formula
from unipres.formula import normalize

from conftest import (
    brute_first_witness,
    decide_prepared,
    no_similar_powers,
    oracle_hits,
    pow_atom,
    random_mixed_system,
    random_power_system,
    stream_prefix,
    system_satisfied_at,
)

OPTS = SolveOptions(enum_bound=2000, scan_cap=20_000, value_bits=4000)


class TestRedundancy:
    def test_forced_true(self):
        assert is_redundant(pow_atom(2, 1, 0), pow_atom(4, 16, 0)) is True

    def test_forced_false(self):
        assert is_redundant(pow_atom(2, 3, 0), pow_atom(4, 16, 0)) is False

    def test_not_redundant(self):
        assert is_redundant(pow_atom(2, 1, 1), pow_atom(4, 16, 0)) is None
        assert is_redundant(pow_atom(4, 1, 0), pow_atom(2, 1, 0)) is None  # 4 does not divide 2

    def test_forced_value_matches_semantics(self, rng):
        for _ in range(300):
            c1 = pow_atom(rng.randint(2, 4), rng.randint(1, 12), rng.randint(-12, 12))
            c2 = pow_atom(rng.randint(2, 4), rng.randint(1, 12), rng.randint(-12, 12))
            forced = is_redundant(c1, c2)
            if forced is None:
                continue
            for x in range(-300, 301):
                if oracle.atom_eval(c2, x) and c2.a * x + c2.b != 0:
                    assert oracle.atom_eval(c1, x) == forced, (c1, c2, x)


class TestCoalesce:
    def test_golden_500x(self):
        assert coalesce_similar([pow_atom(2, 5, 0), pow_atom(3, 4, 0)]) == pow_atom(6, 500, 0)

    def test_singleton(self):
        assert coalesce_similar([pow_atom(2, 1, 0)]) == pow_atom(2, 1, 0)

    def test_mixed_exponent_same_term(self):
        merged = coalesce_similar([pow_atom(2, 8, 0), pow_atom(4, 2, 0)])
        assert merged == pow_atom(4, 2, 0)
        for x in range(-(10**5), 10**5 + 1):
            both = oracle.atom_eval(pow_atom(2, 8, 0), x) and oracle.atom_eval(pow_atom(4, 2, 0), x)
            assert both == oracle.atom_eval(merged, x)

    def test_equivalence_random(self, rng):
        for _ in range(40):
            a, b = rng.randint(1, 6), rng.randint(-6, 6)
            atoms = []
            for _ in range(rng.randint(2, 3)):
                m = rng.randint(1, 4)
                atoms.append(pow_atom(rng.randint(2, 4), a * m, b * m))
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
            coalesce_similar([pow_atom(2, 1, 0), pow_atom(2, 1, 1)])


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

    def test_image_polys_are_the_shifted_polynomial(self, rng):
        for _ in range(200):
            degree = rng.randint(2, 6)
            nums = [rng.randint(-50, 50) for _ in range(degree)] + [rng.randint(1, 5)]
            den = rng.randint(1, 12)
            period = rng.randint(1, 3) * den  # h(w + period*t) is integer-valued in t
            residues = [w for w in range(period) if sum(c * w**i for i, c in enumerate(nums)) % den == 0]
            for w, poly in zip(residues, image_polys(nums, den, period, residues), strict=True):
                for t in range(-5, 6):
                    u = w + period * t
                    assert poly.eval(t) * den == sum(c * u**i for i, c in enumerate(nums)), (nums, den, w, t)


def _random_image_poly(rng, digits=30):
    """sum(c_i * t^i), or sum(c_i * C(t, i)) with a denominator up to d!; c_d > 0."""
    degree = rng.randint(2, 6)
    spread = 10 ** rng.randint(0, digits)
    basis = _binomial if rng.random() < 0.5 else lambda i: [0] * i + [1]
    asc = [Fraction(0)] * (degree + 1)
    for i in range(degree + 1):
        c = rng.randint(1, 40) if i == degree else rng.choice((0, rng.randint(-spread, spread)))
        for d, b in enumerate(basis(i)):
            asc[d] += c * b
    return ImagePoly(asc)


def test_above_bits_is_sound_and_marks_a_monotone_ray(rng):
    # above_bits(t, b) holds for every b below some threshold, so claiming
    # the value's own bit length is the one claim that must fail.
    fired = 0
    for _ in range(400):
        poly = _random_image_poly(rng)
        for t in range(-300, 301):
            bits = poly.eval(t).bit_length()
            assert not poly.above_bits(t, bits), (poly, t)
            if poly.above_bits(t, bits // 2):
                fired += 1
                step = 1 if t > 0 else -1
                assert abs(poly.eval(t + step)) > abs(poly.eval(t)), (poly, t)
                assert poly.above_bits(t + step, bits // 2)
    assert fired > 20_000


def test_late_values_leave_the_member_stream_unchanged(rng, monkeypatch):
    # Values past the cap are evaluated only when drawn; without that
    # (above_bits always False) every value is built as the stream widens.
    deferred = 0
    for _ in range(150):
        # Coefficients of at most 3 digits keep the turn bound, the first radius, small.
        sol = SolutionSet("probe", True, tuple(_random_image_poly(rng, 3) for _ in range(rng.randint(1, 3))),
                          tuple(rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 3))))
        options = SolveOptions(value_bits=rng.randint(8, 16))
        stream = MemberStream(sol, options)
        lazy = list(stream)
        deferred += any(s.late for s in stream.sources)
        with monkeypatch.context() as m:
            m.setattr(ImagePoly, "above_bits", lambda self, t, bits: False)
            eager = list(MemberStream(sol, options))
        assert lazy == eager, sol
    assert deferred >= 10


def test_a_huge_exponent_evaluates_only_the_values_it_draws(monkeypatch):
    # u^1000000 = x + 3: the stream of x > 0 draws 2^1000000 - 3, and
    # x = -2 is the least witness.  No value past the cap is built but the
    # two drawn at t = +-2 (the parent stream built t = -6..6).
    evaluated = []
    eval_at = ImagePoly.eval
    monkeypatch.setattr(ImagePoly, "eval", lambda self, t: evaluated.append(t) or eval_at(self, t))
    v = solve_formula(parse("(exists x (pow 1000000 (+ x 3)))"), SolveOptions(enum_bound=200)).verdict
    assert (v.status, v.witness) == ("sat", -2)
    assert max(map(abs, evaluated)) == 2


def _cauchy_turn_bound(nums):
    """The former radius: Cauchy's bound on the roots of p and of p'."""

    def cauchy(cs):
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        if len(cs) <= 1:
            return 1
        return 2 + max(abs(c) for c in cs[:-1]) // abs(cs[-1])

    return max(cauchy(list(nums)), cauchy([i * nums[i] for i in range(1, len(nums))]))


def test_by_magnitude_lists_a_residue_class_in_size_order(rng):
    # Every lo < y < hi with y = r (mod M), in (|y|, y) order, with either
    # side open; an open side is checked on a prefix.
    for _ in range(2000):
        M = rng.choice([1, 1, 2, 3, 7, 12])
        r = rng.randrange(M)
        lo = rng.choice([None, rng.randint(-60, 60)])
        hi = rng.choice([None, rng.randint(-60, 60)])
        want = sorted(
            (y for y in range(-400, 401) if (lo is None or y > lo) and (hi is None or y < hi) and y % M == r),
            key=lambda y: (abs(y), y),
        )
        if lo is None or hi is None:
            want = [y for y in want if abs(y) <= 300]
        got = list(itertools.islice(_by_magnitude(lo, hi, (M, r)), len(want) + (lo is not None and hi is not None)))
        assert got == want, (lo, hi, M, r)


def test_turn_bound_is_a_monotone_radius_within_the_cauchy_bound(rng):
    for _ in range(2000):
        degree = rng.randint(2, 6)
        spread = 10 ** rng.randint(1, 12)
        nums = [rng.randint(-spread, spread) for _ in range(degree)] + [rng.choice((1, -1)) * rng.randint(1, 40)]
        bound = _turn_bound(nums)
        assert bound <= _cauchy_turn_bound(nums), nums

        def size(t):
            return abs(sum(c * t**i for i, c in enumerate(nums)))

        for t in range(bound, bound + 30):
            assert size(t + 1) > size(t) and size(-t - 1) > size(-t), (nums, bound, t)
    # A small leading coefficient and a large constant term: the square root
    # of their ratio, not the ratio.
    assert _turn_bound([941184201, 0, 1]) == 1 + 2 * (30678 + 1)  # 30678 = isqrt(941184201)
    assert _cauchy_turn_bound([941184201, 0, 1]) == 941184203


def _dense_turn_bound(nums):
    """The radius over every coefficient, zero or not."""
    deriv = [i * nums[i] for i in range(1, len(nums))]

    def root_bound(cs):
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        d = len(cs) - 1
        if d <= 0:
            return 1
        lead = abs(cs[-1])
        cauchy = 2 + max(abs(c) for c in cs[:-1]) // lead
        fujiwara = 1 + 2 * max(floor_root(abs(cs[d - i]) // lead, i) + 1 for i in range(1, d + 1))
        return min(cauchy, fujiwara)

    return max(root_bound(list(nums)), root_bound(deriv))


def test_turn_bound_over_the_nonzero_terms_equals_the_dense_radius(rng):
    for _ in range(3000):
        degree = rng.randint(0, 14)
        nums = [rng.choice((0, 0, rng.randint(-(10 ** rng.randint(1, 15)), 10 ** rng.randint(1, 15))))
                for _ in range(degree)]
        nums.append(rng.choice((0, rng.choice((1, -1)) * rng.randint(1, 40))))
        assert _turn_bound(nums) == _dense_turn_bound(nums), nums
    assert _turn_bound([]) == _dense_turn_bound([]) == 1
    assert _turn_bound([0, 0, 0]) == _dense_turn_bound([0, 0, 0]) == 1


def test_turn_bound_of_a_sparse_high_degree_polynomial_is_fast():
    nums = [3] + [0] * 999_999 + [1]  # u^1000000 + 3
    best = min(_timed(_turn_bound, nums) for _ in range(3))
    assert best < 0.1
    assert _turn_bound(nums) == _dense_turn_bound(nums) == 5


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# Coalesced power pairs whose one atom Z^k(a*x + b) has k-th power residues
# that are a single class at their least period: (sentence, witness).
COALESCED_POWERS = [
    ("(exists x (and (> x 12) (pow 2 (+ (* 3 x) -156)) (pow 7 (+ x -52))))", 52),
    ("(exists x (and (> x 14) (pow 3 (+ (* 3 x) 537)) (pow 5 (+ x 179))))", 64),
    ("(exists x (and (> x 4) (pow 3 (+ (* 3 x) -90)) (pow 5 (+ x -30))))", 30),
    ("(exists x (and (> x 9) (pow 3 (+ (* 2 x) 12)) (pow 5 (+ x 6))))", 26),
]


@pytest.mark.parametrize("text, witness", COALESCED_POWERS)
def test_coalesced_power_pair_has_one_image(text, witness):
    # The window answers the witness; the set it leaves unbuilt is one image.
    out = solve_formula(parse(text))
    assert (out.verdict.status, out.verdict.witness) == ("sat", witness)
    assert out.case_trace[1:] == ["witness-scan:window"]
    assert oracle.eval_at(parse(text), witness)
    [system] = normalize(parse(text)).systems
    [atom] = system.positives
    assert atom.degree in (14, 15) and atom.is_power
    sol = solve_positive(system.positives)
    assert len(sol.families) == 1 and sol.case == "poly:single:images"
    [poly] = sol.families
    assert isinstance(poly, ImagePoly) and sol.values == ()


class TestSolvePositive:
    def test_empty_list_is_everything(self):
        s = solve_positive([])
        assert s.everything and s.complete and s.case == "power:none"

    def test_empty_residues(self):
        s = solve_positive([pow_atom(2, 4, 2)])
        assert (s.families, s.values, s.everything, s.complete) == ((), (), False, True)

    def test_single_images(self):
        s = solve_positive([pow_atom(2, 1, 0)])
        assert s.families and all(isinstance(f, ImagePoly) for f in s.families)
        first = [x for _, x in zip(range(6), MemberStream(s))]
        assert first == [0, 1, 4, 9, 16, 25]

    def test_single_images_respect_congruence(self):
        s = solve_positive([pow_atom(3, 5, 2)])  # 5x+2 a cube
        got = sorted(x for _, x in zip(range(30), MemberStream(s, OPTS)))
        scan = [x for x in range(-4000, 4001) if oracle.atom_eval(pow_atom(3, 5, 2), x)]
        assert set(scan) <= set(got) | {x for x in scan if abs(x) > max(abs(g) for g in got)}
        for x in got:
            assert oracle.atom_eval(pow_atom(3, 5, 2), x)

    def test_pell_pair(self):
        s = solve_positive([pow_atom(2, 1, 0), pow_atom(2, 2, 1)], options=OPTS)
        assert s.families and all(isinstance(f, LrbsEntry) for f in s.families) and s.complete
        got = [x for _, x in zip(range(4), MemberStream(s, OPTS))]
        assert got == [0, 4, 144, 4900]
        scan = [x for x in range(0, 10**6) if oracle.atom_eval(pow_atom(2, 1, 0), x) and oracle.atom_eval(pow_atom(2, 2, 1), x)]
        assert scan == [0, 4, 144, 4900, 166464]

    def test_divisor_pair(self):
        s = solve_positive([pow_atom(2, 1, 0), pow_atom(2, 1, 1)], options=OPTS)
        assert s.families == () and s.complete
        assert s.values == (0,)
        scan = [x for x in range(-(10**6), 10**6) if oracle.atom_eval(pow_atom(2, 1, 0), x) and oracle.atom_eval(pow_atom(2, 1, 1), x)]
        assert scan == [0]

    @pytest.mark.parametrize(
        "atoms, case, values",
        [
            # x+1 and x+16 squares: a square product, solved by factoring 15.
            ([pow_atom(2, 1, 1), pow_atom(2, 1, 16), pow_atom(2, 2, 4)], "poly:multi:divisor:filtered", (0, 48)),
            # {1, 3, 8, 120}: Pell orbits of the first pair, filtered by the third.
            (
                [pow_atom(2, 1, 1), pow_atom(2, 3, 1), pow_atom(2, 8, 1)],
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
        B = 10**4
        for _ in range(25):
            atoms = [pow_atom(rng.randint(2, 3), rng.randint(1, 8), rng.randint(-8, 8)) for _ in range(rng.randint(1, 3))]
            sys_ = ConstraintSystem(lower=-B - 1, positives=list(atoms))
            subs = prepare(sys_)
            if len(subs) != 1 or subs[0].resolved is not None:
                continue
            s = solve_positive(subs[0].positives, OPTS)
            if s.everything:
                continue
            got, want = sorted(stream_prefix(s, B, OPTS)), oracle_hits(atoms, -B, B)
            # A bounded enumeration may miss solutions; it never adds one.
            assert got == want if s.complete else set(got) <= set(want), (atoms, s.case)


class TestBoundedWalk:
    def test_walk_reaches_the_far_negative_lattice_points(self):
        # u = 3 (mod 4) with |u| <= 9 is -9, -5, -1, 3, 7.
        s = _bounded_curve(PolyAtom(3, 0, 1, 0, 4, 3), [], SolveOptions(enum_bound=9), "t")
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
            got = _bounded_curve(atom, [], SolveOptions(enum_bound=H), "t")
            assert got.values == tuple(sorted(want)), (atom, H)

    @staticmethod
    def random_lattice_atom(rng, x: int) -> PolyAtom:
        """A random atom whose lattice images hold x."""
        degree = rng.randint(2, 6)
        stride = rng.randint(1, 5)
        lin = rng.randint(-400, 400) if degree == 3 else 0
        a, offset = rng.randint(1, 50), rng.randrange(stride)
        u = rng.randint(-10, 10) * stride + offset
        return PolyAtom(degree, lin, a, u**degree + lin * u - a * x, stride, offset)

    def test_walk_filters_by_the_rest(self, rng, holds_calls):
        # A reference filter on the unfiltered walk: the oracle at each x.
        kept = listed = 0
        for _ in range(300):
            walked = self.random_lattice_atom(rng, rng.randint(-100, 100))
            opts = SolveOptions(enum_bound=rng.randint(55, 90))
            full = _bounded_curve(walked, [], opts, "t").values
            rest = [self.random_lattice_atom(rng, rng.choice(full)) for _ in range(rng.randint(1, 2))]
            before = len(holds_calls)
            got = _bounded_curve(walked, rest, opts, "t")
            assert got.values == tuple(x for x in full if all(oracle.atom_eval(a, x) for a in rest)), (walked, rest)
            kept += bool(got.values)
            listed += len(holds_calls) == before
        # Both filters ran, and the walks kept something.
        assert listed > 20 and len(holds_calls) > 1000 and kept > 100, (listed, len(holds_calls), kept)

    def test_a_dense_cubic_filters_by_its_images(self, holds_calls):
        # x = u^3 over |u| <= 1000 against v^3 - 7v: 2,009 lattice points
        # against 2,001 xs, so the cubic is listed and `holds` never runs.
        rest = [PolyAtom(3, -7, 1, 0, 1, 0)]
        got = _bounded_curve(pow_atom(3, 1, 0), rest, SolveOptions(enum_bound=1000), "t")
        assert holds_calls == []
        assert got.values == tuple(u**3 for u in range(-1000, 1001) if oracle.atom_eval(rest[0], u**3))

    def test_a_sparse_square_filters_by_holds(self, holds_calls):
        # x = u^6 for 0 <= u <= 50 against squares: 250,001 lattice points
        # against 51 xs, so each x is tested once.
        got = _bounded_curve(pow_atom(6, 1, 0), [pow_atom(2, 1, 0)], SolveOptions(enum_bound=50), "t")
        assert got.values == tuple(u**6 for u in range(51))
        assert sorted(holds_calls) == list(got.values)

    def test_image_radius_bounds_every_root(self, rng):
        # Every u with f(u) = a*x + b for x in the window has |u| <= R.
        us = range(-300, 301)
        for _ in range(300):
            at = self.random_lattice_atom(rng, rng.randint(-10**4, 10**4))
            xs = [f // at.a for u in us if (f := u**at.degree + at.lin * u - at.b) % at.a == 0]
            lo, hi = sorted(rng.choice(xs) for _ in range(2))
            R = _image_radius(at, lo, hi)
            for u in us:
                f = u**at.degree + at.lin * u - at.b
                if f % at.a == 0 and lo <= f // at.a <= hi:
                    assert abs(u) <= R, (at, lo, hi, u)


class TestLocalObstruction:
    @staticmethod
    def random_atoms(rng) -> list[PolyAtom]:
        atoms = []
        for _ in range(rng.randint(2, 3)):
            degree = rng.randint(2, 6)
            lin = rng.randint(-30, 30) if degree == 3 and rng.random() < 0.5 else 0
            stride = rng.randint(1, 6)
            atoms.append(PolyAtom(degree, lin, rng.randint(1, 30), rng.randint(-50, 50), stride, rng.randrange(stride)))
        return atoms

    @staticmethod
    def solutions(atoms, bound: int = 2000) -> list[int]:
        """The |y| <= bound at which every atom holds: the first atom's
        lattice images by direct evaluation, kept by `PolyAtom.holds`."""
        first = atoms[0]
        M = 30 * bound + 50  # the largest |a*y + b|
        R = math.isqrt(M) + 1 if first.degree == 2 else floor_root(M, first.degree) + 6
        ys = set()
        for u in range(-R, R + 1):
            num = u**first.degree + first.lin * u - first.b
            if u % first.stride == first.offset and num % first.a == 0 and abs(num // first.a) <= bound:
                ys.add(num // first.a)
        return sorted(y for y in ys if all(at.holds(y) for at in atoms))

    def test_a_refuted_system_has_no_solution(self, rng):
        refuted = 0
        for _ in range(1500):
            atoms = self.random_atoms(rng)
            if _local_obstruction(atoms) is not None:
                refuted += 1
                assert self.solutions(atoms) == [], atoms
        assert refuted > 300, refuted

    def test_a_planted_solution_is_never_refuted(self, rng):
        for _ in range(1500):
            y = rng.randint(-2000, 2000)
            atoms = [TestBoundedWalk.random_lattice_atom(rng, y) for _ in range(rng.randint(2, 4))]
            assert all(at.holds(y) for at in atoms)
            assert _local_obstruction(atoms) is None, (atoms, y)

    def test_the_stride_restricts_the_image(self):
        # u odd gives y = u^2 = 1 (mod 8), where y + 4 = 5 is no square.
        # Over every u, y = 0 has y and y + 4 both squares.
        assert _local_obstruction([PolyAtom(2, 0, 1, 0, 2, 1), PolyAtom(2, 0, 1, 4, 1, 0)]) == 16
        assert _local_obstruction([PolyAtom(2, 0, 1, 0, 1, 0), PolyAtom(2, 0, 1, 4, 1, 0)]) is None

    def test_an_open_system_of_three_cubics_is_refuted_mod_7(self):
        # The system x > 0 of the fixture's first conjunct.
        atoms = [PolyAtom(3, -7, 6, 0, 1, 0), PolyAtom(3, 0, 2, 5, 1, 0), PolyAtom(3, -49, 24, -96, 2, 1)]
        s = solve_positive(atoms, OPTS)
        assert (s.case, s.complete, s.families, s.values, s.everything) == ("local-obstruction:m=7", True, (), (), False)
        system = ConstraintSystem(lower=0, positives=atoms)
        assert decide(system).is_unsat and system.trace == ["local-obstruction:m=7"]

    def test_agrees_with_the_oracle_sieve(self, rng):
        # The oracle's tables are mod 2,520, which divides 16 * 27 * 25 * 7:
        # no residue there passing every atom means a refutation here.
        empty = 0
        for _ in range(250):
            atoms = self.random_atoms(rng)
            sieves = [oracle.AtomSieve(at) for at in atoms]
            q = _local_obstruction(atoms)
            if not any(all(s.ok[r] for s in sieves) for r in range(oracle.AtomSieve.WHEEL)):
                empty += 1
                assert q is not None, atoms
            if q is not None:
                assert not any(all(oracle.atom_eval(at, y) for at in atoms) for y in self.solutions(atoms[:1])), atoms
        assert empty > 30, empty


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
            assert no_similar_powers(s), s
            seen.update(a.degree for a in s.positives + s.negatives)
    assert seen == {2, 3, 4, 5}
    # Seed 5 draws systems in which only coalescing removes a similar pair.
    seeded = random.Random(5)
    for _ in range(2000):
        for s in prepare(random_power_system(seeded)):
            assert no_similar_powers(s), s


class TestDecide:
    def test_sat_square_not_fourth(self):
        sys_ = ConstraintSystem(lower=0, positives=[pow_atom(2, 1, 0)], negatives=[pow_atom(4, 1, 0)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 4

    def test_direct_contradiction(self):
        sys_ = ConstraintSystem(lower=0, positives=[pow_atom(2, 1, 0)], negatives=[pow_atom(2, 1, 0)])
        assert decide_prepared(sys_, OPTS).is_unsat

    def test_catalan_unknown(self):
        sys_ = ConstraintSystem(lower=8, positives=[pow_atom(2, 1, 0), pow_atom(3, 1, 1)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_unknown

    def test_forced_false_positive_keeps_zero_point(self):
        # Z^4(16x) & Z^2(3x) forces a contradiction away from x = 0, where
        # both terms vanish; x = 0 is a genuine witness.
        sys_ = ConstraintSystem(lower=-5, positives=[pow_atom(4, 16, 0), pow_atom(2, 3, 0)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 0

    def test_forced_false_negative_excludes_zero_point(self):
        # not Z^2(3x) is free given Z^4(16x) except at x = 0, which the
        # discard must carve out: the witness skips 0 and lands on 1.
        sys_ = ConstraintSystem(lower=-5, positives=[pow_atom(4, 16, 0)], negatives=[pow_atom(2, 3, 0)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == 1
        assert not system_satisfied_at(sys_, 0)  # 3*0 = 0 is a square

    def test_scan_visits_abs_order_above_a_negative_bound(self):
        # 0 is a square, so the scan moves on to -1 before 1 and -2.
        sys_ = ConstraintSystem(lower=-4, negatives=[pow_atom(2, 1, 0)])
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat and v.witness == -1
        assert sys_.trace == ["power:none", "witness-scan:hit"]

    def test_substitution_mapping(self):
        sys_ = ConstraintSystem(lower=0, positives=[pow_atom(2, 1, 0)], substitution=(-3, -1))
        v = decide_prepared(sys_, OPTS)
        assert v.is_sat
        # witness x = -3y - 1 for the smallest square y > 0
        assert v.witness == -(3 * 1 + 1)

    def test_scan_cap_answers_unknown(self):
        # y = 1, 2, 3 each make one of y, y + 2, y + 6 a square; the cap
        # stops the scan before y = 5, the first survivor.
        negatives = [pow_atom(2, 1, 0), pow_atom(2, 1, 2), pow_atom(2, 1, 6)]
        [sys_] = prepare(ConstraintSystem(lower=0, negatives=negatives))
        v = decide(sys_, SolveOptions(scan_cap=3))
        assert v == Verdict.unknown("witness scan cap reached", 3)
        assert sys_.trace[-1] == "witness-scan:capped"

    def test_value_cap_answers_unknown(self):
        # Unprepared, the direct contradiction is never seen: every square
        # is scanned and rejected until the values pass 8 bits.
        sys_ = ConstraintSystem(positives=[pow_atom(2, 1, 0)], negatives=[pow_atom(2, 1, 0)])
        v = decide(sys_, SolveOptions(value_bits=8))
        assert v == Verdict.unknown("candidate values exceeded the size cap", 8)
        assert sys_.trace[-1] == "witness-scan:value-cap"

    def test_bounded_system_answers_its_least_witness(self, rng):
        # Whatever the substitution, a bounded system answers the least
        # (|x|, x) witness among its first enum_bound points in (|y|, y)
        # order, found by the oracle; a miss is unknown on a wider
        # interval and unsat otherwise.  Atoms may keep a < 0.
        def atom():
            return pow_atom(rng.randint(2, 3), rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(-30, 30))

        statuses = set()
        for _ in range(400):
            lo = rng.randint(-40, 40)
            hi = lo + rng.randint(2, 60)
            M, r = rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(-12, 12)
            sys_ = ConstraintSystem(
                lower=lo,
                upper=hi,
                positives=[atom() for _ in range(rng.randint(0, 2))],
                negatives=[atom() for _ in range(rng.randint(0, 1))],
                substitution=(M, r),
            )
            bound = rng.randint(1, 70)
            tested = sorted(range(lo + 1, hi), key=lambda y: (abs(y), y))[:bound]
            hits = [M * y + r for y in tested if system_satisfied_at(sys_, M * y + r)]
            v = decide(sys_, SolveOptions(enum_bound=bound))
            if hits:
                assert v == Verdict.sat(min(hits, key=lambda x: (abs(x), x))), (sys_, bound)
            elif hi - lo - 1 > bound:
                assert v == Verdict.unknown("bounded interval wider than the enumeration bound", bound)
                assert sys_.trace == ["interval:too-wide"]
            else:
                assert v.is_unsat and sys_.trace == [], (sys_, bound)
            statuses.add(v.status)
        assert statuses == {"sat", "unsat", "unknown"}


def _first_stream_survivor(system, options, limit: int):
    """The first y of the member stream of the system's positive atoms, in
    (|y|, y) order, above the bound, not excluded and failing every
    negative atom, among its first `limit` members: the scan `decide`'s
    window must agree with."""
    for i, y in enumerate(MemberStream(solve_positive(system.positives, options), options)):
        if i >= limit:
            return None
        if y > system.lower and y not in system.excluded and not any(a.holds(y) for a in system.negatives):
            return y
    return None


def test_window_answers_the_first_survivor_of_the_member_stream(rng):
    # Random systems with strided and linear-part atoms, excluded points,
    # lower bounds below -W, in [-W, W) and above W, and a tiny scan cap
    # now and then: a sat answer is the stream's first survivor, whether
    # the window or a later scan found it.
    def atom():
        d = rng.choice((2, 2, 3))
        stride = rng.choice((1, 1, 2, 3))
        lin = rng.randint(-6, 6) if d == 3 and rng.random() < 0.4 else 0
        return PolyAtom(d, lin, rng.randint(1, 12), rng.randint(-40, 40), stride, rng.randrange(stride))

    W = 64
    opts = SolveOptions(enum_bound=2000, scan_cap=20_000, value_bits=4000)
    answered = {"window": 0, "later": 0, "capped": 0, "negative-lower": 0, "past-window-lower": 0}
    for _ in range(400):
        lower = rng.choice((rng.randint(-200, -W - 1), rng.randint(-W, -1), rng.randint(0, W), rng.randint(W + 1, 300)))
        system = ConstraintSystem(
            lower=lower,
            positives=[atom() for _ in range(rng.randint(1, 2))],
            negatives=[atom() for _ in range(rng.randint(0, 2))],
            excluded=rng.sample(range(lower + 1, lower + 40), rng.randint(0, 3)),
        )
        for prepared in prepare(system):
            if prepared.resolved is not None or prepared.upper is not None or not prepared.positives:
                continue
            cap = rng.choice((1, 2, 20_000))
            want = _first_stream_survivor(prepared, opts, 5000)
            v = decide(prepared.clone(), SolveOptions(enum_bound=2000, scan_cap=cap, value_bits=4000))
            if v.is_sat:
                assert v.witness == want, (prepared, cap, v)
            elif want is not None and cap == 20_000:
                assert v.is_unknown, (prepared, v, want)
            via_window = v.is_sat and abs(v.witness) <= max(lower, 0) + W
            answered["window" if via_window else "later"] += v.is_sat
            answered["capped"] += v.is_sat and cap < 20_000
            answered["negative-lower"] += via_window and lower < 0
            answered["past-window-lower"] += via_window and lower > W
    assert min(answered.values()) >= 5, answered


def test_a_survivor_past_the_window_logs_the_solution_set():
    # Every square of the window 0 < y <= 64 is excluded: the scan of the
    # member stream answers 81.
    squares = [y * y for y in range(1, 9)]
    system = ConstraintSystem(lower=0, positives=[pow_atom(2, 1, 0)], excluded=squares)
    assert decide(system, OPTS) == Verdict.sat(81)
    assert system.trace == ["poly:single:images", "witness-scan:hit"]
    # The first witness lies past the window: 2*y - 10000 = u^2 at u = 0.
    system = ConstraintSystem(lower=0, positives=[PolyAtom(2, 0, 2, -10_000, 1, 0)])
    assert decide(system, OPTS).witness == 5000
    assert system.trace == ["poly:single:images", "witness-scan:hit"]
    # 1000*y = u^2 lists 2*252 lattice points for the 63 of the window, so
    # the window is skipped and the stream answers y = 10 in it.
    system = ConstraintSystem(lower=0, positives=[pow_atom(2, 1000, 0)])
    assert decide(system, OPTS) == Verdict.sat(10)
    assert system.trace == ["poly:single:images", "witness-scan:hit"]
    # In the window, the first witness answers at once.
    system = ConstraintSystem(lower=-5, positives=[pow_atom(2, 1, 3)], negatives=[pow_atom(3, 1, 0)])
    assert decide(system, OPTS) == Verdict.sat(-2)
    assert system.trace == ["witness-scan:window"]


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
            assert system_satisfied_at(sys_, v.witness), (i, sys_, v)
        witness = brute_first_witness(sys_, bound)
        if witness is not None:
            assert not v.is_unsat, (i, sys_, v, witness)
        if v.is_unsat:
            assert witness is None, (i, sys_, v, witness)


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
            assert system_satisfied_at(sys_, v.witness), (i, sys_, v)
        witness = brute_first_witness(sys_, 2000)
        if witness is not None:
            assert not v.is_unsat, (i, sys_, v, witness)
        if v.is_unsat:
            assert witness is None, (i, sys_, v)
        decided += not v.is_unknown
    assert decided >= 20
