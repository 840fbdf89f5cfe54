"""Decision procedure for one normalized system of value-set atoms.

A normalized system holds one lower bound x > c and positive/negative
atoms of one type, `PolyAtom`: "a*x + b is in the value set of
u^d (+ lin*u) over a lattice of u".  `preprocess` works on the atoms of
power shape, stride 1 and no linear part, which say "a*x + b is a d-th
power" (a > 0): it discards redundant ones and coalesces similar
positives.  `solve_positive` routes the positive atoms by count and
degree to polynomial images, Pell orbits, divisor factorizations, the
double-root curve cases of `poly_solver`, or a bounded walk, and answers
with one record, `SolutionSet`: families of image polynomials or Pell
orbits, finitely many values, or every integer.  `MemberStream` merges
its members in (|x|, x) order, and negative atoms are filtered pointwise
along that deterministic witness scan.  Every residue question, "which
witnesses u have f(u) = b (mod a)", goes to `numtheory.residue_classes`,
which answers with classes at their least period.

Verdicts are three-valued.  Paths whose finiteness rests on effective but
astronomically-large bounds in the literature enumerate an auxiliary
unknown up to a configurable bound and answer Unknown instead of an
uncertified Unsat; Pell-based, divisor-based, and residue-emptiness paths
are certified complete.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._ast import ConstraintSystem, PolyAtom, Verdict, system_holds
from .lrbs import IndexSet, Lrbs, filter_congruence, growth_radius
from .numtheory import (
    _poly_eval,
    _taylor_shift,
    crt_extended,
    ResidueClass,
    divisor_pairs,
    factor,
    floor_root,
    integer_numerators,
    is_kth_power,
    kth_root,  # unused here; perfbench's tracer test reads power_solver.kth_root
    residue_classes,
    valuation,
)
from .pell import PellClass, PellSolutionSet, solve_generalized

__all__ = [
    "Verdict",
    "SolveOptions",
    "ImagePoly",
    "LrbsEntry",
    "PolyValueMap",
    "SolutionSet",
    "MemberStream",
    "is_redundant",
    "coalesce_similar",
    "preprocess",
    "solve_positive",
    "least_witness",
    "decide",
]


@dataclass(frozen=True)
class SolveOptions:
    """Bounds for the honest three-valued paths.

    enum_bound: range of the auxiliary unknown in bounded curve enumerations.
    scan_cap: candidates examined during a witness scan before giving up.
    value_bits: bit-size ceiling for exponentially growing candidates.
    """

    enum_bound: int = 10**6
    scan_cap: int = 10**6
    value_bits: int = 20_000

    def __post_init__(self) -> None:
        if self.enum_bound < 1 or self.scan_cap < 1 or self.value_bits < 8:
            raise ValueError("bounds must be positive")


DEFAULT_OPTIONS = SolveOptions()


# ---------------------------------------------------------------------------
# Redundancy and similarity (atoms of power shape).


def is_redundant(c1: PolyAtom, c2: PolyAtom) -> bool | None:
    """Truth value of c1 forced by the positive truth of c2, or None.

    Both atoms have power shape (`PolyAtom.is_power`).  c1 = Z^k(c x + d)
    is redundant with respect to c2 = Z^j(a x + b) when k | j and
    a*d == b*c; the forced value is whether a*c^(k-1) is itself a perfect
    k-th power.  (At the single point where both terms vanish
    the atom is trivially true; callers patch that point separately.)
    """
    k, c, d = c1.degree, c1.a, c1.b
    j, a, b = c2.degree, c2.a, c2.b
    if j % k != 0 or a * d != b * c:
        return None
    return is_kth_power(a * c ** (k - 1), k)


def similar(c1: PolyAtom, c2: PolyAtom) -> bool:
    return c1.a * c2.b == c1.b * c2.a


def coalesce_similar(atoms: list[PolyAtom]) -> PolyAtom | None:
    """Single atom equivalent to a conjunction of similar positive atoms of power shape.

    Returns None when the valuation congruences clash, i.e. the atoms are
    never simultaneously satisfiable away from their common zero point.
    """
    if not atoms:
        raise ValueError("need at least one atom")
    if len(atoms) == 1:
        return atoms[0]
    for other in atoms[1:]:
        if not similar(atoms[0], other):
            raise ValueError("atoms must be pairwise similar")
    g = math.gcd(atoms[0].a, atoms[0].b)
    a, b = atoms[0].a // g, atoms[0].b // g
    K = 1
    for atom in atoms:
        K = K * atom.degree // math.gcd(K, atom.degree)
    interesting: set[int] = set()
    for atom in atoms:
        interesting.update(p for p, _ in factor(atom.a).factors)
    multiplier = 1
    for p in sorted(interesting):
        classes = []
        vp_a = valuation(p, a)
        for atom in atoms:
            classes.append(ResidueClass(atom.degree, vp_a - valuation(p, atom.a)))
        merged = crt_extended(classes)
        if merged is None:
            return None
        r_p = (-merged.residue) % K
        multiplier *= p**r_p
    return PolyAtom(K, 0, a * multiplier, b * multiplier, 1, 0)


# ---------------------------------------------------------------------------
# System preprocessing: dedup, discard redundant, coalesce, discard again.


def _zero_point(atom: PolyAtom) -> int | None:
    return -atom.b // atom.a if atom.b % atom.a == 0 else None


def _resolve_at_point(system: ConstraintSystem, y0: int | None, note: str) -> list[ConstraintSystem]:
    """The system collapses to the single candidate y0; check it exactly."""
    system.log(note)
    if y0 is not None and system_holds(system, y0):
        system.resolved = Verdict.sat(system.to_original(y0))
        system.resolved_points = (y0,)
        return [system]
    return []


def preprocess(system: ConstraintSystem) -> list[ConstraintSystem]:
    """Discard redundant atoms, coalesce similar positives, discard again.

    Operates on the atoms of power shape (`PolyAtom.is_power`); the others
    pass through untouched, and `poly_solver.preprocess_poly` handles their
    redundancy.  May resolve the system outright; returns the surviving
    disjuncts.
    """
    if system.resolved is not None:
        return [system]
    for atoms in (system.positives, system.negatives):
        seen = set()
        atoms[:] = [a for a in atoms if not (a in seen or seen.add(a))]

    changed = True
    while changed:
        changed = False
        power_pos = [a for a in system.positives if a.is_power]
        # Discard atoms whose truth is forced by some positive atom.
        for ref in power_pos:
            for target in list(system.positives):
                if target is ref or not target.is_power:
                    continue
                forced = is_redundant(target, ref)
                if forced is None:
                    continue
                if forced:
                    system.positives.remove(target)
                    system.log(f"redundant:drop-positive:{target.degree}:{target.a}:{target.b}")
                else:
                    return _resolve_at_point(system, _zero_point(ref), "redundant:forced-false-positive")
                changed = True
            for target in list(system.negatives):
                if not target.is_power:
                    continue
                forced = is_redundant(target, ref)
                if forced is None:
                    continue
                if forced:
                    system.log("redundant:negative-contradiction")
                    return []
                system.negatives.remove(target)
                y0 = _zero_point(ref)
                if y0 is not None:
                    system.excluded.append(y0)
                system.log(f"redundant:drop-negative:{target.degree}:{target.a}:{target.b}")
                changed = True
            if changed:
                break
        if changed:
            continue
        # Coalesce groups of similar positive atoms.
        groups: dict[Fraction, list[PolyAtom]] = {}
        for atom in power_pos:
            groups.setdefault(Fraction(atom.b, atom.a), []).append(atom)
        for ratio, group in sorted(groups.items()):
            if len(group) < 2:
                continue
            merged = coalesce_similar(group)
            for atom in group:
                system.positives.remove(atom)
            if merged is None:
                y0 = -ratio if ratio.denominator == 1 else None
                return _resolve_at_point(
                    system, int(y0) if y0 is not None else None, "coalesce:incompatible"
                )
            system.positives.append(merged)
            system.log(f"coalesce:Z^{merged.degree}({merged.a}x+{merged.b})")
            changed = True
            break
    return [system]


# ---------------------------------------------------------------------------
# Solution-set representations.


def _turn_bound(nums) -> int:
    """|p| is strictly increasing in |t| at integers beyond this radius.

    The radius passes every real root of p and of p', each bounded by the
    lesser of Cauchy's 1 + max|c_i/c_d| and Fujiwara's
    2*max|c_(d-i)/c_d|^(1/i); a polynomial with a small leading coefficient
    and a large constant term gets the d-th root of their ratio.
    """
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


@dataclass(frozen=True, init=False)
class ImagePoly:
    """Integer-valued polynomial sum(nums[i] * t**i) / den, with den > 0."""

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs) -> None:
        """From ascending integer or rational coefficients."""
        nums, den = integer_numerators(coeffs)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        if len(nums) < 3 or nums[-1] <= 0:
            raise ValueError("image polynomials have degree >= 2 and positive leading coefficient")
        if den > 1 and any(_poly_eval(nums, t) % den for t in range(self.degree + 1)):
            raise ValueError("polynomial is not integer-valued")

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def eval(self, t: int) -> int:
        v = _poly_eval(self.nums, t)
        if self.den == 1:
            return v
        q, r = divmod(v, self.den)
        if r:
            raise ArithmeticError(f"non-integer image at t={t}")
        return q


@dataclass(frozen=True, init=False)
class PolyValueMap:
    """x = h(v / divisor) along a solution sequence v, for a rational h.

    h = sum(nums[i] * t**i) / den need not be integer-valued: it is
    integral where the orbit filters keep v, and `apply` gives None
    wherever the value is not an integer.
    """

    nums: tuple[int, ...]
    den: int
    divisor: int
    turn_t: int

    def __init__(self, coeffs, divisor: int) -> None:
        nums, den = integer_numerators(coeffs)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "turn_t", _turn_bound(nums))

    def apply(self, v: int) -> int | None:
        if v % self.divisor != 0:
            return None
        q, r = divmod(_poly_eval(self.nums, v // self.divisor), self.den)
        return None if r else q

    def turn(self) -> int:
        return self.turn_t * self.divisor + self.divisor

    def floor_abs(self, v_abs: int) -> int:
        t = v_abs // self.divisor
        if t <= self.turn_t:
            return 0
        return min(abs(_poly_eval(self.nums, t)), abs(_poly_eval(self.nums, -t))) // self.den


@dataclass(frozen=True)
class LrbsEntry:
    """One Pell class contributing x = map(value_seq) over filtered indices."""

    value_seq: Lrbs
    partner_seq: Lrbs | None
    indices: IndexSet
    vmap: PolyValueMap
    pell_class: PellClass | None = None
    component: str = "z"


@dataclass(frozen=True)
class SolutionSet:
    """The integers satisfying the positive atoms of one system.

    The members are the values of the generators in `families`, image
    polynomials (`ImagePoly`) or Pell orbits (`LrbsEntry`), together with
    the finitely many `values`; `everything` marks a system without
    positive atoms, whose members are all integers.  `complete` is False
    when a bounded search built the set, which may then miss members.
    """

    case: str
    complete: bool
    families: tuple[ImagePoly, ...] | tuple[LrbsEntry, ...] = ()
    values: tuple[int, ...] = ()
    everything: bool = False


# ---------------------------------------------------------------------------
# Ordered member streams with certified magnitude floors.


class _PolySource:
    def __init__(self, poly: ImagePoly, value_bits: int):
        self.poly = poly
        self.radius = 0
        self.next_radius = max(_turn_bound(poly.nums), 4)
        self.value_bits = value_bits
        self.capped = False
        self.done = False

    def advance(self) -> list[int]:
        if self.done:
            return []
        lo, hi = self.radius, self.next_radius
        batch = []
        for t in range(-hi, hi + 1):
            if abs(t) <= lo and lo > 0:
                continue
            batch.append(self.poly.eval(t))
        self.radius = hi
        self.next_radius = hi * 2
        return batch

    def floor_abs(self) -> int | None:
        if self.done:
            return None
        lo = min(abs(self.poly.eval(self.radius + 1)), abs(self.poly.eval(-self.radius - 1)))
        if lo.bit_length() > self.value_bits:
            self.done = True
            self.capped = True
            return None
        return lo


class _LrbsSource:
    """The members x = vmap(u_n) of one Pell orbit over its kept indices n.

    Past the start radius |u_n| rises strictly outward in both directions
    (`lrbs.growth_radius`; its precondition, order 2 with |a_1| >= 3,
    holds as every orbit has a_1 = 2*w0 >= 4), and past `vmap.turn()` the
    map is monotone in |u|, so the values at the next radius floor every
    member not yet emitted.
    """

    def __init__(self, entry: LrbsEntry, value_bits: int):
        self.entry = entry
        start = max(growth_radius(entry.value_seq), 4)
        seq = entry.value_seq
        turn = entry.vmap.turn()
        while max(abs(seq.eval(start)), abs(seq.eval(-start))) < turn and start < 10_000:
            start *= 2
        self.radius = 0
        self.next_radius = start
        self.value_bits = value_bits
        self.capped = False
        self.done = False
        if entry.indices.is_empty():
            self.done = True

    def advance(self) -> list[int]:
        if self.done:
            return []
        lo, hi = self.radius, self.next_radius
        batch = []
        seq, entry = self.entry.value_seq, self.entry
        for n, v in zip(range(-hi, hi + 1), seq.values(-hi, hi)):
            if abs(n) <= lo and lo > 0:
                continue
            if n not in entry.indices:
                continue
            x = entry.vmap.apply(v)
            if x is not None:
                batch.append(x)
        self.radius = hi
        self.next_radius = hi * 2
        return batch

    def floor_abs(self) -> int | None:
        if self.done:
            return None
        seq = self.entry.value_seq
        v_lo = min(abs(seq.eval(self.radius + 1)), abs(seq.eval(-self.radius - 1)))
        if v_lo.bit_length() > self.value_bits:
            self.done = True
            self.capped = True
            return None
        return self.entry.vmap.floor_abs(v_lo)


class MemberStream:
    """The members of a solution set (not `everything`) ordered by (|x|, x).

    Each family is a source that widens its radius and certifies a floor
    on the magnitude of the members it has not yet emitted; the finite
    values seed the buffer.  `capped` is set when some source stopped at
    the bit-size cap, meaning the emitted prefix may be incomplete.
    """

    def __init__(self, sol: SolutionSet, options: SolveOptions = DEFAULT_OPTIONS):
        bits = options.value_bits
        self.sources = [
            _PolySource(f, bits) if isinstance(f, ImagePoly) else _LrbsSource(f, bits) for f in sol.families
        ]
        self.values = sol.values
        self.capped = False

    def __iter__(self):
        seen: set[int] = set(self.values)
        buffered: list[int] = list(seen)
        while True:
            live = [s for s in self.sources if not s.done]
            for s in live:
                for x in s.advance():
                    if x not in seen:
                        seen.add(x)
                        buffered.append(x)
            floors = [f for s in self.sources if (f := s.floor_abs()) is not None]
            self.capped = self.capped or any(s.capped for s in self.sources)
            if not floors:
                for x in sorted(buffered, key=lambda v: (abs(v), v)):
                    yield x
                return
            floor = min(floors)
            ready = [x for x in buffered if abs(x) < floor]
            buffered = [x for x in buffered if abs(x) >= floor]
            for x in sorted(ready, key=lambda v: (abs(v), v)):
                yield x


# ---------------------------------------------------------------------------
# Positive-constraint solution sets.


def _atom_poly(atom: PolyAtom) -> list[int]:
    """f(u) - b, ascending: the atom says a*x equals it."""
    return [-atom.b, atom.lin, *[0] * (atom.degree - 2), 1]


def _atom_classes(atom: PolyAtom) -> tuple[int, tuple[int, ...]]:
    """The witnesses u with f(u) = b (mod a) on the atom's lattice, as
    (period, residues) at their least period (a >= 1)."""
    return residue_classes([(_atom_poly(atom), atom.a), ([-atom.offset, 1], atom.stride)])


def image_polys(nums, den, period: int, residues) -> tuple[ImagePoly, ...]:
    """The images h(w + period*t), one per residue w, of h(u) = sum(nums[i] * u**i) / den.

    Each shift is a Taylor shift in integers; the coefficients become
    Fractions only when den does not divide them.  Every image must be
    integer-valued, which `ImagePoly` checks.
    """
    polys = []
    for w in residues:
        cs = _taylor_shift(nums, w, period)
        exact = not any(c % den for c in cs)
        polys.append(ImagePoly([c // den for c in cs] if exact else [Fraction(c, den) for c in cs]))
    return tuple(polys)


def _single_poly_images(atom: PolyAtom, classes) -> SolutionSet:
    """x = (f(w + P*t) - b) / a, one image per class w of the witnesses
    mod their least period P (`_atom_classes`)."""
    return SolutionSet("poly:single:images", True, image_polys(_atom_poly(atom), atom.a, *classes))


def _square_factor_pairs(E: int, N: int):
    """The (w, z) with (w - E*z)(w + E*z) = N, for E >= 1 and N != 0."""
    for d1, d2 in divisor_pairs(N):
        if (d1 + d2) % 2 == 0 and (d2 - d1) % (2 * E) == 0:
            yield (d1 + d2) // 2, (d2 - d1) // (2 * E)


def _pell_orbit_entries(
    sols: PellSolutionSet, w_filter, z_filter, vmap, component: str
) -> list[LrbsEntry]:
    """One entry per class of w^2 - n*z^2 = N whose orbit meets both filters.

    Each filter is a list of (modulus, residue); an index is kept when w
    lies in some w-class and z in some z-class.  x = vmap(component) along
    the kept indices, and the other component rides along as the partner.
    """
    n = sols.n
    entries = []
    for cls in sols.classes:
        w0, z0 = cls.fundamental
        w_i, z_i = cls.rep
        seqs = {
            "w": Lrbs((2 * w0, -1), (w_i, w_i * w0 + n * z_i * z0)),
            "z": Lrbs((2 * w0, -1), (z_i, z_i * w0 + w_i * z0)),
        }
        kept = []
        for seq, classes in ((seqs["w"], w_filter), (seqs["z"], z_filter)):
            idx = IndexSet.nothing()
            for modulus, residue in classes:
                idx = idx.union(filter_congruence(seq, modulus, residue))
            kept.append(idx)
        idx = kept[0].intersect(kept[1])
        if idx.is_empty():
            continue
        partner = seqs["z" if component == "w" else "w"]
        entries.append(
            LrbsEntry(seqs[component], partner, idx, vmap, pell_class=cls, component=component)
        )
    return entries


def _quad_pair_solution(first: PolyAtom, second: PolyAtom, label: str) -> SolutionSet:
    """Two quadratic atoms: divisor factorization or Pell orbits.

    With w = a2*u1 and z = u2 the atoms give w^2 - a1*a2*z^2 = N, solved
    by factoring N when a1*a2 is a square and by Pell orbits otherwise,
    filtered by each atom's witness classes.  Precondition: the atoms are
    not proportional (N != 0), which preprocessing merges, and each has a
    witness class (`solve_positive` checks).
    """
    a1, b1, a2, b2 = first.a, first.b, second.a, second.b
    n = a1 * a2
    N = a2 * (a2 * b1 - a1 * b2)
    if N == 0:
        raise ValueError("proportional quadratic atoms must be merged before solving")
    E = math.isqrt(n)
    if E * E == n:
        vals = set()
        for _, z in _square_factor_pairs(E, N):
            if (z * z - b2) % a2:
                continue
            x = (z * z - b2) // a2
            if first.holds(x) and second.holds(x):
                vals.add(x)
        return SolutionSet(label + ":divisor", True, values=tuple(sorted(vals)))
    P1, c1 = _atom_classes(first)
    P2, c2 = _atom_classes(second)
    sols = solve_generalized(n, N)
    if not sols.classes:
        return SolutionSet(label + ":pell-empty", True)
    w_filter = sorted({(a2 * P1, (s * a2 * r) % (a2 * P1)) for r in c1 for s in (1, -1)})
    z_filter = sorted({(P2, (s * r) % P2) for r in c2 for s in (1, -1)})
    vmap = PolyValueMap((Fraction(-b2, a2), 0, Fraction(1, a2)), 1)  # x = (z^2 - b2) / a2
    entries = _pell_orbit_entries(sols, w_filter, z_filter, vmap, "z")
    if not entries:
        return SolutionSet(label + ":pell-filtered-empty", True)
    return SolutionSet(label + ":pell", True, tuple(entries))


def _bounded_curve(walked: PolyAtom, rest, options: SolveOptions, label: str) -> SolutionSet:
    """The x of the walked atom's lattice points u with |u| <= enum_bound
    at which every atom of `rest` holds.

    When f is even and the lattice is closed under negation, u and -u
    give the same x, so the walk starts at the least u >= 0.  Each atom of
    `rest` is tested by `PolyAtom.holds`, one root extraction for an atom
    of power shape.
    """
    H = options.enum_bound
    d, lin, a, b, q, r = walked.degree, walked.lin, walked.a, walked.b, walked.stride, walked.offset
    if d % 2 == 0 and (2 * r) % q == 0:
        us = range(r, H + 1, q)
    else:
        us = range(-H + (r + H) % q, H + 1, q)
    if lin:
        xs = [n // a for u in us if (n := u * (u * u + lin) - b) % a == 0]
    else:
        xs = [n // a for u in us if (n := u**d - b) % a == 0]
    for at in rest:
        xs = [x for x in xs if at.holds(x)]
    return SolutionSet(label, False, values=tuple(sorted(set(xs))))


def _filter_by_atoms(base: SolutionSet, extra, options: SolveOptions, label: str) -> SolutionSet:
    """Pointwise-filter a base set by further atoms; keeps exactness flags honest."""
    if not base.families:
        vals = tuple(x for x in base.values if all(at.holds(x) for at in extra))
        return SolutionSet(label, base.complete, values=vals)
    found = []
    for i, x in enumerate(MemberStream(base, options)):
        if i >= options.scan_cap:
            break
        if all(at.holds(x) for at in extra):
            found.append(x)
            if len(found) >= 10_000:
                break
    return SolutionSet(label + ":bounded", False, values=tuple(sorted(set(found))))


def _walk(atoms, options: SolveOptions, label: str) -> SolutionSet:
    """Bounded walk of the last cubic with a linear part, whose membership
    test bisects, else of the last atom of highest degree; the rest filter."""
    walked = ([at for at in atoms if at.lin] or atoms)[-1]
    return _bounded_curve(walked, [at for at in atoms if at is not walked], options, label)


def solve_positive(positives, options: SolveOptions = DEFAULT_OPTIONS) -> SolutionSet:
    """The integers satisfying all positive atoms, as one `SolutionSet`.

    The one router of the decide core; every atom is a `PolyAtom`.  No
    atom gives the set of `everything`, and one atom its image polynomials
    as families.  Two atoms go by degrees: (2, 2) to the square-pair
    solver, (2, 3) to the double-root curve case, anything else to a
    bounded walk.  Three or more go to the divisor solution of the first
    pair of quadratics with a square product, to the Pell orbits of the
    first two atoms when all are quadratic, to the curve-derived Pell
    structure for exactly (2, 2, 3), and otherwise to a bounded walk; the
    remaining atoms filter the result.  Preconditions: pairwise
    non-redundant (`prepare`), a > 0.

    Certified emptiness comes first: some witness of each atom must have
    f(u) = b (mod a), which `numtheory.residue_classes` decides.
    """
    atoms = sorted(positives)
    if not atoms:
        return SolutionSet("power:none", True, everything=True)
    classes = []
    for atom in atoms:
        if atom.a <= 0:
            raise ValueError("positive atoms must have a > 0 after normalization")
        classes.append(_atom_classes(atom))
        if not classes[-1][1]:
            return SolutionSet("poly:empty-residues", True)
    if len(atoms) == 1:
        return _single_poly_images(atoms[0], classes[0])
    degs = tuple(at.degree for at in atoms)
    if len(atoms) == 2:
        if degs == (2, 2):
            return _quad_pair_solution(atoms[0], atoms[1], "poly:pair")
        if degs == (2, 3):
            from .poly_solver import _pair_mixed

            return _pair_mixed(atoms[0], atoms[1], options, "poly:pair")
        return _walk(atoms, options, "poly:pair:bounded")
    quads = atoms[: degs.count(2)]
    for i, P in enumerate(quads):
        for Q in quads[i + 1 :]:
            if math.isqrt(P.a * Q.a) ** 2 == P.a * Q.a:
                base = _quad_pair_solution(P, Q, "poly:multi")
                rest = [at for at in atoms if at is not P and at is not Q]
                return _filter_by_atoms(base, rest, options, base.case + ":filtered")
    if len(quads) == len(atoms):
        base = _quad_pair_solution(atoms[0], atoms[1], "poly:multi")
        return _filter_by_atoms(base, atoms[2:], options, base.case + ":filtered")
    if degs == (2, 2, 3):
        from .poly_solver import _triple

        return _triple(atoms, options)
    return _walk(atoms, options, "poly:multi:bounded")


# ---------------------------------------------------------------------------
# Full decision procedure for one normalized system.


def least_witness(xs) -> int | None:
    """The least x in (|x|, x) order, or None when there is none."""
    return min(xs, key=lambda x: (abs(x), x), default=None)


def _negatives_pass(system: ConstraintSystem, y: int) -> bool:
    return not any(atom.holds(y) for atom in system.negatives)


def _survivors(system: ConstraintSystem, ys):
    """The ys above the lower bound, not excluded, on which every negative atom fails (lazy)."""
    lower = system.lower
    return (
        y
        for y in ys
        if (lower is None or y > lower) and y not in system.excluded and _negatives_pass(system, y)
    )


def _verified_sat(system: ConstraintSystem, y: int) -> Verdict:
    """Sat at the working point y, re-verified by direct evaluation of the system."""
    if not system_holds(system, y):
        raise AssertionError(f"witness {system.to_original(y)} fails direct evaluation")
    return Verdict.sat(system.to_original(y))


def _above(lower: int | None):
    """The integers y > lower in (|y|, y) order."""
    if lower is not None and lower >= 0:
        yield from itertools.count(lower + 1)
        return
    yield 0
    for i in itertools.count(1):
        if lower is None or -i > lower:
            yield -i
        yield i


def _search(system: ConstraintSystem, candidates, options: SolveOptions) -> Verdict:
    """The first surviving candidate among the first `scan_cap` ones."""
    it = iter(candidates)
    for y in _survivors(system, itertools.islice(it, options.scan_cap)):
        system.log("witness-scan:hit")
        return _verified_sat(system, y)
    if next(it, None) is not None:
        system.log("witness-scan:capped")
        return Verdict.unknown("witness scan cap reached", options.scan_cap)
    if isinstance(candidates, MemberStream) and candidates.capped:
        system.log("witness-scan:value-cap")
        return Verdict.unknown("candidate values exceeded the size cap", options.value_bits)
    system.log("witness-scan:exhausted")
    return Verdict.unsat()


def decide(system: ConstraintSystem, options: SolveOptions = DEFAULT_OPTIONS) -> Verdict:
    """Three-valued satisfiability of one system that `normalize` produced.

    Precondition: the system comes from `formula.normalize`, or a
    hand-built one went through `poly_solver.prepare`, so it has been
    preprocessed exactly once.  A system resolved there (eagerly, or as a
    refuted unsat) returns its `resolved` verdict.  Otherwise the positive
    atoms give one `SolutionSet` (`solve_positive`), and the lower bound,
    the excluded points and the negative atoms filter it: a set of
    `everything` by a scan of the integers above the bound, a set without
    families by its least surviving value, and any other set by a scan of
    its `MemberStream`.

    Witness rule: inside a system the witness is the first hit in (|y|, y)
    order of the working variable y; across systems (`cli.solve_formula`)
    the least (|x|, x) of the original variable x wins.  Sat witnesses are
    returned in original coordinates, re-verified by direct evaluation.
    """
    if system.resolved is not None:
        return system.resolved
    from .poly_solver import discard_pell_indices

    sol = solve_positive(system.positives, options)
    system.log(sol.case)
    sol = discard_pell_indices(system, sol)
    if isinstance(sol, Verdict):
        return sol
    if sol.everything:
        return _search(system, _above(system.lower), options)
    if sol.families:
        return _search(system, MemberStream(sol, options), options)
    y = least_witness(_survivors(system, sol.values))
    if y is not None:
        system.log("finite:witness")
        return _verified_sat(system, y)
    if not sol.complete:
        return Verdict.unknown(f"bounded enumeration ({sol.case}) found no witness", options.enum_bound)
    if sol.values:
        system.log("finite:exhausted")
    return Verdict.unsat()
