"""Decision procedure for one normalized system of value-set atoms.

A normalized system holds one lower bound x > c and positive/negative
atoms of one type, `PolyAtom`: "a*x + b is in the value set of
u^d (+ lin*u) over a lattice of u".  `preprocess` works on the atoms of
power shape, stride 1 and no linear part, which say "a*x + b is a d-th
power" (a > 0): it discards redundant ones and coalesces similar
positives.  `decide` first lists a window of the points of least |y|
above the lower bound (`listed_hits`), where nearly every witness lies,
and answers its first survivor.  Past it, `solve_positive` routes the
positive atoms by count and degree to polynomial images, Pell orbits,
divisor factorizations, the double-root curve cases of `poly_solver`,
or a bounded walk, and answers with one record, `SolutionSet`: families
of image polynomials or Pell orbits, finitely many values, or every
integer.  `MemberStream` merges its members in (|x|, x) order, and
negative atoms are filtered pointwise along that deterministic witness
scan, whose start the window is.  Every residue question, "which
witnesses u have f(u) = b (mod a)", goes to `numtheory.residue_classes`,
which answers with classes at their least period.

Verdicts are three-valued.  Paths whose finiteness rests on effective but
astronomically-large bounds in the literature enumerate an auxiliary
unknown up to a configurable bound and answer Unknown instead of an
uncertified Unsat; Pell-based, divisor-based, residue-emptiness and
local-obstruction paths are certified complete.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
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


def _pin_point(system: ConstraintSystem, y0: int | None, note: str) -> list[ConstraintSystem]:
    """The system collapses to the single candidate y0: [system] pinned to
    y0 - 1 < y < y0 + 1 when it holds there, else []."""
    system.log(note)
    if y0 is not None and system_holds(system, y0):
        system.lower, system.upper = y0 - 1, y0 + 1
        return [system]
    return []


def preprocess(system: ConstraintSystem) -> list[ConstraintSystem]:
    """Discard redundant atoms, coalesce similar positives, discard again.

    Operates on the atoms of power shape (`PolyAtom.is_power`); the others
    pass through untouched, and `poly_solver.preprocess_poly` handles their
    redundancy.  May pin the system to one point; returns the surviving
    disjuncts.
    """
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
                    return _pin_point(system, _zero_point(ref), "redundant:forced-false-positive")
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
                return _pin_point(system, int(y0) if y0 is not None else None, "coalesce:incompatible")
            system.positives.append(merged)
            system.log(f"coalesce:Z^{merged.degree}({merged.a}x+{merged.b})")
            changed = True
            break
    return [system]


# ---------------------------------------------------------------------------
# Solution-set representations.


def _turn_bound(nums) -> int:
    """|p| is strictly increasing in |t| at integers beyond this radius.

    The radius passes every real root of p and of p' (`_root_bound`).  A
    zero coefficient adds nothing to either bound, so both run over the
    nonzero terms only: u^1000000 + 3 costs two terms.
    """
    terms = [(i, nums[i]) for i in itertools.compress(range(len(nums)), nums)]
    return max(_root_bound(terms), _root_bound([(i - 1, i * c) for i, c in terms if i]))


def _root_bound(terms) -> int:
    """An integer beyond |r| for every real root r of sum(c * t**i), from
    its nonzero terms (i, c) in ascending i: the lesser of Cauchy's
    1 + max|c_i/c_d| and Fujiwara's 2*max|c_(d-i)/c_d|^(1/i), so a
    polynomial with a small leading coefficient and a large constant term
    gets the d-th root of their ratio."""
    if not terms or not terms[-1][0]:
        return 1
    d, lead = terms[-1]
    lead, lower = abs(lead), terms[:-1]
    if not lower:  # c_d * t^d: its one root is 0
        return 2
    cauchy = 2 + max([abs(c) for _, c in lower]) // lead
    fujiwara = 3 + 2 * max([floor_root(abs(c) // lead, d - i) for i, c in lower])
    return min(cauchy, fujiwara)


@dataclass(frozen=True, init=False)
class ImagePoly:
    """Integer-valued polynomial sum(nums[i] * t**i) / den, with den > 0;
    `eval` sums only the nonzero `terms` (u^100000 has two)."""

    nums: tuple[int, ...]
    den: int
    terms: tuple[tuple[int, int], ...] = field(repr=False, compare=False)

    def __init__(self, coeffs) -> None:
        """From ascending integer or rational coefficients."""
        nums, den = integer_numerators(coeffs)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "terms", tuple(zip(itertools.compress(range(len(nums)), nums), filter(None, nums))))
        if len(nums) < 3 or nums[-1] <= 0:
            raise ValueError("image polynomials have degree >= 2 and positive leading coefficient")
        if den > 1 and any(_poly_eval(nums, t) % den for t in range(self.degree + 1)):
            raise ValueError("polynomial is not integer-valued")

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def above_bits(self, t: int, bits: int) -> bool:
        """Whether eval(t) certainly has more than `bits` bits, from bit
        lengths alone: for t != 0 the leading term is at least 2^low and
        the other terms sum below 2^high.  Where low > high the leading
        term also dominates the derivative, so |eval| grows with |t| on
        each side."""
        tb = abs(t).bit_length()
        (d, lead), rest = self.terms[-1], self.terms[:-1]
        low = lead.bit_length() - 1 + d * (tb - 1)
        if tb == 0 or low - 1 - self.den.bit_length() < bits:
            return False
        return low > max((abs(c).bit_length() + i * tb for i, c in rest), default=0) + len(rest).bit_length()

    def eval(self, t: int) -> int:
        v = 0
        for i, c in self.terms:
            v += c * t**i
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
    pell_class: PellClass
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


def _by_size(x: int) -> tuple[int, int]:
    """The (|x|, x) order of members and witnesses."""
    return abs(x), x


class _PolySource:
    """An image polynomial's values, radius by radius.  A t whose value has
    more than `value_bits` bits (`ImagePoly.above_bits`) waits in `late`:
    it is past every floor, so it is evaluated only when the last flush draws it."""

    def __init__(self, poly: ImagePoly, value_bits: int):
        self.poly = poly
        self.radius = 0
        self.next_radius = max(_turn_bound(poly.nums), 4)
        self.value_bits = value_bits
        self.capped = False
        self.done = False
        self.late: list[int] = []

    def advance(self) -> list[int]:
        if self.done:
            return []
        lo, hi = self.radius, self.next_radius
        late = self.poly.above_bits(hi, self.value_bits)  # then maybe some t of this batch
        batch = []
        for t in range(-hi, hi + 1):
            if abs(t) <= lo and lo > 0:
                continue
            if late and self.poly.above_bits(t, self.value_bits):
                self.late.append(t)
            else:
                batch.append(self.poly.eval(t))
        self.radius = hi
        self.next_radius = hi * 2
        return batch

    def late_values(self):
        """The late values in (|x|, x) order, each evaluated when drawn; on
        each side |eval(t)| grows with |t| where `above_bits` holds."""
        up = sorted(t for t in self.late if t > 0)
        down = sorted((t for t in self.late if t < 0), reverse=True)
        return heapq.merge(map(self.poly.eval, up), map(self.poly.eval, down), key=_by_size)

    def floor_abs(self) -> int | None:
        if self.done:
            return None
        r, poly = self.radius + 1, self.poly  # above_bits(-r) == above_bits(r)
        lo = None if poly.above_bits(r, self.value_bits) else min(abs(poly.eval(r)), abs(poly.eval(-r)))
        if lo is None or lo.bit_length() > self.value_bits:
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
                # Late values are past every floor: merge them in, and drop
                # the repeats, which the order makes adjacent.
                late = [s.late_values() for s in self.sources if isinstance(s, _PolySource)]
                merged = heapq.merge(sorted(buffered, key=_by_size), *late, key=_by_size)
                yield from (x for x, _ in itertools.groupby(merged))
                return
            floor = min(floors)
            ready = [x for x in buffered if abs(x) < floor]
            buffered = [x for x in buffered if abs(x) >= floor]
            yield from sorted(ready, key=_by_size)


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
        if den > 1:
            cs = [c // den for c in cs] if not any(c % den for c in cs) else [Fraction(c, den) for c in cs]
        polys.append(ImagePoly(cs))
    return tuple(polys)


# Pairwise coprime prime powers: by the CRT one test per modulus is as
# strong as one modulo their product, and 16 refutes whatever 8 would.
_OBSTRUCTION_MODULI = (16, 27, 25, 7, 11, 13)
_image_masks: dict[tuple[int, int, int, int, int], int] = {}
_admitted_masks: dict[tuple[int, int, int, int], int] = {}


def _admitted(atom: PolyAtom, q: int) -> int:
    """The y mod q, as a bitmask, with a*y + b among the f(u) mod q over
    u = offset (mod gcd(stride, q)), where every lattice point reduces;
    this image mask and the y mask are built on first use."""
    g = math.gcd(atom.stride, q)
    key = (atom.degree, atom.lin % q, g, atom.offset % g, q)
    if (image := _image_masks.get(key)) is None:
        bits = {1 << (pow(u, atom.degree, q) + atom.lin * u) % q for u in range(atom.offset % g, q, g)}
        image = _image_masks[key] = sum(bits)  # distinct bits: the sum is their union
    key = (image, q, atom.a % q, atom.b % q)
    if (ys := _admitted_masks.get(key)) is None:
        ys = _admitted_masks[key] = sum(1 << y for y in range(q) if image >> (atom.a * y + atom.b) % q & 1)
    return ys


def _local_obstruction(atoms) -> int | None:
    """The first of `_OBSTRUCTION_MODULI` modulo which no residue of y is
    admitted by every atom (`_admitted`), or None."""
    for q in _OBSTRUCTION_MODULI:
        ys = (1 << q) - 1
        for at in atoms:
            ys &= _admitted(at, q)
        if not ys:
            return q
    return None


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


# The lattice images of an atom are listed, and the xs kept by set
# membership, while its lattice count is at most this multiple of the xs
# left; above it each x is tested by `PolyAtom.holds`, which bisects for a
# cubic with a linear part and costs about one root extraction otherwise.
_LIST_RATIO_LINEAR = 32
_LIST_RATIO_POWER = 1


def _lattice_images(atom: PolyAtom, R: int) -> list[int]:
    """The integers x = (f(u) - b) / a of the atom's lattice points |u| <= R.

    When f is even and the lattice is closed under negation, u and -u give
    the same x, so the listing starts at the least u >= 0.
    """
    d, lin, a, b, q, r = atom.degree, atom.lin, atom.a, atom.b, atom.stride, atom.offset
    if d % 2 == 0 and (2 * r) % q == 0:
        us = range(r, R + 1, q)
    else:
        us = range(-R + (r + R) % q, R + 1, q)
    if lin:
        return [n // a for u in us if (n := u * (u * u + lin) - b) % a == 0]
    return [n // a for u in us if (n := u**d - b) % a == 0]


def _image_radius(atom: PolyAtom, lo: int, hi: int) -> int:
    """A radius R such that every u with f(u) = a*x + b for some
    lo <= x <= hi has |u| <= R.

    With M the largest |a*x + b| on the window, |u|^d <= M for f = u^d.  For
    a cubic with a linear part, |u| >= c + isqrt(|lin|) + 2 with
    c = floor_root(M, 3) gives u*u - |lin| > (c + 1)^2 and so
    |f(u)| > (c + 1)^3 > M, the window argument of `depressed_cubic_roots`.
    """
    M = max(abs(atom.a * lo + atom.b), abs(atom.a * hi + atom.b))
    R = floor_root(M, atom.degree)
    return R + math.isqrt(abs(atom.lin)) + 2 if atom.lin else R


def _keep(xs, atoms) -> set[int]:
    """The xs at which every atom holds.

    Each atom filters by image intersection, its lattice images over the
    window [min xs, max xs] (`_image_radius`, `_lattice_images`), unless
    its lattice count there exceeds `_LIST_RATIO_*` times the xs left;
    then each x is tested by `PolyAtom.holds`.
    """
    for at in atoms:
        if not xs:
            break
        R = _image_radius(at, min(xs), max(xs))
        ratio = _LIST_RATIO_LINEAR if at.lin else _LIST_RATIO_POWER
        if 2 * R // at.stride + 1 > ratio * len(xs):
            xs = [x for x in xs if at.holds(x)]
        else:
            xs = set(_lattice_images(at, R)).intersection(xs)
    return set(xs)


def listed_hits(atoms, lo: int, hi: int, bound: int, step=(1, 0)) -> list[int] | None:
    """The x of lo <= x <= hi with x = r (mod M), for step = (M, r), at
    which every atom holds, in (|x|, x) order; None when listing them
    costs more than testing the points.

    The listing is the lattice images there (`_lattice_images`) of the
    atom with the fewest lattice points, `_image_radius` // stride,
    filtered by `_keep` for the other atoms.  It is skipped when that
    atom's radius passes `bound` or its lattice points, 2R // stride, are
    not fewer than the (hi - lo) // M points.
    """
    at = min(atoms, key=lambda p: _image_radius(p, lo, hi) // p.stride)
    R = _image_radius(at, lo, hi)
    M, r = step
    if R > bound or 2 * R // at.stride >= (hi - lo) // M:
        return None
    images = [x for x in _lattice_images(at, R) if lo <= x <= hi and x % M == r]
    return sorted(_keep(images, [p for p in atoms if p is not at]), key=_by_size)


def _bounded_curve(walked: PolyAtom, rest, options: SolveOptions, label: str) -> SolutionSet:
    """The x of the walked atom's lattice points u with |u| <= enum_bound
    at which every atom of `rest` holds.

    The walk lists the walked atom's images (`_lattice_images`), and
    `_keep` filters them by each atom of `rest`, by image intersection or
    by `PolyAtom.holds`; the set is the same either way.
    """
    xs = _keep(_lattice_images(walked, options.enum_bound), rest)
    return SolutionSet(label, False, values=tuple(sorted(xs)))


def _filter_by_atoms(base: SolutionSet, extra, options: SolveOptions, label: str) -> SolutionSet:
    """Filter a base set by further atoms: finite values through `_keep`,
    families pointwise along their member stream; keeps exactness flags honest."""
    if not base.families:
        return SolutionSet(label, base.complete, values=tuple(sorted(_keep(base.values, extra))))
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
    """Bounded walk of the last cubic with a linear part, else of the last
    atom of highest degree; the rest filter (`_keep`).

    A cubic with a linear part is walked because the walk lists its images
    at one evaluation per u, while as a filter it would need its `holds`,
    a bisection, wherever its lattice is too large to list.
    """
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
    f(u) = b (mod a) (`numtheory.residue_classes`), and two or more atoms
    must hold together modulo each of `_OBSTRUCTION_MODULI` (`_local_obstruction`).
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
    if (q := _local_obstruction(atoms)) is not None:
        return SolutionSet(f"local-obstruction:m={q}", True)
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
    return min(xs, key=_by_size, default=None)


def _survivors(system: ConstraintSystem, ys):
    """The ys above the lower bound, not excluded, on which every negative atom fails (lazy)."""
    lower, negatives = system.lower, system.negatives
    return (
        y
        for y in ys
        if (lower is None or y > lower) and y not in system.excluded and not any(a.holds(y) for a in negatives)
    )


def _verified_sat(system: ConstraintSystem, y: int) -> Verdict:
    """Sat at the working point y, re-verified by direct evaluation of the system."""
    if not system_holds(system, y):
        raise AssertionError(f"witness {system.to_original(y)} fails direct evaluation")
    return Verdict.sat(system.to_original(y))


def _by_magnitude(lo: int | None, hi: int | None = None, step=(1, 0)):
    """The y = r (mod M), for step = (M, r) with 0 <= r < M, with lo < y < hi
    in (|y|, y) order; None leaves a side open."""
    M, r = step
    if lo is not None and lo >= -1:
        up = lo + 1 + (r - lo - 1) % M
        yield from itertools.count(up, M) if hi is None else range(up, hi, M)
        return
    # Merge the class's y >= 0, upwards, with its y < min(hi, 0), downwards.
    top = math.inf if hi is None else hi
    bottom = -math.inf if lo is None else lo
    up, down = r, min(top, 0) - 1
    down -= (down - r) % M
    while up < top or down > bottom:
        if down > bottom and (up >= top or -down <= up):
            yield down
            down -= M
        else:
            yield up
            up += M


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


def _scan_interval(system: ConstraintSystem, options: SolveOptions) -> Verdict:
    """The least (|x|, x) witness of a bounded system among its first
    `enum_bound` points in (|y|, y) order.

    The walk stops once |M|*|y| - |r| exceeds the best |x| so far: no
    later y gives a smaller |x|, and the strict inequality keeps the ties.
    A miss on a wider interval answers Unknown.
    """
    lo, hi = system.lower, system.upper
    M, r = (abs(c) for c in system.substitution)
    hits: list[int] = []
    for y in itertools.islice(_by_magnitude(lo, hi), options.enum_bound):
        if hits and M * abs(y) - r > abs(least_witness(hits)):
            break
        if system_holds(system, y):
            hits.append(system.to_original(y))
    if hits:
        return Verdict.sat(least_witness(hits))
    if hi - lo - 1 > options.enum_bound:
        system.log("interval:too-wide")
        return Verdict.unknown("bounded interval wider than the enumeration bound", options.enum_bound)
    return Verdict.unsat()


# An open system's first pass: the points y > lower with
# |y| <= max(lower, 0) + _WINDOW, where nearly every witness lies.
_WINDOW = 64


def _window_witness(system: ConstraintSystem, options: SolveOptions) -> int | None:
    """The first survivor of the window's points at which every positive
    atom holds (`listed_hits`), in (|y|, y) order and within `scan_cap` of
    them; None when there is none or listing costs more than the points."""
    reach = max(system.lower or 0, 0) + _WINDOW
    lo = -reach if system.lower is None else max(system.lower + 1, -reach)
    hits = listed_hits(system.positives, lo, reach, options.enum_bound)
    if hits is None:
        return None
    return next(_survivors(system, itertools.islice(hits, options.scan_cap)), None)


def decide(system: ConstraintSystem, options: SolveOptions = DEFAULT_OPTIONS) -> Verdict:
    """Three-valued satisfiability of one system that `normalize` produced.

    The one function that turns an open system into a verdict.
    Precondition: the system comes from `formula.normalize`, or a
    hand-built one went through `poly_solver.prepare`.  A resolved system
    returns its `resolved` verdict.  A bounded system (a bounded conjunct,
    or a point that preprocessing pinned) is scanned point by point
    (`_scan_interval`).  An open system with a positive atom first scans
    the window of the y > lower with |y| <= max(lower, 0) + `_WINDOW`: the
    points there at which every positive atom holds, listed from lattice
    images (`listed_hits`), in (|y|, y) order and at most `scan_cap` of
    them.  Its first survivor answers, logged `witness-scan:window`, and
    no solution set is built.  Otherwise the positive atoms give one
    `SolutionSet` (`solve_positive`), and the lower bound, the excluded
    points and the negative atoms filter it: a set of `everything` by a
    scan of the integers above the bound, a set without families by its
    least surviving value, and any other set by a scan of its
    `MemberStream`.  A local obstruction is a complete, empty set: a
    certified Unsat that logs its modulus and starts no walk or stream.

    Witness rule: a bounded system answers the least (|x|, x) witness
    among the points it tests; the other scans answer their first hit in
    (|y|, y) order of the working variable y, which under x = M*y + r need
    not be the system's least x.  The window is the start of the member
    stream's own order, so its first survivor is the first hit the
    stream's scan would reach; a bounded walk may miss that point but
    never finds one before it.  Sat witnesses are in original
    coordinates, verified by direct evaluation of the system.  The
    sentence's least witness is certified above this function:
    `cli.solve_formula` stops at the first sat system and lists every
    conjunct below its witness, or decides every system and takes the
    least witness when that listing would pass `enum_bound`.
    """
    if system.resolved is not None:
        return system.resolved
    if system.upper is not None:
        return _scan_interval(system, options)
    if system.positives and (y := _window_witness(system, options)) is not None:
        system.log("witness-scan:window")
        return _verified_sat(system, y)
    from .poly_solver import discard_pell_indices

    sol = solve_positive(system.positives, options)
    system.log(sol.case)
    sol = discard_pell_indices(system, sol)
    if sol.everything:
        return _search(system, _by_magnitude(system.lower), options)
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
