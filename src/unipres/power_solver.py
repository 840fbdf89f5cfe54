"""Decision procedure for systems of perfect-power constraints.

A normalized system holds one lower bound x > c and positive/negative
atoms "a*x + b is a k-th power" with a > 0.  Preprocessing discards
redundant atoms and coalesces similar positive ones; the positive
solution set is then computed exactly by case analysis on the number of
constraints (everything, polynomial images, Pell orbits, divisor
factorizations, or a bounded enumeration), and negative atoms are
filtered pointwise along a deterministic witness scan.

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

from ._ast import ConstraintSystem, PowerAtom, Verdict, system_holds
from .lrbs import IndexSet, Lrbs, filter_congruence, growth_rank
from .numtheory import (
    crt_extended,
    ResidueClass,
    divisor_pairs,
    factor,
    floor_root,
    integer_numerators,
    integer_roots,
    is_kth_power,
    kth_root,
)
from .pell import PellClass, solve_generalized

__all__ = [
    "Verdict",
    "SolveOptions",
    "ImagePoly",
    "LrbsEntry",
    "PowerValueMap",
    "PolyValueMap",
    "SolutionSet",
    "AllSolutions",
    "PolyImages",
    "LrbsUnion",
    "FiniteSolutions",
    "EmptySolutions",
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
# Redundancy and similarity (power atoms).


def is_redundant(c1: PowerAtom, c2: PowerAtom) -> bool | None:
    """Truth value of c1 forced by the positive truth of c2, or None.

    c1 = Z^k(c x + d) is redundant with respect to c2 = Z^j(a x + b) when
    k | j and a*d == b*c; the forced value is whether a*c^(k-1) is itself
    a perfect k-th power.  (At the single point where both terms vanish
    the atom is trivially true; callers patch that point separately.)
    """
    k, c, d = c1.k, c1.a, c1.b
    j, a, b = c2.k, c2.a, c2.b
    if j % k != 0 or a * d != b * c:
        return None
    return is_kth_power(a * c ** (k - 1), k)


def similar(c1: PowerAtom, c2: PowerAtom) -> bool:
    return c1.a * c2.b == c1.b * c2.a


def coalesce_similar(atoms: list[PowerAtom]) -> PowerAtom | None:
    """Single atom equivalent to a conjunction of similar positive atoms.

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
        K = K * atom.k // math.gcd(K, atom.k)
    interesting: set[int] = set()
    for atom in atoms:
        interesting.update(p for p, _ in factor(atom.a).factors)
    multiplier = 1
    for p in sorted(interesting):
        classes = []
        vp_a = _val(p, a)
        for atom in atoms:
            classes.append(ResidueClass(atom.k, vp_a - _val(p, atom.a)))
        merged = crt_extended(classes)
        if merged is None:
            return None
        r_p = (-merged.residue) % K
        multiplier *= p**r_p
    return PowerAtom(K, a * multiplier, b * multiplier)


def _val(p: int, n: int) -> int:
    e = 0
    n = abs(n)
    while n % p == 0 and n:
        n //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# System preprocessing: dedup, discard redundant, coalesce, discard again.


def _zero_point(atom: PowerAtom) -> int | None:
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

    Operates on power atoms only (polynomial atoms pass through untouched;
    `poly_solver.preprocess_poly` handles their redundancy).  May resolve
    the system outright; returns the surviving disjuncts.
    """
    if system.resolved is not None:
        return [system]
    for atoms in (system.positives, system.negatives):
        seen = set()
        atoms[:] = [a for a in atoms if not (a in seen or seen.add(a))]

    changed = True
    while changed:
        changed = False
        power_pos = [a for a in system.positives if isinstance(a, PowerAtom)]
        # Discard atoms whose truth is forced by some positive atom.
        for ref in power_pos:
            for target in list(system.positives):
                if target is ref or not isinstance(target, PowerAtom):
                    continue
                forced = is_redundant(target, ref)
                if forced is None:
                    continue
                if forced:
                    system.positives.remove(target)
                    system.log(f"redundant:drop-positive:{target.k}:{target.a}:{target.b}")
                else:
                    return _resolve_at_point(system, _zero_point(ref), "redundant:forced-false-positive")
                changed = True
            for target in list(system.negatives):
                if not isinstance(target, PowerAtom):
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
                system.log(f"redundant:drop-negative:{target.k}:{target.a}:{target.b}")
                changed = True
            if changed:
                break
        if changed:
            continue
        # Coalesce groups of similar positive atoms.
        groups: dict[Fraction, list[PowerAtom]] = {}
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
            system.log(f"coalesce:Z^{merged.k}({merged.a}x+{merged.b})")
            changed = True
            break
    return [system]


# ---------------------------------------------------------------------------
# Solution-set representations.


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
        if den > 1 and any(self._numerator(t) % den for t in range(self.degree + 1)):
            raise ValueError("polynomial is not integer-valued")

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def _numerator(self, t: int) -> int:
        v = 0
        for c in reversed(self.nums):
            v = v * t + c
        return v

    def eval(self, t: int) -> int:
        v = self._numerator(t)
        if self.den == 1:
            return v
        q, r = divmod(v, self.den)
        if r:
            raise ArithmeticError(f"non-integer image at t={t}")
        return q

    def contains(self, x: int) -> bool:
        cs = list(self.nums)
        cs[0] -= x * self.den
        return bool(integer_roots(cs))

    def turn_bound(self) -> int:
        """|f| is strictly increasing in |t| at integers beyond this radius."""
        deriv = [i * self.nums[i] for i in range(1, len(self.nums))]

        def cauchy(cs):
            while cs and cs[-1] == 0:
                cs = cs[:-1]
            if len(cs) <= 1:
                return 1
            return 2 + max(abs(c) for c in cs[:-1]) // abs(cs[-1])

        return max(cauchy(list(self.nums)), cauchy(deriv))


@dataclass(frozen=True)
class PowerValueMap:
    """x = (v**k - b) / a along a solution sequence v."""

    k: int
    a: int
    b: int

    def apply(self, v: int) -> int | None:
        num = v**self.k - self.b
        return num // self.a if num % self.a == 0 else None

    def turn(self) -> int:
        return floor_root(abs(self.b), self.k) + 2

    def floor_abs(self, v_abs: int) -> int:
        if v_abs < self.turn():
            return 0
        return max(0, (v_abs**self.k - abs(self.b)) // self.a)


@dataclass(frozen=True)
class PolyValueMap:
    """x = h(v / divisor) along a solution sequence v."""

    poly: ImagePoly
    divisor: int

    def apply(self, v: int) -> int | None:
        if v % self.divisor != 0:
            return None
        return self.poly.eval(v // self.divisor)

    def turn(self) -> int:
        return self.poly.turn_bound() * self.divisor + self.divisor

    def floor_abs(self, v_abs: int) -> int:
        t = v_abs // self.divisor
        if t <= self.poly.turn_bound():
            return 0
        return min(abs(self.poly.eval(t)), abs(self.poly.eval(-t)))


@dataclass(frozen=True)
class LrbsEntry:
    """One Pell class contributing x = map(value_seq) over filtered indices."""

    value_seq: Lrbs
    partner_seq: Lrbs | None
    indices: IndexSet
    vmap: PowerValueMap | PolyValueMap
    pell_class: PellClass | None = None
    component: str = "z"


@dataclass(frozen=True)
class SolutionSet:
    """Base class: integers satisfying the positive constraints."""

    lower: int | None
    case: str
    complete: bool

    def is_infinite(self) -> bool:
        raise NotImplementedError

    def contains(self, x: int) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class AllSolutions(SolutionSet):
    def is_infinite(self) -> bool:
        return True

    def contains(self, x: int) -> bool:
        return self.lower is None or x > self.lower


@dataclass(frozen=True)
class PolyImages(SolutionSet):
    polys: tuple[ImagePoly, ...] = ()
    extra_values: tuple[int, ...] = ()

    def is_infinite(self) -> bool:
        return True

    def contains(self, x: int) -> bool:
        return x in self.extra_values or any(p.contains(x) for p in self.polys)


@dataclass(frozen=True)
class LrbsUnion(SolutionSet):
    entries: tuple[LrbsEntry, ...] = ()
    extra_values: tuple[int, ...] = ()

    def is_infinite(self) -> bool:
        return any(not e.indices.is_empty() for e in self.entries)

    def contains(self, x: int, index_radius: int = 64) -> bool:
        if x in self.extra_values:
            return True
        for e in self.entries:
            for n in _outward(index_radius):
                if n in e.indices and e.vmap.apply(e.value_seq.eval(n)) == x:
                    return True
        return False


@dataclass(frozen=True)
class FiniteSolutions(SolutionSet):
    values: tuple[int, ...] = ()

    def is_infinite(self) -> bool:
        return False

    def contains(self, x: int) -> bool:
        return x in self.values


@dataclass(frozen=True)
class EmptySolutions(SolutionSet):
    def is_infinite(self) -> bool:
        return False

    def contains(self, x: int) -> bool:
        return False


def _outward(radius: int):
    yield 0
    for i in range(1, radius + 1):
        yield i
        yield -i


# ---------------------------------------------------------------------------
# Ordered member streams with certified magnitude floors.


class _PolySource:
    def __init__(self, poly: ImagePoly, value_bits: int):
        self.poly = poly
        self.radius = 0
        self.next_radius = max(poly.turn_bound(), 4)
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
    def __init__(self, entry: LrbsEntry, value_bits: int):
        self.entry = entry
        g = growth_rank(entry.value_seq)
        start = max(abs(g.mono_fwd or 0), abs(g.mono_bwd or 0), 4)
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


class _FiniteSource:
    def __init__(self, values):
        self.values = list(values)
        self.capped = False
        self.done = False

    def advance(self) -> list[int]:
        if self.done:
            return []
        self.done = True
        return self.values

    def floor_abs(self) -> int | None:
        return None


class MemberStream:
    """Merged members ordered by (|x|, x), with honesty bookkeeping.

    `capped` is set when some source stopped at the bit-size cap, meaning
    the emitted prefix may be incomplete.
    """

    def __init__(self, sources):
        self.sources = list(sources)
        self.capped = False

    def __iter__(self):
        buffered: list[int] = []
        seen: set[int] = set()
        while True:
            live = [s for s in self.sources if not s.done]
            for s in live:
                for x in s.advance():
                    if x not in seen:
                        seen.add(x)
                        buffered.append(x)
            floors = [f for s in self.sources if (f := s.floor_abs()) is not None]
            self.capped = self.capped or any(getattr(s, "capped", False) for s in self.sources)
            if not floors:
                for x in sorted(buffered, key=lambda v: (abs(v), v)):
                    yield x
                return
            floor = min(floors)
            ready = [x for x in buffered if abs(x) < floor]
            buffered = [x for x in buffered if abs(x) >= floor]
            for x in sorted(ready, key=lambda v: (abs(v), v)):
                yield x


def members(solution_set: SolutionSet, options: SolveOptions = DEFAULT_OPTIONS) -> MemberStream:
    """Stream of members ordered by (|x|, x) (not defined for AllSolutions)."""
    if isinstance(solution_set, PolyImages):
        sources = [_PolySource(p, options.value_bits) for p in solution_set.polys]
        sources.append(_FiniteSource(solution_set.extra_values))
        return MemberStream(sources)
    if isinstance(solution_set, LrbsUnion):
        sources = [_LrbsSource(e, options.value_bits) for e in solution_set.entries]
        sources.append(_FiniteSource(solution_set.extra_values))
        return MemberStream(sources)
    if isinstance(solution_set, FiniteSolutions):
        return MemberStream([_FiniteSource(solution_set.values)])
    if isinstance(solution_set, EmptySolutions):
        return MemberStream([])
    raise TypeError(f"no member stream for {type(solution_set).__name__}")


# ---------------------------------------------------------------------------
# Positive-constraint solution sets.


def _power_residues(atom: PowerAtom):
    """The u in [0, a) with u**k = b (mod a), ascending, as one lazy scan."""
    k, a, r = atom.k, atom.a, atom.b % atom.a
    return (u for u in range(a) if pow(u, k, a) == r)


def _peek(scan):
    """The scan with its first item put back, or None when it is empty."""
    first = next(scan, None)
    return None if first is None else itertools.chain((first,), scan)


def _single_power_images(atom: PowerAtom, residues, lower: int | None) -> SolutionSet:
    """x = ((u + a*t)**k - b) / a for each residue u, with integer coefficients."""
    k, a, b = atom.k, atom.a, atom.b
    polys = []
    for u in residues:
        coeffs = [(u**k - b) // a]
        coeffs.extend(math.comb(k, i) * u ** (k - i) * a ** (i - 1) for i in range(1, k + 1))
        polys.append(ImagePoly(coeffs))
    return PolyImages(lower, "power:single:images", True, polys=tuple(polys))


def _divisor_pair_solutions(a1: int, b1: int, a2: int, b2: int, E: int) -> list[int]:
    """x with a1*x+b1 and a2*x+b2 both squares, via (w-Ez)(w+Ez) = N; complete."""
    N = a2 * (a2 * b1 - a1 * b2)
    out = set()
    if N == 0:
        # Degenerate proportional pair: only the common zero of both terms.
        if b2 % a2 == 0 and (-b2 // a2) * a1 + b1 == 0:
            x = -b2 // a2
            if is_kth_power(a1 * x + b1, 2) and is_kth_power(a2 * x + b2, 2):
                out.add(x)
        return sorted(out)
    for d1, d2 in divisor_pairs(N):
        if (d1 + d2) % 2 != 0 or (d2 - d1) % (2 * E) != 0:
            continue
        z = (d2 - d1) // (2 * E)
        num = z * z - b2
        if num % a2 != 0:
            continue
        x = num // a2
        if is_kth_power(a1 * x + b1, 2) and is_kth_power(a2 * x + b2, 2):
            out.add(x)
    return sorted(out)


def _pell_pair_entries(a1: int, b1: int, a2: int, b2: int) -> tuple[list[LrbsEntry], str]:
    """LRBS entries for the system a1x+b1 = y1^2, a2x+b2 = y2^2 (a1*a2 non-square)."""
    n = a1 * a2
    N = a2 * (a2 * b1 - a1 * b2)
    r1s = sorted({r for r in range(a1) if pow(r, 2, a1) == b1 % a1})
    r2s = sorted({r for r in range(a2) if pow(r, 2, a2) == b2 % a2})
    if not r1s or not r2s:
        return [], "power:pair:empty-residues"
    sols = solve_generalized(n, N)
    if not sols.classes:
        return [], "power:pair:pell-empty"
    M_w = a1 * a2
    w_res = sorted({(s * a2 * r) % M_w for r in r1s for s in (1, -1)})
    z_res = sorted({(s * r) % a2 for r in r2s for s in (1, -1)})
    entries = []
    for cls in sols.classes:
        w0, z0 = cls.fundamental
        w_i, z_i = cls.rep
        w1 = w_i * w0 + n * z_i * z0
        z1 = z_i * w0 + w_i * z0
        wseq = Lrbs((2 * w0, -1), (w_i, w1))
        zseq = Lrbs((2 * w0, -1), (z_i, z1))
        idx_w = IndexSet.nothing()
        for r in w_res:
            idx_w = idx_w.union(filter_congruence(wseq, M_w, r))
        idx_z = IndexSet.nothing()
        for r in z_res:
            idx_z = idx_z.union(filter_congruence(zseq, a2, r))
        idx = idx_w.intersect(idx_z)
        if idx.is_empty():
            continue
        entries.append(
            LrbsEntry(zseq, wseq, idx, PowerValueMap(2, a2, b2), pell_class=cls, component="z")
        )
    return entries, ("power:pair:pell" if entries else "power:pair:pell-filtered-empty")


def _bounded_hyperelliptic(a1, b1, k1, a2, b2, k2, lower, options: SolveOptions) -> SolutionSet:
    """Candidates of y1^k1 = a1x+b1, y2^k2 = a2x+b2 for |y2| <= enum_bound."""
    H = options.enum_bound
    values = set()
    z_range = range(H + 1) if k2 % 2 == 0 else range(-H, H + 1)
    for z in z_range:
        num = z**k2 - b2
        if num % a2 != 0:
            continue
        x = num // a2
        if kth_root(a1 * x + b1, k1) is not None:
            values.add(x)
    return FiniteSolutions(
        lower, "power:pair:hyperelliptic:bounded", False, values=tuple(sorted(values))
    )


def _filter_by_atoms(base: SolutionSet, extra, options: SolveOptions, label: str) -> SolutionSet:
    """Pointwise-filter a base set by further atoms; keeps exactness flags honest."""
    if isinstance(base, EmptySolutions):
        return EmptySolutions(base.lower, label + ":empty", base.complete)
    if isinstance(base, FiniteSolutions):
        vals = tuple(x for x in base.values if all(at.holds(x) for at in extra))
        return FiniteSolutions(base.lower, label, base.complete, values=vals)
    stream = members(base, options)
    found = []
    for i, x in enumerate(stream):
        if i >= options.scan_cap:
            break
        if all(at.holds(x) for at in extra):
            found.append(x)
            if len(found) >= 10_000:
                break
    return FiniteSolutions(base.lower, label + ":bounded", False, values=tuple(sorted(set(found))))


def solve_positive(
    positives, lower: int | None = None, options: SolveOptions = DEFAULT_OPTIONS
) -> SolutionSet:
    """Exact structure of the integers satisfying all positive power atoms.

    Preconditions: atoms pairwise non-similar, none redundant, a > 0.
    """
    atoms = sorted(positives)
    for atom in atoms:
        if atom.a <= 0:
            raise ValueError("positive atoms must have a > 0 after normalization")
    if len(atoms) == 0:
        return AllSolutions(lower, "power:none", True)
    # Cheap certified emptiness: the value-set residues must admit b mod a.
    scans = []
    for atom in atoms:
        scan = _peek(_power_residues(atom))
        if scan is None:
            return EmptySolutions(lower, "power:empty-residues", True)
        scans.append(scan)
    if len(atoms) == 1:
        return _single_power_images(atoms[0], scans[0], lower)
    if len(atoms) == 2:
        (A1, A2) = atoms
        if A2.k < A1.k:
            A1, A2 = A2, A1
        if A1.a * A2.b == A1.b * A2.a:
            raise ValueError("similar atoms must be coalesced before solving")
        if A2.k == 2:
            n = A1.a * A2.a
            E = math.isqrt(n)
            if E * E == n:
                vals = _divisor_pair_solutions(A1.a, A1.b, A2.a, A2.b, E)
                return FiniteSolutions(lower, "power:pair:divisor", True, values=tuple(vals))
            entries, label = _pell_pair_entries(A1.a, A1.b, A2.a, A2.b)
            if not entries:
                return EmptySolutions(lower, label, True)
            return LrbsUnion(lower, label, True, entries=tuple(entries))
        return _bounded_hyperelliptic(A1.a, A1.b, A1.k, A2.a, A2.b, A2.k, lower, options)
    # Three or more atoms.
    squares = [a for a in atoms if a.k == 2]
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            Ai, Aj = squares[i], squares[j]
            n = Ai.a * Aj.a
            E = math.isqrt(n)
            if E * E == n:
                vals = _divisor_pair_solutions(Ai.a, Ai.b, Aj.a, Aj.b, E)
                rest = [a for a in atoms if a is not Ai and a is not Aj]
                base = FiniteSolutions(lower, "power:multi:divisor", True, values=tuple(vals))
                return _filter_by_atoms(base, rest, options, "power:multi:divisor")
    if all(a.k == 2 for a in atoms):
        entries, label = _pell_pair_entries(atoms[0].a, atoms[0].b, atoms[1].a, atoms[1].b)
        rest = atoms[2:]
        if not entries:
            return EmptySolutions(lower, label, True)
        base = LrbsUnion(lower, label, True, entries=tuple(entries))
        return _filter_by_atoms(base, rest, options, "power:multi:pell-filter")
    # Mixed exponents: bound the pair with the largest exponent, then filter.
    A2 = atoms[-1]
    A1 = atoms[0]
    base = _bounded_hyperelliptic(A1.a, A1.b, A1.k, A2.a, A2.b, A2.k, lower, options)
    rest = [a for a in atoms if a is not A1 and a is not A2]
    filtered = _filter_by_atoms(base, rest, options, "power:multi")
    return FiniteSolutions(lower, "power:multi:bounded", False, values=filtered.values)


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
    atoms give the solution set (`poly_solver.solve_positive_poly` routes
    every atom mix), and the lower bound, the excluded points and the
    negative atoms filter it.

    Witness rule: inside a system the witness is the first hit in (|y|, y)
    order of the working variable y; across systems (`cli.solve_formula`)
    the least (|x|, x) of the original variable x wins.  Sat witnesses are
    returned in original coordinates, re-verified by direct evaluation.
    """
    if system.resolved is not None:
        return system.resolved
    from .poly_solver import discard_pell_indices, solve_positive_poly

    sol = solve_positive_poly(system.positives, system.lower, options)
    system.log(sol.case)
    sol = discard_pell_indices(system, sol, options)
    if isinstance(sol, Verdict):
        return sol
    if isinstance(sol, EmptySolutions):
        return Verdict.unsat() if sol.complete else Verdict.unknown(sol.case, options.enum_bound)
    if isinstance(sol, AllSolutions):
        return _search(system, _above(system.lower), options)
    if isinstance(sol, FiniteSolutions):
        y = least_witness(_survivors(system, sol.values))
        if y is not None:
            system.log("finite:witness")
            return _verified_sat(system, y)
        if sol.complete:
            system.log("finite:exhausted")
            return Verdict.unsat()
        return Verdict.unknown(f"bounded enumeration ({sol.case}) found no witness", options.enum_bound)
    return _search(system, members(sol, options), options)
