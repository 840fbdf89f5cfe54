"""Polynomial atoms: depression, redundancy, preparation, and the curve cases.

Every atom is held in depressed monic form: exists u = offset (mod
stride) with u^k = a*x + b, or u^3 + lin*u = a*x + b for a cubic; a
power atom is the monomial u^k over stride 1.  `prepare` is the one
preprocessing pass of a normalized system: atoms of power shape are
coalesced by `power_solver.preprocess`, then pairs of positive atoms
are checked for redundancy (a failure of absolute irreducibility of the
attendant curve) and merged.  `power_solver.solve_positive`
routes the positive atoms; this module holds the cases particular to
degrees 2 and 3: a quadratic against a cubic whose curve has a double
root (image polynomials), the derived Pell structure of two quadratics
against a cubic (Pell orbits), and the one genuinely dense negative
interaction (a Pell-parametrized quadratic pair against a cubic
negative), which is removed exactly as arithmetic progressions of
sequence indices.  Each case answers with the one record of
`power_solver`, a `SolutionSet` whose families are those generators and
whose values are the finitely many points outside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from ._ast import ConstraintSystem, PolyAtom, Verdict, system_holds
from .lrbs import IndexSet
from .numtheory import (
    _taylor_shift,
    crt_extended,
    ResidueClass,
    integer_numerators,
    kth_root,
    residue_classes,
    union_classes,
)
from .pell import QuadNum, fundamental, solve_generalized, squarefree_kernel, unit_exponent
from .power_solver import (
    LrbsEntry,
    PolyValueMap,
    SolutionSet,
    SolveOptions,
    _atom_classes,
    _bounded_curve,
    _filter_by_atoms,
    _pell_orbit_entries,
    _square_factor_pairs,
    _survivors,
    _verified_sat,
    decide,
    image_polys,
    least_witness,
    preprocess as power_preprocess,
    solve_positive,
)

__all__ = [
    "RedundancyData",
    "CurveCaseData",
    "depress_ascending",
    "poly_redundant",
    "preprocess_poly",
    "prepare",
    "solve_positive_poly",
    "subtract_discarded",
    "discard_pell_indices",
    "decide_poly",
]


def _peval(p, x):
    """The polynomial with ascending coefficients p at x, in Fractions."""
    v = Fraction(0)
    for c in reversed(p):
        v = v * x + c
    return v


# ---------------------------------------------------------------------------
# Depression (complete the square / the cube).


def _reduce_atom(degree: int, lin: int, a: int, b: int, q: int, r: int) -> PolyAtom:
    # Divide out a common factor g of the witness lattice q*t + r when the
    # scaled coefficients allow it; keeps golden outputs small.
    while True:
        g = math.gcd(q, r)
        if g <= 1:
            break
        gd = g**degree
        if a % gd or b % gd:
            break
        if degree == 3 and lin % (g * g):
            break
        a //= gd
        b //= gd
        if degree == 3:
            lin //= g * g
        q //= g
        r //= g
    return PolyAtom(degree, lin, a, b, q, r % q)


def depress_ascending(asc, a: int, b: int) -> PolyAtom:
    """Normalize f(u) = a*x + b (f by ascending integer or rational coeffs, lead > 0, a > 0).

    f has degree 2 or 3, or is a monomial u^k (k >= 2), which is already
    depressed: PolyAtom(k, 0, a, b, 1, 0).
    """
    degree = len(asc) - 1
    if asc[-1] == 1 and a > 0 and not any(asc[:-1]):
        return PolyAtom(degree, 0, a, b, 1, 0)
    if degree not in (2, 3):
        raise ValueError(f"degree must be 2 or 3, got {degree}")
    if asc[-1] <= 0 or a <= 0:
        raise ValueError("need a positive leading coefficient and a > 0")
    F, lcm = integer_numerators(asc)
    A, B = lcm * a, lcm * b
    if degree == 2:
        c0, c1, c2 = F
        at = 4 * A * c2
        bt = 4 * B * c2 - 4 * c0 * c2 + c1 * c1
        q = 2 * c2
        return _reduce_atom(2, 0, at, bt, q, c1 % q)
    c0, c1, c2, c3 = F
    q = 3 * c3
    lin = 9 * c1 * c3 - 3 * c2 * c2
    at = 27 * A * c3 * c3
    bt = 27 * B * c3 * c3 - 27 * c0 * c3 * c3 + 9 * c1 * c2 * c3 - 2 * c2**3
    return _reduce_atom(3, lin, at, bt, q, c2 % q)


# ---------------------------------------------------------------------------
# Redundancy of polynomial constraints.


def _rational_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    ns = math.isqrt(f.numerator)
    ds = math.isqrt(f.denominator)
    if ns * ns == f.numerator and ds * ds == f.denominator:
        return Fraction(ns, ds)
    return None


def _rational_cbrt(f: Fraction) -> Fraction | None:
    nc, dc = kth_root(f.numerator, 3), kth_root(f.denominator, 3)
    if nc is None or dc is None:
        return None
    return Fraction(nc, dc)


@dataclass(frozen=True)
class RedundancyData:
    """How two redundant constraints correlate their witnesses.

    kind "line": u1 = +-slope * u2 (quadratics; both signs).
    kind "line+conic": u1 = -slope * u2 plus finitely many conic points.
    kind "point": the only common witnesses are the listed points.
    """

    kind: str
    slope: Fraction | None
    points: tuple[tuple[int, int], ...]


def _ellipse_points(m: Fraction, const: int) -> tuple[tuple[int, int], ...]:
    """Integer points of u1^2 - m*u1*u2 + m^2*u2^2 + const = 0."""
    if const > 0:
        return ()
    if const == 0:
        return ((0, 0),)
    # 3/4 m^2 u2^2 <= -const bounds the search box exactly.
    bound2 = math.isqrt(int(Fraction(-4 * const) / (3 * m * m))) + 1
    pts = []
    for u2 in range(-bound2, bound2 + 1):
        disc = Fraction(-3) * m * m * u2 * u2 - 4 * const
        s = _rational_sqrt(disc)
        if s is None:
            continue
        for sign in (1, -1) if s != 0 else (1,):
            u1 = (m * u2 + sign * s) / 2
            if u1.denominator == 1:
                pts.append((int(u1), u2))
    return tuple(sorted(set(pts)))


def poly_redundant(p1: PolyAtom, p2: PolyAtom) -> RedundancyData | None:
    """Redundancy of p1 with respect to p2 (same degree, scaled curve reducible).

    Returns the witness correlation, or None when the curve
    a2*f1(u1) - a1*f2(u2) - a2*b1 + a1*b2 is absolutely irreducible, and
    None above degree 3, where `power_solver.preprocess` has already
    coalesced the similar atoms.

    For cubics the slope follows RedundancyData: the line is
    u1 = -slope*u2.  The curve a2*(u1^3 + D1*u1) = a1*(u2^3 + D2*u2)
    contains the line u1 = s*u2 exactly when s^3 = a1/a2 and
      s = a1*D2 / (a2*D1)   if D1, D2 != 0, or
      s = cbrt(a1/a2)       if D1 = D2 = 0,
    so slope = -s in both branches.  The residual conic is
    u1^2 + s*u1*u2 + s^2*u2^2 + D1 = 0.
    """
    if p1.degree != p2.degree or p1.degree > 3:
        return None
    if p1.a * p2.b != p2.a * p1.b:
        return None
    a1, a2 = p1.a, p2.a
    if p1.degree == 2:
        m = _rational_sqrt(Fraction(a1, a2))
        if m is not None:
            return RedundancyData("line", m, ())
        return RedundancyData("point", None, ((0, 0),))
    D1, D2 = p1.lin, p2.lin
    if D1 != 0 and D2 != 0:
        m = Fraction(-a1 * D2, a2 * D1)
        if m**3 == Fraction(-a1, a2):
            return RedundancyData("line+conic", m, _ellipse_points(m, D1))
        return None
    if D1 == 0 and D2 == 0:
        c = _rational_cbrt(Fraction(a1, a2))
        if c is not None:
            return RedundancyData("line+conic", -c, ((0, 0),))
        return RedundancyData("point", None, ((0, 0),))
    return None


# ---------------------------------------------------------------------------
# Preprocessing: merge redundant positive pairs, catch contradictions.


def _lin_congruence(a: int, c: int, m: int):
    """Solutions t of a*t = c (mod m) as (t0, step), or None."""
    a, c = a % m, c % m
    g = math.gcd(a, m)
    if c % g:
        return None
    m2 = m // g
    if m2 == 1:
        return 0, 1
    t0 = (c // g * pow(a // g, -1, m2)) % m2
    return t0, m2


def _branch_slopes(data: RedundancyData) -> list[Fraction]:
    """Slopes m of the correlation lines u1 = m*u2."""
    if data.kind == "line":
        return [data.slope, -data.slope]
    return [-data.slope] if data.kind == "line+conic" else []


def _branch_class(P: PolyAtom, Q: PolyAtom, num: int, den: int) -> ResidueClass | None:
    """The v with u1 = num*v on P's witness lattice and u2 = den*v on Q's, or None."""
    c1 = _lin_congruence(num, P.offset, P.stride)
    c2 = _lin_congruence(den, Q.offset, Q.stride)
    if c1 is None or c2 is None:
        return None
    return crt_extended([ResidueClass(c1[1], c1[0]), ResidueClass(c2[1], c2[0])])


def _merge_line_branch(P: PolyAtom, Q: PolyAtom, num: int, den: int) -> PolyAtom | None:
    """Atom equivalent to P & Q along the branch u1 = (num/den) u2, u2 = den*v."""
    merged = _branch_class(P, Q, num, den)
    if merged is None:
        return None
    vq, v0 = merged.modulus, merged.residue
    # f1(num*v) = a1*x + b1 over v = v0 (mod vq)
    if P.degree == 2:
        w_stride = abs(num) * vq
        w_off = (num * v0) % w_stride
        return _reduce_atom(2, 0, P.a, P.b, w_stride, w_off)
    comp = _taylor_shift([0, P.lin * num, 0, num**3], v0, vq)
    if comp[-1] < 0:
        comp = [c if i % 2 == 0 else -c for i, c in enumerate(comp)]
    return depress_ascending(comp, P.a, P.b)


def _common_point_systems(base: ConstraintSystem, P: PolyAtom, Q: PolyAtom, points, note: str):
    """One resolved sat system per distinct x at which P and Q meet in a listed (u1, u2)."""
    out = []
    seen = set()
    for u1, u2 in points:
        if u1 % P.stride != P.offset or u2 % Q.stride != Q.offset:
            continue
        v1 = _atom_value(P, u1)
        if (v1 - P.b) % P.a:
            continue
        x = (v1 - P.b) // P.a
        if x in seen or _atom_value(Q, u2) != Q.a * x + Q.b:
            continue
        seen.add(x)
        cand = base.clone()
        if system_holds(cand, x):
            cand.resolved = Verdict.sat(cand.to_original(x))
            cand.resolved_points = (x,)
            cand.log(note)
            out.append(cand)
    return out


def _redundant_pair_systems(system: ConstraintSystem, P: PolyAtom, Q: PolyAtom, data: RedundancyData):
    """Split the system on the witness correlation of two positive atoms."""
    out = []
    base = system.clone()
    base.positives = [a for a in system.positives if a is not P and a is not Q]
    for m in _branch_slopes(data):
        branch = base.clone()
        atom = _merge_line_branch(P, Q, m.numerator, m.denominator)
        if atom is None:
            continue
        branch.positives.append(atom)
        branch.log(f"poly-redundant:merge:{P.degree}")
        out.append(branch)
    note = "poly-redundant:point-only" if data.kind == "point" else "poly-redundant:conic-point"
    return out + _common_point_systems(base, P, Q, data.points, note)


def _branch_residues(P: PolyAtom, Q: PolyAtom, data: RedundancyData):
    """u1-residue classes (mod L) covered by the correlation branches."""
    classes = []
    for m in _branch_slopes(data):
        merged = _branch_class(P, Q, m.numerator, m.denominator)
        if merged is not None:
            classes.append((m.numerator * merged.residue, abs(m.numerator) * merged.modulus))
    return classes


def preprocess_poly(system: ConstraintSystem) -> list[ConstraintSystem]:
    """Merge redundant positive pairs and catch contradictions.

    Negative atoms redundant with a positive one are left for pointwise
    filtering unless the correlation provably covers the positive's whole
    witness lattice, in which case the system collapses to finitely many
    candidate points (or to nothing).
    """
    if system.resolved is not None:
        return [system]
    for neg in system.negatives:
        if neg in system.positives:
            system.log("poly:direct-contradiction")
            return []

    for i, P in enumerate(system.positives):
        for Q in system.positives[i + 1 :]:
            data = poly_redundant(P, Q)
            if data is None:
                continue
            result = []
            for branch in _redundant_pair_systems(system, P, Q, data):
                result.extend(preprocess_poly(branch))
            return result

    # Positive-vs-negative redundancy: detect full coverage (contradiction
    # up to finitely many points); otherwise pointwise filtering suffices.
    for P in system.positives:
        for Qn in system.negatives:
            data = poly_redundant(P, Qn)
            if data is None or data.kind == "point":
                continue
            classes = _branch_residues(P, Qn, data)
            if not classes:
                continue
            covered = union_classes([(mod, (off % mod,)) for off, mod in classes])
            if union_classes([covered, (P.stride, (P.offset,))]) == covered:
                # The negative rules out every branch witness; only the
                # conic points may survive, and they satisfy the inner
                # predicate, so they are excluded as well.
                system.log("poly-redundant:negative-covers-positive")
                return []
    return [system]


def prepare(system: ConstraintSystem) -> list[ConstraintSystem]:
    """Preprocess one normalized system, once: the systems `decide` takes.

    Atoms of power shape go first (`power_solver.preprocess`); a system
    with any other atom then goes through `preprocess_poly`.  A system
    that either pass refutes stays as a resolved unsat, so its trace
    still names the case that refuted it.
    """
    subs = power_preprocess(system)
    # `power_preprocess` has settled every pair of atoms of power shape,
    # so only a system with another atom has pairs left to merge.
    if subs and system.resolved is None and not all(a.is_power for a in system.positives + system.negatives):
        subs = preprocess_poly(system)
    if not subs:
        system.resolved = Verdict.unsat()
        return [system]
    return subs


# ---------------------------------------------------------------------------
# Positive solution sets.


def _atom_value(atom: PolyAtom, u: int) -> int:
    return u**atom.degree + atom.lin * u


@dataclass(frozen=True)
class CurveCaseData:
    """Derived data for a quadratic/cubic interaction.

    The scaled curve aq*g = (alpha*u + beta)^2 * (gamma*u + delta) gives
    v = ac*u_quad / (alpha*u_cub + beta) with v^2 = ac*(gamma*u_cub + delta);
    x is a degree-6 image of v.  For a second quadratic the same data pairs
    into the Pell equation gamma3*v1^2 - gamma1*v3^2 = ac*(gamma3*delta1 -
    gamma1*delta3).
    """

    split: tuple[int, int, int, int]
    image: tuple[Fraction, ...]       # x as a polynomial in v
    witness: tuple[Fraction, ...]     # u_quad as a polynomial in v
    modulus: int
    residues: tuple[int, ...]
    quad: PolyAtom
    cubic: PolyAtom


def _square_split(c3: int, c1: int, c0: int) -> tuple[int, int, int, int] | None:
    """Integer split c3*u^3 + c1*u + c0 = (alpha*u + beta)^2 (gamma*u + delta), or None.

    For c3 > 0 the cubic has a repeated root exactly when
    4*c1^3 + 27*c3*c0^2 = 0: at rho = -3*c0/(2*c1), or at 0 when
    c1 = c0 = 0.  The roots sum to 0, so the third root is -2*rho, and the
    multiplied-out product certifies the split.
    """
    if 4 * c1**3 + 27 * c3 * c0 * c0:
        return None
    rho = Fraction(-3 * c0, 2 * c1) if c1 else Fraction(0)
    alpha, beta = rho.denominator, -rho.numerator
    gamma, delta = c3 // alpha**2, -2 * beta * c3 // alpha**3
    product = (
        beta * beta * delta,
        2 * alpha * beta * delta + beta * beta * gamma,
        alpha * alpha * delta + 2 * alpha * beta * gamma,
        alpha * alpha * gamma,
    )
    return (alpha, beta, gamma, delta) if product == (c0, c1, 0, c3) else None


def _derive_curve_case(quad: PolyAtom, cubic: PolyAtom) -> CurveCaseData | None:
    """Double-root data for the pair (quadratic, cubic), or None (squarefree).

    The classes of v are the rho with rho^2 = ac*(gamma*u_cub + delta) for
    u_cub on the cubic's lattice, and g(rho) = K*u_quad for u_quad in a
    witness class s of the quadratic, where K = ac^2*gamma and
    g(rho) = alpha*rho^3 + ac*(beta*gamma - alpha*delta)*rho: the union over
    s of two congruences each, at its least period.
    """
    aq, bq = quad.a, quad.b
    ac, bc = cubic.a, cubic.b
    split = _square_split(aq, aq * cubic.lin, ac * bq - aq * bc)
    if split is None:
        return None
    alpha, beta, gamma, delta = split
    # x = (u2^3 + lin*u2 - bc) / ac at u2 = (v^2 + c0) / D.
    c0, D, lin = -ac * delta, ac * gamma, cubic.lin
    image_nums = (c0**3 + lin * c0 * D * D - bc * D**3, 0, 3 * c0 * c0 + lin * D * D, 0, 3 * c0, 0, 1)
    K = ac * ac * gamma
    g = [0, ac * (beta * gamma - alpha * delta), 0, alpha]
    on_cubic = ([-ac * (delta + gamma * cubic.offset), 0, 1], ac * gamma * cubic.stride)
    period, quad_residues = _atom_classes(quad)
    modulus, residues = union_classes(
        [residue_classes([on_cubic, ([-K * s, *g[1:]], K * period)]) for s in quad_residues]
    )
    image = tuple(Fraction(c, ac * D**3) for c in image_nums)
    witness = tuple(Fraction(c, K) for c in g)
    return CurveCaseData(split, image, witness, modulus, residues, quad, cubic)


def _curve_extra_points(data: CurveCaseData) -> tuple[int, ...]:
    """Solutions at the pinch point alpha*u + beta = 0, outside the v-chart."""
    alpha, beta, gamma, delta = data.split
    if (-beta) % alpha:
        return ()
    u2 = -beta // alpha
    if u2 % data.cubic.stride != data.cubic.offset:
        return ()
    v = _atom_value(data.cubic, u2)
    if (v - data.cubic.b) % data.cubic.a:
        return ()
    x = (v - data.cubic.b) // data.cubic.a
    return (x,) if data.quad.holds(x) else ()


def _pair_mixed(quad: PolyAtom, cubic: PolyAtom, options: SolveOptions, label: str) -> SolutionSet:
    data = _derive_curve_case(quad, cubic)
    if data is None:
        return _bounded_curve(cubic, [quad], options, label + ":elliptic:bounded")
    extras = _curve_extra_points(data)
    polys = image_polys(*integer_numerators(data.image), data.modulus, data.residues)
    if not polys and not extras:
        return SolutionSet(label + ":double-root:empty", True)
    return SolutionSet(label + ":double-root-images", True, polys, extras)


def _triple_4c(quad1: PolyAtom, cubic: PolyAtom, quad3: PolyAtom, label: str) -> SolutionSet | None:
    """One cubic against two quadratics: the derived Pell structure, or None."""
    d1 = _derive_curve_case(quad1, cubic)
    d3 = _derive_curve_case(quad3, cubic)
    if d1 is None or d3 is None:
        return None
    ac = cubic.a
    _, _, g1, dl1 = d1.split
    _, _, g3, dl3 = d3.split
    C = ac * (g3 * dl1 - g1 * dl3)
    if C == 0:
        return None

    def holds(x):
        return quad1.holds(x) and quad3.holds(x) and cubic.holds(x)

    extras = tuple(
        x for x in sorted(set(_curve_extra_points(d1)) | set(_curve_extra_points(d3))) if holds(x)
    )
    n4 = g1 * g3
    E = math.isqrt(n4)
    if E * E == n4:
        vals = set(extras)
        for Wp, _ in _square_factor_pairs(E, g3 * C):
            if Wp % g3:
                continue
            x = _peval(d1.image, Wp // g3)
            if x.denominator == 1 and holds(int(x)):
                vals.add(int(x))
        return SolutionSet(label + ":4c-divisor", True, values=tuple(sorted(vals)))
    sols = solve_generalized(n4, g3 * C)
    # W' = g3*v1 must land on residues where v1 passes the pair-1 checks and
    # Z' = v3 on residues passing the pair-3 checks.
    MW, MZ = g3 * d1.modulus, d3.modulus
    w_filter = sorted({(MW, (s * g3 * rho) % MW) for rho in d1.residues for s in (1, -1)})
    z_filter = sorted({(MZ, (s * rho) % MZ) for rho in d3.residues for s in (1, -1)})
    entries = _pell_orbit_entries(sols, w_filter, z_filter, PolyValueMap(d1.image, g3), "w")
    if entries:
        return SolutionSet(label + ":4c-pell", True, tuple(entries), extras)
    if extras:
        return SolutionSet(label + ":4c-extras", True, values=extras)
    searched = sols.classes and w_filter and z_filter
    return SolutionSet(label + (":4c-filtered-empty" if searched else ":4c-empty"), True)


def _triple(atoms, options: SolveOptions) -> SolutionSet:
    """Degrees (2, 2, 3): the derived Pell structure, or else a curve case
    filtered by the other quadratic."""
    q1, q2, cubic = atoms
    sol = _triple_4c(q1, cubic, q2, "poly:triple")
    if sol is not None:
        return sol
    # Prefer the quadratic whose pairing with the cubic is squarefree
    # (a genuinely bounded elliptic enumeration).
    quad, other = (q1, q2) if _derive_curve_case(q1, cubic) is None else (q2, q1)
    mixed = _pair_mixed(quad, cubic, options, "poly:triple")
    return _filter_by_atoms(mixed, [other], options, mixed.case + ":filtered")


# ---------------------------------------------------------------------------
# The exceptional negative case: removing Pell indices in progressions.


def _closed_form_unit(cls) -> tuple[QuadNum, QuadNum, QuadNum]:
    """(eps, Bz1, Bz2) over the squarefree kernel, for the z-component."""
    _, _, B1, B2 = cls.closed_form()
    w0, z0 = cls.fundamental
    eps = QuadNum(Fraction(w0), Fraction(z0), cls.n)
    return eps.reduce_radicand(), B1.reduce_radicand(), B2.reduce_radicand()


def _match_batch(
    s_entry: LrbsEntry,
    sp_entry: LrbsEntry,
    data: CurveCaseData,
) -> IndexSet:
    """Indices k of the S-sequence matched by the discard parametrization."""
    matched = IndexSet.nothing()
    s_cls, sp_cls = s_entry.pell_class, sp_entry.pell_class
    if s_cls is None or sp_cls is None:
        return matched
    dS, _ = squarefree_kernel(s_cls.n)
    d4, _ = squarefree_kernel(sp_cls.n)
    if dS != d4 or dS == 1:
        return matched
    w0, z0 = fundamental(dS)
    epsD = QuadNum(Fraction(w0), Fraction(z0), dS)
    epsS, B1, B2 = _closed_form_unit(s_cls)
    eps4, Bp1, Bp2 = _closed_form_unit(sp_cls)
    eS = unit_exponent(epsS, epsD)
    e4 = unit_exponent(eps4, epsD)
    if not eS or not e4 or eS < 0 or e4 < 0:
        return matched
    # u_quad = phi(v3_m) = C3 eps^{3m} + C1 eps^{m} + C-1 eps^{-m} + C-3 eps^{-3m}
    C3 = Bp1 * Bp1 * Bp1 * data.witness[3]
    if C3.is_zero():
        return matched
    zseq = s_entry.value_seq
    vseq = sp_entry.value_seq if sp_entry.component == "z" else sp_entry.partner_seq
    for sign in (1, -1):
        for orientation in (1, -1):
            target = C3 * sign
            base = B1 if orientation > 0 else B2
            if base.is_zero():
                continue
            ratio = target * base.inverse()
            c0 = unit_exponent(ratio, epsD)
            if c0 is None:
                continue
            # orientation +: eS*k = 3*e4*m + c0; orientation -: -eS*k = 3*e4*m + c0
            A = eS * orientation
            B = 3 * e4
            g = math.gcd(abs(A), B)
            if c0 % g:
                continue
            sol = _lin_congruence(A, c0, B)
            if sol is None:
                continue
            k0, kstep = sol
            kstep = B // g
            k0 = k0 % kstep
            m0 = (A * k0 - c0) // B
            mstep = A // g
            ok = True
            for t in range(-3, 5):
                k = k0 + kstep * t
                m = m0 + mstep * t
                lhs = Fraction(zseq.eval(k))
                rhs = sign * _peval(data.witness, vseq.eval(m))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                continue
            # Restrict to m-values allowed by the discard set's own filters.
            tset = IndexSet.nothing()
            L = sp_entry.indices.period
            for res in sp_entry.indices.residues:
                sol_t = _lin_congruence(mstep, res - m0, L)
                if sol_t is not None:
                    tset = tset.union(IndexSet.from_residues(sol_t[1], [sol_t[0]]))
            matched = matched.union(tset.map_affine(kstep, k0))
    return matched


def subtract_discarded(S: SolutionSet, discards) -> SolutionSet:
    """Remove from the Pell orbits of S the index progressions matched by each discard dataset.

    `discards` holds (SolutionSet, CurveCaseData) pairs describing the
    solutions of S's pair of quadratics joined with a cubic negative.
    Matches are verified exactly (consecutive-sample identity) before any
    index is removed, so the subtraction never over-approximates.
    """
    new_entries = []
    for entry in S.families:
        idx = entry.indices
        for sp_set, data in discards:
            for sp_entry in sp_set.families:
                matched = _match_batch(entry, sp_entry, data)
                if not matched.is_empty():
                    idx = idx.subtract(matched)
        new_entries.append(replace(entry, indices=idx))
    return replace(S, case=S.case + ":discard-subtracted", families=tuple(new_entries))


def _try_discard_sets(system: ConstraintSystem, quads):
    """(SolutionSet, CurveCaseData) pairs for cubic negatives forming Pell discards."""
    out = []
    for neg in system.negatives:
        if neg.degree != 3:
            continue
        sol = _triple_4c(quads[0], neg, quads[1], "discard")
        if sol is not None and sol.families:
            # The S entries are parametrized by the second quadratic's
            # witness sequence, so the matcher needs that side's data.
            d3 = _derive_curve_case(quads[1], neg)
            if d3 is not None:
                out.append((sol, d3))
    return out


def discard_pell_indices(system: ConstraintSystem, sol: SolutionSet):
    """Remove the Pell indices that a cubic negative rules out of a quadratic pair.

    Returns `sol` unchanged unless its families are Pell orbits
    (`LrbsEntry`) of two positive quadratics next to a cubic negative that
    forms a discard set; then the remaining set, or the verdict when its
    values hold a survivor (sat) or no index is left (unsat).
    """
    if not sol.families or not isinstance(sol.families[0], LrbsEntry) or not system.negatives:
        return sol
    quads = [a for a in system.positives if a.degree == 2]
    if len(quads) != 2:
        return sol
    discards = _try_discard_sets(system, sorted(quads))
    if not discards:
        return sol
    sol = subtract_discarded(sol, discards)
    system.log("discard:index-progressions")
    y = least_witness(_survivors(system, sol.values))
    if y is not None:
        return _verified_sat(system, y)
    if all(e.indices.is_empty() for e in sol.families):
        system.log("discard:all-indices-removed")
        return Verdict.unsat()
    return sol


# The decide core is `power_solver.decide` and its router is
# `power_solver.solve_positive`.  The aliases stay because the benchmark's
# tracer (`perfbench/tracing.py`, `TARGETS`) looks both names up.
decide_poly = decide
solve_positive_poly = solve_positive
