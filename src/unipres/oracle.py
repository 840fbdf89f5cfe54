"""Brute-force evaluation for differential testing.

Everything here works by direct semantics on the parsed syntax tree (or
on raw solver atoms), deliberately avoiding the normalization and
solution-set machinery it is used to cross-check.  Polynomial membership
inverts the monotone tails of the polynomial by integer bisection; no
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._ast import (
    And,
    Cmp,
    Formula,
    ModAtomNode,
    Not,
    Or,
    PolyAtom,
    PowAtomNode,
    PowerAtom,
    PredAtomNode,
    PredicateDecl,
    Quant,
)
from .numtheory import kth_root

__all__ = ["ScanReport", "eval_at", "scan", "value_set_member", "atom_eval", "AtomSieve"]


def _int_poly(decl: PredicateDecl) -> list[int]:
    asc = decl.ascending()
    lcm = 1
    for c in asc:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in asc], lcm


def _eval_int_poly(cs, u: int) -> int:
    v = 0
    for c in reversed(cs):
        v = v * u + c
    return v


def _bisect_root(cs, lo: int, hi: int, target: int) -> int | None:
    """The integer root of cs(u) = target on a stretch where cs is monotone."""
    flo = _eval_int_poly(cs, lo) - target
    fhi = _eval_int_poly(cs, hi) - target
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fm = _eval_int_poly(cs, mid) - target
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return None


def _solve_poly(cs, target: int) -> list[int]:
    """All integer u with cs(u) = target, for degree <= 3 integer cs."""
    deg = len(cs) - 1
    while deg > 0 and cs[deg] == 0:
        deg -= 1
    if deg == 0:
        return []
    if deg == 1:
        c0, c1 = cs[0], cs[1]
        return [(target - c0) // c1] if (target - c0) % c1 == 0 else []
    if deg == 2:
        c0, c1, c2 = cs[0], cs[1], cs[2]
        disc = c1 * c1 - 4 * c2 * (c0 - target)
        if disc < 0:
            return []
        s = math.isqrt(disc)
        if s * s != disc:
            return []
        out = []
        for sign in (1, -1) if s else (1,):
            num = -c1 + sign * s
            if num % (2 * c2) == 0:
                out.append(num // (2 * c2))
        return sorted(set(out))
    # Cubic: split the line at the (bracketed) critical points, then bisect
    # each monotone stretch.
    c0, c1, c2, c3 = cs[0], cs[1], cs[2], cs[3]
    bound = 2 + max(abs(c0 - target), abs(c1), abs(c2)) // abs(c3)
    cuts = {-bound, bound}
    # Critical points: roots of 3 c3 u^2 + 2 c2 u + c1.
    dd = 4 * c2 * c2 - 12 * c3 * c1
    if dd >= 0:
        s = math.isqrt(dd)
        for num in (-2 * c2 - s, -2 * c2 + s):
            q = num // (6 * c3)
            cuts.update((q - 1, q, q + 1, q + 2))
    grid = sorted(c for c in cuts if -bound <= c <= bound)
    out = set()
    for lo, hi in zip(grid, grid[1:]):
        r = _bisect_root(cs, lo, hi, target)
        if r is not None:
            out.add(r)
    for c in grid:
        if _eval_int_poly(cs, c) == target:
            out.add(c)
    return sorted(out)


def value_set_member(decl: PredicateDecl, v: int) -> tuple[bool, list[int]]:
    """Whether v lies in the predicate's value set, with the witnesses."""
    cs, lcm = _int_poly(decl)
    roots = _solve_poly(cs, v * lcm)
    return bool(roots), roots


def eval_at(f: Formula, x: int) -> bool:
    """Direct truth of the quantifier body at the point x."""
    decls = f.decl_map()
    body = f.root.body if isinstance(f.root, Quant) else f.root

    def ev(node) -> bool:
        if isinstance(node, And):
            return all(ev(a) for a in node.args)
        if isinstance(node, Or):
            return any(ev(a) for a in node.args)
        if isinstance(node, Not):
            return not ev(node.arg)
        if isinstance(node, Cmp):
            l, r = node.lhs.eval(x), node.rhs.eval(x)
            return l == r if node.op == "=" else (l < r if node.op == "<" else l > r)
        if isinstance(node, ModAtomNode):
            return node.term.eval(x) % node.modulus == node.residue
        if isinstance(node, PowAtomNode):
            return kth_root(node.term.eval(x), node.k) is not None
        if isinstance(node, PredAtomNode):
            return value_set_member(decls[node.name], node.term.eval(x))[0]
        raise TypeError(f"cannot evaluate {node!r}")

    return ev(body)


@dataclass(frozen=True)
class ScanReport:
    bound: int
    witnesses: tuple[int, ...]
    exhaustive: bool


def scan(f: Formula, bound: int, witness_cap: int = 10_000) -> ScanReport:
    """Evaluate all |x| <= bound; witnesses sorted and capped."""
    if bound < 0:
        raise ValueError("need bound >= 0")
    hits = []
    truncated = False
    for x in range(-bound, bound + 1):
        if eval_at(f, x):
            if len(hits) >= witness_cap:
                truncated = True
                break
            hits.append(x)
    return ScanReport(bound, tuple(hits), not truncated)


# ---------------------------------------------------------------------------
# Direct evaluation of solver-level atoms (for system-level differentials).


def atom_eval(atom, x: int) -> bool:
    """Truth of a solver atom at x, by routes independent of the solvers."""
    if isinstance(atom, PowerAtom):
        return kth_root(atom.a * x + atom.b, atom.k) is not None
    if isinstance(atom, PolyAtom):
        v = atom.a * x + atom.b
        if atom.degree == 2:
            if v < 0:
                return False
            s = math.isqrt(v)
            if s * s != v:
                return False
            return s % atom.stride == atom.offset or (-s) % atom.stride == atom.offset
        if atom.degree == 3:
            roots = _solve_poly([0, atom.lin, 0, 1], v)
        else:
            # u^d = v: no linear part above degree 3.
            r = kth_root(v, atom.degree)
            roots = [] if r is None else [r, -r] if atom.degree % 2 == 0 else [r]
        return any(u % atom.stride == atom.offset for u in roots)
    raise TypeError(f"not a solver atom: {atom!r}")


class AtomSieve:
    """Certified modular pre-filter to speed up long scans.

    A point can only satisfy a positive atom if a*x + b hits the atom's
    value set modulo the wheel; residues failing that are rejected without
    any root extraction.
    """

    WHEEL = 2_520  # 2^3 * 3^2 * 5 * 7

    def __init__(self, atom):
        w = self.WHEEL
        if isinstance(atom, PowerAtom):
            values = {pow(u, atom.k, w) for u in range(w)}
        else:
            values = set()
            for u in range(w):
                t = atom.offset + u * atom.stride
                values.add((pow(t, atom.degree, w) + atom.lin * t) % w)
        self.ok = bytearray(w)
        for xr in range(w):
            if (atom.a * xr + atom.b) % w in values:
                self.ok[xr] = 1

    def may_hold(self, x: int) -> bool:
        return bool(self.ok[x % self.WHEEL])
