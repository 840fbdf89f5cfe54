"""Exact reference semantics for the benchmark's own sentence structure.

Nothing here imports the program under test: terms, powers and
polynomial value sets are evaluated with plain integer arithmetic on the
structures built by `corpus.py`, so a verdict is checked against
semantics that share no code with the solver.

- `holds(sentence, x)`: truth of the quantifier body at x.
- `truth_set(sentence, bound)`: every |x| <= bound where the body holds,
  found by enumerating the roots of each atom rather than by testing x
  point by point.
- `refutes(sentence, status, witness, bound)`: whether a verdict is
  contradicted.
"""

from __future__ import annotations

import math
from fractions import Fraction


def floor_root(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n, for n >= 0 (bisection on the bit length)."""
    if n < 2:
        return n
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def is_power(t: int, k: int) -> bool:
    """Whether t = r**k for some integer r."""
    if t < 0:
        return k % 2 == 1 and is_power(-t, k)
    return floor_root(t, k) ** k == t


def _int_coeffs(coeffs) -> tuple[int, list[int]]:
    """(D, g) with D*f = g, g integer, coefficients high to low."""
    d = 1
    for c in coeffs:
        d = d * Fraction(c).denominator // math.gcd(d, Fraction(c).denominator)
    return d, [int(Fraction(c) * d) for c in coeffs]


def _horner(g, u: int) -> int:
    v = 0
    for c in g:
        v = v * u + c
    return v


def _root_radius(g) -> int:
    """Integer R with every real root of g within [-R, R] (Fujiwara's bound)."""
    lead = abs(g[0])
    n = len(g) - 1
    r = 0
    for i in range(1, n + 1):
        c = abs(g[i]) if i < n else -(-abs(g[i]) // 2)
        q = -(-c // lead)  # ceil(c / lead)
        r = max(r, floor_root(q, i) + 1)
    return 2 * r + 1


def poly_roots(g) -> list[int]:
    """All integer roots of the integer polynomial g (high to low, degree <= 3)."""
    while g and g[0] == 0:
        g = g[1:]
    n = len(g) - 1
    if n <= 0:
        if not g or g[0] == 0:
            raise ValueError("the zero polynomial")
        return []
    if n == 1:
        a, b = g
        return [-b // a] if b % a == 0 else []
    if n == 2:
        a, b, c = g
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = math.isqrt(disc)
        if s * s != disc:
            return []
        return sorted({(-b + e * s) // (2 * a) for e in (1, -1) if (-b + e * s) % (2 * a) == 0})
    # Cubic: split at the critical points into monotone stretches, bisect each.
    radius = _root_radius(g)
    a, b, c, _ = g
    cuts = []
    dd = 4 * b * b - 12 * a * c  # discriminant of the derivative 3a u^2 + 2b u + c
    if dd > 0:
        s = math.isqrt(dd)
        cuts = sorted({(-2 * b + e * s) // (6 * a) for e in (1, -1)})
    roots = set()
    # Each true critical point lies within 2 of its cut; the points around a
    # cut are tested directly and the stretches between them are monotone.
    edges = [-radius]
    for q in cuts:
        for u in range(q - 2, q + 3):
            if _horner(g, u) == 0:
                roots.add(u)
        edges += [q - 2, q + 2]
    edges.append(radius)
    for lo, hi in zip(edges[::2], edges[1::2]):
        lo, hi = max(lo, -radius), min(hi, radius)
        if lo > hi:
            continue
        flo, fhi = _horner(g, lo), _horner(g, hi)
        for u, f in ((lo, flo), (hi, fhi)):
            if f == 0:
                roots.add(u)
        if (flo < 0) == (fhi < 0) or flo == 0 or fhi == 0:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fm = _horner(g, mid)
            if fm == 0:
                roots.add(mid)
                break
            if (fm < 0) == (flo < 0):
                lo = mid
            else:
                hi = mid
    return sorted(roots)


def in_value_set(coeffs, v: int) -> bool:
    """Whether v = f(u) for an integer u, f given by coefficients high to low."""
    d, g = _int_coeffs(coeffs)
    g[-1] -= d * v
    if not any(g):
        return True
    return bool(poly_roots(g))


def _eval_term(t, x: int) -> int:
    return t[0] * x + t[1]


def _atom_holds(node, decls, x: int) -> bool:
    tag = node[0]
    if tag == "cmp":
        lhs, rhs = _eval_term(node[2], x), _eval_term(node[3], x)
        return {"<": lhs < rhs, ">": lhs > rhs, "=": lhs == rhs}[node[1]]
    if tag == "mod":
        return (_eval_term(node[1], x) - node[3]) % node[2] == 0
    if tag == "pow":
        return is_power(_eval_term(node[2], x), node[1])
    if tag == "pred":
        return in_value_set(decls[node[1]], _eval_term(node[2], x))
    raise ValueError(f"not an atom: {node!r}")


def _holds(node, decls, x: int) -> bool:
    tag = node[0]
    if tag == "not":
        return not _holds(node[1], decls, x)
    if tag == "and":
        return all(_holds(a, decls, x) for a in node[1])
    if tag == "or":
        return any(_holds(a, decls, x) for a in node[1])
    return _atom_holds(node, decls, x)


def holds(sentence, x: int) -> bool:
    """Truth of the sentence body at x."""
    return _holds(sentence.body, dict(sentence.decls), x)


# ---------------------------------------------------------------------------
# Truth sets over a window, by enumerating atom roots.


def _preimage(values, t, lo: int, hi: int) -> set:
    """{x in [lo, hi] : a*x + b in values} for the term t = (a, b), a != 0."""
    a, b = t
    out = set()
    for v in values:
        if (v - b) % a == 0:
            x = (v - b) // a
            if lo <= x <= hi:
                out.add(x)
    return out


def _term_range(t, lo: int, hi: int) -> tuple[int, int]:
    ends = (_eval_term(t, lo), _eval_term(t, hi))
    return min(ends), max(ends)


def _power_values(k: int, vlo: int, vhi: int):
    top = floor_root(max(abs(vlo), abs(vhi)), k)
    for r in range(top + 1):
        for v in ((r**k, -(r**k)) if k % 2 else (r**k,)):
            if vlo <= v <= vhi:
                yield v


def _pred_values(coeffs, vlo: int, vhi: int):
    d, g = _int_coeffs(coeffs)
    spread = max(abs(vlo), abs(vhi))
    # Every u with f(u) in [vlo, vhi] is a root of g - d*v for some such v.
    widest = list(g)
    widest[-1] = abs(g[-1]) + d * spread
    radius = _root_radius(widest)
    for u in range(-radius, radius + 1):
        val = _horner(g, u)
        if val % d == 0 and vlo <= val // d <= vhi:
            yield val // d


def _atom_set(node, decls, lo: int, hi: int) -> set:
    tag = node[0]
    if tag in ("cmp", "mod"):
        return {x for x in range(lo, hi + 1) if _atom_holds(node, decls, x)}
    t = node[2]
    if t[0] == 0:
        return set(range(lo, hi + 1)) if _atom_holds(node, decls, 0) else set()
    vlo, vhi = _term_range(t, lo, hi)
    if tag == "pow":
        return _preimage(_power_values(node[1], vlo, vhi), t, lo, hi)
    return _preimage(_pred_values(decls[node[1]], vlo, vhi), t, lo, hi)


def _set(node, decls, lo: int, hi: int) -> set:
    tag = node[0]
    if tag == "not":
        return set(range(lo, hi + 1)) - _set(node[1], decls, lo, hi)
    if tag == "and":
        out = _set(node[1][0], decls, lo, hi)
        for a in node[1][1:]:
            if not out:
                break
            out &= _set(a, decls, lo, hi)
        return out
    if tag == "or":
        return set().union(*(_set(a, decls, lo, hi) for a in node[1]))
    return _atom_set(node, decls, lo, hi)


def truth_set(sentence, bound: int) -> set:
    """Every x with |x| <= bound at which the body holds."""
    return _set(sentence.body, dict(sentence.decls), -bound, bound)


def refutes(sentence, status: str, witness, bound: int) -> str | None:
    """Why the verdict is contradicted, or None when it stands.

    exists: sat needs a witness satisfying the body; unsat must survive a
    scan of |x| <= bound.  forall: sat (true) must survive a scan for a
    counterexample; unsat (false) needs a counterexample falsifying the body.
    """
    exists = sentence.kind == "exists"
    if status == "unknown":
        return None
    if exists and status == "sat" or not exists and status == "unsat":
        if witness is None:
            return None if not exists else "sat without a witness"
        if holds(sentence, witness) != exists:
            return f"x={witness} does not {'satisfy' if exists else 'falsify'} the body"
        return None
    if exists:
        hits = truth_set(sentence, bound)
        return f"x={min(hits, key=lambda v: (abs(v), v))} satisfies the body" if hits else None
    misses = set(range(-bound, bound + 1)) - truth_set(sentence, bound)
    return f"x={min(misses, key=lambda v: (abs(v), v))} falsifies the body" if misses else None


def poly_eval(monomials, point) -> int:
    total = 0
    for expo, c in monomials:
        term = c
        for v, e in zip(point, expo):
            term *= v**e
        total += term
    return total


def refutes_encoding(case, raw) -> str | None:
    """Check an encoder op against the benchmark's own polynomial.

    The parsed polynomial must equal the generated one; the equivalence
    check must pass and cover the whole grid over the variables h uses; a
    reported counterexample must be a grid point.
    """
    _, nvars, monomials, passed, counterexample, checked = raw
    used = max((i + 1 for e, _ in case.monomials for i, p in enumerate(e) if p), default=1)
    want = {tuple(e[:used]): c for e, c in case.monomials}
    got = {tuple(e[:used]) + (0,) * (used - len(e)): c for e, c in monomials}
    if nvars != used or want != got:
        return "parsed polynomial differs from the generated one"
    if not passed:
        return f"encoding disagrees with h = 0 at {counterexample}"
    if checked != (2 * case.grid + 1) ** used:
        return f"checked {checked} points, grid has {(2 * case.grid + 1) ** used}"
    return None
