"""Parsing, printing, and normalization of single-variable sentences.

The surface syntax is s-expressions.  A token is "(", ")" or a symbol: a
run of characters other than space, tab, CR, LF, "(", ")" and ";".  A ";"
starts a comment that runs to the end of the line.

    INPUT    := DECL* SENTENCE         (`parse`; `parse_multi` takes DECLs
                                        and SENTENCEs in any order)
    DECL     := (declare-pred NAME (coeffs RAT+))
    SENTENCE := (exists VAR BODY) | (forall VAR BODY)
    BODY     := (and BODY+) | (or BODY+) | (not BODY)
              | (= TERM TERM) | (< TERM TERM) | (> TERM TERM)
              | (mod TERM M R)         TERM = R (mod M); integers M >= 2 and R
              | (pow K TERM)           TERM = u^K for an integer u; K >= 2
              | (pred NAME TERM)       TERM = f(u) for an integer u, f declared as NAME
    TERM     := VAR | INT | (+ TERM+) | (- TERM) | (- TERM TERM) | (* INT TERM)
    RAT      := INT | INT/INT

A declaration lists the coefficients c_d ... c_0 of f(u) = c_d u^d + ... +
c_0, with d <= 3, c_d != 0 and f integer-valued; a sentence sees the
declarations before it.

`normalize` rewrites a sentence into a disjunction of constraint systems
of the shape the solvers consume: exactly one lower bound, positive and
negative `PolyAtom`s with positive x-coefficients, modular constraints
folded into an affine substitution x = +-(M*y + r).  A power atom
(pow k t) is the value set of the monomial u^k, so it lowers to the same
literal as a predicate and becomes the same kind of atom.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from ._ast import (
    And,
    Cmp,
    ConstraintSystem,
    Formula,
    LinTerm,
    ModAtomNode,
    Not,
    Or,
    ParseError,
    PowAtomNode,
    PredAtomNode,
    PredicateDecl,
    Quant,
    Verdict,
)
from .numtheory import ResidueClass, crt_extended, kth_root
from . import poly_solver, power_solver

__all__ = [
    "ParseError",
    "Formula",
    "PredicateDecl",
    "LinTerm",
    "Cmp",
    "ModAtomNode",
    "PowAtomNode",
    "PredAtomNode",
    "Not",
    "And",
    "Or",
    "Quant",
    "ConstraintSystem",
    "NormalForm",
    "parse",
    "format_formula",
    "normalize",
    "read_sexprs",
]


# ---------------------------------------------------------------------------
# S-expression reading.


class SToken:
    """A symbol or parenthesis of the source text, with its offset.

    `line` and `col` (both 1-based) are computed from the offset only when
    they are read, which is when an error message needs them.  Columns
    count characters, so a tab or a carriage return is one column.
    """

    __slots__ = ("text", "off", "src")

    def __init__(self, text: str, off: int, src: str):
        self.text = text
        self.off = off
        self.src = src

    @property
    def line(self) -> int:
        return self.src.count("\n", 0, self.off) + 1

    @property
    def col(self) -> int:
        return self.off - self.src.rfind("\n", 0, self.off)

    def __repr__(self) -> str:
        return f"SToken({self.text!r}, {self.line}:{self.col})"


# A parenthesis, a symbol, or a comment; the separators " \t\r\n" match none.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def read_sexprs(text: str) -> list:
    """All top-level s-expressions; nested lists of SToken leaves."""
    top: list = []
    current = top
    stack: list[tuple[list, int]] = []  # (enclosing list, offset of the open '(')
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            items: list = []
            current.append(items)
            stack.append((current, m.start()))
            current = items
        elif tok == ")":
            if not stack:
                where = SToken(tok, m.start(), text)
                raise ParseError("unexpected ')'", where.line, where.col)
            current = stack.pop()[0]
        elif tok[0] != ";":
            current.append(SToken(tok, m.start(), text))
    if stack:
        where = SToken("(", stack[-1][1], text)
        raise ParseError("unclosed '('", where.line, where.col)
    return top


def _pos(node) -> tuple[int | None, int | None]:
    while isinstance(node, list):
        if not node:
            return None, None
        node = node[0]
    return node.line, node.col


def _expect_symbol(node, what: str) -> str:
    if not isinstance(node, SToken):
        raise ParseError(f"expected {what}", *_pos(node))
    return node.text


def _parse_int(node) -> int:
    s = _expect_symbol(node, "an integer")
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"expected an integer, got '{s}'", node.line, node.col) from None


def _parse_rational(node) -> Fraction:
    s = _expect_symbol(node, "a rational")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational, got '{s}'", node.line, node.col) from None


# ---------------------------------------------------------------------------
# Parsing to the AST.


def _parse_term(node, var: str) -> LinTerm:
    return LinTerm(*_term_pair(node, var))


def _term_pair(node, var: str) -> tuple[int, int]:
    """(a, b) of the term a*x + b."""
    if isinstance(node, SToken):
        if node.text == var:
            return 1, 0
        try:
            return 0, int(node.text)
        except ValueError:
            raise ParseError(
                f"unknown symbol '{node.text}' in term (the bound variable is '{var}')",
                node.line,
                node.col,
            ) from None
    if not node:
        raise ParseError("empty term")
    head = _expect_symbol(node[0], "a term operator")
    args = node[1:]
    if head == "+":
        if not args:
            raise ParseError("(+) needs arguments", node[0].line, node[0].col)
        a = b = 0
        for arg in args:
            da, db = _term_pair(arg, var)
            a += da
            b += db
        return a, b
    if head == "-":
        if len(args) == 1:
            a, b = _term_pair(args[0], var)
            return -a, -b
        if len(args) == 2:
            a, b = _term_pair(args[0], var)
            da, db = _term_pair(args[1], var)
            return a - da, b - db
        raise ParseError("(-) takes one or two arguments", node[0].line, node[0].col)
    if head == "*":
        if len(args) != 2:
            raise ParseError("(*) takes an integer and a term", node[0].line, node[0].col)
        c = _parse_int(args[0])
        a, b = _term_pair(args[1], var)
        return c * a, c * b
    raise ParseError(f"unknown term operator '{head}'", node[0].line, node[0].col)


def _parse_body(node, var: str, decls: dict[str, PredicateDecl]):
    if isinstance(node, SToken):
        raise ParseError(f"expected a formula, got '{node.text}'", node.line, node.col)
    if not node:
        raise ParseError("empty formula")
    head = _expect_symbol(node[0], "a connective or atom")
    args = node[1:]
    if head in ("and", "or"):
        if not args:
            raise ParseError(f"({head}) needs arguments", node[0].line, node[0].col)
        parts = tuple(_parse_body(a, var, decls) for a in args)
        return And(parts) if head == "and" else Or(parts)
    if head == "not":
        if len(args) != 1:
            raise ParseError("(not) takes one argument", node[0].line, node[0].col)
        return Not(_parse_body(args[0], var, decls))
    if head in ("=", "<", ">"):
        if len(args) != 2:
            raise ParseError(f"({head}) takes two terms", node[0].line, node[0].col)
        return Cmp(head, _parse_term(args[0], var), _parse_term(args[1], var))
    if head == "mod":
        if len(args) != 3:
            raise ParseError("(mod) takes a term, a modulus, and a residue", node[0].line, node[0].col)
        term = _parse_term(args[0], var)
        m = _parse_int(args[1])
        r = _parse_int(args[2])
        if m < 2:
            raise ParseError(f"modulus must be >= 2, got {m}", *_pos(args[1]))
        return ModAtomNode(term, m, r % m)
    if head == "pow":
        if len(args) != 2:
            raise ParseError("(pow) takes an exponent and a term", node[0].line, node[0].col)
        k = _parse_int(args[0])
        if k < 2:
            raise ParseError(f"power exponent must be >= 2, got {k}", *_pos(args[0]))
        return PowAtomNode(k, _parse_term(args[1], var))
    if head == "pred":
        if len(args) != 2:
            raise ParseError("(pred) takes a name and a term", node[0].line, node[0].col)
        name = _expect_symbol(args[0], "a predicate name")
        if name not in decls:
            raise ParseError(f"unknown predicate '{name}'", args[0].line, args[0].col)
        return PredAtomNode(name, _parse_term(args[1], var))
    raise ParseError(f"unknown form '{head}'", node[0].line, node[0].col)


def parse(text: str) -> Formula:
    """Parse declarations followed by exactly one sentence."""
    return _parse_formulas(text, multi=False)[0]


def parse_multi(text: str) -> list[Formula]:
    """Declarations and any number of sentences; each sentence sees the declarations before it."""
    return _parse_formulas(text, multi=True)


def _parse_formulas(text: str, multi: bool) -> list[Formula]:
    exprs = read_sexprs(text)
    if not exprs:
        raise ParseError("no sentence found")
    decls: dict[str, PredicateDecl] = {}
    out = []
    for i, e in enumerate(exprs):
        if isinstance(e, list) and e and isinstance(e[0], SToken) and e[0].text == "declare-pred":
            decl = _parse_decl(e)
            decls[decl.name] = decl
            continue
        if not multi and i + 1 < len(exprs):
            raise ParseError("more than one sentence; use --multi for batches", *_pos(exprs[i + 1]))
        out.append(Formula(tuple(decls.values()), _parse_sentence(e, decls)))
    if not out:
        raise ParseError("no sentence found" if multi else "no sentence found after declarations")
    return out


def _parse_decl(e: list) -> PredicateDecl:
    if len(e) != 3:
        raise ParseError("(declare-pred NAME (coeffs ...))", e[0].line, e[0].col)
    name = _expect_symbol(e[1], "a predicate name")
    spec = e[2]
    if (
        not isinstance(spec, list)
        or not spec
        or _expect_symbol(spec[0], "coeffs") != "coeffs"
        or len(spec) < 2
    ):
        raise ParseError("expected (coeffs c_d ... c_0)", *_pos(spec))
    return PredicateDecl(name, tuple(_parse_rational(c) for c in spec[1:]))


def _parse_sentence(node, decls) -> Quant:
    if isinstance(node, SToken):
        raise ParseError("expected (exists x ...) or (forall x ...)", node.line, node.col)
    if len(node) != 3:
        raise ParseError("a sentence is (exists VAR BODY) or (forall VAR BODY)", *_pos(node))
    kind = _expect_symbol(node[0], "a quantifier")
    if kind not in ("exists", "forall"):
        raise ParseError(f"expected exists/forall, got '{kind}'", node[0].line, node[0].col)
    var = _expect_symbol(node[1], "a variable name")
    body = _parse_body(node[2], var, decls)
    return Quant(kind, var, body)


# ---------------------------------------------------------------------------
# Printing (canonical; print . parse is the identity on parsed trees).


def _format_term(t: LinTerm, var: str) -> str:
    if t.a == 0:
        return str(t.b)
    ax = var if t.a == 1 else f"(* {t.a} {var})"
    if t.b == 0:
        return ax
    return f"(+ {ax} {t.b})"


def _format_body(node, var: str) -> str:
    if isinstance(node, And):
        return "(and " + " ".join(_format_body(a, var) for a in node.args) + ")"
    if isinstance(node, Or):
        return "(or " + " ".join(_format_body(a, var) for a in node.args) + ")"
    if isinstance(node, Not):
        return f"(not {_format_body(node.arg, var)})"
    if isinstance(node, Cmp):
        return f"({node.op} {_format_term(node.lhs, var)} {_format_term(node.rhs, var)})"
    if isinstance(node, ModAtomNode):
        return f"(mod {_format_term(node.term, var)} {node.modulus} {node.residue})"
    if isinstance(node, PowAtomNode):
        return f"(pow {node.k} {_format_term(node.term, var)})"
    if isinstance(node, PredAtomNode):
        return f"(pred {node.name} {_format_term(node.term, var)})"
    raise TypeError(f"not a formula node: {node!r}")


def format_formula(f: Formula) -> str:
    lines = []
    for d in f.decls:
        cs = " ".join(str(c) for c in d.coeffs)
        lines.append(f"(declare-pred {d.name} (coeffs {cs}))")
    q = f.root
    lines.append(f"({q.kind} {q.var} {_format_body(q.body, q.var)})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Normalization.


@dataclass
class NormalForm:
    """Disjuncts whose joint satisfiability decides the sentence.

    For forall sentences the body was negated first: the sentence is true
    iff no system is satisfiable (`negated` records this).
    """

    negated: bool
    systems: list

    def __iter__(self):
        return iter(self.systems)


_TRUE = ("true",)
_FALSE = ("false",)


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _const(flag: bool):
    return [[_TRUE]] if flag else [[_FALSE]]


def _lower_eq(a: int, b: int, positive: bool):
    # a*y + b = 0
    if a == 0:
        return _const((b == 0) == positive)
    if (-b) % a != 0:
        return _const(not positive)
    c = (-b) // a
    if positive:
        return [[("eq", c)]]
    return [[("lt", c)], [("gt", c)]]


def _lower_gt(a: int, b: int):
    # a*y + b > 0, a != 0
    if a > 0:
        return [[("gt", _ceil_div(1 - b, a) - 1)]]
    return [[("lt", (b - 1) // (-a) + 1)]]


def _lower_cmp(op: str, diff: LinTerm, positive: bool):
    a, b = diff.a, diff.b
    if op == "=":
        return _lower_eq(a, b, positive)
    if op == "<":
        a, b = -a, -b
        op = ">"
    # now op == ">": positive: a*y+b > 0; negative: -(a*y+b) + 1 > 0
    if not positive:
        a, b = -a, -b + 1
    if a == 0:
        return _const(b > 0)
    return _lower_gt(a, b)


def _lower_mod(term: LinTerm, m: int, r: int, positive: bool):
    a, b = term.a, term.b
    if a == 0:
        return _const(((b - r) % m == 0) == positive)
    c = (r - b) % m
    if a < 0:
        a, c = -a, (-c) % m
    g = math.gcd(a, m)
    if c % g != 0:
        return _const(not positive)
    m2 = m // g
    if m2 == 1:
        return _const(positive)
    y0 = (c // g * pow(a // g, -1, m2)) % m2
    if positive:
        return [[("mod", m2, y0)]]
    return [[("mod", m2, (y0 + s) % m2)] for s in range(1, m2)]


def _flip_u(asc: tuple[int, ...]) -> tuple[int, ...]:
    # u -> -u: same value set for odd degree; fixes a negative leading coefficient
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(asc))


def _lower_pred(decl: PredicateDecl, term: LinTerm, positive: bool):
    # f(u) = a*y + b exactly when den*f(u) = den*a*y + den*b, so the literal
    # carries f's integer numerators and the term scaled by den.  An
    # integer-valued f of degree <= 1 has integer coefficients: den == 1.
    asc, den = decl.nums, decl.den
    d = decl.degree
    if d == 0:
        return _lower_cmp("=", LinTerm(term.a, term.b - asc[0]), positive)
    if d == 1:
        c1, c0 = asc[1], asc[0]
        if abs(c1) == 1:
            return _const(positive)
        return _lower_mod(term, abs(c1), c0 % abs(c1), positive)
    a, b = den * term.a, den * term.b
    if asc[-1] < 0:
        if d == 3:
            asc = _flip_u(asc)
        else:
            asc = tuple(-c for c in asc)
            a, b = -a, -b
    if a == 0:
        return _const(_scaled_value_set_contains(asc, b) == positive)
    sign = 1 if positive else -1
    return [[("pred", sign, asc, a, b, decl.name)]]


def _scaled_value_set_contains(asc: tuple[int, ...], v: int) -> bool:
    """Whether asc(u) = v for some integer u; asc has degree 2 or 3 and a positive lead."""
    return poly_solver.depress_ascending(asc, 1, 0).holds(v)


def _lower_atom(node, positive: bool, decls):
    if isinstance(node, Cmp):
        return _lower_cmp(node.op, node.lhs - node.rhs, positive)
    if isinstance(node, ModAtomNode):
        return _lower_mod(node.term, node.modulus, node.residue, positive)
    if isinstance(node, PowAtomNode):
        a, b = node.term.a, node.term.b
        if a == 0:
            return _const((kth_root(b, node.k) is not None) == positive)
        # The value set of u^k: a predicate literal with no name.
        return [[("pred", 1 if positive else -1, (0,) * node.k + (1,), a, b, None)]]
    if isinstance(node, PredAtomNode):
        return _lower_pred(decls[node.name], node.term, positive)
    raise TypeError(f"not an atom: {node!r}")


_DNF_CAP = 50_000


def _to_dnf(node, positive: bool, decls):
    if isinstance(node, Not):
        return _to_dnf(node.arg, not positive, decls)
    if isinstance(node, (And, Or)):
        conjunctive = isinstance(node, And) == positive
        parts = [_to_dnf(a, positive, decls) for a in node.args]
        if not conjunctive:
            return [c for p in parts for c in p]
        acc = [[]]
        for p in parts:
            nxt = []
            for left in acc:
                for right in p:
                    if _FALSE in left or _FALSE in right:
                        continue
                    nxt.append(left + right)
                    if len(nxt) > _DNF_CAP:
                        raise ParseError(f"formula expands to more than {_DNF_CAP} disjuncts")
            acc = nxt
        return acc
    return _lower_atom(node, positive, decls)


# --- direct evaluation of canonical literals (for eager finite checks) ---


def _lit_test(lit):
    """The literal as a test of the point y; an atom is built here, once."""
    tag = lit[0]
    if tag == "lt":
        c = lit[1]
        return lambda y: y < c
    if tag == "gt":
        c = lit[1]
        return lambda y: y > c
    if tag == "pred":
        _, sign, asc, a, b, _name = lit
        atom = poly_solver.depress_ascending(asc, 1, 0)
        return lambda y: atom.holds(a * y + b) == (sign > 0)
    raise ValueError(f"unknown literal {lit!r}")


def _by_magnitude(lo: int, hi: int):
    """The integers y with lo < y < hi in (|y|, y) order."""
    for m in range(max(0, lo + 1, 1 - hi), max(-lo, hi)):
        for y in (-m, m) if m else (0,):
            if lo < y < hi:
                yield y


def _points_satisfying(lits, ys) -> list[int]:
    """The ys at which every literal holds."""
    tests = [_lit_test(lit) for lit in lits]
    return [y for y in ys if all(t(y) for t in tests)]


class _Dropped(Exception):
    """The conjunct is unsatisfiable; contribute nothing."""


def _substitute_lits(lits, M: int, r0: int):
    out = []
    for lit in lits:
        tag = lit[0]
        if tag in ("true", "false"):
            out.append(lit)
        elif tag == "eq":
            c = lit[1]
            if (c - r0) % M != 0:
                raise _Dropped
            out.append(("eq", (c - r0) // M))
        elif tag == "gt":
            out.append(("gt", (lit[1] - r0) // M))
        elif tag == "lt":
            # y' < (c - r0)/M  <=>  y' < ceil((c - r0)/M) adjusted for integrality
            c = lit[1]
            out.append(("lt", _ceil_div(c - r0, M)))
        elif tag == "pred":
            _, sign, asc, a, b, name = lit
            out.append(("pred", sign, asc, a * M, a * r0 + b, name))
        else:  # pragma: no cover
            raise AssertionError(f"unexpected literal {lit!r} after CRT stage")
    return out


def _flip_lits(lits):
    out = []
    for lit in lits:
        tag = lit[0]
        if tag == "gt":
            out.append(("lt", -lit[1]))
        elif tag == "lt":
            out.append(("gt", -lit[1]))
        elif tag == "eq":
            out.append(("eq", -lit[1]))
        elif tag == "pred":
            _, sign, asc, a, b, name = lit
            out.append(("pred", sign, asc, -a, b, name))
        else:
            out.append(lit)
    return out


def _quad_min_value(asc: tuple[int, ...]) -> int:
    # Minimum of c2 u^2 + c1 u + c0 (c2 > 0) over the integers.
    c0, c1, c2 = asc
    lo = (-c1) // (2 * c2)
    return min(c2 * u * u + c1 * u + c0 for u in (lo, lo + 1))


def _finite_check(sys: ConstraintSystem, lits, lo: int, hi: int, enum_bound: int):
    """Resolve a bounded conjunct lo < y < hi by exhaustive evaluation.

    An interval wider than `enum_bound` has only its first `enum_bound`
    points in (|y|, y) order tested; a hit there is still a witness, and
    no hit answers Unknown.
    """
    if hi - lo <= 1:
        raise _Dropped
    wide = hi - lo - 1 > enum_bound
    ys = itertools.islice(_by_magnitude(lo, hi), enum_bound) if wide else range(lo + 1, hi)
    sat_ys = _points_satisfying(lits, ys)
    if not sat_ys and wide:
        sys.resolved = Verdict.unknown("bounded interval wider than the enumeration bound", enum_bound)
        sys.log("interval:too-wide")
        return sys
    if not sat_ys:
        raise _Dropped
    sys.resolved = Verdict.sat(power_solver.least_witness(sys.to_original(y) for y in sat_ys))
    sys.resolved_points = tuple(sat_ys)
    sys.log("interval:enumerated")
    return sys


def _build_systems(conj, enum_bound: int) -> list[ConstraintSystem]:
    sys = ConstraintSystem()
    lits = [l for l in conj if l[0] != "true"]
    if any(l[0] == "false" for l in lits):
        return []

    # Fold modular constraints into the substitution x = M*y + r.
    mods = [ResidueClass(l[1], l[2]) for l in lits if l[0] == "mod"]
    lits = [l for l in lits if l[0] != "mod"]
    if mods:
        merged = crt_extended(mods)
        if merged is None:
            return []
        M, r0 = merged.modulus, merged.residue
        sys.substitution = (M, r0)
        sys.log(f"crt:{M}+{r0}")
        try:
            lits = _substitute_lits(lits, M, r0)
        except _Dropped:
            return []

    try:
        # Equality pins the variable: evaluate everything at the point.
        eqs = [l[1] for l in lits if l[0] == "eq"]
        if eqs:
            if len(set(eqs)) > 1:
                raise _Dropped
            y = eqs[0]
            rest = [l for l in lits if l[0] != "eq"]
            if _points_satisfying(rest, (y,)):
                sys.resolved = Verdict.sat(sys.to_original(y))
                sys.resolved_points = (y,)
                sys.log("equality:substituted")
                return [sys]
            raise _Dropped

        gts = [l[1] for l in lits if l[0] == "gt"]
        lts = [l[1] for l in lits if l[0] == "lt"]
        atoms = [l for l in lits if l[0] == "pred"]

        if gts and lts:
            return [_finite_check(sys, atoms, max(gts), min(lts), enum_bound)]
        if lts and not gts:
            sys.sign_flipped = True
            sys.substitution = (sys.substitution[0], -sys.substitution[1])
            sys.log("sign-flip")
            lits = _flip_lits(lits)
            gts = [l[1] for l in lits if l[0] == "gt"]
            atoms = [l for l in lits if l[0] == "pred"]

        if not gts:
            if not atoms:
                # Pure congruence talk: satisfiable everywhere it parses.
                x = power_solver.least_witness(sys.to_original(y) for y in range(-1, 2))
                sys.resolved = Verdict.sat(x)
                sys.resolved_all = True
                sys.log("unconstrained")
                return [sys]
            # No inequality at all: split y < 0, y = 0, y > 0.
            out = []
            zero = sys.clone()
            if _points_satisfying(atoms, (0,)):
                zero.resolved = Verdict.sat(zero.to_original(0))
                zero.resolved_points = (0,)
                zero.log("case-split:zero")
                out.append(zero)
            pos = sys.clone()
            pos.log("case-split:positive")
            try:
                out.extend(_assemble(pos, 0, atoms, enum_bound))
            except _Dropped:
                pass
            neg = sys.clone()
            neg.sign_flipped = not neg.sign_flipped
            neg.substitution = (neg.substitution[0], -neg.substitution[1])
            neg.log("case-split:negative")
            try:
                out.extend(_assemble(neg, 0, _flip_lits(atoms), enum_bound))
            except _Dropped:
                pass
            return out

        return _assemble(sys, max(gts), atoms, enum_bound)
    except _Dropped:
        return []


def _assemble(sys: ConstraintSystem, lower: int, atoms, enum_bound: int):
    """Sign handling, depression, and redundancy processing under one lower bound."""
    sys.lower = lower

    # Fix coefficient signs atom by atom; collect upper bounds and thresholds.
    uppers: list[int] = []
    thresholds: list[tuple[int, tuple]] = []  # (threshold, literal) for disposable negatives
    kept = []
    for lit in atoms:
        _, sign, asc, a, b, name = lit
        if a > 0:
            kept.append(lit)
            continue
        deg = len(asc) - 1
        if deg % 2 == 1:
            kept.append(("pred", sign, _flip_u(tuple(-c for c in asc)), -a, -b, name))
            continue
        vmin = _quad_min_value(asc) if deg == 2 else 0  # u^k for even k >= 4
        bound = (vmin - b) // a  # a < 0: value floor turns into an upper bound
        if sign > 0:
            uppers.append(bound)
            kept.append(lit)
        else:
            thresholds.append((bound, lit))

    if uppers:
        all_lits = kept + [l for _, l in thresholds]
        return [_finite_check(sys, all_lits, sys.lower, min(uppers) + 1, enum_bound)]

    out = []
    if thresholds:
        T = max(t for t, _ in thresholds)
        if T > sys.lower:
            head = sys.clone()
            head.log("negative-tail:bounded-part")
            all_lits = kept + [l for _, l in thresholds]
            try:
                out.append(_finite_check(head, all_lits, sys.lower, T + 1, enum_bound))
            except _Dropped:
                pass
            sys.lower = T
        sys.log("negative-tail:discharged")

    # Depress the atoms and build the solver-facing atom lists.
    for _, sign, asc, a, b, name in kept:
        atom = poly_solver.depress_ascending(asc, a, b)
        if name is not None:
            sys.log(f"depress:{name}")
        (sys.positives if sign > 0 else sys.negatives).append(atom)

    return out + poly_solver.prepare(sys)


def normalize(f: Formula, enum_bound: int = 10**6) -> NormalForm:
    """Rewrite a sentence into solver-ready disjuncts.

    Performs, in order: forall-to-exists negation, literal rewriting and
    disjunctive normal form, modular coalescing by the extended CRT,
    equality substitution and bounded-interval finite checks, sign
    normalization (including the x -> -x flip and the three-way case split
    when no inequality appears), depression of every atom into a
    `PolyAtom` (a power atom is the monomial u^k), and redundancy and
    similarity processing (`poly_solver.prepare`), the only preprocessing
    a system gets before `decide`.
    """
    decls = f.decl_map()
    q = f.root
    negated = q.kind == "forall"
    body = Not(q.body) if negated else q.body
    systems = []
    for conj in _to_dnf(body, True, decls):
        systems.extend(_build_systems(conj, enum_bound))
    return NormalForm(negated, systems)
