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

`normalize` only rewrites a sentence into a disjunction of constraint
systems of the shape the solvers consume: exactly one lower bound,
positive and negative `PolyAtom`s, and the substitution x = M*y + r of
the conjunct's frame, x = r (mod M) over lo <= x <= hi (`conjunct_frame`;
M < 0 after the sign of y is flipped).  A bounded conjunct also gets an
upper bound and keeps its atoms, for `decide` to scan; every other system
has atoms with positive x-coefficients.  Each predicate literal gets its
`PolyAtom` as it is lowered, and every later stage acts on that atom.  A
power atom (pow k t) is the value set of the monomial u^k, so it lowers
to the same literal as a predicate and becomes the same kind of atom.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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
    PolyAtom,
    PowAtomNode,
    PredAtomNode,
    PredicateDecl,
    Quant,
    Verdict,
)
from .numtheory import kth_root  # unused here; perfbench's tracer test reads formula.kth_root
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
    "conjunct_holds",
    "conjunct_frame",
    "read_sexprs",
]


# ---------------------------------------------------------------------------
# S-expression reading.


class SToken(str):
    """A symbol or parenthesis of the source text, with its offset.

    Positions exist only on the located pass, which reads the text into
    `SToken`s after parsing its plain `str` leaves raised `ParseError`.
    `line` and `col` (1-based) are computed from the offset when read;
    columns count characters, so a tab or a carriage return is one column.
    """

    def __new__(cls, text: str, off: int, src: str):
        tok = super().__new__(cls, text)
        tok.off, tok.src = off, src
        return tok

    @property
    def text(self) -> str:
        return str(self)

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
# A comment, or a character that `str.split` separates at but `_TOKEN` keeps in
# a symbol.  Without these, " \t\r\n" are the only separators, so splitting with
# each parenthesis padded gives `_TOKEN`'s tokens: parentheses and maximal runs.
_SPLIT_UNSAFE = re.compile("[;\v\f\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")


def _plain_tokens(text: str) -> list[str]:
    """`_TOKEN.findall(text)`, by `str.split` where that gives the same list."""
    if _SPLIT_UNSAFE.search(text):
        return _TOKEN.findall(text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def read_sexprs(text: str, located: bool = True) -> list:
    """All top-level s-expressions: nested lists of `SToken` leaves, or of
    plain `str` leaves (no positions, faster to build) with `located=False`,
    split at whitespace when that gives `_TOKEN`'s tokens (see `_SPLIT_UNSAFE`)."""
    tokens = [SToken(m.group(), m.start(), text) for m in _TOKEN.finditer(text)] if located else _plain_tokens(text)
    top: list = []
    current = top
    stack: list[tuple[list, str]] = []  # (enclosing list, its open '(')
    for tok in tokens:
        if tok == "(":
            items: list = []
            current.append(items)
            stack.append((current, tok))
            current = items
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", *_where(tok))
            current = stack.pop()[0]
        elif tok[0] != ";":
            current.append(tok)
    if stack:
        raise ParseError("unclosed '('", *_where(stack[-1][1]))
    return top


def _read_and_parse(text: str, parse_tree, *args):
    """`parse_tree(exprs, *args)` of the s-expressions of `text`, read with plain
    `str` leaves; after a `ParseError`, the located pass reads and parses the
    text again, which raises the same error with its line and column."""
    try:
        return parse_tree(read_sexprs(text, located=False), *args)
    except ParseError:
        return parse_tree(read_sexprs(text), *args)


def _where(node) -> tuple[int | None, int | None]:
    """(line, col) of the first leaf of a node; (None, None) when that leaf
    is a plain `str` or the node is an empty list."""
    while isinstance(node, list):
        if not node:
            return None, None
        node = node[0]
    return (node.line, node.col) if isinstance(node, SToken) else (None, None)


def _expect_symbol(node, what: str) -> str:
    if not isinstance(node, str):
        raise ParseError(f"expected {what}", *_where(node))
    return node


def _parse_int(node) -> int:
    s = _expect_symbol(node, "an integer")
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"expected an integer, got '{s}'", *_where(node)) from None


# ---------------------------------------------------------------------------
# Parsing to the AST.


def _parse_term(node, var: str) -> LinTerm:
    return LinTerm(*_term_pair(node, var))


def _term_pair(node, var: str) -> tuple[int, int]:
    """(a, b) of the term a*x + b."""
    if isinstance(node, str):
        if node == var:
            return 1, 0
        try:
            return 0, int(node)
        except ValueError:
            raise ParseError(
                f"unknown symbol '{node}' in term (the bound variable is '{var}')",
                *_where(node),
            ) from None
    if not node:
        raise ParseError("empty term")
    head = _expect_symbol(node[0], "a term operator")
    args = node[1:]
    if head == "+":
        if not args:
            raise ParseError("(+) needs arguments", *_where(node[0]))
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
        raise ParseError("(-) takes one or two arguments", *_where(node[0]))
    if head == "*":
        if len(args) != 2:
            raise ParseError("(*) takes an integer and a term", *_where(node[0]))
        c = _parse_int(args[0])
        a, b = _term_pair(args[1], var)
        return c * a, c * b
    raise ParseError(f"unknown term operator '{head}'", *_where(node[0]))


def _parse_body(node, var: str, decls: dict[str, PredicateDecl]):
    if isinstance(node, str):
        raise ParseError(f"expected a formula, got '{node}'", *_where(node))
    if not node:
        raise ParseError("empty formula")
    head = _expect_symbol(node[0], "a connective or atom")
    args = node[1:]
    if head in ("and", "or"):
        if not args:
            raise ParseError(f"({head}) needs arguments", *_where(node[0]))
        parts = tuple(_parse_body(a, var, decls) for a in args)
        return And(parts) if head == "and" else Or(parts)
    if head == "not":
        if len(args) != 1:
            raise ParseError("(not) takes one argument", *_where(node[0]))
        return Not(_parse_body(args[0], var, decls))
    if head in ("=", "<", ">"):
        if len(args) != 2:
            raise ParseError(f"({head}) takes two terms", *_where(node[0]))
        return Cmp(head, _parse_term(args[0], var), _parse_term(args[1], var))
    if head == "mod":
        if len(args) != 3:
            raise ParseError("(mod) takes a term, a modulus, and a residue", *_where(node[0]))
        term = _parse_term(args[0], var)
        m = _parse_int(args[1])
        r = _parse_int(args[2])
        if m < 2:
            raise ParseError(f"modulus must be >= 2, got {m}", *_where(args[1]))
        return ModAtomNode(term, m, r % m)
    if head == "pow":
        if len(args) != 2:
            raise ParseError("(pow) takes an exponent and a term", *_where(node[0]))
        k = _parse_int(args[0])
        if k < 2:
            raise ParseError(f"power exponent must be >= 2, got {k}", *_where(args[0]))
        return PowAtomNode(k, _parse_term(args[1], var))
    if head == "pred":
        if len(args) != 2:
            raise ParseError("(pred) takes a name and a term", *_where(node[0]))
        name = _expect_symbol(args[0], "a predicate name")
        if name not in decls:
            raise ParseError(f"unknown predicate '{name}'", *_where(args[0]))
        return PredAtomNode(name, _parse_term(args[1], var))
    raise ParseError(f"unknown form '{head}'", *_where(node[0]))


def parse(text: str) -> Formula:
    """Parse declarations followed by exactly one sentence.

    Positions exist only on the located pass, which runs after a `ParseError` (see `SToken`).
    """
    return _read_and_parse(text, _parse_formulas, False)[0]


def parse_multi(text: str) -> list[Formula]:
    """Declarations and any number of sentences; each sentence sees the declarations before it."""
    return _read_and_parse(text, _parse_formulas, True)


def _parse_formulas(exprs: list, multi: bool) -> list[Formula]:
    if not exprs:
        raise ParseError("no sentence found")
    decls: dict[str, PredicateDecl] = {}
    out = []
    for i, e in enumerate(exprs):
        if isinstance(e, list) and e and e[0] == "declare-pred":
            decl = _parse_decl(e)
            decls[decl.name] = decl
            continue
        if not multi and i + 1 < len(exprs):
            raise ParseError("more than one sentence; use --multi for batches", *_where(exprs[i + 1]))
        out.append(Formula(tuple(decls.values()), _parse_sentence(e, decls)))
    if not out:
        raise ParseError("no sentence found" if multi else "no sentence found after declarations")
    return out


def _parse_decl(e: list) -> PredicateDecl:
    """(declare-pred NAME (coeffs c_d ... c_0)), each c_i read as integers p/q
    (q = 1 without a slash).  With L = lcm(q), the gcd of L and all p*L/q is L
    over the least common denominator; dividing by it gives (nums, den)."""
    if len(e) != 3:
        raise ParseError("(declare-pred NAME (coeffs ...))", *_where(e[0]))
    name = _expect_symbol(e[1], "a predicate name")
    spec = e[2]
    if (
        not isinstance(spec, list)
        or not spec
        or _expect_symbol(spec[0], "coeffs") != "coeffs"
        or len(spec) < 2
    ):
        raise ParseError("expected (coeffs c_d ... c_0)", *_where(spec))
    nums, dens = [], []
    for c in spec[1:]:
        p, slash, q = _expect_symbol(c, "a rational").partition("/")
        try:
            nums.append(int(p))
            dens.append(int(q) if slash else 1)
        except ValueError:
            dens.append(0)  # raises below, as 1/0 does
        if not dens[-1]:  # the leftmost bad token is reported
            raise ParseError(f"expected a rational, got '{c}'", *_where(c))
    den = math.lcm(*dens)  # a negative q flips its numerator's sign in den // q
    nums = [p * (den // q) for p, q in zip(nums, dens)]
    g = math.gcd(den, *nums)
    try:
        return PredicateDecl(name, nums=[n // g for n in reversed(nums)], den=den // g)
    except ParseError as exc:  # a check of the declared polynomial, which has no position
        raise ParseError(str(exc), *_where(e[0])) from None


def _parse_sentence(node, decls) -> Quant:
    if isinstance(node, str):
        raise ParseError("expected (exists x ...) or (forall x ...)", *_where(node))
    if len(node) != 3:
        raise ParseError("a sentence is (exists VAR BODY) or (forall VAR BODY)", *_where(node))
    kind = _expect_symbol(node[0], "a quantifier")
    if kind not in ("exists", "forall"):
        raise ParseError(f"expected exists/forall, got '{kind}'", *_where(node[0]))
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
#
# A conjunct is a list of literals over x:
#     ("eq", c), ("lt", c), ("gt", c)   x = c, x < c, x > c
#     ("mod", m, r)                     x = r (mod m)
#     ("pred", sign, atom)              the PolyAtom holds at x (sign 1) or fails (sign -1)
# and a disjunctive form is a list of conjuncts: [] is false, [[]] is true.


@dataclass
class NormalForm:
    """The DNF conjuncts of a sentence, literal lists over x, and their
    systems: `systems_of(i)` builds conjunct i's at its first call (one
    bounded or open system, or the two sign halves), and `systems` is
    every conjunct's.  For forall sentences the body was
    negated first: the sentence is true iff no system is satisfiable
    (`negated` records this).
    """

    negated: bool
    conjuncts: list
    _built: dict = field(default_factory=dict, repr=False)

    def systems_of(self, i: int) -> list[ConstraintSystem]:
        if i not in self._built:
            self._built[i] = _build_systems(self.conjuncts[i])
        return self._built[i]

    @property
    def systems(self) -> list[ConstraintSystem]:
        return [s for i in range(len(self.conjuncts)) for s in self.systems_of(i)]


def _lit_holds(lit, x: int) -> bool:
    tag = lit[0]
    if tag == "pred":
        return lit[2].holds(x) == (lit[1] > 0)
    if tag == "mod":
        return x % lit[1] == lit[2]
    return x == lit[1] if tag == "eq" else x > lit[1] if tag == "gt" else x < lit[1]


def conjunct_holds(conj, x: int) -> bool:
    """Direct evaluation of a conjunct at x; `normalize` puts its atoms last."""
    return all(_lit_holds(l, x) for l in conj)


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _const(flag: bool):
    return [[]] if flag else []


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
    solution = poly_solver._lin_congruence(a, r - b, m)
    if solution is None:
        return _const(not positive)
    y0, m2 = solution
    if m2 == 1:
        return _const(positive)
    if positive:
        return [[("mod", m2, y0)]]
    return [[("mod", m2, (y0 + s) % m2)] for s in range(1, m2)]


def _lower_pred(decl: PredicateDecl, term: LinTerm, positive: bool):
    # f(u) = a*y + b exactly when den*f(u) = den*a*y + den*b, so the atom
    # depresses f's integer numerators against the term scaled by den.  An
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
            asc = poly_solver._flip_u(asc)
        else:
            asc = tuple(-c for c in asc)
            a, b = -a, -b
    return _atom_literal(poly_solver.depress_ascending(asc, a, b), positive)


def _atom_literal(atom: PolyAtom, positive: bool):
    # A constant term (a = 0) is decided here, by the atom at any point.
    if atom.a == 0:
        return _const(atom.holds(0) == positive)
    return [[("pred", 1 if positive else -1, atom)]]


def _lower_atom(node, positive: bool, decls):
    if isinstance(node, Cmp):
        return _lower_cmp(node.op, node.lhs - node.rhs, positive)
    if isinstance(node, ModAtomNode):
        return _lower_mod(node.term, node.modulus, node.residue, positive)
    if isinstance(node, PowAtomNode):
        # The value set of u^k: the same literal as a predicate's.
        atom = poly_solver.depress_ascending((0,) * node.k + (1,), node.term.a, node.term.b)
        return _atom_literal(atom, positive)
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
                    nxt.append(left + right)
                    if len(nxt) > _DNF_CAP:
                        raise ParseError(f"formula expands to more than {_DNF_CAP} disjuncts")
            acc = nxt
        return acc
    return _lower_atom(node, positive, decls)


def conjunct_frame(conj, lo: int | None = None, hi: int | None = None):
    """A conjunct's comparisons and congruences folded into (M, r, lo, hi):
    x = r (mod M), 0 <= r < M, and lo <= x <= hi within the given bounds,
    None for an open side; None when the congruences clash."""
    M, r = 1, 0
    for lit in conj:
        tag = lit[0]
        if tag == "gt" or tag == "eq":
            c = lit[1] + (tag == "gt")
            if lo is None or c > lo:
                lo = c
        if tag == "lt" or tag == "eq":
            c = lit[1] - (tag == "lt")
            if hi is None or c < hi:
                hi = c
        elif tag == "mod":
            # x = r + M*t with M*t = s - r (mod m): the classes meet mod lcm(M, m).
            step = poly_solver._lin_congruence(M, lit[2] - r, lit[1])
            if step is None:
                return None
            r += M * step[0]
            M *= step[1]
    return M, r, lo, hi


def _at(atoms, M: int, r: int):
    """The atom literals at x = M*y + r: each (a, b) -> (a*M, a*r + b), its
    lattice re-reduced; M = -1 is the sign flip y -> -y."""
    if M == 1 and r == 0:
        return atoms
    reduce = poly_solver._reduce_atom
    return [("pred", s, reduce(t.degree, t.lin, t.a * M, t.a * r + t.b, t.stride, t.offset)) for _, s, t in atoms]


def _bounded(sys: ConstraintSystem, atoms, lo: int, hi: int, label: str = "interval:enumerated"):
    """The conjunct lo < y < hi as one bounded system, [] when no integer
    lies between; `decide` scans its points.  Its atoms stay as they are
    and it never goes through `prepare`."""
    if hi - lo <= 1:
        return []
    sys.lower, sys.upper = lo, hi
    for _, sign, atom in atoms:
        (sys.positives if sign > 0 else sys.negatives).append(atom)
    sys.log(label)
    return [sys]


def _build_systems(conj) -> list[ConstraintSystem]:
    frame = conjunct_frame(conj)
    if frame is None:
        return []
    M, r, lo, hi = frame
    sys = ConstraintSystem(substitution=(M, r))
    if M > 1:
        sys.log(f"crt:{M}+{r}")
    atoms = [l for l in conj if l[0] == "pred"]
    # lo <= M*y + r <= hi  <=>  below < y < above.
    below = None if lo is None else _ceil_div(lo - r, M) - 1
    above = None if hi is None else (hi - r) // M + 1
    if below is not None and above is not None:
        label = "equality:substituted" if any(l[0] == "eq" for l in conj) else "interval:enumerated"
        return _bounded(sys, _at(atoms, M, r), below, above, label)
    if below is not None:
        return _assemble(sys, below, _at(atoms, M, r))
    if above is not None:
        sys.substitution = (-M, r)
        sys.log("sign-flip")
        return _assemble(sys, -above, _at(atoms, -M, r))
    if not atoms:
        # Pure congruence talk: satisfiable everywhere it parses.
        sys.resolved = Verdict.sat(power_solver.least_witness((r - M, r)))
        sys.log("unconstrained")
        return [sys]
    # No comparison: the halves y >= 0 and y < 0, the second flipped.
    neg = sys.clone()
    neg.substitution = (-M, r)
    sys.log("case-split:positive")
    neg.log("case-split:negative")
    return _assemble(sys, -1, _at(atoms, M, r)) + _assemble(neg, 0, _at(atoms, -M, r))


def _assemble(sys: ConstraintSystem, lower: int, atoms):
    """Sign handling and redundancy processing under one lower bound."""
    sys.lower = lower

    # Make each atom's x-coefficient positive; collect upper bounds and thresholds.
    uppers: list[int] = []
    thresholds: list[tuple[int, tuple]] = []  # (threshold, literal) for disposable negatives
    kept = []
    for lit in atoms:
        _, sign, atom = lit
        d, a, b, q, r = atom.degree, atom.a, atom.b, atom.stride, atom.offset
        if a > 0:
            kept.append(lit)
        elif d % 2 == 1:
            # f(-u) = -f(u) for the odd depressed f: u -> -u negates a and b.
            kept.append(("pred", sign, PolyAtom(d, atom.lin, -a, -b, q, -r % q)))
        else:
            # u^d >= min(r, q - r)^d on the lattice u = r (mod q); with a < 0
            # that floor on a*y + b is an upper bound on y.
            bound = (min(r, q - r) ** d - b) // a
            if sign > 0:
                uppers.append(bound)
                kept.append(lit)
            else:
                thresholds.append((bound, lit))

    all_lits = kept + [l for _, l in thresholds]
    if uppers:
        return _bounded(sys, all_lits, sys.lower, min(uppers) + 1)

    out = []
    if thresholds:
        T = max(t for t, _ in thresholds)
        if T > sys.lower:
            head = sys.clone()
            head.log("negative-tail:bounded-part")
            out = _bounded(head, all_lits, sys.lower, T + 1)
            sys.lower = T
        sys.log("negative-tail:discharged")

    for _, sign, atom in kept:
        (sys.positives if sign > 0 else sys.negatives).append(atom)

    return out + poly_solver.prepare(sys)


def normalize(f: Formula) -> NormalForm:
    """Rewrite a sentence into solver-ready disjuncts; it takes no options
    and tests no point.

    Performs forall-to-exists negation, then literal rewriting and
    disjunctive normal form, where each predicate or power literal gets
    its `PolyAtom` (a power atom is the monomial u^k) and a constant term
    is decided by that atom.  The rest runs per conjunct, when
    `NormalForm.systems_of` first asks for it: the comparisons and
    congruences fold into one frame (`conjunct_frame`), x = M*y + r over
    the bounds it leaves on y, which maps each atom's (a, b) to
    (a*M, a*r + b); a bounded frame is left as a system lower < y < upper
    for `decide` to scan; sign normalization (the y -> -y flip, which
    negates M, and the two halves y >= 0 and y < 0 when no comparison
    appears, then a positive x-coefficient on every atom); and redundancy
    and similarity processing (`poly_solver.prepare`), the only
    preprocessing an unbounded system gets before `decide`.
    """
    decls = f.decl_map()
    q = f.root
    negated = q.kind == "forall"
    body = Not(q.body) if negated else q.body
    # The atom literals go last, after the cheap tests of `conjunct_holds`.
    return NormalForm(negated, [sorted(c, key=lambda l: l[0] == "pred") for c in _to_dnf(body, True, decls)])
