"""Seeded workload corpora for the unipres benchmark.

Every case is built from the benchmark's own sentence structure and only
then rendered to the s-expression text the program sees.  The reference
checker in `reference.py` evaluates that structure, never the program's
parse of the text.

Sentence structure (plain tuples, hashable and printable):

    term   (a, b)                      a*x + b
    atom   ("cmp", op, term, term)     op in "<", ">", "="
           ("mod", term, m, r)
           ("pow", k, term)
           ("pred", name, term)
    node   atom | ("not", node) | ("and", (node, ...)) | ("or", (node, ...))

A declaration is (name, coeffs) with coeffs c_d .. c_0 as Fractions.

Size parameters that drive a case's cost (coefficients, moduli, grids)
are drawn from a golden-ratio sequence with a seeded offset rather than
independently, so any prefix of a corpus covers the size range evenly and
two seeds cost nearly the same to run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Sentence:
    decls: tuple          # ((name, (c_d, ..., c_0)), ...)
    kind: str             # "exists" | "forall"
    body: tuple

    def text(self) -> str:
        lines = [f"(declare-pred {n} (coeffs {' '.join(_rat(c) for c in cs)}))" for n, cs in self.decls]
        lines.append(f"({self.kind} x {render(self.body)})")
        return "\n".join(lines)


@dataclass(frozen=True)
class Case:
    """One sentence op.

    `allowed` is a hand-written set of acceptable verdicts for fixed cases
    ("sat", "unsat", "unknown", "parse-error"); None leaves the verdict to
    the reference checker alone.
    """

    name: str
    text: str
    sentence: Sentence | None
    allowed: frozenset | None = None


@dataclass(frozen=True)
class PolyCase:
    """One encoder op: h(x1..xn) = 0 checked on the grid |x_i| <= grid."""

    name: str
    text: str
    nvars: int
    monomials: tuple      # ((exponent tuple, coefficient), ...), no zero coefficients
    grid: int


# ---------------------------------------------------------------------------
# Rendering.


def _rat(c: Fraction) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def render_term(t) -> str:
    a, b = t
    if a == 0:
        return str(b)
    ax = "x" if a == 1 else f"(* {a} x)"
    return ax if b == 0 else f"(+ {ax} {b})"


def render(node) -> str:
    tag = node[0]
    if tag == "cmp":
        return f"({node[1]} {render_term(node[2])} {render_term(node[3])})"
    if tag == "mod":
        return f"(mod {render_term(node[1])} {node[2]} {node[3]})"
    if tag == "pow":
        return f"(pow {node[1]} {render_term(node[2])})"
    if tag == "pred":
        return f"(pred {node[1]} {render_term(node[2])})"
    if tag == "not":
        return f"(not {render(node[1])})"
    if tag in ("and", "or"):
        return f"({tag} " + " ".join(render(a) for a in node[1]) + ")"
    raise ValueError(f"not a sentence node: {node!r}")


def sentence_case(name: str, s: Sentence, allowed=None) -> Case:
    return Case(name, s.text(), s, None if allowed is None else frozenset(allowed))


def _and(*parts):
    return ("and", tuple(parts))


def _gt(c: int):
    return ("cmp", ">", (1, 0), (0, c))


def _sized(offset: float, j: int, lo: float, hi: float) -> int:
    """Log-uniform size in [lo, hi] at the j-th golden-ratio point after offset."""
    u = (offset + j * GOLDEN) % 1.0
    return int(round(lo * (hi / lo) ** u))


# ---------------------------------------------------------------------------
# Fixed cases: the test fixtures and the reproductions of known defects.

T = ("T", (Fraction(1, 2), Fraction(1, 2), Fraction(0)))

FIXTURES = {
    "catalan": sentence_case(
        "fixture:catalan",
        Sentence((), "exists", _and(_gt(8), ("pow", 2, (1, 0)), ("pow", 3, (1, 1)))),
        {"unsat", "unknown"},
    ),
    "fermat": sentence_case(
        "fixture:fermat",
        Sentence((T,), "exists", _and(_gt(1), ("pred", "T", (1, 0)), ("pow", 3, (1, 0)))),
        {"unsat", "unknown"},
    ),
    "fibonacci_cube": sentence_case(
        "fixture:fibonacci_cube",
        Sentence((), "exists", _and(
            ("pow", 2, (1, 0)), _gt(64),
            ("or", (("pow", 2, (5, 4)), ("pow", 2, (5, -4)))),
            ("pow", 6, (1, 0)),
        )),
        {"unsat", "unknown"},
    ),
    "forced_unsat": sentence_case(
        "fixture:forced_unsat",
        Sentence((T,), "exists", _and(("pred", "T", (1, 0)), ("not", ("pred", "T", (1, 0))))),
        {"unsat"},
    ),
    "gessel_sat": sentence_case(
        "fixture:gessel_sat",
        Sentence((), "exists", _and(
            ("pow", 2, (1, 0)), _gt(64), ("or", (("pow", 2, (5, 4)), ("pow", 2, (5, -4)))),
        )),
        {"sat"},
    ),
    "malformed": Case(
        "fixture:malformed", "(exists x (and (> x 0) (pow 1 x)))", None, frozenset({"parse-error"})
    ),
    "simple_sat": sentence_case(
        "fixture:simple_sat",
        Sentence((), "exists", _and(_gt(0), ("pow", 2, (1, 0)), ("not", ("pow", 4, (1, 0))))),
        {"sat"},
    ),
}

# Known defects.  Each failed when the benchmark was added; a fix shows up
# as the case turning `ok`.
WRONG_CUBIC_MERGE = sentence_case(
    # Two cubic predicates merged with the wrong line slope: answers unsat,
    # but x = 12 satisfies the body.
    "defect:wrong-cubic-merge",
    Sentence(
        (("A", (Fraction(1), Fraction(1), Fraction(0), Fraction(0))),
         ("B", (Fraction(1), Fraction(2), Fraction(0), Fraction(0)))),
        "exists",
        _and(_gt(10), ("pred", "A", (1, 0)), ("pred", "B", (8, 0))),
    ),
    {"sat"},
)
CRASH_POW4_NEGATIVE_POLY = sentence_case(
    # k >= 4 power atoms with only negative polynomial atoms are routed to
    # the polynomial solver, which raises; the answer is sat x = 1.
    "defect:crash-pow4-negative-poly",
    Sentence(
        (("K", (Fraction(1), Fraction(0), Fraction(0), Fraction(0))),),
        "exists",
        _and(_gt(0), ("pow", 4, (1, 0)), ("not", ("pred", "K", (1, 1)))),
    ),
    {"sat"},
)
HANG_PELL_WINDOW = sentence_case(
    # solve_generalized scans a z-window of about 5.2e9 for n = 12288,
    # N = -663552.
    "defect:hang-pell-window",
    Sentence(
        (("P0", (Fraction(1, 2), Fraction(1, 2), Fraction(-3))),
         ("P1", (Fraction(3, 2), Fraction(-3, 2), Fraction(-2)))),
        "exists",
        _and(("cmp", ">", (1, 0), (0, -16)), ("pred", "P0", (8, -18)), ("pred", "P1", (8, -15))),
    ),
)
HANG_PELL_CUBIC_FILTER = sentence_case(
    # A Pell stream filtered by cubic membership whose bisection cost grows
    # with the member's bit length.
    "defect:hang-pell-cubic-filter",
    Sentence(
        (("C", (Fraction(1), Fraction(0), Fraction(-3), Fraction(0))),),
        "exists",
        _and(_gt(0), ("pow", 2, (1, 0)), ("pow", 2, (2, 1)), ("pred", "C", (1, 0)), ("pred", "C", (1, 2))),
    ),
)
SLOW_COALESCED_POWER = sentence_case(
    # Two power atoms that vanish at the same x coalesce into one Z^15
    # atom on (243x - 7290), and the single-image path on it ran past 20 s;
    # the answer is sat x = 30.  With pow 2 on (2x - 60) and pow 7 on
    # (x - 30) the Z^14 atom on (128x - 3840) answered sat in about 4 s.
    # The exhaustive generator plants such zero-root pairs by chance.
    "defect:slow-coalesced-power",
    Sentence((), "exists", _and(_gt(5), ("pow", 3, (3, -90)), ("pow", 5, (1, -30)))),
)

WARMUP_SENTENCE = FIXTURES["simple_sat"]
WARMUP_POLY = "(+ (* x1 x1) (* -2 x2))"


# ---------------------------------------------------------------------------
# Integer-valued predicates.

# Binomial basis C(u, r) in ascending coefficients; integer combinations of
# these are exactly the integer-valued polynomials.
_BINOMIAL = (
    (Fraction(1),),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1, 2), Fraction(1, 2)),
    (Fraction(0), Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)),
)


def random_pred(rng: random.Random, name: str, degree: int):
    """Integer-valued polynomial of the given degree; the leading sign is random."""
    while True:
        asc = [Fraction(0)] * (degree + 1)
        for r in range(degree + 1):
            c = rng.randint(-3, 3) if r < degree else rng.choice((-1, 1)) * rng.randint(1, 3)
            for i, b in enumerate(_BINOMIAL[r]):
                asc[i] += c * b
        if degree < 2 or asc[degree - 1] != 0:  # keep a u^(d-1) term
            return name, tuple(reversed(asc))


# ---------------------------------------------------------------------------
# Workload generators.


def plain_pred(rng: random.Random, name: str, degree: int):
    """u^2 + 2c*u + c0 or u^3 + c1*u + c0 with small integer coefficients.

    These depress to stride 1 with the term's own coefficient, so the cost
    of enumerating or residue-scanning them is set by the workload's bound
    and coefficient, not by the draw.
    """
    if degree == 2:
        coeffs = (1, 2 * rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-9, 9))
    else:
        coeffs = (1, 0, rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-9, 9))
    return name, tuple(Fraction(c) for c in coeffs)


def _poly_value(coeffs, u: int) -> int:
    v = Fraction(0)
    for c in coeffs:
        v = v * u + c
    return int(v)


def _mixed_literal(rng: random.Random, names, allow_mod: bool):
    roll = rng.random()
    if roll < 0.30:
        lit = ("pow", rng.randint(2, 6), (rng.choice((1, 1, 1, 2, 3)), rng.randint(-20, 20)))
    elif roll < 0.55 and names:
        # Scales 4 and 8 are left out: next to a negated congruence such
        # atoms answered after 0.4-2 s or ran past the deadline.
        lit = ("pred", rng.choice(names), (rng.choice((1, 1, 2, -1, -2)), rng.randint(-20, 20)))
    elif roll < 0.70 and allow_mod:
        lit = ("mod", (rng.choice((1, 1, 2, 3)), rng.randint(-10, 10)), rng.randint(2, 12), rng.randint(0, 11))
    else:
        op = rng.choice((">", ">", "<", "="))
        lhs = (rng.choice((1, 1, 1, 2, -1)), rng.randint(-10, 10))
        return ("cmp", op, lhs, (0, rng.randint(-40, 40)))
    return ("not", lit) if rng.random() < 0.25 else lit


def _conjuncts(kind: str, lits: list) -> list:
    """The (positive?, atom) conjuncts of a `mixed` body in disjunctive form.

    The body is a conjunction of literals, at most one of them an `or` of
    two literals.  A `forall` sentence is decided through its negated body.
    """
    def literal(node, positive=True):
        return literal(node[1], not positive) if node[0] == "not" else (positive, node)

    if kind == "exists":
        branches = [[]]
        for lit in lits:
            options = lit[1] if lit[0] == "or" else (lit,)
            branches = [b + [literal(o)] for b in branches for o in options]
        return branches
    branches = []
    for lit in lits:
        if lit[0] == "or":
            branches.append([literal(o, False) for o in lit[1]])
        else:
            branches.append([literal(lit, False)])
    return branches


def _reaches_known_defect(conjunct, quadratic, cubic) -> bool:
    """True if a conjunct of (positive?, atom) reaches a known defect.

    - Positive power atoms with negated predicate atoms and no positive
      one: the system goes to the polynomial solver, which raises
      (`defect:crash-pow4-negative-poly`).
    - A quadratic predicate atom next to another quadratic atom (`pow 2`
      or a quadratic predicate), of either sign: the pair is a generalized
      Pell equation, whose z-window scan has no bound
      (`defect:hang-pell-window`).
    - Two quadratic atoms next to a cubic predicate atom: the Pell stream
      is filtered by cubic membership, whose bisection grows with the
      members (`defect:hang-pell-cubic-filter`).
    - Two power atoms on proportional terms, which vanish at the same x:
      they coalesce into one atom of a high power on a large coefficient
      (`defect:slow-coalesced-power`).
    """
    pos_pow = [a for p, a in conjunct if p and a[0] == "pow"]
    pos_pred = [a for p, a in conjunct if p and a[0] == "pred"]
    neg_pred = [a for p, a in conjunct if not p and a[0] == "pred"]
    if pos_pow and neg_pred and not pos_pred:
        return True
    quad_preds = sum(a[0] == "pred" and a[1] in quadratic for _, a in conjunct)
    squares = sum(a[0] == "pow" and a[1] == 2 for _, a in conjunct)
    cubic_preds = sum(a[0] == "pred" and a[1] in cubic for _, a in conjunct)
    if quad_preds + squares >= 2 and (quad_preds or cubic_preds):
        return True
    terms = [a[2] for _, a in conjunct if a[0] == "pow"]
    return any(s[0] * t[1] == s[1] * t[0] for i, s in enumerate(terms) for t in terms[:i])


def mixed_sentence(rng: random.Random, i: int, offset: float) -> Sentence:
    """1-5 literals (cycling), at most one congruence, at most one `or`.

    A single congruence keeps the substitution modulus at most 12; several
    combine by CRT into moduli in the thousands, which belongs to
    wide-modulus.  Literals that would complete a shape of a known defect
    (`_reaches_known_defect`) are drawn again, so that no measured op fails.
    """
    decls = tuple(random_pred(rng, f"P{j}", rng.choice((2, 3))) for j in range(rng.randint(0, 2)))
    names = [n for n, _ in decls]
    quadratic = {n for n, cs in decls if len(cs) == 3}
    cubic = {n for n, cs in decls if len(cs) == 4}
    kind = "forall" if rng.random() < 0.1 else "exists"

    def clean(lits):
        return not any(_reaches_known_defect(c, quadratic, cubic) for c in _conjuncts(kind, lits))

    lits: list = []
    while len(lits) < 1 + i % 5:
        has_mod = any(l[0] == "mod" or l[0] == "not" and l[1][0] == "mod" for l in lits)
        lit = _mixed_literal(rng, names, not has_mod)
        if clean(lits + [lit]):
            lits.append(lit)
    if len(lits) >= 2 and rng.random() < 0.3:
        j = rng.randrange(len(lits) - 1)
        joined = lits[:j] + [("or", (lits[j], lits[j + 1]))] + lits[j + 2 :]
        if clean(joined):
            lits = joined
    body = lits[0] if len(lits) == 1 else ("and", tuple(lits))
    return Sentence(decls, kind, body)


HYPER_EXPONENTS = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7))


def _exhaustive_sentence(rng: random.Random, i: int, offset: float) -> Sentence:
    """Cycle: hyperelliptic pair, quadratic/cubic pair, hyperelliptic pair,
    cubic/cubic pair, three-atom filter.

    Bounded enumerations do not stop early, so their cost is set by the
    bound and the stride of the enumerated parameter.  Two in three cases
    plant a witness x0 (the verdict is then sat); the rest take random
    offsets and usually end unknown.
    """
    lower = rng.randint(-5, 20)
    shape = i % 5
    j = i // 5
    x0 = lower + rng.randint(1, 60)
    planted = j % 3 != 0

    def off(term_a, value):
        return value - term_a * x0 if planted else rng.randint(-9, 9)

    if shape in (0, 2):
        k1, k2 = HYPER_EXPONENTS[(j + shape) % len(HYPER_EXPONENTS)]
        a1 = 1 + j % 3
        body = _and(
            _gt(lower),
            ("pow", k1, (a1, off(a1, rng.randint(0, 9) ** k1))),
            ("pow", k2, (1, off(1, rng.randint(0, 9) ** k2))),
        )
        return Sentence((), "exists", body)
    if shape == 1:
        q, c = plain_pred(rng, "Q", 2), plain_pred(rng, "C", 3)
        body = _and(_gt(lower), ("pred", "Q", (1, off(1, _poly_value(q[1], rng.randint(-9, 9))))),
                    ("pred", "C", (1, off(1, _poly_value(c[1], rng.randint(-9, 9))))))
        return Sentence((q, c), "exists", body)
    if shape == 3:
        c1, c2 = plain_pred(rng, "C1", 3), plain_pred(rng, "C2", 3)
        body = _and(_gt(lower), ("pred", "C1", (1, off(1, _poly_value(c1[1], rng.randint(-9, 9))))),
                    ("pred", "C2", (1, off(1, _poly_value(c2[1], rng.randint(-9, 9))))))
        return Sentence((c1, c2), "exists", body)
    c = plain_pred(rng, "C", 3)
    k = 4 + j % 2
    body = _and(
        _gt(lower),
        ("pow", 2, (1, off(1, rng.randint(0, 30) ** 2))),
        ("pow", k, (1, off(1, rng.randint(0, 5) ** k))),
        ("pred", "C", (1, off(1, _poly_value(c[1], rng.randint(-9, 9))))),
    )
    return Sentence((c,), "exists", body)


def _wide_sentence(rng: random.Random, i: int, offset: float) -> Sentence:
    """Cycle: power atom, predicate atom, negated congruence.

    The coefficient a or modulus m is log-uniform along a golden-ratio
    sequence.  Power and predicate atoms plant a witness x0, so the
    residue scans always find a class and run in full.
    """
    lower = rng.randint(-5, 20)
    x0 = lower + rng.randint(1, 60)
    shape = i % 3
    j = i // 3
    if shape == 0:
        k = (2, 3, 2, 4)[j % 4]
        a = _sized(offset, j, 1e3, 1e6)
        return Sentence((), "exists", _and(_gt(lower), ("pow", k, (a, rng.randint(0, 999) ** k - a * x0))))
    if shape == 1:
        degree = 2 + j % 2
        a = _sized(offset, j, 1e2, 1e4)
        p = plain_pred(rng, "P", degree)
        b = _poly_value(p[1], rng.randint(-999, 999)) - a * x0
        return Sentence((p,), "exists", _and(_gt(lower), ("pred", "P", (a, b))))
    m = _sized(offset, j, 50, 500)
    cheap = ("pow", 2, (1, rng.randint(-9, 9)))
    neg = ("not", ("mod", (1, rng.randint(-9, 9)), m, rng.randrange(m)))
    return Sentence((), "exists", _and(_gt(lower), cheap, neg))


def _poly_text(nvars: int, monomials) -> str:
    parts = []
    for expo, c in monomials:
        factors = [f"x{v + 1}" for v, e in enumerate(expo) for _ in range(e)]
        if not factors:
            parts.append(str(c))
        elif c == 1 and len(factors) > 1:
            parts.append(f"(* {' '.join(factors)})")
        else:
            parts.append(f"(* {c} {' '.join(factors)})")
    return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"


# Monomial degrees of a polynomial, cycled; every shape has a term of degree >= 2.
POLY_SHAPES = ((2, 1, 0), (3, 1), (2, 2, 0), (3, 2, 1))


def _poly_case(rng: random.Random, i: int, offset: float) -> PolyCase:
    """Cycle over 1-3 variables, grids 3-10 (3-6 for three variables) and
    the degree shapes; the seed picks variables, exponents and coefficients."""
    nvars = 1 + i % 3
    grid = 3 + (i // 3) % (4 if nvars == 3 else 8)
    degrees = POLY_SHAPES[(i // 24) % len(POLY_SHAPES)]
    terms: dict = {}
    for degree in degrees:
        expo = [0] * nvars
        for _ in range(degree):
            expo[rng.randrange(nvars)] += 1
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + rng.choice((-1, 1)) * rng.randint(1, 5)
    monomials = tuple(sorted((e, c) for e, c in terms.items() if c))
    if not any(sum(e) >= 2 for e, _ in monomials):
        monomials = tuple(sorted(monomials + (((2,) + (0,) * (nvars - 1), 1),)))
    return PolyCase(f"encode/{i:04d}", _poly_text(nvars, monomials), nvars, monomials, grid)


@dataclass(frozen=True)
class Workload:
    """Input properties of one workload (why each exists: README.md).

    bound: the `--bound` (enumeration bound) every op is solved with.
    deadline_s: per-op deadline; an op still running then is a timeout.
    scan_bound: an `unsat` is refuted by a reference scan over |x| <= scan_bound.
    size: seeded ops generated after the fixed cases.
    """

    name: str
    bound: int
    deadline_s: float
    scan_bound: int
    size: int
    fixed: tuple
    make: object          # (rng, i, golden offset) -> Sentence | PolyCase

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        offset = rng.random()
        out = list(self.fixed)
        for i in range(self.size):
            made = self.make(rng, i, offset)
            if isinstance(made, Sentence):
                made = sentence_case(f"{self.name}/{i:04d}", made)
            out.append(made)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed",
            bound=200, deadline_s=10.0, scan_bound=300, size=20000,
            fixed=tuple(FIXTURES[n] for n in ("forced_unsat", "gessel_sat", "malformed", "simple_sat")),
            make=mixed_sentence,
        ),
        Workload(
            "exhaustive",
            bound=1500, deadline_s=2.0, scan_bound=300, size=2000,
            fixed=(FIXTURES["catalan"], FIXTURES["fermat"], FIXTURES["fibonacci_cube"], HANG_PELL_CUBIC_FILTER,
                   SLOW_COALESCED_POWER),
            make=_exhaustive_sentence,
        ),
        Workload(
            "wide-modulus",
            bound=10**3, deadline_s=5.0, scan_bound=200, size=2000,
            fixed=(),
            make=_wide_sentence,
        ),
        Workload(
            "encode",
            bound=10**3, deadline_s=5.0, scan_bound=0, size=20000,
            fixed=(),
            make=_poly_case,
        ),
    )
}
