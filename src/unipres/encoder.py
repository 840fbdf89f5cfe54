"""Encoding Diophantine equations into the square-predicate fragment.

h(x1..xn) = 0 is rewritten over the signature <0, 1, +, -, Z^2> using at
most four bound variables t0..t3, all existential: monomials are peeled
off one at a time (alternating the accumulators t0 and t1), and squaring
itself is asserted through the five-square chain
Z^2(w) & Z^2(w + 2T + 1) & ... & Z^2(w + 8T + 16), which pins w = T^2.

Each monomial becomes a linear form over the bound variables, with the
fewest chains (`_product`):

- a square y * y is one chain p = y^2, used linearly as coeff * p;
- a product head * rest is reduced by 4xy = (x+y)^2 - (x-y)^2 as
  u = (head + g)^2 and v = (-head + g)^2, where g is the linear form equal
  to (coeff/4) * prod(rest), built once with the other variable pair
  (t0, t1 against t2, t3) and shared by both chains;
- of three factors with two equal, the odd one is the head, so the rest
  is a square.

A monomial of degree d thus takes at most 2(d - 1) chains.  Each split
divides the coefficient by 4, so h is scaled first by 4 per split of the
monomial with the most splits (`_splits`), and every g is integral; a
square takes no split and scale 1.

The chain length is the Buchi constant M = 5 (conjectured by Buchi,
proof announced by Xiao); it is exposed as a parameter so a skeptic can
raise it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ._ast import ParseError
from .formula import _read_and_parse, _where
from .numtheory import kth_root

__all__ = [
    "MultiPoly",
    "SLin",
    "SEq",
    "SSquare",
    "SAnd",
    "SExists",
    "SquareFormula",
    "EquivReport",
    "encode",
    "check_equiv",
    "eval_square_formula",
    "parse_poly",
    "format_square_formula",
]

BUCHI_CHAIN = 5


@dataclass(frozen=True)
class MultiPoly:
    """Integer polynomial in x1..xn as {exponent vector: coefficient}."""

    nvars: int
    monomials: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def from_dict(nvars: int, d: dict) -> "MultiPoly":
        items = tuple(sorted(((e, c) for e, c in d.items() if c != 0), key=_grlex_key))
        return MultiPoly(nvars, items)

    def eval(self, point) -> int:
        total = 0
        for expo, c in self.monomials:
            term = c
            for v, e in zip(point, expo):
                term *= v**e
            total += term
        return total

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.monomials), default=0)


def _grlex_key(item):
    expo, _ = item
    return (-sum(expo), tuple(-e for e in expo))


# --- formula AST over <0,1,+,-,Z^2> ---------------------------------------


@dataclass(frozen=True)
class SLin:
    """Linear combination sum(coeff * var) + const."""

    coeffs: tuple[tuple[str, int], ...]
    const: int = 0

    @staticmethod
    def of(const: int = 0, **vars_) -> "SLin":
        return SLin(tuple(sorted((v, c) for v, c in vars_.items() if c)), const)

    def __add__(self, other: "SLin") -> "SLin":
        d = dict(self.coeffs)
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return SLin(tuple(sorted((v, c) for v, c in d.items() if c)), self.const + other.const)

    def scale(self, k: int) -> "SLin":
        if k == 0:
            return SLin((), 0)
        return SLin(tuple((v, k * c) for v, c in self.coeffs), k * self.const)

    def eval(self, env: dict) -> int:
        return self.const + sum(c * env[v] for v, c in self.coeffs)


@dataclass(frozen=True)
class SEq:
    lhs: SLin  # asserts lhs = 0


@dataclass(frozen=True)
class SSquare:
    arg: SLin  # asserts Z^2(arg)


@dataclass(frozen=True)
class SAnd:
    args: tuple


@dataclass(frozen=True)
class SExists:
    var: str
    body: object


SquareFormula = object  # any of SEq / SSquare / SAnd / SExists


# --- encoding ---------------------------------------------------------------


def _chain(w: SLin, t: SLin, chain_len: int) -> list:
    """Atoms w + 2i*t + i^2 (i < chain_len), squares in second-difference-2
    progression that pin w = t^2.

    Each atom is one merge of w and t over their sorted key union: linear
    in the atoms, plus one sort of that union.
    """
    wd, td = dict(w.coeffs), dict(t.coeffs)
    pairs = [(v, wd.get(v, 0), td.get(v, 0)) for v in sorted(wd.keys() | td.keys())]
    return [
        SSquare(SLin(tuple([(v, c) for v, a, b in pairs if (c := a + 2 * i * b)]), w.const + 2 * i * t.const + i * i))
        for i in range(chain_len)
    ]


def _product(coeff: int, vs: tuple, pair: tuple, other: tuple, chain_len: int):
    """(bound variables, conjuncts, linear form equal to coeff * prod(vs)).

    One factor is the form coeff * y.  Two equal factors y * y are one
    chain p = y^2, bound to pair[0], and the form is coeff * p.  Otherwise
    a head factor is split off and, with g = (coeff/4) * prod(rest), the
    chains u = (head + g)^2 and v = (-head + g)^2 over `pair` give the form
    u - v = 4 * head * g.  g is built once, with `other` as its pair, under
    one `exists` shared by both chains.  vs lists equal factors together;
    of three factors with two equal, the odd one is the head, so the rest
    is a square.  coeff must carry a factor 4 for each split, so that
    every g stays integral.  A monomial of degree d >= 2 thus takes at most
    2(d - 1) chains: two per split down to two factors, then one or two.
    """
    if len(vs) == 1:
        return (), (), SLin(((vs[0], coeff),))
    if len(vs) == 2 and vs[0] == vs[1]:
        p = pair[0]
        return (p,), tuple(_chain(SLin(((p, 1),)), SLin(((vs[0], 1),)), chain_len)), SLin(((p, coeff),))
    i = 2 if len(vs) == 3 and vs[0] == vs[1] else 0
    head, rest = vs[i], vs[:i] + vs[i + 1:]
    bound, conj, g = _product(coeff // 4, rest, other, pair, chain_len)
    u, v = pair
    body = conj
    for sign, w in ((1, u), (-1, v)):
        body += tuple(_chain(SLin(((w, 1),)), g + SLin(((head, sign),)), chain_len))
    return pair, _exists(bound, body), SLin(((u, 1), (v, -1)))


def _splits(vs: tuple) -> int:
    """How many heads `_product` splits off vs (equal factors listed
    together): d - 2 where it ends at a square, that is where two of the
    last three factors are equal, and d - 1 otherwise."""
    tail = vs[-3:]
    return len(vs) - 1 - (len(set(tail)) < len(tail))


def _exists(bound: tuple, conj: tuple) -> tuple:
    """The conjuncts under one `exists` of each bound variable, as a 1-tuple."""
    if not bound:
        return conj
    f = SAnd(conj)
    for var in reversed(bound):
        f = SExists(var, f)
    return (f,)


def encode(h: MultiPoly, chain_len: int = BUCHI_CHAIN) -> SquareFormula:
    """Formula over <0,1,+,-,Z^2> equivalent to h(x1..xn) = 0.

    Uses at most 4 bound variables t0..t3, all existentially quantified,
    and at most 2(d - 1) chains for a monomial of degree d (`_product`).
    Each linear form is built once, so the cost is linear in the atoms,
    plus a sort of each chain's key union.  A chain shorter than
    BUCHI_CHAIN does not pin w = t^2 and is rejected.
    """
    if chain_len < BUCHI_CHAIN:
        raise ValueError(f"chain length {chain_len} is below the Buchi constant {BUCHI_CHAIN}")
    linear: dict = {}
    const = 0
    monos = []
    for expo, c in h.monomials:
        d = sum(expo)
        if d == 0:
            const = c
        elif d == 1:
            linear[f"x{expo.index(1) + 1}"] = c
        else:
            monos.append((c, tuple(f"x{i + 1}" for i, e in enumerate(expo) for _ in range(e))))
    if not monos:
        return SEq(SLin.of(const, **linear))
    scale = 4 ** max(_splits(vs) for _, vs in monos)

    rule1_name = ("t1", "t0")  # T_r is rule1_name[r % 2]
    p = len(monos)
    # Innermost conjunct: T_p = linear tail.
    acc = SEq(SLin.of(-const * scale, **{v: -c * scale for v, c in linear.items()}, **{rule1_name[p % 2]: 1}))
    for r in range(p, 0, -1):
        cur = rule1_name[r % 2]
        # Equation at level r, with g_r the monomial's linear form:
        # for r = 1:  g_1 + T_1 = 0
        # for r >= 2: T_{r-1} = g_r + T_r, i.e. g_r + T_r - T_{r-1} = 0
        coeff, vs = monos[r - 1]
        bound, conj, g = _product(coeff * scale, vs, ("t2", "t3"), ("t0", "t1"), chain_len)
        eq = g + SLin(((cur, 1),))
        if r >= 2:
            eq += SLin(((rule1_name[(r - 1) % 2], -1),))
        acc = SExists(cur, SAnd(_exists(bound, (SEq(eq),) + conj) + (acc,)))
    return acc


# --- compiled evaluation and the equivalence checker -------------------------


@dataclass(frozen=True)
class _Compiled:
    """A square formula compiled to integer columns and a resolution order.

    The formula is exists(bound columns). AND(atoms).  Columns 0..nfree-1
    hold the free variables and one more column follows per `SExists`.
    A linear form is (((column, coefficient), ...), constant) and an atom
    is (is_square, form).

    Each step is (column, kind, recipes) in resolution order; a bound
    column is searched only over the values its recipes give.  A recipe
    (cv, num, None) gives num / cv.  A run recipe (cv, rest, dm1) reads a
    run of adjacent square atoms a_0..a_e, with a_0 = cv*x + rest and
    a_(k+1) - a_k = dm1 + 2k + 1, as (t + k)^2, so t = dm1 / 2 and
    x = (t^2 - rest) / cv.  A Buchi chain w + 2iT + i^2 is one run.  Kinds:

    - "eq": the first ready equation.  It forces the column, because any
      other value fails that equation, which is fully known at this step.
    - "pinned": a single ready recipe, a run recipe with cv = +-1 and dm1
      even in every coefficient, so its value is integral everywhere and
      every atom of its run holds there (a Buchi chain pinning x = T^2).
    - "chain": every ready run recipe, each one a candidate.

    `checks[i]` lists the atoms that become fully known after step i - 1,
    less those a recipe makes true (the run of a pinned step, and the
    equation of an "eq" step with cv = +-1).  A formula with a bound
    column that no recipe reaches is not `resolved` and is false.
    """

    nfree: int
    ncols: int
    atoms: tuple
    steps: tuple
    checks: tuple
    resolved: bool


def _compile(f, free: tuple) -> _Compiled:
    """One walk of f; `free` names the free variables' columns in order.

    A run (see `_Compiled`) starts at a square pair that gives a bound
    column the same coefficient, yields one recipe per such column, and
    ends where the next step is not the first step's linear part plus a
    constant 2 more than the step before; the next run may start there.
    Each recipe counts the bound columns it still waits for, and a column
    joins the frontier when one of its recipes reaches zero, so ordering
    is linear in the recipes, and the compile linear in the atoms.
    """
    nfree = ncols = len(free)
    atoms: list = []  # (is_square, ((column, coefficient), ...), {column: coefficient}, constant)

    stack = [(f, {v: i for i, v in enumerate(free)})]
    while stack:  # depth first, left to right
        node, scope = stack.pop()
        if isinstance(node, SAnd):
            stack.extend((a, scope) for a in reversed(node.args))
        elif isinstance(node, SSquare):
            items = tuple([(scope[v], c) for v, c in node.arg.coeffs])
            atoms.append((True, items, dict(items), node.arg.const))
        elif isinstance(node, SEq):
            items = tuple([(scope[v], c) for v, c in node.lhs.coeffs])
            atoms.append((False, items, dict(items), node.lhs.const))
        elif isinstance(node, SExists):
            stack.append((node.body, {**scope, node.var: ncols}))
            ncols += 1
        else:
            raise TypeError(f"not a square formula: {node!r}")

    # Recipes, equations first: (column, atoms made true, recipe, columns waited for).
    recipes: list = []
    for i, (is_sq, _, lin, c) in enumerate(atoms):
        if not is_sq:
            bound = [k for k in lin if k >= nfree]
            for j in bound:
                cv = lin[j]
                num = tuple((k, -a) for k, a in lin.items() if k != j)
                recipes.append((j, (i,) if abs(cv) == 1 else (), (cv, (num, -c), None), [k for k in bound if k != j]))
    i = 0
    while i < len(atoms) - 1:
        (sq0, _, a0, c0), (sq1, _, a1, c1) = atoms[i], atoms[i + 1]
        # A column whose coefficient is the same in both atoms of a square pair.
        cols = [j for j, cv in a0.items() if j >= nfree and a1.get(j) == cv] if sq0 and sq1 else ()
        e = i + 1
        if cols:
            diff = _step(a0, a1)
            while e + 1 < len(atoms):  # each later step adds diff and 2 more to the constant
                (_, _, a, c), (sq, _, a2, c2) = atoms[e], atoms[e + 1]
                if not sq or c2 - c != c1 - c0 + 2 * (e - i) or _step(a, a2) != diff:
                    break
                e += 1
            dm1 = (tuple(diff.items()), c1 - c0 - 1)
            bound = {k for k in a0.keys() | a1.keys() if k >= nfree}
            for j in cols:
                rest = tuple([(k, a) for k, a in a0.items() if k != j])
                recipes.append((j, range(i, e + 1), (a0[j], (rest, c0), dm1), bound - {j}))
        i = e

    missing = [len(waits) for _, _, _, waits in recipes]
    by_col, users = [[] for _ in range(ncols)], [[] for _ in range(ncols)]
    for r, (j, _, _, waits) in enumerate(recipes):
        by_col[j].append(r)
        for k in waits:
            users[k].append(r)
    frontier = {j for j, _, _, waits in recipes if not waits}

    # The first unknown column with a ready recipe goes next.
    steps: list = []
    proven: set = set()
    stage = [-1] * ncols  # step index of each known bound column
    while frontier:
        j = min(frontier)
        ready = [recipes[r] for r in by_col[j] if not missing[r]]
        cv, _, dm1 = ready[0][2]
        if dm1 is None:
            proven.update(ready[0][1])
            steps.append((j, "eq", (ready[0][2],)))
        elif len(ready) == 1 and abs(cv) == 1 and not dm1[1] % 2 and not any(a % 2 for _, a in dm1[0]):
            proven.update(ready[0][1])
            steps.append((j, "pinned", (ready[0][2],)))
        else:
            steps.append((j, "chain", tuple(r[2] for r in ready)))
        stage[j] = len(steps) - 1
        frontier.discard(j)
        for r in users[j]:
            missing[r] -= 1
            if not missing[r] and stage[recipes[r][0]] < 0:
                frontier.add(recipes[r][0])

    resolved = len(steps) == ncols - nfree
    checks: list = [[] for _ in range(len(steps) + 1)]
    if resolved:
        for i, (_, _, lin, _) in enumerate(atoms):
            if i not in proven:
                checks[1 + max(map(stage.__getitem__, lin), default=-1)].append(i)
    forms = tuple((is_sq, (items, c)) for is_sq, items, _, c in atoms)
    return _Compiled(nfree, ncols, forms, tuple(steps), tuple(tuple(c) for c in checks), resolved)


def _step(a0: dict, a1: dict) -> dict:
    """a1 - a0 over the columns of two atoms, without zero coefficients."""
    return {k: d for k in a0.keys() | a1.keys() if (d := a1.get(k, 0) - a0.get(k, 0))}


def _lin(form, vals) -> int:
    items, c = form
    return c + sum(k * vals[j] for j, k in items)


def _search(plan: _Compiled, free) -> bool:
    """Exact truth at one assignment of the free columns (depth first)."""
    if not plan.resolved:
        return False
    vals = list(free) + [0] * (plan.ncols - plan.nfree)

    def run(i: int) -> bool:
        for idx in plan.checks[i]:
            is_sq, form = plan.atoms[idx]
            v = _lin(form, vals)
            if not (kth_root(v, 2) is not None if is_sq else v == 0):
                return False
        if i == len(plan.steps):
            return True
        col, _, recipes = plan.steps[i]
        tried = set()
        for cv, form, dm1 in recipes:
            if dm1 is None:
                num = _lin(form, vals)
            else:
                d = _lin(dm1, vals)
                if d % 2:
                    continue
                num = (d // 2) ** 2 - _lin(form, vals)
            if num % cv or num // cv in tried:
                continue
            tried.add(num // cv)
            vals[col] = num // cv
            if run(i + 1):
                return True
        return False

    return run(0)


def eval_square_formula(f, env: dict) -> bool:
    """Exact truth of a formula at an assignment of its free variables.

    The formula is compiled once (`_compile`) and searched depth first.
    Each bound variable is searched only over the values of its ready
    recipes: a defining equation, which forces the value, or else one
    candidate per run of adjacent square atoms in second-difference-2
    progression (a Buchi chain is one run).  Each atom is checked as soon
    as all its variables are known, unless a recipe already makes it true.
    """
    names = tuple(env)
    return _search(_compile(f, names), [env[v] for v in names])


def _bound(plan: _Compiled, grid: int) -> int:
    """Largest |value| a sweep over the grid can compute.

    Column bounds b are propagated through the recipes; a linear form is
    bounded by |const| + sum |c| * b, which also bounds its partial sums.
    The recipe rows bound every value the forward pass computes, so of the
    atoms only those in `plan.checks` count: `_sweep` never evaluates the
    atoms a recipe makes true.
    """
    b = [grid] * plan.nfree + [0] * (plan.ncols - plan.nfree)

    def row(form) -> int:
        items, c = form
        return abs(c) + sum(abs(k) * b[j] for j, k in items)

    worst = grid
    for col, _, recipes in plan.steps:
        for cv, form, dm1 in recipes:
            if dm1 is None:
                num = row(form)
            else:
                t = row(dm1) // 2 + 1
                num = t * t + row(form)
            worst = max(worst, num)
            b[col] = max(b[col], num // abs(cv) + 1)
    return max([worst, *b, *(row(plan.atoms[i][1]) for c in plan.checks for i in c)])


def _matrix(forms, width: int, np):
    """Forms as rows over the columns plus a last column of constants."""
    m = np.zeros((len(forms), width + 1))
    for i, (items, c) in enumerate(forms):
        m[i, width] = c
        for j, k in items:
            m[i, j] = k
    return m


def _sweep(plan: _Compiled, points, np):
    """Truth of a resolved plan at each column of `points` (nfree x P).

    One forward pass gives each bound column one value per point, a level
    at a time (a level depends only on earlier ones): an "eq" or "pinned"
    column takes its recipe's value, a "chain" column its first valid
    candidate, and a point is ambiguous where another valid candidate
    differs.  The atoms left to check are then checked at once, and each
    false ambiguous point is decided by `_search`.  Values are float64
    integers: while `_bound` stays below 2**50, sums and products are
    exact, floor(n / cv) is n / cv when cv divides n, and the square test
    rint(sqrt(v))**2 == v is exact because IEEE sqrt rounds correctly.
    """
    size = points.shape[1]
    width = plan.ncols
    vals = np.ones((width + 1, size))  # the last row is the constant 1
    vals[: plan.nfree] = points
    truth = np.ones(size, dtype=bool)
    ambiguous = False  # where chain candidates disagree: an array after a "chain" level

    level = [0] * width
    levels: dict = {}
    for col, kind, recipes in plan.steps:
        level[col] = 1 + max(
            (level[j] for r in recipes for form in r[1:] if form for j, _ in form[0]), default=0
        )
        levels.setdefault(level[col], {}).setdefault(kind, []).append((col, recipes))

    for lv in sorted(levels):
        for kind, group in levels[lv].items():
            cols = [col for col, _ in group]
            k = max(len(r) for _, r in group)
            # Pad each column to k candidates by repeating its last one.
            rs = [r[min(i, len(r) - 1)] for _, r in group for i in range(k)]
            cv = np.array([r[0] for r in rs], dtype=float)[:, None]
            forms = _matrix([r[1] for r in rs] + [r[2] for r in rs if r[2]], width, np) @ vals
            if kind == "eq":
                vals[cols] = np.floor(forms / cv)
                continue
            half = forms[len(rs):] * 0.5
            if kind == "pinned":  # dm1 is even, so half is t
                vals[cols] = (half * half - forms[: len(rs)]) * cv
                continue
            t = np.floor(half)
            num = t * t - forms[: len(rs)]
            val = np.floor(num / cv)
            ok = ((t == half) & (val * cv == num)).reshape(len(cols), k, size)
            val = val.reshape(len(cols), k, size)
            chosen = np.take_along_axis(val, ok.argmax(axis=1)[:, None], axis=1)
            truth &= ok.any(axis=1).all(axis=0)
            ambiguous |= (ok & (val != chosen)).any(axis=(0, 1))
            vals[cols] = chosen[:, 0]

    checked = [plan.atoms[i] for c in plan.checks for i in c]
    eqs = [form for is_sq, form in checked if not is_sq]
    squares = [form for is_sq, form in checked if is_sq]
    if eqs:
        truth &= ~(_matrix(eqs, width, np) @ vals).any(axis=0)
    if squares:
        v = _matrix(squares, width, np) @ vals
        r = np.rint(np.sqrt(np.abs(v)))
        truth &= (r * r == v).all(axis=0)
    if ambiguous is not False:
        for p in np.flatnonzero(ambiguous & ~truth):
            truth[p] = _search(plan, [int(x) for x in points[:, p]])
    return truth


@dataclass(frozen=True)
class EquivReport:
    passed: bool
    counterexample: tuple | None
    checked: int


def check_equiv(h: MultiPoly, f, grid: int) -> EquivReport:
    """h = 0 iff f, on every assignment with all |x_i| <= grid.

    Both paths scan the points with x1 slowest and xn fastest; `checked`
    counts the points up to and including the first mismatch, or the
    whole grid on a pass.  f is compiled once (`_compile`).  With numpy,
    one forward sweep (`_sweep`) gives every bound variable one value at
    every point: a defining equation forces its value, a lone Buchi chain
    run pins it to T^2, and otherwise it takes its first valid run
    candidate.  The atoms that no recipe already makes true are then
    checked at once, and the false points where run candidates disagree
    are searched exactly.
    Without numpy, or when a value could reach 2**50, every point is
    searched exactly by `_search`, the code `eval_square_formula` runs.
    """
    if grid < 1:
        raise ValueError("need grid >= 1")
    n = h.nvars
    plan = _compile(f, tuple(f"x{i + 1}" for i in range(n)))
    try:
        import numpy as np
    except ImportError:
        np = None
    h_bound = sum(abs(c) * grid ** sum(e) for e, c in h.monomials)
    if np is not None and max(_bound(plan, grid), h_bound) < 2**50:
        points = np.indices((2 * grid + 1,) * n).reshape(n, -1) - grid
        expo = np.array([e for e, _ in h.monomials], dtype=np.int64).reshape(-1, n, 1)
        coeffs = np.array([c for _, c in h.monomials], dtype=np.int64)
        want = (coeffs @ (points[None] ** expo).prod(axis=1)) == 0
        got = _sweep(plan, points, np) if plan.resolved else np.zeros(points.shape[1], dtype=bool)
        mism = np.flatnonzero(want != got)
        if mism.size:
            idx = int(mism[0])
            return EquivReport(False, tuple(int(v) for v in points[:, idx]), idx + 1)
        return EquivReport(True, None, points.shape[1])
    for checked, point in enumerate(itertools.product(range(-grid, grid + 1), repeat=n), 1):
        if (h.eval(point) == 0) != _search(plan, point):
            return EquivReport(False, point, checked)
    return EquivReport(True, None, (2 * grid + 1) ** n)


# --- surface syntax ----------------------------------------------------------


def parse_poly(text: str) -> MultiPoly:
    """Polynomial from the term grammar extended with variables and products.

    TERM := xK | INT | (+ TERM+) | (- TERM TERM) | (- TERM) | (* TERM TERM+)

    As in `formula.parse`, positions exist only on the located pass, which
    runs after a `ParseError`.
    """

    def term(exprs) -> dict:
        if len(exprs) != 1:
            raise ParseError("expected exactly one polynomial term")
        return walk(exprs[0])

    def walk(node) -> dict:
        # Keys are sorted tuples of variable indices (with multiplicity).
        if isinstance(node, str):
            if node.startswith("x") and node[1:].isdecimal() and int(node[1:]) >= 1:
                return {(int(node[1:]),): 1}
            try:
                return {(): int(node)} if int(node) else {}
            except ValueError:
                raise ParseError(f"unknown symbol '{node}'", *_where(node)) from None
        if not node:
            raise ParseError("empty term")
        head = node[0] if isinstance(node[0], str) else None
        args = node[1:]
        if head == "+":
            if not args:
                raise ParseError("(+) needs arguments", *_where(head))
            out: dict = {}
            for a in args:
                for k, v in walk(a).items():
                    out[k] = out.get(k, 0) + v
            return out
        if head == "-":
            if len(args) == 1:
                return {k: -v for k, v in walk(args[0]).items()}
            if len(args) == 2:
                out = dict(walk(args[0]))
                for k, v in walk(args[1]).items():
                    out[k] = out.get(k, 0) - v
                return out
            raise ParseError("(-) takes one or two arguments", *_where(head))
        if head == "*":
            if len(args) < 2:
                raise ParseError("(*) needs two or more arguments", *_where(head))
            out = {(): 1}
            for a in args:
                nxt: dict = {}
                terms = walk(a)
                for k1, v1 in out.items():
                    for k2, v2 in terms.items():
                        k = _mul_keys(k1, k2)
                        nxt[k] = nxt.get(k, 0) + v1 * v2
                out = nxt
            return out
        raise ParseError(f"unknown operator '{head}'", *_where(head))

    raw = _read_and_parse(text, term)
    nvars = max((max(k) for k in raw if k), default=1)
    out: dict = {}
    for idx, c in raw.items():
        expo = [0] * nvars
        for i in idx:
            expo[i - 1] += 1
        key = tuple(expo)
        out[key] = out.get(key, 0) + c
    return MultiPoly.from_dict(nvars, out)


def _mul_keys(k1, k2):
    return tuple(sorted(k1 + k2))


def format_square_formula(f) -> str:
    def lin(sl: SLin) -> str:
        parts = []
        for v, c in sl.coeffs:
            parts.append(v if c == 1 else f"(* {c} {v})")
        if sl.const or not parts:
            parts.append(str(sl.const))
        if len(parts) == 1:
            return parts[0]
        return "(+ " + " ".join(parts) + ")"

    if isinstance(f, SEq):
        return f"(= {lin(f.lhs)} 0)"
    if isinstance(f, SSquare):
        return f"(pow 2 {lin(f.arg)})"
    if isinstance(f, SAnd):
        return "(and " + " ".join(format_square_formula(a) for a in f.args) + ")"
    if isinstance(f, SExists):
        return f"(exists {f.var} {format_square_formula(f.body)})"
    raise TypeError(f"not a square formula: {f!r}")
