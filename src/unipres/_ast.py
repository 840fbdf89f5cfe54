"""Shared syntax-tree and constraint-system types (internal module).

The public surface re-exports these from `formula` (syntax, systems) and
`power_solver` (verdicts); keeping them here breaks an import cycle
between the normalizer and the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

from .numtheory import _poly_eval, depressed_cubic_roots, integer_numerators, kth_root

__all__ = [
    "ParseError",
    "LinTerm",
    "Cmp",
    "ModAtomNode",
    "PowAtomNode",
    "PredAtomNode",
    "Not",
    "And",
    "Or",
    "Quant",
    "PredicateDecl",
    "Formula",
    "PolyAtom",
    "Verdict",
    "ConstraintSystem",
    "system_holds",
]


class ParseError(ValueError):
    """Syntax or validation error with a source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass(frozen=True)
class LinTerm:
    """a*x + b; every term in the single-variable grammar normalizes to this."""

    a: int
    b: int

    def __add__(self, other: "LinTerm") -> "LinTerm":
        return LinTerm(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "LinTerm") -> "LinTerm":
        return LinTerm(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "LinTerm":
        return LinTerm(-self.a, -self.b)

    def eval(self, x: int) -> int:
        return self.a * x + self.b


@dataclass(frozen=True)
class Cmp:
    op: str  # "=", "<", ">"
    lhs: LinTerm
    rhs: LinTerm


@dataclass(frozen=True)
class ModAtomNode:
    term: LinTerm
    modulus: int   # >= 2
    residue: int   # reduced: 0 <= residue < modulus


@dataclass(frozen=True)
class PowAtomNode:
    k: int         # >= 2
    term: LinTerm


@dataclass(frozen=True)
class PredAtomNode:
    name: str
    term: LinTerm


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


@dataclass(frozen=True)
class Quant:
    kind: str  # "exists" | "forall"
    var: str
    body: object


@dataclass(frozen=True, init=False)
class PredicateDecl:
    """Integer-valued polynomial f(u) = (nums[0] + nums[1]*u + ...) / den of degree <= 3.

    The ascending numerators over the least common denominator den > 0 are
    the declaration; `coeffs` (c_d .. c_0, `Fraction`s) are built from them
    on first use, or kept from `PredicateDecl(name, coeffs)`.
    """

    name: str
    nums: tuple[int, ...]
    den: int

    def __init__(self, name: str, coeffs=None, *, nums=(), den: int = 1) -> None:
        if coeffs is not None:
            self.__dict__["coeffs"] = coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
            nums, den = integer_numerators(coeffs[::-1])
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        if not nums or nums[-1] == 0:
            raise ParseError(f"predicate {name}: leading coefficient must be nonzero")
        if self.degree > 3:
            raise ParseError(f"predicate {name}: degree {self.degree} exceeds 3")
        # Integer-valuedness is equivalent to integrality at d+1 consecutive points.
        for u in range(self.degree + 1):
            if _poly_eval(nums, u) % den:
                raise ParseError(f"predicate {name} is not integer-valued (f({u}) = {self.eval(u)})")

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in reversed(self.nums))

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def ascending(self) -> tuple[Fraction, ...]:
        return self.coeffs[::-1]

    def eval(self, u) -> Fraction:
        return Fraction(_poly_eval(self.nums, u), self.den)


@dataclass(frozen=True)
class Formula:
    """Declarations plus a single-variable sentence."""

    decls: tuple[PredicateDecl, ...]
    root: Quant

    def decl_map(self) -> dict[str, PredicateDecl]:
        return {d.name: d for d in self.decls}


# ---------------------------------------------------------------------------
# Solver-level constraint atoms.


@dataclass(frozen=True, order=True)
class PolyAtom:
    """Exists u = offset (mod stride) with f(u) = a*x + b.

    f is the depressed monic form u^degree + lin*u, where only a cubic
    carries a linear part (constants live in b).  This is the one atom, and
    `holds` the one way to evaluate it: `normalize` builds one for every
    predicate and power literal as it lowers it, by depressing a predicate
    of degree 2 or 3, and a power atom "a*x + b is a k-th power" is
    PolyAtom(k, 0, a, b, 1, 0).  While normalizing, a may be zero or
    negative, and a bounded system keeps such atoms; the systems without
    an `upper`, which `prepare` and `solve_positive` see, carry a > 0.

    `holds` goes from x to u, by root extraction.  The other direction,
    from lattice points u to their images x, is a listing that the
    bounded walks of `power_solver` use, for the walked atom and to
    intersect with the atoms that filter it (`power_solver._keep`); it is
    not a second point test.
    """

    degree: int    # >= 2
    lin: int       # coefficient of u for cubics; 0 otherwise
    a: int
    b: int
    stride: int    # >= 1
    offset: int    # 0 <= offset < stride

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise ValueError(f"degree must be at least 2, got {self.degree}")
        if self.degree != 3 and self.lin != 0:
            raise ValueError("only cubic atoms carry a linear part")
        if self.stride < 1 or not 0 <= self.offset < self.stride:
            raise ValueError("need stride >= 1 and a reduced offset")

    @property
    def is_power(self) -> bool:
        """Power shape, stride 1 and no linear part: a*x + b is a perfect degree-th power."""
        return self.stride == 1 and self.lin == 0

    def witnesses(self, x: int) -> list[int]:
        """All u with u = offset (mod stride) and f(u) = a*x + b."""
        v = self.a * x + self.b
        if self.lin:
            roots = depressed_cubic_roots(self.lin, v)
        else:
            r = kth_root(v, self.degree)
            if r is None:
                return []
            roots = [-r, r] if r and self.degree % 2 == 0 else [r]
        return [u for u in roots if u % self.stride == self.offset]

    def holds(self, x: int) -> bool:
        if self.stride == 1 and self.lin == 0:
            return kth_root(self.a * x + self.b, self.degree) is not None
        return bool(self.witnesses(x))


@dataclass(frozen=True)
class Verdict:
    """Three-valued result; Sat carries a witness in original coordinates."""

    status: str  # "sat" | "unsat" | "unknown"
    witness: int | None = None
    reason: str | None = None
    bound: int | None = None

    @staticmethod
    def sat(witness: int) -> "Verdict":
        return Verdict("sat", witness=witness)

    @staticmethod
    def unsat() -> "Verdict":
        return Verdict("unsat")

    @staticmethod
    def unknown(reason: str, bound: int) -> "Verdict":
        return Verdict("unknown", reason=reason, bound=bound)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


@dataclass
class ConstraintSystem:
    """One conjunct after normalization, over the working variable y.

    The original variable is x = M*y + r for `substitution` = (M, r); M is
    negative when the sign of y was flipped.  It holds at y when
    lower < y < upper (None is open), y is not excluded, every positive
    atom holds and every negative one fails.  `resolved` is set only on the
    unconstrained system (sat) and on a system that `prepare` refuted
    (unsat, kept so that its trace names the case).
    """

    lower: int | None = None
    upper: int | None = None
    positives: list = field(default_factory=list)
    negatives: list = field(default_factory=list)
    substitution: tuple[int, int] = (1, 0)
    excluded: list = field(default_factory=list)      # y-points carved out exactly
    resolved: Verdict | None = None
    trace: list = field(default_factory=list)
    # One key per `log` call, parallel to `trace`: a clone copies both, so
    # an entry it inherited keeps the key its parent logged it under.
    trace_keys: list = field(default_factory=list, repr=False, compare=False)

    def to_original(self, y: int) -> int:
        m, r = self.substitution
        return m * y + r

    def log(self, event: str) -> None:
        self.trace.append(event)
        self.trace_keys.append(object())

    def clone(self) -> "ConstraintSystem":
        return replace(
            self,
            positives=list(self.positives),
            negatives=list(self.negatives),
            excluded=list(self.excluded),
            trace=list(self.trace),
            trace_keys=list(self.trace_keys),
        )


def system_holds(system: ConstraintSystem, y: int) -> bool:
    """Direct semantics of an unresolved system at the working-variable point y."""
    if system.lower is not None and y <= system.lower:
        return False
    if system.upper is not None and y >= system.upper:
        return False
    if y in system.excluded:
        return False
    if not all(atom.holds(y) for atom in system.positives):
        return False
    return not any(atom.holds(y) for atom in system.negatives)
