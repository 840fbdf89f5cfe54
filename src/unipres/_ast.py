"""Shared syntax-tree and constraint-system types (internal module).

The public surface re-exports these from `formula` (syntax, systems) and
`power_solver` (verdicts); keeping them here breaks an import cycle
between the normalizer and the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "PowerAtom",
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

    def scale(self, c: int) -> "LinTerm":
        return LinTerm(c * self.a, c * self.b)

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


@dataclass(frozen=True)
class PredicateDecl:
    """Integer-valued polynomial c_d u^d + ... + c_0 of degree <= 3.

    `nums` are the ascending integer numerators over the least common
    denominator `den` > 0: f(u) = (nums[0] + nums[1]*u + ...) / den.
    """

    name: str
    coeffs: tuple[Fraction, ...]  # c_d .. c_0, as declared
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs or self.coeffs[0] == 0:
            raise ParseError(f"predicate {self.name}: leading coefficient must be nonzero")
        if self.degree > 3:
            raise ParseError(f"predicate {self.name}: degree {self.degree} exceeds 3")
        nums, den = integer_numerators(self.ascending())
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        # Integer-valuedness is equivalent to integrality at d+1 consecutive points.
        for u in range(self.degree + 1):
            if _poly_eval(nums, u) % den:
                raise ParseError(f"predicate {self.name} is not integer-valued (f({u}) = {self.eval(u)})")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def ascending(self) -> tuple[Fraction, ...]:
        return tuple(reversed(self.coeffs))

    def eval(self, u) -> Fraction:
        v = Fraction(0)
        for c in self.coeffs:
            v = v * u + c
        return v


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
class PowerAtom:
    """a*x + b is a perfect k-th power."""

    k: int
    a: int
    b: int

    def holds(self, x: int) -> bool:
        return kth_root(self.a * x + self.b, self.k) is not None


@dataclass(frozen=True, order=True)
class PolyAtom:
    """Exists u = offset (mod stride) with f(u) = a*x + b.

    f is the depressed monic form u^degree + lin*u, where only a cubic
    carries a linear part (constants live in b).  Predicates of degree 2
    and 3 become these atoms in `normalize`, and `poly_solver.prepare`
    rewrites every power atom "a*x + b is a k-th power" as
    PolyAtom(k, 0, a, b, 1, 0), so the solvers see no other atom type.
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

    The original variable is x = M*y + r, negated once more when
    sign_flipped is set: x = -(M*y + r).
    """

    lower: int | None = None
    positives: list = field(default_factory=list)
    negatives: list = field(default_factory=list)
    sign_flipped: bool = False
    substitution: tuple[int, int] = (1, 0)
    excluded: list = field(default_factory=list)      # y-points carved out exactly
    resolved: Verdict | None = None                   # eager resolution marker
    resolved_points: tuple | None = None              # y-points a resolution stands for
    resolved_all: bool = False                        # resolution covers every lattice point
    trace: list = field(default_factory=list)

    def to_original(self, y: int) -> int:
        m, r = self.substitution
        v = m * y + r
        return -v if self.sign_flipped else v

    def log(self, event: str) -> None:
        self.trace.append(event)

    def clone(self) -> "ConstraintSystem":
        return ConstraintSystem(
            lower=self.lower,
            positives=list(self.positives),
            negatives=list(self.negatives),
            sign_flipped=self.sign_flipped,
            substitution=self.substitution,
            excluded=list(self.excluded),
            resolved=self.resolved,
            resolved_points=self.resolved_points,
            resolved_all=self.resolved_all,
            trace=list(self.trace),
        )


def system_holds(system: ConstraintSystem, y: int) -> bool:
    """Direct semantics of an unresolved system at the working-variable point y."""
    if system.lower is not None and y <= system.lower:
        return False
    if y in system.excluded:
        return False
    if not all(atom.holds(y) for atom in system.positives):
        return False
    return not any(atom.holds(y) for atom in system.negatives)
