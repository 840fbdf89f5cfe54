"""Solver for single-variable Presburger arithmetic with perfect-power
and degree-at-most-3 polynomial-value-set predicates.

The public surface: parse/normalize (formula), exact kernels (numtheory,
pell, lrbs), one decide core, a brute-force oracle, the
multiplication-free square-predicate encoder, and the batch CLI in `cli`.
`normalize` only rewrites: it lowers every atom, a power (pow k t) as the
monomial u^k, to one type, `PolyAtom`, and a bounded conjunct to a
system with an upper bound; `poly_solver.prepare` preprocesses each
unbounded system once.  `decide` (power_solver) is the one function
that maps a system to a verdict: it scans a bounded system point by
point, and otherwise `solve_positive` routes the positive atoms to one
`SolutionSet`: families of image polynomials or Pell orbits, finitely
many values, or every integer; positive atoms with no common residue
modulo a small prime power give an empty one, a certified `unsat` that
names the modulus (`local-obstruction:m=<q>`) before any route.
"""

from ._ast import ConstraintSystem, Formula, ParseError, PolyAtom, Verdict
from .formula import NormalForm, format_formula, normalize, parse
from .power_solver import SolveOptions, decide, solve_positive
from .poly_solver import prepare

__all__ = [
    "ConstraintSystem",
    "Formula",
    "ParseError",
    "PolyAtom",
    "Verdict",
    "NormalForm",
    "format_formula",
    "normalize",
    "parse",
    "SolveOptions",
    "decide",
    "solve_positive",
    "prepare",
]

__version__ = "0.1.0"
