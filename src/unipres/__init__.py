"""Solver for single-variable Presburger arithmetic with perfect-power
and degree-at-most-3 polynomial-value-set predicates.

The public surface: parse/normalize (formula), exact kernels (numtheory,
pell, lrbs), one decide core, a brute-force oracle, the
multiplication-free square-predicate encoder, and the batch CLI in `cli`.
`poly_solver.prepare` preprocesses each normalized system once and
rewrites every `PowerAtom` as a `PolyAtom`, the one atom type below it;
`decide` (power_solver) maps a prepared system to a verdict, and
`solve_positive` routes its positive atoms.
"""

from ._ast import ConstraintSystem, Formula, ParseError, PolyAtom, PowerAtom, Verdict
from .formula import NormalForm, format_formula, normalize, parse
from .power_solver import SolveOptions, decide, solve_positive
from .poly_solver import depress, prepare

__all__ = [
    "ConstraintSystem",
    "Formula",
    "ParseError",
    "PolyAtom",
    "PowerAtom",
    "Verdict",
    "NormalForm",
    "format_formula",
    "normalize",
    "parse",
    "SolveOptions",
    "decide",
    "solve_positive",
    "depress",
    "prepare",
]

__version__ = "0.1.0"
