"""Solver for single-variable Presburger arithmetic with perfect-power
and degree-at-most-3 polynomial-value-set predicates.

The public surface: parse/normalize (formula), exact kernels (numtheory,
pell, lrbs), one decide core (`decide` in power_solver maps a normalized
system to a verdict; poly_solver preprocesses systems once in `prepare`
and routes the positive atoms in `solve_positive_poly`), a brute-force
oracle, the multiplication-free square-predicate encoder, and the batch
CLI in `cli`.
"""

from ._ast import ConstraintSystem, Formula, ParseError, PolyAtom, PowerAtom, Verdict
from .formula import NormalForm, format_formula, normalize, parse
from .power_solver import SolveOptions, decide, solve_positive
from .poly_solver import depress, prepare, solve_positive_poly

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
    "solve_positive_poly",
]

__version__ = "0.1.0"
