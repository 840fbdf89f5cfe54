"""Shared generators and brute-force reference scans for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from unipres._ast import ConstraintSystem, PolyAtom, PowerAtom, PredicateDecl
from unipres import cli, oracle
from unipres.poly_solver import depress, prepare
from unipres.power_solver import decide


def brute_first_witness(system: ConstraintSystem, bound: int) -> int | None:
    """First y in (lower, bound] satisfying the system, by direct evaluation."""
    lo = system.lower if system.lower is not None else -bound - 1
    sieves = [oracle.AtomSieve(a) for a in system.positives]
    for y in range(lo + 1, bound + 1):
        if y in system.excluded:
            continue
        if not all(s.may_hold(y) for s in sieves):
            continue
        if not all(oracle.atom_eval(a, y) for a in system.positives):
            continue
        if any(oracle.atom_eval(a, y) for a in system.negatives):
            continue
        return y
    return None


def decide_prepared(system: ConstraintSystem, options):
    """Decide a hand-built system the way `cli.solve_formula` decides normalized ones.

    `prepare` runs the preprocessing that `normalize` runs on the systems it
    builds; each resulting system is decided and the verdicts are combined.
    """
    return cli._combine([decide(s, options) for s in prepare(system)])


def eval_system_directly(system: ConstraintSystem, y: int) -> bool:
    if system.lower is not None and y <= system.lower:
        return False
    if y in system.excluded:
        return False
    if not all(oracle.atom_eval(a, y) for a in system.positives):
        return False
    return not any(oracle.atom_eval(a, y) for a in system.negatives)


def random_power_system(rng: random.Random, max_atoms: int = 4) -> ConstraintSystem:
    """Random normalized-shape power system (spec coefficient bounds)."""
    n_pos = rng.randint(0, min(3, max_atoms))
    n_neg = rng.randint(0, max_atoms - n_pos)

    def atom():
        return PowerAtom(rng.randint(2, 5), rng.randint(1, 30), rng.randint(-30, 30))

    return ConstraintSystem(
        lower=rng.randint(-30, 30),
        positives=[atom() for _ in range(n_pos)],
        negatives=[atom() for _ in range(n_neg)],
    )


def random_int_valued_pred(rng: random.Random, name: str, degree: int) -> PredicateDecl:
    """Random integer-valued polynomial with positive leading coefficient."""
    # Integer combinations of binomial polynomials are exactly the
    # integer-valued polynomials.
    basis = [
        [Fraction(1)],                                    # C(u,0)
        [Fraction(0), Fraction(1)],                       # C(u,1)
        [Fraction(0), Fraction(-1, 2), Fraction(1, 2)],   # C(u,2)
        [Fraction(0), Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)],  # C(u,3)
    ]
    asc = [Fraction(0)] * (degree + 1)
    for r in range(degree + 1):
        c = rng.randint(-4, 4) if r < degree else rng.randint(1, 4)
        for i, b in enumerate(basis[r]):
            asc[i] += c * b
    coeffs = tuple(reversed(asc))
    return PredicateDecl(name, coeffs)


def random_poly_system(rng: random.Random) -> ConstraintSystem:
    n_pos = rng.randint(1, 3)
    n_neg = rng.randint(0, 1)

    def atom():
        deg = rng.choice((2, 2, 3))
        pred = random_int_valued_pred(rng, f"P{rng.randrange(10**6)}", deg)
        return depress(pred, rng.randint(1, 12), rng.randint(-20, 20)).atom

    return ConstraintSystem(
        lower=rng.randint(-20, 20),
        positives=[atom() for _ in range(n_pos)],
        negatives=[atom() for _ in range(n_neg)],
    )


def random_mixed_system(rng: random.Random) -> ConstraintSystem:
    """Random system whose positives mix a power atom (k = 2..6) with a predicate atom."""

    def power():
        return PowerAtom(rng.randint(2, 6), rng.randint(1, 12), rng.randint(-20, 20))

    def pred():
        decl = random_int_valued_pred(rng, f"P{rng.randrange(10**6)}", rng.choice((2, 3)))
        return depress(decl, rng.randint(1, 6), rng.randint(-20, 20)).atom

    positives = [power(), pred()] + [rng.choice((power, pred))() for _ in range(rng.randint(0, 1))]
    return ConstraintSystem(
        lower=rng.randint(-20, 20),
        positives=positives,
        negatives=[rng.choice((power, pred))() for _ in range(rng.randint(0, 1))],
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
