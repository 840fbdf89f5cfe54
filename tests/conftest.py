"""Shared generators and brute-force reference scans for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from unipres._ast import ConstraintSystem, PolyAtom, PredicateDecl
from unipres import cli, oracle
from unipres.formula import SToken
from unipres.poly_solver import depress_ascending, prepare
from unipres.power_solver import MemberStream, decide, similar


def no_similar_powers(system: ConstraintSystem) -> bool:
    """What `prepare` establishes: an open system keeps no two similar
    positive atoms of power shape (a resolved one keeps its atoms)."""
    powers = [a for a in system.positives if a.is_power] if system.resolved is None else []
    return not any(similar(a, b) for a, b in itertools.combinations(powers, 2))


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


def stream_prefix(solution_set, bound: int, options) -> list[int]:
    """The members with |x| <= bound, from the (|x|, x)-ordered stream that `decide` draws."""
    return list(itertools.takewhile(lambda x: abs(x) <= bound, MemberStream(solution_set, options)))


def oracle_hits(atoms, lo: int, hi: int) -> list[int]:
    """The x in [lo, hi] at which every atom holds, by the oracle."""
    first, *rest = atoms
    return [x for x in range(lo, hi + 1) if oracle.atom_eval(first, x) and all(oracle.atom_eval(a, x) for a in rest)]


def pow_atom(k: int, a: int, b: int) -> PolyAtom:
    """The atom "a*x + b is a perfect k-th power", as `normalize` builds it."""
    return PolyAtom(k, 0, a, b, 1, 0)


def system_satisfied_at(system: ConstraintSystem, x: int) -> bool:
    """Whether the original-variable point x satisfies a normalized system,
    by the oracle: x on the lattice of the substitution x = M*y + r, then
    lower < y < upper, y not excluded, and every atom through
    `oracle.atom_eval`.  The only resolved systems are the unconstrained
    one (sat at every point) and one that `prepare` refuted (unsat)."""
    m, r = system.substitution
    if (x - r) % m:
        return False
    y = (x - r) // m
    if system.resolved is not None:
        return system.resolved.is_sat
    if system.lower is not None and y <= system.lower:
        return False
    if system.upper is not None and y >= system.upper:
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
        return pow_atom(rng.randint(2, 5), rng.randint(1, 30), rng.randint(-30, 30))

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
        return depress_ascending(pred.ascending(), rng.randint(1, 12), rng.randint(-20, 20))

    return ConstraintSystem(
        lower=rng.randint(-20, 20),
        positives=[atom() for _ in range(n_pos)],
        negatives=[atom() for _ in range(n_neg)],
    )


def random_mixed_system(rng: random.Random) -> ConstraintSystem:
    """Random system whose positives mix a power atom (k = 2..6) with a predicate atom."""

    def power():
        return pow_atom(rng.randint(2, 6), rng.randint(1, 12), rng.randint(-20, 20))

    def pred():
        decl = random_int_valued_pred(rng, f"P{rng.randrange(10**6)}", rng.choice((2, 3)))
        return depress_ascending(decl.ascending(), rng.randint(1, 6), rng.randint(-20, 20))

    positives = [power(), pred()] + [rng.choice((power, pred))() for _ in range(rng.randint(0, 1))]
    return ConstraintSystem(
        lower=rng.randint(-20, 20),
        positives=positives,
        negatives=[rng.choice((power, pred))() for _ in range(rng.randint(0, 1))],
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def holds_calls(monkeypatch):
    """The points at which `PolyAtom.holds` is called, in order."""
    calls = []
    holds = PolyAtom.holds

    def counted(atom, x):
        calls.append(x)
        return holds(atom, x)

    monkeypatch.setattr(PolyAtom, "holds", counted)
    return calls


@pytest.fixture
def stokens_built(monkeypatch):
    """The texts of the `SToken`s built, in order; only a located reading builds them."""
    built = []
    new = SToken.__new__

    def counted(cls, text, off, src):
        built.append(text)
        return new(cls, text, off, src)

    monkeypatch.setattr(SToken, "__new__", counted)
    return built
