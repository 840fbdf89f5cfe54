import sys
import time
from pathlib import Path

import pytest

from unipres import SolveOptions, cli, oracle, parse
from unipres.cli import RunConfig
from unipres.power_solver import Verdict, decide

FIXTURES = Path(__file__).parent / "fixtures"

OPEN_CUBICS = (
    "(declare-pred P0 (coeffs -1/6 3/2 5/3 2))\n"
    "(exists x (and (pred P0 (+ (* -1 x) -2)) (pow 2 (+ (* 3 x) 13)) (pred P0 (+ (* 2 x) -12)) (> (+ x 5) 34)))\n"
)

DNF_CAP_REPRO = (
    "(exists x (and (> x 0) (not (mod x 50 1)) (not (mod x 51 1)) (not (mod x 53 1))))"
)


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_disjunct_expansion_cap_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "wide.sexp", DNF_CAP_REPRO)
    assert cli.main([path]) == cli.EXIT_INPUT == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "disjuncts" in err
    assert "Traceback" not in err


def test_internal_error_has_its_own_exit_code_and_keeps_other_results(tmp_path, capsys, monkeypatch):
    power = write(tmp_path, "power.sexp", "(exists x (and (> x 0) (pow 2 x) (not (pow 4 x))))")
    # Off x = 0, where the least-witness gate would answer before any decide.
    poly = write(tmp_path, "poly.sexp", "(declare-pred T (coeffs 1 0 0)) (exists x (pred T (+ x 2)))")
    bad = write(tmp_path, "bad.sexp", "(exists x (> x y))")

    decide = cli.decide_power

    def broken(system, options):
        # Only the poly file has no comparison, so only it splits by sign.
        if "case-split:positive" in system.trace:
            raise RuntimeError("solver fault")
        return decide(system, options)

    monkeypatch.setattr(cli, "decide_power", broken)
    assert cli.main(["--format", "json-lines", poly, bad, power]) == cli.EXIT_INTERNAL == 70
    out, err = capsys.readouterr()
    records = cli.read_records(out)
    assert [(r["file"], r["verdict"]) for r in records] == [(poly, "error"), (bad, "error"), (power, "sat")]
    assert records[0]["error"] == "internal" and records[0]["message"] == "solver fault"
    assert records[1]["error"] == "input"
    assert records[2]["witness"] == 4
    assert "RuntimeError: solver fault" in err

    # Human output: the good file still prints its verdict line.
    assert cli.main([poly, power]) == 70
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"{power}[0]: sat x=4"]
    assert f"error: {poly}: solver fault" in err


# x = 2^30000 - 3 has 9,031 digits, past Python's default limit of 4,300
# for converting an int to a string.
LARGE_WITNESS = "(exists x (and (> x 10) (pow 30000 (+ x 3))))"


@pytest.fixture
def digit_limit():
    """Puts back the int-to-string digit limit, which `cli.main` lifts."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield None
        return
    before = sys.get_int_max_str_digits()
    yield before
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ["human", "json-lines"])
def test_a_witness_past_the_digit_limit_prints_in_full(tmp_path, capsys, digit_limit, fmt):
    path = write(tmp_path, "large.sexp", LARGE_WITNESS)
    assert cli.main(["--bound", "200", "--format", fmt, path]) == cli.EXIT_SAT
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "human":
        assert out == f"sat x={2**30000 - 3}\n"
    else:
        [record] = cli.read_records(out)
        assert (record["verdict"], record["witness"]) == ("sat", 2**30000 - 3)


def test_a_fault_while_reporting_has_the_internal_exit_code(tmp_path, capsys, monkeypatch, digit_limit):
    # A result that cannot be printed exits 70, never with its verdict's
    # code, and the other files are still reported.
    good = write(tmp_path, "good.sexp", "(exists x (and (> x 0) (pow 2 x) (not (pow 4 x))))")
    large = write(tmp_path, "large.sexp", LARGE_WITNESS)
    printable = cli.SolveOutcome.printable

    def broken(outcome):
        if outcome.verdict.witness != 4:
            raise ValueError("cannot print")
        return printable.fget(outcome)

    monkeypatch.setattr(cli.SolveOutcome, "printable", property(broken))
    config = RunConfig([large, good], SolveOptions(enum_bound=200))
    assert cli.run(config) == cli.EXIT_INTERNAL == 70
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"{good}[0]: sat x=4"]
    assert f"error: {large}: cannot print" in err
    if digit_limit is None:
        return
    # Without `main`'s lift, the json record of the large witness fails to print.
    sys.set_int_max_str_digits(4300)
    config = RunConfig([large, good], SolveOptions(enum_bound=200), "json-lines")
    assert cli.run(config) == cli.EXIT_INTERNAL
    records = cli.read_records(capsys.readouterr().out)
    assert [(r["file"], r["verdict"]) for r in records] == [(large, "error"), (good, "sat")]
    assert records[0]["error"] == "internal"


@pytest.mark.parametrize("text, trace", [
    # The two case-split systems are clones of the one that logged the
    # congruence; each refuted half logs its own empty-residues entry.
    ("(exists x (and (mod x 7 3) (pow 3 (+ x 1)) (not (pow 2 x))))",
     ["crt:7+3", "case-split:positive", "poly:empty-residues",
      "case-split:negative", "negative-tail:discharged", "poly:empty-residues"]),
    # The bounded head of a negative tail is a clone: unsat below 51, then
    # the rest answers x = 100 from its window.
    ("(exists x (and (> x 0) (mod x 2 0) (pow 2 (+ x -100)) (not (pow 2 (+ (* -1 x) 50)))))",
     ["crt:2+0", "negative-tail:bounded-part", "interval:enumerated", "negative-tail:discharged",
      "witness-scan:window"]),
])
def test_a_cloned_system_traces_each_entry_once(text, trace):
    out = cli.solve_formula(parse(text), SolveOptions(enum_bound=200))
    assert out.case_trace == trace


# fixture -> (exit code, verdict, witness) at --bound 200
GOLDEN = {
    "catalan": (2, "unknown", None),
    "coalesced_power": (0, "sat", 30),
    "cubic_merge_sat": (0, "sat", 12),
    "fermat": (2, "unknown", None),
    "fibonacci_cube": (2, "unknown", None),
    "forced_unsat": (1, "unsat", None),
    "gessel_sat": (0, "sat", 169),
    "least_witness": (0, "sat", -1),
    "pell_discard": (0, "sat", 6724),
    "sign_paths": (0, "sat", 1),
    "simple_sat": (0, "sat", 4),
    "three_cubics": (1, "unsat", None),
    "wide_interval": (0, "sat", 1),
}


def test_golden_covers_every_fixture():
    assert sorted(p.stem for p in FIXTURES.glob("*.sexp")) == sorted([*GOLDEN, "malformed"])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_golden(name, capsys):
    path = str(FIXTURES / f"{name}.sexp")
    code, verdict, witness = GOLDEN[name]
    assert cli.main(["--bound", "200", "--format", "json-lines", path]) == code
    [record] = cli.read_records(capsys.readouterr().out)
    assert (record["verdict"], record["witness"]) == (verdict, witness)


@pytest.mark.parametrize("text, trace", [
    # 2x a fourth power needs an odd 2-adic valuation of x, a sixth power
    # an even one: the coalesced atoms meet only at x = 0.
    ("(exists x (and (> x 0) (pow 4 (* 2 x)) (pow 6 x)))", ["coalesce:incompatible"]),
    # x = w^2 and x + 9 = u^2: (u - w)(u + w) = 9 leaves x = 0 and x = 16.
    ("(exists x (and (> x 100) (pow 2 x) (pow 2 (+ x 9))))", ["poly:pair:divisor", "finite:exhausted"]),
])
def test_complete_paths_refute_as_the_scan(text, trace):
    f = parse(text)
    out = cli.solve_formula(f, SolveOptions(enum_bound=200))
    assert (out.verdict, out.case_trace) == (Verdict.unsat(), trace)
    assert oracle.scan(f, 2000).witnesses == ()


def test_coalesced_power_fixture_at_the_default_bound(capsys):
    # Coalesced into one Z^15 atom whose 3^9 residues mod 3^10 are the one
    # class of the multiples of 3: a single image polynomial.
    assert cli.main([str(FIXTURES / "coalesced_power.sexp")]) == cli.EXIT_SAT
    assert capsys.readouterr().out == "sat x=30\n"


def test_wide_interval_scan_stops_at_its_first_witness(capsys, holds_calls):
    # 0 < x < 10^8 at the default bound: x = 1 is a square, and no later
    # point of the (|y|, y) walk can give a smaller |x|.
    assert cli.main([str(FIXTURES / "wide_interval.sexp")]) == cli.EXIT_SAT
    assert capsys.readouterr().out == "sat x=1\n"
    assert len(holds_calls) <= 2


def test_wide_interval_without_a_hit_tests_its_first_bound_points(holds_calls):
    f = parse("(exists x (and (> x 0) (< x 100000000) (pow 2 (+ x 1000000000000))))")
    v = cli.solve_formula(f, SolveOptions(enum_bound=1000)).verdict
    assert (v.status, v.bound) == ("unknown", 1000)
    assert holds_calls == list(range(1, 1001))


def test_three_cubics_is_refuted_at_the_default_bound(capsys):
    # Each open system has no residue mod 7 at which its three cubic atoms
    # all hold, so no system walks even at the default bound.
    start = time.perf_counter()
    assert cli.main([str(FIXTURES / "three_cubics.sexp")]) == cli.EXIT_UNSAT
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "unsat\n"


def test_an_open_cubic_system_walks_at_a_wide_bound(tmp_path, capsys):
    # Its positive atoms hold together modulo every sieve modulus, so the
    # system walks 2*10^5 + 1 points of one cubic with a linear part and
    # filters their images by the other two atoms.
    path = write(tmp_path, "walk.sexp", OPEN_CUBICS)
    assert cli.main(["--bound", "100000", path]) == cli.EXIT_UNKNOWN
    out = "unknown (bounded enumeration (poly:multi:bounded) found no witness, bound=100000)\n"
    assert capsys.readouterr().out == out


def test_a_large_power_exponent_answers_at_once(tmp_path, capsys):
    # The lattice of u^10000 needs no shift and no rescaling, so its 10001
    # coefficients are not walked in O(d^2) steps (which took seconds).
    path = write(tmp_path, "pow.sexp", "(exists x (pow 10000 x))")
    start = time.perf_counter()
    assert cli.main(["--bound", "200", path]) == cli.EXIT_SAT
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "sat x=0\n"


@pytest.mark.parametrize("flag", ["--bound", "--scan-cap"])
def test_non_positive_bounds_are_input_errors(flag, capsys):
    assert cli.main([flag, "0", str(FIXTURES / "simple_sat.sexp")]) == cli.EXIT_INPUT == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: bounds must be positive"]


def test_malformed_fixture_is_an_input_error(capsys):
    path = str(FIXTURES / "malformed.sexp")
    assert cli.main(["--bound", "200", "--format", "json-lines", path]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    message = "power exponent must be >= 2, got 1 at 1:29"
    assert err == f"error: {path}: {message}\n"
    [record] = cli.read_records(out)
    assert (record["verdict"], record["error"], record["message"]) == ("error", "input", message)


def test_witness_is_the_least_in_abs_order_of_the_sentence_variable(tmp_path, capsys):
    # -3x - 15 < x - 2 holds for x >= -3, so at x = 0, the least point of
    # the (|x|, x) order: the gate answers there and builds no system.
    path = write(tmp_path, "half_line.sexp", "(exists x (< (+ (* -3 x) -15) (+ x -2)))")
    assert cli.main(["--format", "json-lines", path]) == cli.EXIT_SAT
    [record] = cli.read_records(capsys.readouterr().out)
    assert (record["verdict"], record["witness"]) == ("sat", 0)
    assert record["case_trace"] == ["least-witness"]


@pytest.fixture
def decided(monkeypatch):
    """The systems that `cli.solve_formula` decides, in order."""
    systems = []
    decide = cli.decide_power

    def spy(system, options):
        systems.append(system)
        return decide(system, options)

    monkeypatch.setattr(cli, "decide_power", spy)
    return systems


@pytest.mark.parametrize("text, options, count, witness", [
    # 6 conjuncts, 7 systems; x = 0 fails the congruence, the first
    # system, the y >= 0 half of x = 1 (mod 7), answers x = 8, and x = -1
    # (a square minus one, x = 6 (mod 7)) is found below it.
    ("(exists x (and (pow 2 (+ x 1)) (not (mod x 7 0))))", SolveOptions(enum_bound=200), 1, -1),
    # The first conjunct answers x = 633^2 = 400689; the lattice images of
    # 2x + 1 = u^3 below it give x = 13 without a bounded walk.
    ("(exists x (or (and (> x 400000) (pow 2 x)) (and (pow 2 (+ x 3)) (pow 3 (+ (* 2 x) 1)))))",
     SolveOptions(), 1, 13),
])
def test_the_first_sat_system_stops_the_decide_loop(decided, text, options, count, witness):
    f = parse(text)
    out = cli.solve_formula(f, options)
    assert (out.verdict.status, out.verdict.witness) == ("sat", witness)
    assert len(decided) <= count
    assert out.case_trace[-1] == "least-witness"
    assert min(oracle.scan(f, abs(witness)).witnesses, key=lambda x: (abs(x), x)) == witness


def test_a_listing_past_the_bound_falls_back_to_deciding_every_system(decided):
    # At enum_bound 10 the first sat is x = 1024.  Below it the second
    # conjunct has 124 points and lists 3x = u^2 up to |u| = 55, both past
    # the bound, so every system is decided and combined.
    f = parse("(exists x (or (and (> x 1000) (pow 2 x)) (and (> x 900) (pow 2 (* 3 x)))))")
    options = SolveOptions(enum_bound=10)
    out = cli.solve_formula(f, options)
    systems = cli.normalize(f).systems
    assert out.verdict == cli._combine([decide(s, options) for s in systems]) == Verdict.sat(972)
    assert len(decided) == len(systems) == 2
    assert "least-witness" not in out.case_trace


def test_a_sparse_image_polynomial_evaluates_at_once(tmp_path, capsys):
    # x + 3 = u^100000 at x = -2; the image polynomial is evaluated by its
    # nonzero terms, where dense Horner over 100001 coefficients took seconds.
    path = write(tmp_path, "pow.sexp", "(exists x (pow 100000 (+ x 3)))")
    start = time.perf_counter()
    assert cli.main(["--bound", "200", path]) == cli.EXIT_SAT
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "sat x=-2\n"


def test_curve_pell_image_integral_only_on_its_residues(tmp_path, capsys):
    # The derived image x(v1) of (2x, 3x + 12) against the Gessel cubic is
    # integral only on the filtered residues of v1.
    text = (
        "(declare-pred G (coeffs 1 0 -3 0)) "
        "(exists x (and (> x 0) (pow 2 (* 2 x)) (pow 2 (+ (* 3 x) 12)) (pred G (+ x 2))))"
    )
    path = write(tmp_path, "gessel_pell.sexp", text)
    assert cli.main(["--bound", "200", "--format", "json-lines", path]) == cli.EXIT_SAT
    [record] = cli.read_records(capsys.readouterr().out)
    assert (record["verdict"], record["witness"]) == ("sat", 968)
    assert oracle.scan(parse(text), 968).witnesses == (968,)


UNRELATED_PRED = "(declare-pred P (coeffs 1 0 1))"
UNRELATED_LIT = "(not (pred P (+ x 1000)))"
SQUARE_TRIPLE = "(> x 0) (pow 2 (+ x 1)) (pow 2 (+ (* 3 x) 7)) (pow 2 (+ (* 4 x) 9))"
POWER_PAIR = "(> x 20) (pow 2 (+ x 6)) (pow 5 (+ x -20))"


@pytest.mark.parametrize("atoms, verdict, witness", [(SQUARE_TRIPLE, "unsat", None), (POWER_PAIR, "sat", 6436363)])
@pytest.mark.parametrize("negated", [False, True])
def test_an_unrelated_negated_predicate_keeps_the_answer(tmp_path, capsys, atoms, verdict, witness, negated):
    text = f"(exists x (and {atoms}))"
    if negated:
        text = f"{UNRELATED_PRED} (exists x (and {atoms} {UNRELATED_LIT}))"
    path = write(tmp_path, "s.sexp", text)
    cli.main(["--bound", "200", "--format", "json-lines", path])
    [record] = cli.read_records(capsys.readouterr().out)
    assert (record["verdict"], record["witness"]) == (verdict, witness)
