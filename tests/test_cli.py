from pathlib import Path

import pytest

from unipres import cli, oracle, parse

FIXTURES = Path(__file__).parent / "fixtures"

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
    poly = write(tmp_path, "poly.sexp", "(declare-pred T (coeffs 1 0 0)) (exists x (pred T x))")
    bad = write(tmp_path, "bad.sexp", "(exists x (> x y))")

    decide = cli.decide_power

    def broken(system, options):
        if "depress:T" in system.trace:
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


# fixture -> (exit code, verdict, witness) at --bound 200
GOLDEN = {
    "catalan": (2, "unknown", None),
    "cubic_merge_sat": (0, "sat", 12),
    "fermat": (2, "unknown", None),
    "fibonacci_cube": (2, "unknown", None),
    "forced_unsat": (1, "unsat", None),
    "gessel_sat": (0, "sat", 169),
    "simple_sat": (0, "sat", 4),
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


def test_malformed_fixture_is_an_input_error(capsys):
    path = str(FIXTURES / "malformed.sexp")
    assert cli.main(["--bound", "200", "--format", "json-lines", path]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    message = "power exponent must be >= 2, got 1 at 1:29"
    assert err == f"error: {path}: {message}\n"
    [record] = cli.read_records(out)
    assert (record["verdict"], record["error"], record["message"]) == ("error", "input", message)


def test_witness_is_the_first_hit_in_abs_order_of_the_working_variable(tmp_path, capsys):
    # -3x - 15 < x - 2 holds for x >= -3; the scan visits 0, -1, 1, ... above the bound.
    path = write(tmp_path, "half_line.sexp", "(exists x (< (+ (* -3 x) -15) (+ x -2)))")
    assert cli.main(["--format", "json-lines", path]) == cli.EXIT_SAT
    [record] = cli.read_records(capsys.readouterr().out)
    assert (record["verdict"], record["witness"]) == ("sat", 0)
    assert record["case_trace"] == ["power:none", "witness-scan:hit"]


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
