from pathlib import Path

import pytest

from unipres import cli
from unipres._ast import PolyAtom

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
        if any(isinstance(a, PolyAtom) for a in system.positives + system.negatives):
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
