from unipres import cli

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

    def broken(system, options):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(cli, "decide_poly", broken)
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
