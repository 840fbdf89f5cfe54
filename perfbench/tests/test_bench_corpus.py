"""Corpora are deterministic per seed and render to the sentences they describe."""

import bench_paths  # noqa: F401  (must precede the imports below)

import dataclasses
import json
from pathlib import Path

import pytest

import corpus
import run
import unipres
import unipres.encoder
from unipres.formula import format_formula

ROOT = Path(__file__).resolve().parents[2]


def _texts(name, seed):
    small = dataclasses.replace(corpus.WORKLOADS[name], size=400)
    return "\n\n".join(c.text for c in small.build(seed)).encode()


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(name):
    assert _texts(name, 7) == _texts(name, 7)
    assert _texts(name, 7) != _texts(name, 8)


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_generated_text_parses(name):
    for case in dataclasses.replace(corpus.WORKLOADS[name], size=300).build(3):
        if isinstance(case, corpus.PolyCase):
            unipres.encoder.parse_poly(case.text)
        elif case.sentence is not None:
            unipres.parse(case.text)


@pytest.mark.parametrize("name", sorted(n for n in corpus.FIXTURES if n != "malformed"))
def test_fixture_transcription_matches_fixture_file(name):
    path = ROOT / "tests" / "fixtures" / f"{name}.sexp"
    if not path.exists():
        pytest.skip("fixture files are not part of this checkout")
    want = format_formula(unipres.parse(path.read_text()))
    assert format_formula(unipres.parse(corpus.FIXTURES[name].text)) == want


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_case_counter_names():
    assert run.case_counter("power:single:images") == "case.power.single"
    assert run.case_counter("crt:12+5") == "case.crt"
    assert run.case_counter("depress:P0") == "case.depress"
    assert run.case_counter("redundant:drop-positive:2:1:0") == "case.redundant.drop-positive"
    assert run.case_counter("something:new") == "case.other"


def _flags_known_defect(sentence):
    quadratic = {n for n, cs in sentence.decls if len(cs) == 3}
    cubic = {n for n, cs in sentence.decls if len(cs) == 4}
    body = sentence.body
    lits = list(body[1]) if body[0] == "and" else [body]
    return any(corpus._reaches_known_defect(c, quadratic, cubic) for c in corpus._conjuncts(sentence.kind, lits))


def test_defect_shapes_cover_the_repros():
    for repro in (corpus.CRASH_POW4_NEGATIVE_POLY, corpus.HANG_PELL_WINDOW, corpus.HANG_PELL_CUBIC_FILTER,
                  corpus.SLOW_COALESCED_POWER):
        assert _flags_known_defect(repro.sentence), repro.name


def test_mixed_draws_no_known_defect_shape():
    mixed = dataclasses.replace(corpus.WORKLOADS["mixed"], size=2000)
    seeded = mixed.build(5)[len(mixed.fixed):]
    assert not any(_flags_known_defect(case.sentence) for case in seeded)
