"""Outcome classification, the per-op deadline and the tracer."""

import bench_paths  # noqa: F401  (must precede the imports below)

import math

import pytest

import corpus
import ops
import run
import tracing
import unipres
import unipres.cli


@pytest.mark.parametrize(
    "raw, allowed, refuted, want",
    [
        (("timeout",), None, False, ("failed", "timeout")),
        (("crash", "ValueError: x"), {"sat"}, False, ("failed", "crash")),
        (("parse-error", "bad"), {"parse-error"}, False, ("ok", None)),
        (("parse-error", "bad"), None, False, ("failed", "crash")),
        (("parse-error", "bad"), {"sat"}, False, ("failed", "crash")),
        (("verdict", "sat", 3, ()), {"parse-error"}, False, ("failed", "wrong")),
        (("verdict", "sat", 3, ()), {"unsat", "unknown"}, False, ("failed", "wrong")),
        (("verdict", "unknown", None, ()), {"unsat", "unknown"}, False, ("unknown", None)),
        (("verdict", "unknown", None, ()), None, False, ("unknown", None)),
        (("verdict", "unsat", None, ()), None, True, ("failed", "wrong")),
        (("verdict", "sat", 3, ()), None, False, ("ok", None)),
        (("encoded", 1, (), True, None, 7), None, False, ("ok", None)),
        (("encoded", 1, (), False, (0,), 1), None, True, ("failed", "wrong")),
    ],
)
def test_classify(raw, allowed, refuted, want):
    assert ops.classify(raw, allowed, refuted) == want


def test_percentile_counts_failures_as_infinite():
    values = [1.0] * 85 + [math.inf] * 15
    assert ops.percentile(values, 0.5) == 1.0
    assert ops.percentile(values, 0.9) == math.inf
    assert ops.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_deadline_stops_a_busy_op():
    def spin():
        while True:
            pass

    raw, ms = ops.timed(spin, 0.05)
    assert raw == ("timeout",)
    assert 40 <= ms < 2000


def test_timed_reports_crashes():
    raw, _ = ops.timed(lambda: 1 // 0, 1.0)
    assert raw[0] == "crash" and raw[1].startswith("ZeroDivisionError")


def test_tracer_patches_every_binding_and_restores_them():
    originals = (unipres.cli.normalize, unipres.cli.decide_power, unipres._ast.kth_root, unipres.formula.kth_root)
    tracer = tracing.Tracer()
    tracer.install(unipres)
    try:
        assert unipres.cli.normalize is not originals[0]
        assert unipres._ast.kth_root is unipres.power_solver.kth_root is not originals[2]
        tracer.begin_op(0)
        raw = ops.solve_sentence(unipres, corpus.FIXTURES["simple_sat"].text, unipres.SolveOptions(enum_bound=100))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (unipres.cli.normalize, unipres.cli.decide_power, unipres._ast.kth_root,
            unipres.formula.kth_root) == originals
    assert raw[:2] == ("verdict", "sat")
    names = {s[3] for s in tracer.spans}
    assert {"cli.solve_formula", "formula.parse", "formula.normalize", "power_solver.decide"} <= names
    assert tracer.calls["numtheory.kth_root"] > 0
    assert tracer.counters["formula.normalize.systems"] >= 1
    root = next(s for s in tracer.spans if s[3] == "cli.solve_formula")
    total = root[5] - root[4]
    assert 0 < tracer.self_ns["cli.solve_formula"] <= total


def test_speed_factors_take_the_local_median_of_the_reference_times():
    ref = ops.REFERENCE_MS
    # One reference sample before each op and one after the last; the
    # machine runs at half speed from op 20 on, and one sample is disturbed.
    times = [ref] * 20 + [2 * ref] * 21
    times[5] = 9 * ref
    factors = ops.speed_factors(40, list(enumerate(times)))
    assert factors[:16] == [1.0] * 16
    assert factors[25:] == [0.5] * 15
    assert ops.speed_factors(3, []) == [1.0] * 3


def test_timings_count_failures_as_infinite():
    records = [{"ms": 2.0, "outcome": "ok"}, {"ms": 2.0, "outcome": "unknown"}, {"ms": 1.0, "outcome": "failed"}]
    got = run.timings(records, "ms")
    assert got == {"ops_per_s": 500.0, "op_ms_p50": 2.0, "op_ms_p90": math.inf}
