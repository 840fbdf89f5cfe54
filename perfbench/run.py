"""The unipres benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 40 --trace 0

Workloads: mixed, exhaustive, wide-modulus, encode (see corpus.WORKLOADS
and perfbench/README.md).  One process runs the ops one after another
(a closed loop, one client, no threads) through the public library path
until --seconds have passed.  Every answer is checked by `reference.py`,
which shares no code with the program.  A fixed reference loop timed
between the ops gives the machine's speed; the bounded timings are the
ops' times scaled to the reference speed (`ops.speed_factors`).

--trace 0 reports the end-to-end metrics; --trace 1 wraps the program's
public functions (`tracing.py`) and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Per-op records, a summary and (traced)
spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 30
CALIBRATE_EVERY_MS = 10.0
DIGEST_CASES = 100
# Repros of known defects run after the measured loop, each under its own
# deadline, and are reported apart from the measured ops, since they fail
# on every run.  The `mixed` generator leaves out the shapes of those its
# random sentences reached (`corpus._reaches_known_defect`).
PROBES = {
    "mixed": (corpus.WRONG_CUBIC_MERGE, corpus.CRASH_POW4_NEGATIVE_POLY, corpus.HANG_PELL_WINDOW,
              corpus.HANG_PELL_CUBIC_FILTER, corpus.SLOW_COALESCED_POWER),
}
PROBE_DEADLINE_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "decided_share": "ratio",
}

LAYER_MS = (
    "cli.solve_formula", "formula.parse", "formula.normalize",
    "power_solver.preprocess", "poly_solver.preprocess_poly",
    "power_solver.solve_positive", "poly_solver.solve_positive_poly",
    "power_solver.decide", "poly_solver.decide_poly",
    "numtheory.kth_root", "numtheory.floor_root", "numtheory.integer_roots",
    "pell.solve_generalized", "lrbs.filter_congruence",
    "encoder.parse_poly", "encoder.encode", "encoder.check_equiv",
)
LAYER_CALLS = (
    "numtheory.kth_root", "numtheory.floor_root", "numtheory.integer_roots",
    "numtheory.crt_extended", "numtheory.factor",
    "pell.solve_generalized", "lrbs.filter_congruence",
)
LAYER_COUNTERS = (
    "formula.normalize.systems", "formula.normalize.resolved",
    "power_solver.members.drawn", "encoder.check_equiv.points",
)
# Two-component prefixes of the solver's case_trace labels; parameters
# (moduli, predicate names, coefficients) are dropped and anything else is
# counted under case.other.
CASES = (
    "power.none", "power.empty-residues", "power.single", "power.pair", "power.multi",
    "poly.none", "poly.empty-residues", "poly.single", "poly.pair", "poly.triple",
    "poly.multi", "poly.mixed-power", "poly.direct-contradiction",
    "witness-scan.hit", "witness-scan.capped", "witness-scan.exhausted", "witness-scan.value-cap",
    "finite.witness", "finite.exhausted", "interval.enumerated", "interval.too-wide",
    "equality.substituted", "unconstrained", "sign-flip",
    "case-split.zero", "case-split.positive", "case-split.negative",
    "negative-tail.bounded-part", "negative-tail.discharged", "crt", "depress",
    "coalesce", "coalesce.incompatible",
    "redundant.drop-positive", "redundant.drop-negative",
    "redundant.forced-false-positive", "redundant.negative-contradiction",
    "poly-redundant.merge", "poly-redundant.point-only", "poly-redundant.conic-point",
    "poly-redundant.negative-covers-positive",
    "discard.index-progressions", "discard.all-indices-removed", "other",
)
CASE_WORD = re.compile(r"[a-z][a-z-]*\Z")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{n}.ms": "ms/op" for n in LAYER_MS}
    units.update({f"{n}.calls": "count/op" for n in LAYER_CALLS})
    units.update({n: "count/op" for n in LAYER_COUNTERS})
    units.update({f"case.{c}": "count/op" for c in CASES})
    units["trace.overhead_ratio"] = "ratio"
    return units


def case_counter(label: str) -> str:
    words = []
    for part in label.split(":")[:2]:
        if not CASE_WORD.match(part):
            break
        words.append(part)
    name = ".".join(words)
    return f"case.{name}" if name in CASES else "case.other"


# ---------------------------------------------------------------------------
# Running ops.


def op_runner(unipres, workload, deadline_s=None):
    options = unipres.SolveOptions(enum_bound=workload.bound)
    deadline_s = deadline_s or workload.deadline_s

    def run(case):
        if isinstance(case, corpus.PolyCase):
            fn = lambda: ops.encode_poly(unipres, case.text, case.grid)  # noqa: E731
        else:
            fn = lambda: ops.solve_sentence(unipres, case.text, options)  # noqa: E731
        return ops.timed(fn, deadline_s)

    return run


def closed_loop(run, cases, seconds: float, on_op=None, calibrate=True) -> tuple[list, list]:
    """Run cases in order until `seconds` have passed.

    Returns the ops run, (index, case, raw result, ms), and the reference
    loop's times, (index of the next op, ms), taken before the first op,
    after every CALIBRATE_EVERY_MS of op time and after the last op.
    """
    done, marks = [], []
    since = CALIBRATE_EVERY_MS
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        if calibrate and since >= CALIBRATE_EVERY_MS:
            marks.append((i, ops.reference_ms()))
            since = 0.0
        case = cases[i % len(cases)]
        if on_op is not None:
            on_op(i)
        raw, ms = run(case)
        done.append((i, case, raw, ms))
        since += ms
        i += 1
    if calibrate:
        marks.append((i, ops.reference_ms()))
    return done, marks


def refutation(workload, case, raw) -> str | None:
    """The reference checker's reason to reject an answer, or None."""
    if raw[0] == "encoded":
        return reference.refutes_encoding(case, raw)
    if raw[0] != "verdict" or case.sentence is None:
        return None
    return reference.refutes(case.sentence, raw[1], raw[2], workload.scan_bound)


def record(workload, index, case, raw, ms, outcome, kind, why) -> dict:
    rec = {"workload": workload, "index": index, "case": case.name, "outcome": outcome,
           "kind": kind, "ms": ms}
    if raw[0] == "verdict":
        rec.update(verdict=raw[1], witness=raw[2], case_path=list(raw[3]))
    elif raw[0] == "encoded":
        rec.update(verdict="passed" if raw[3] else "failed", witness=raw[4], case_path=[])
    else:
        rec.update(verdict=raw[0], witness=None, case_path=[], error=raw[1] if len(raw) > 1 else None)
    if why:
        rec["why"] = why
    return rec


def answer_digest(records, workload) -> tuple[str, int]:
    """sha256 over the (case, verdict, witness) answers of the fixed cases and
    the first DIGEST_CASES seeded ones, which every run reaches; and how many
    cases it covers."""
    limit = len(workload.fixed) + DIGEST_CASES
    answers = sorted({(r["case"], str(r["verdict"]), str(r["witness"])) for r in records if 0 <= r["index"] < limit})
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest(), len(answers)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------
# Metrics.


def measure_setup(workload) -> list[tuple[float, float]]:
    """(seconds of set-up, local reference ms) for fresh processes.

    The reference time is the median of three reference loops before and
    three after the process.  The first (unrecorded) process compiles
    bytecode.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.name]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        before = [ops.reference_ms() for _ in range(3)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        after = [ops.reference_ms() for _ in range(3)]
        if i:
            samples.append((float(out.stdout.strip().splitlines()[-1]), statistics.median(before + after)))
    return samples


def answered_rate(latencies) -> float:
    """Answered ops per second of the time spent on them."""
    ms = [v for v in latencies if v != math.inf]
    return len(ms) / (sum(ms) / 1000.0) if ms else 0.0


def timings(records, key: str) -> dict:
    """Throughput and latency percentiles over the records' `key` times;
    failed ops count as +inf."""
    latencies = [r[key] if r["outcome"] != "failed" else math.inf for r in records]
    return {
        "ops_per_s": answered_rate(latencies),
        "op_ms_p50": ops.percentile(latencies, 0.50),
        "op_ms_p90": ops.percentile(latencies, 0.90),
    }


def end_to_end(records, setup_samples) -> dict:
    values = {
        "setup_s": statistics.median(s * ops.REFERENCE_MS / ref for s, ref in setup_samples),
        **timings(records, "ms_ref"),
        "decided_share": sum(r["outcome"] == "ok" for r in records) / len(records),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The two kinds of run.


def checked_records(workload, done) -> list[dict]:
    out = []
    for index, case, raw, ms in done:
        allowed = getattr(case, "allowed", None)
        why = refutation(workload, case, raw)
        outcome, kind = ops.classify(raw, allowed, why is not None)
        if kind == "wrong" and why is None:
            why = f"answer {raw[1]} is not among the allowed {sorted(allowed)}"
        out.append(record(workload.name, index, case, raw, ms, outcome, kind, why))
    return out


def plain_run(unipres, workload, cases, seconds, setup_samples):
    done, marks = closed_loop(op_runner(unipres, workload), cases, seconds)
    records = checked_records(workload, done)
    for r, factor in zip(records, ops.speed_factors(len(records), marks)):
        r["ms_ref"] = r["ms"] * factor
    probe = op_runner(unipres, workload, PROBE_DEADLINE_S)
    probes = checked_records(workload, [(-1, c, *probe(c)) for c in PROBES.get(workload.name, ())])
    return records, probes, end_to_end(records, setup_samples)


def traced_run(unipres, workload, cases, seconds):
    """Traced pass for half the time, then the same ops untraced for the overhead."""
    run = op_runner(unipres, workload)
    tracer = tracing.Tracer()
    tracer.install(unipres)
    try:
        done, _ = closed_loop(run, cases, seconds / 2, on_op=tracer.begin_op, calibrate=False)
    finally:
        tracer.end_op()
        tracer.uninstall()
    records = checked_records(workload, done)
    answered = [(case, ms) for (_, case, _, ms), r in zip(done, records) if r["outcome"] != "failed"]
    traced_ms = sum(ms for _, ms in answered)
    untraced_ms = sum(run(case)[1] for case, _ in answered)
    n = len(done)
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    for name in LAYER_MS:
        values[f"{name}.ms"] = tracer.self_ns[name] / 1e6 / n
    for name in LAYER_CALLS:
        values[f"{name}.calls"] = tracer.calls[name] / n
    for name in LAYER_COUNTERS:
        values[name] = tracer.counters[name] / n
    for r in records:
        for label in r["case_path"]:
            values[case_counter(label)] += 1 / n
    values["trace.overhead_ratio"] = traced_ms / untraced_ms if untraced_ms else 0.0
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return records, tracer, metrics


# ---------------------------------------------------------------------------


def report(workload, seed, records, probes, metrics, extra, paths) -> None:
    kinds = Counter(r["kind"] for r in records if r["kind"])
    outcomes = Counter(r["outcome"] for r in records)
    print(f"workload {workload.name}  seed {seed}  --bound {workload.bound}  deadline {workload.deadline_s} s  "
          f"ops {len(records)} (ok {outcomes['ok']}, unknown {outcomes['unknown']}, failed {outcomes['failed']})")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print("  failed by kind: " + (", ".join(f"{k} {n}" for k, n in sorted(kinds.items())) or "none"))
    seen = set()
    for r in records + probes:
        if r["kind"] and r["case"] not in seen:
            seen.add(r["case"])
            detail = r.get("why") or r.get("error") or ""
            probe = f"  (probe, deadline {PROBE_DEADLINE_S:g} s, not in the measured ops)" if r["index"] < 0 else ""
            print(f"    {r['kind']:8s} {r['case']}  {detail}{probe}")
    print(f"  unbounded: peak_rss_mb {extra['peak_rss_mb']:.6g} MB  failed_share {extra['failed_share']:.6g}  "
          f"src_lines {extra['src_lines']}")
    if "wall_clock" in extra:
        print("  unbounded, wall-clock as measured: "
              + "  ".join(f"{k} {v:.6g}" for k, v in extra["wall_clock"].items()))
    print(f"  answers digest (first {extra['answers_digest_cases']} cases) {extra['answers_digest']}")
    for p in paths:
        print(f"  wrote {p.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "unipres" / "__init__.py").is_file():
        print(f"error: no unipres package under {SRC}", file=sys.stderr)
        return 2
    workload = corpus.WORKLOADS[args.workload]
    setup_samples = [] if args.trace else measure_setup(workload)

    sys.path.insert(0, str(SRC))
    import unipres
    import unipres.cli
    import unipres.encoder

    cases = workload.build(args.seed)
    run = op_runner(unipres, workload)
    run(corpus.PolyCase("warmup", corpus.WARMUP_POLY, 2, (), 3) if workload.name == "encode"
        else corpus.WARMUP_SENTENCE)
    # The corpus (about 190000 objects for mixed) lives through the run.  A
    # full collection over it took 80 ms; frozen, it is left out of the
    # collections that land inside timed ops.
    gc.collect()
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    paths = [stem.with_suffix(".jsonl"), stem.with_suffix(".summary.json")]
    if args.trace:
        records, tracer, metrics = traced_run(unipres, workload, cases, args.seconds)
        probes = []
        paths.append(stem.with_suffix(".spans.jsonl"))
        tracer.write(paths[-1])
    else:
        records, probes, metrics = plain_run(unipres, workload, cases, args.seconds, setup_samples)
    failed = sum(r["outcome"] == "failed" for r in records)
    extra = {"peak_rss_mb": peak_rss_mb(), "failed_share": failed / len(records),
             "src_lines": src_lines()}
    if not args.trace:
        extra["wall_clock"] = {"setup_s_wall": statistics.median(s for s, _ in setup_samples),
                               **{f"{k}_wall": v for k, v in timings(records, "ms").items()}}
    extra["answers_digest"], extra["answers_digest_cases"] = answer_digest(records, workload)
    with open(paths[0], "w", encoding="utf-8") as fh:
        for r in records + probes:
            fh.write(json.dumps(r) + "\n")
    summary = {"workload": workload.name, "seed": args.seed, "bound": workload.bound,
               "deadline_s": workload.deadline_s, **extra, "setup_samples_s_ref_ms": setup_samples,
               "metrics": metrics}
    paths[1].write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    report(workload, args.seed, records, probes, metrics, extra, paths)
    correct = not any(r["kind"] == "wrong" for r in records)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
