"""Running one op through the public library path and classifying it.

An op is a sentence (`formula.parse` then `cli.solve_formula`) or a
polynomial (`encoder.parse_poly`, `encode`, `check_equiv`).  Its raw
result is one of

    ("verdict", status, witness, case_trace)
    ("parse-error", message)
    ("crash", "ExceptionType: message")
    ("timeout",)

and `classify` turns a raw result plus the reference checker's finding
into an outcome: "ok", "unknown" or "failed", with a failure kind of
"crash", "wrong" or "timeout".
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


@contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in this process if the body runs past `seconds`."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def solve_sentence(unipres, text: str, options):
    """Raw result of one sentence op (exceptions other than timeouts included)."""
    try:
        formula = unipres.formula.parse(text)
    except unipres.ParseError as exc:
        return ("parse-error", str(exc))
    out = unipres.cli.solve_formula(formula, options)
    v = out.verdict
    return ("verdict", v.status, v.witness, tuple(out.case_trace))


def encode_poly(unipres, text: str, grid: int):
    """Raw result of one encoder op: the parsed monomials and the equivalence report."""
    enc = unipres.encoder
    h = enc.parse_poly(text)
    report = enc.check_equiv(h, enc.encode(h), grid)
    return ("encoded", h.nvars, h.monomials, report.passed, report.counterexample, report.checked)


def timed(fn, deadline_s: float):
    """(raw result, elapsed ms); a timeout's elapsed time is the deadline it hit."""
    t0 = time.perf_counter()
    try:
        with deadline(deadline_s):
            raw = fn()
    except OpTimeout:
        raw = ("timeout",)
    except Exception as exc:  # any other exception is a crash of the op
        raw = ("crash", f"{type(exc).__name__}: {exc}")
    return raw, (time.perf_counter() - t0) * 1000.0


def classify(raw, allowed, refuted: bool) -> tuple[str, str | None]:
    """(outcome, failure kind) for a raw result.

    allowed: hand-written acceptable verdicts, or None.
    refuted: the reference checker contradicted the answer.
    """
    tag = raw[0]
    if tag == "timeout":
        return "failed", "timeout"
    if tag == "crash":
        return "failed", "crash"
    status = "parse-error" if tag == "parse-error" else raw[1] if tag == "verdict" else "encoded"
    if allowed is not None and status not in allowed:
        return ("failed", "crash") if tag == "parse-error" else ("failed", "wrong")
    if allowed is None and tag == "parse-error":
        return "failed", "crash"
    if refuted:
        return "failed", "wrong"
    if status == "unknown":
        return "unknown", None
    return "ok", None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; +inf entries sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Machine speed.
#
# The benchmark's host is shared, and its speed drifts by 20-50% within a
# minute.  A fixed pure-Python loop, timed between ops, measures that drift
# next to the ops it affects.  It shares no code with the program, so a
# change to the program does not move it.

REFERENCE_MS = 0.35     # the loop's time on the machine the benchmark was tuned on
REFERENCE_WINDOW = 9    # reference samples whose median gives an op's local speed


def reference_loop() -> int:
    """Integer arithmetic, a dict and str formatting: the interpreter work
    that the solver and the encoder's set-up do."""
    total = 0
    for i in range(3000):
        total += (i * i) % 7
    table = {}
    for i in range(300):
        table[(i, i % 5)] = str(i)
    return total + len(table)


def reference_ms() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t0) * 1000.0


def speed_factors(nops: int, marks) -> list[float]:
    """REFERENCE_MS / (local reference time) for each of `nops` ops.

    marks: (op index, reference ms) samples in run order; a sample taken
    before op i has index i.  Op i takes the median of the REFERENCE_WINDOW
    samples nearest it, so one disturbed sample does not move it.
    """
    if not marks:
        return [1.0] * nops
    times = [ms for _, ms in marks]
    half = REFERENCE_WINDOW // 2
    local = []
    for j in range(len(times)):
        lo = max(0, min(j - half, len(times) - REFERENCE_WINDOW))
        local.append(statistics.median(times[lo : lo + REFERENCE_WINDOW]))
    factors = []
    j = 0
    for i in range(nops):
        while j + 1 < len(marks) and marks[j + 1][0] <= i:
            j += 1
        factors.append(REFERENCE_MS / local[j])
    return factors
