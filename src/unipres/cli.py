"""Batch front end: read declarations plus sentences, decide, report.

Human output is one verdict line per sentence; structured output is
line-delimited JSON records with stable field names (verdict, witness,
case_trace, log, timings_ms), byte-identical across runs apart from the
timings field.  Exit codes: 0 sat, 1 unsat, 2 unknown, 64 input error
(unreadable file, syntax, or a sentence past the disjunct expansion cap),
70 internal error.  A batch exits with the highest code of its files; a
file that fails is reported (an `error:` line, and a record with verdict
"error" in json-lines) and the other files are still decided.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from ._ast import ParseError, Verdict
from .formula import Formula, NormalForm, conjunct_frame, conjunct_holds, normalize, parse, parse_multi
from .power_solver import SolveOptions, _by_magnitude, _by_size, least_witness, listed_hits
from .power_solver import decide as decide_power
from . import encoder

__all__ = ["RunConfig", "SolveOutcome", "solve_formula", "run", "read_records", "main"]

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 64
EXIT_INTERNAL = 70


@dataclass
class RunConfig:
    paths: list
    options: SolveOptions = field(default_factory=SolveOptions)
    fmt: str = "human"
    trace: bool = False
    multi: bool = False

    def __post_init__(self) -> None:
        if self.fmt not in ("human", "json-lines"):
            raise ValueError(f"unknown format {self.fmt!r}")


@dataclass
class SolveOutcome:
    verdict: Verdict
    negated: bool
    case_trace: list = field(default_factory=list)
    log: list = field(default_factory=list)

    @property
    def printable(self) -> str:
        v = self.verdict
        if v.is_sat:
            return f"sat x={v.witness}" if v.witness is not None else "sat"
        if v.is_unsat:
            return "unsat"
        return f"unknown ({v.reason}, bound={v.bound})"

    @property
    def exit_code(self) -> int:
        return {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "unknown": EXIT_UNKNOWN}[self.verdict.status]


def _combine(verdicts) -> Verdict:
    """The sat verdict with the least (|x|, x) witness, else the first unknown,
    else unsat: the answer of `solve_formula` when it decides every system."""
    witness = least_witness(v.witness for v in verdicts if v.is_sat)
    if witness is not None:
        return Verdict.sat(witness)
    return next((v for v in verdicts if v.is_unknown), Verdict.unsat())


def _least_hit(conj, best: int, bound: int) -> int | None:
    """The least (|x|, x) point before `best` at which the conjunct holds,
    else `best`; None when that needs more than 2*`bound` + 1 points.

    The candidates are the points x = r (mod M) of the conjunct's frame
    (`conjunct_frame`) clamped to the window [-|best|, |best|]: the
    listing of its positive atoms there (`power_solver.listed_hits`), or
    where that costs more, the points themselves (`_by_magnitude`).  The
    hit is the first candidate in (|x|, x) order at which `conjunct_holds`.
    """
    frame = conjunct_frame(conj, -abs(best), abs(best))
    if frame is None or frame[2] > frame[3]:
        return best
    M, r, lo, hi = frame
    xs = _by_magnitude(lo - 1, hi + 1, (M, r))
    limit = 2 * bound
    pos = [lit[2] for lit in conj if lit[0] == "pred" and lit[1] > 0]
    if pos and (listed := listed_hits(pos, lo, hi, bound, (M, r))) is not None:
        xs, limit = listed, len(listed)
    for i, x in enumerate(xs):
        if _by_size(x) >= _by_size(best):
            break
        if i > limit:
            return None
        if conjunct_holds(conj, x):
            return x
    return best


def _least_below(conjuncts, best: int, bound: int) -> int | None:
    """The least witness at or before `best` of all the conjuncts, each a
    point where `conjunct_holds`; None when some `_least_hit` is."""
    for conj in conjuncts:
        if (best := _least_hit(conj, best, bound)) is None:
            break
    return best


def _decide_lazily(nf: NormalForm, options: SolveOptions, trace: list) -> Verdict:
    # A conjunct is settled, and `_least_below` skips it, when each of its
    # systems answered unsat, or sat with x = y from a scan in (|y|, y)
    # order of every point, of the window or of a complete member stream,
    # which answers its least x; a finite set from a bounded walk may miss
    # one.  The window is the start of the stream's order, and a bounded
    # walk never beats its first survivor, so `witness-scan:window` is
    # scanned as `witness-scan:hit` is.  A clone carries the entries of the
    # system it was cloned from, so each entry is traced once, by its key.
    verdicts, gate, settled, logged = [], True, [], set()
    for i in range(len(nf.conjuncts)):
        systems = nf.systems_of(i)
        settled.append(True)
        for k, system in enumerate(systems, 1):
            verdicts.append(v := decide_power(system, options))
            trace.extend(e for e, key in zip(system.trace, system.trace_keys) if key not in logged)
            logged.update(system.trace_keys)
            scanned = system.upper is not None or system.trace[-1:] in (["witness-scan:hit"], ["witness-scan:window"])
            exact = v.is_sat and scanned and system.substitution == (1, 0)
            settled[i] &= v.is_unsat or exact and k == len(systems)
            if gate and v.is_sat:
                rest = [c for j, c in enumerate(nf.conjuncts) if j > i or not settled[j]]
                least = _least_below(rest, v.witness, options.enum_bound)
                if least is not None:
                    if least != v.witness:
                        trace.append("least-witness")
                    return Verdict.sat(least)
                gate = False
    return _combine(verdicts)


def solve_formula(f: Formula, options: SolveOptions | None = None) -> SolveOutcome:
    """Decide a sentence: normalize, decide, negate; sat answers the least
    (|x|, x) witness.

    A conjunct that holds at x = 0, the least point, answers it before any
    system is built.  Otherwise systems are built and decided conjunct by
    conjunct up to the first sat x*, and `_least_below` lists each
    conjunct that no decided system settled below x*; where that would
    pass `enum_bound`, every system is decided and `_combine`d.  Only
    decided systems add to the trace, each entry once, and
    `least-witness` marks a witness that direct evaluation supplied.
    """
    options = options or SolveOptions()
    nf = normalize(f)
    trace: list = []
    if any(conjunct_holds(c, 0) for c in nf.conjuncts):
        inner = Verdict.sat(0)
        trace.append("least-witness")
    else:
        inner = _decide_lazily(nf, options, trace)
    log = [t for t in trace if t.startswith(("redundant", "coalesce", "poly-redundant"))]
    if not nf.negated:
        return SolveOutcome(inner, False, trace, log)
    # forall-sentence: true iff the negated body is unsatisfiable.
    if inner.is_sat:
        out = Verdict("unsat", witness=inner.witness)  # witness = counterexample
    elif inner.is_unsat:
        out = Verdict("sat")  # universally true; no single witness
    else:
        out = inner
    return SolveOutcome(out, True, trace, log)


def _record(path: str, index: int, outcome: SolveOutcome, ms: float) -> dict:
    return {
        "file": path,
        "index": index,
        "verdict": outcome.verdict.status,
        "witness": outcome.verdict.witness,
        "reason": outcome.verdict.reason,
        "bound": outcome.verdict.bound,
        "negated": outcome.negated,
        "case_trace": list(outcome.case_trace),
        "log": list(outcome.log),
        "timings_ms": round(ms, 3),
    }


def _solve_file(path: str, config: RunConfig):
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    formulas = parse_multi(text) if config.multi else [parse(text)]
    out = []
    for i, f in enumerate(formulas):
        t0 = time.perf_counter()
        outcome = solve_formula(f, config.options)
        ms = (time.perf_counter() - t0) * 1000.0
        out.append((i, outcome, ms))
    return out


def _report_error(path: str, kind: str, exc: Exception, config: RunConfig, stream) -> int:
    """Report a file that could not be decided; returns its exit code."""
    print(f"error: {path}: {exc}", file=sys.stderr)
    if config.fmt == "json-lines":
        rec = {"file": path, "verdict": "error", "error": kind, "message": str(exc)}
        print(json.dumps(rec, sort_keys=True), file=stream)
    return EXIT_INPUT if kind == "input" else EXIT_INTERNAL


def run(config: RunConfig, stream=None) -> int:
    """Decide every input; returns the worst exit code seen."""
    stream = stream or sys.stdout
    code = EXIT_SAT
    many = len(config.paths) > 1 or config.multi
    for path in config.paths:
        try:
            results = _solve_file(path, config)
        except (ParseError, OSError) as exc:  # ParseError includes the expansion cap
            code = max(code, _report_error(path, "input", exc, config, stream))
            continue
        except Exception as exc:  # a fault of the program, not of the input
            traceback.print_exc()
            code = max(code, _report_error(path, "internal", exc, config, stream))
            continue
        for index, outcome, ms in results:
            try:
                if config.fmt == "json-lines":
                    line = json.dumps(_record(path, index, outcome, ms), sort_keys=True)
                else:
                    prefix = f"{path}[{index}]: " if many else ""
                    line = prefix + outcome.printable
                    if config.trace and outcome.case_trace:
                        line += "  ; " + " ".join(outcome.case_trace)
            except Exception as exc:  # a fault while reporting, never a verdict's code
                traceback.print_exc()
                code = max(code, _report_error(path, "internal", exc, config, stream))
                continue
            print(line, file=stream)
            code = max(code, outcome.exit_code)
    return code


def read_records(text: str) -> list[dict]:
    """Parse structured (json-lines) output back into records."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _solve_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="unipres", description=__doc__)
    ap.add_argument("paths", nargs="+", help="input files ('-' for stdin)")
    ap.add_argument("--bound", type=int, default=SolveOptions.enum_bound,
                    help="auxiliary-unknown bound for finite-case enumeration")
    ap.add_argument("--scan-cap", type=int, default=SolveOptions.scan_cap,
                    help="candidate cap for witness scans")
    ap.add_argument("--format", dest="fmt", choices=("human", "json-lines"), default="human")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--multi", action="store_true",
                    help="allow several sentences per file")
    return ap


def _encode_main(argv) -> int:
    ap = argparse.ArgumentParser(prog="unipres encode",
                                 description="Encode h(x1..xn) = 0 over <0,1,+,-,Z^2>.")
    ap.add_argument("poly", help="polynomial term or a file containing one")
    ap.add_argument("--chain", type=int, default=encoder.BUCHI_CHAIN,
                    help="square-chain length, at least the Buchi constant 5 (the default)")
    args = ap.parse_args(argv)
    text = args.poly
    if os.path.exists(text):
        text = Path(text).read_text(encoding="utf-8")
    try:
        f = encoder.encode(encoder.parse_poly(text), chain_len=args.chain)
    except ValueError as exc:  # a ParseError, or a chain below the Buchi constant
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(encoder.format_square_formula(f))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # a witness may have more than 4,300 digits
    if argv and argv[0] == "encode":
        return _encode_main(argv[1:])
    args = _solve_parser().parse_args(argv)
    try:
        options = SolveOptions(enum_bound=args.bound, scan_cap=args.scan_cap)
        config = RunConfig(args.paths, options, args.fmt, args.trace, args.multi)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
