"""Set-up cost of a fresh process: `import unipres` plus one warm-up op.

Run from the repository root:

    python3 perfbench/setup_probe.py <workload>

Prints the seconds from just before the import to just after the warm-up
op.  The warm-up op is where lazy imports land (numpy on the first
`check_equiv`).  Interpreter start-up and the benchmark's own modules are
outside the timed span.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402  (the benchmark's own module, excluded from the timing)


def main() -> None:
    workload = corpus.WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    import unipres
    import unipres.cli
    import unipres.encoder

    if workload.name == "encode":
        h = unipres.encoder.parse_poly(corpus.WARMUP_POLY)
        unipres.encoder.check_equiv(h, unipres.encoder.encode(h), 3)
    else:
        formula = unipres.formula.parse(corpus.WARMUP_SENTENCE.text)
        unipres.cli.solve_formula(formula, unipres.SolveOptions(enum_bound=workload.bound))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
