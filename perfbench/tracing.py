"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each traced function with a timing wrapper at
every binding inside the `unipres` package, because modules import many
of them by value (`cli.normalize`, `cli.decide_power`, `kth_root` in
`_ast`, `formula` and `power_solver`).  `uninstall` puts the originals
back.

A layer call becomes a span (op id, span id, parent id, name, start,
end).  Kernel calls (number theory, Pell, LRBS), which can run millions
of times in one op, are folded into one record per (op, parent, name)
holding the call count and total time, so memory stays bounded.  Self
time is a call's duration minus the time of its direct children.
Everything stays in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function, folded kernel?)
TARGETS = (
    ("cli", "solve_formula", False),
    ("formula", "parse", False),
    ("formula", "normalize", False),
    ("power_solver", "preprocess", False),
    ("poly_solver", "preprocess_poly", False),
    ("power_solver", "solve_positive", False),
    ("poly_solver", "solve_positive_poly", False),
    ("power_solver", "decide", False),
    ("poly_solver", "decide_poly", False),
    ("encoder", "parse_poly", False),
    ("encoder", "encode", False),
    ("encoder", "check_equiv", False),
    ("numtheory", "kth_root", True),
    ("numtheory", "floor_root", True),
    ("numtheory", "integer_roots", True),
    ("numtheory", "crt_extended", True),
    ("numtheory", "factor", True),
    ("pell", "solve_generalized", True),
    ("lrbs", "filter_congruence", True),
)


def _after_normalize(tracer, result) -> None:
    tracer.counters["formula.normalize.systems"] += len(result.systems)
    tracer.counters["formula.normalize.resolved"] += sum(s.resolved is not None for s in result.systems)


def _after_check_equiv(tracer, result) -> None:
    tracer.counters["encoder.check_equiv.points"] += result.checked


AFTER = {"formula.normalize": _after_normalize, "encoder.check_equiv": _after_check_equiv}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []       # (op, id, parent, name, start_ns, end_ns)
        self.folded: dict = {}             # (op, parent, name) -> [calls, total_ns]
        self.self_ns: Counter = Counter()  # name -> self time
        self.calls: Counter = Counter()    # name -> calls
        self.counters: Counter = Counter()
        self._stack: list[list] = []       # frames: [id, child_ns]
        self._next_id = 0
        self._op = None
        self._restore: list = []

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._stack = [[self._new_id(), 0]]

    def end_op(self) -> None:
        self._stack = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, folded: bool):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = self._stack
            parent = frames[-1] if frames else None
            frame = [self._new_id(), 0]
            frames.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                frames.pop()
                dur = end - start
                self.self_ns[name] += dur - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += dur
                pid = parent[0] if parent is not None else None
                if folded:
                    rec = self.folded.setdefault((self._op, pid, name), [0, 0])
                    rec[0] += 1
                    rec[1] += dur
                else:
                    self.spans.append((self._op, frame[0], pid, name, start, end))
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every target at each of its bindings in the package's modules."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for modname, attr, folded in TARGETS:
            original = getattr(sys.modules[f"{package.__name__}.{modname}"], attr)
            wrapper = self._wrap(f"{modname}.{attr}", original, folded)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        stream = sys.modules[f"{package.__name__}.power_solver"].MemberStream
        original_iter = stream.__iter__
        counters = self.counters

        def counted_iter(s):
            for x in original_iter(s):
                counters["power_solver.members.drawn"] += 1
                yield x

        stream.__iter__ = counted_iter
        self._restore.append((stream, "__iter__", original_iter))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """All spans and folded kernel records, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
            for (op, parent, name), (calls, total) in self.folded.items():
                fh.write(json.dumps({"op": op, "parent": parent, "name": name,
                                     "calls": calls, "total_ns": total}) + "\n")
