"""Spans around the calls into each layer of ``congruent``, recorded from outside.

Each target is a name at the call site its callers use (``congruent.criteria``
imports ``class_number`` by name, so ``congruent.criteria.class_number`` is
replaced, not ``congruent.classgroup.class_number``).  A span is (name, start,
end, parent); spans live in flat arrays and are written once, at the end.  A
span's self time is its duration minus the time of its child spans, so the
self times of all spans add up to the root span.

A target that a later refactor removes is reported as absent; the run goes on.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

# (module, attribute or "Class.method", span name)
TARGETS = [
    ("congruent.cli", "main", "cli.main"),
    ("congruent.cli", "scan", "scan.loop"),
    ("congruent.cli", "emit", "scan.emit"),
    ("congruent.cli", "evaluate", "criteria.evaluate"),
    ("congruent.scan", "_shape_candidates", "scan.sieve"),
    ("congruent.scan", "ClassNumberCache.__init__", "scan.cache_load"),
    ("congruent.scan", "ClassNumberCache.record_new", "scan.cache_record"),
    ("congruent.scan", "TunnellTable", "tunnell.table"),
    ("congruent.scan", "build_hypothesis", "redei.build_hypothesis"),
    ("congruent.scan", "evaluate", "criteria.evaluate"),
    ("congruent.scan", "check_report_invariants", "criteria.invariants"),
    # scan reaches these through the module: classgroup.fundamental_discriminant(...)
    ("congruent.classgroup", "fundamental_discriminant", "classgroup.discriminant"),
    ("congruent.classgroup", "cached_discriminants", "classgroup.snapshot"),
    ("congruent.classgroup", "factor_squarefree", "arith.factor"),
    ("congruent.criteria", "build_hypothesis", "redei.build_hypothesis"),
    ("congruent.criteria", "fundamental_discriminant", "classgroup.discriminant"),
    ("congruent.criteria", "class_number", "classgroup.class_number"),
    ("congruent.criteria", "selmer_rank", "selmer.selmer_rank"),
    ("congruent.criteria", "four_rank", "redei.ranks"),
    ("congruent.criteria", "eight_rank_neg_n", "redei.ranks"),
    ("congruent.criteria", "eight_rank_neg_nq", "redei.ranks"),
    ("congruent.criteria", "classify", "tunnell.classify"),
    ("congruent.redei", "factor_squarefree", "arith.factor"),
    ("congruent.redei", "rank_f2", "gf2.rank"),
    ("congruent.redei", "rep_2e2_f2", "norms.rep"),
    ("congruent.selmer", "rank_f2", "gf2.rank"),
    ("congruent.tunnell", "factor_squarefree", "arith.factor"),
]

# spans whose items are counted: rows yielded by the scan, candidates by the sieve
YIELD_COUNTERS = {"scan.loop": "rows", "scan.sieve": "candidates"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []  # [span id, name, start, time in child spans]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.present: set[str] = set()

    def _open(self, name: str) -> None:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        span = len(self.name_of)
        self.name_of.append(idx)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        now = time.perf_counter()
        self.start.append(now)
        self._stack.append([span, name, now, 0.0])

    def _close(self) -> None:
        now = time.perf_counter()
        span, name, start, child = self._stack.pop()
        self.end[span] = now
        dur = now - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def span(self, name: str, fn):
        """fn wrapped so that each call, or each step of a generator, is a span."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            counter = YIELD_COUNTERS.get(name)

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close()
                    if counter:
                        tracer.counts[counter] += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name in targets:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
            # `import congruent.scan` binds the scan function, so take modules from sys.modules
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if owner is None or not callable(fn):
                self.absent.add(name)
                continue
            self.present.add(name)
            setattr(owner, leaf, self.span(name, fn))
        self.absent -= self.present

    @contextlib.contextmanager
    def measure(self, name: str):
        """A span the benchmark opens itself, such as the import."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            names = self.names
            for i in range(len(self.name_of)):
                fh.write(f"{i},{names[self.name_of[i]]},{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
            "spans": len(self.name_of),
        }
