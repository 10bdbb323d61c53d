"""Outside-in tracing of the program's layers.

The tracer rebinds public functions of magari's modules to wrappers defined
here, so nothing under src/ changes and a later refactor that keeps the
public names keeps the trace working.  Two modes, never on together:

  spans  records (name, start, end, parent, op id) for every wrapped call and
         the count and time of Transducer.step calls, for the per-layer times;
  work   counts work done per layer, for the per-layer counts: decides and
         refutations, steps, compiled DAG nodes, state bits and letters,
         oracle calls, lanes and first-hit position, and evaluate calls.

Spans stay in memory until write_spans.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

import magari
from workloads import dag_nodes

# (module that defines it, attribute, span name)
SPANNED = (
    ("magari.cli", "main", "cli.main"),
    ("magari.formulas", "parse", "formulas.parse"),
    ("magari.decide", "compile_roots", "decide.compile"),
    ("magari.decide", "decide", "decide.decide"),
    ("magari.decide", "replay", "decide.replay"),
    ("magari.decide", "brute_force", "decide.oracle"),
    ("magari.expressibility", "enumerate_closure", "expressibility.closure"),
    ("magari.expressibility", "verify_precompleteness", "expressibility.verify"),
)
# desugar and constant_fold recurse through their own module's globals, so
# they are rebound only where decide calls them: one span per normalization
NORMALIZERS = ("desugar", "constant_fold")


def _magari_modules():
    return [m for name, m in list(sys.modules.items()) if name == "magari" or name.startswith("magari.")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.mode: str | None = None
        self.work: Counter = Counter()
        self.step_calls = 0
        self.step_s = 0.0
        self._closure_depth = 0
        self._undo: list = []

    # --- installing and removing the wrappers ---

    def install(self, mode: str) -> None:
        assert mode in ("spans", "work") and not self._undo
        self.mode = mode
        for home, attr, name in SPANNED:
            original = getattr(importlib.import_module(home), attr)
            self._rebind(attr, original, self._spanned(name, original))
        decide_mod = importlib.import_module("magari.decide")
        for attr in NORMALIZERS:
            original = getattr(decide_mod, attr)
            self._undo.append((decide_mod, attr, original))
            setattr(decide_mod, attr, self._spanned("formulas.normalize", original))
        semantics = importlib.import_module("magari.semantics")
        self._rebind("evaluate", semantics.evaluate, self._evaluate(semantics.evaluate))
        self._undo.append((magari.Transducer, "step", magari.Transducer.step))
        magari.Transducer.step = self._step(magari.Transducer.step)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.mode = None

    def _rebind(self, attr, original, wrapper) -> None:
        for mod in _magari_modules():
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    # --- wrappers ---

    def _spanned(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.mode == "work":
                return tracer._count(name, fn, args, kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.spans[idx] = (name, t0, clock(), parent, tracer.op)
                tracer.stack.pop()

        return wrapper

    def _step(self, fn):
        tracer = self
        clock = time.perf_counter

        def step(t, state, position, letter):
            if tracer.mode == "work":
                tracer.work["decide.step_calls"] += 1
                return fn(t, state, position, letter)
            t0 = clock()
            out = fn(t, state, position, letter)
            tracer.step_s += clock() - t0
            tracer.step_calls += 1
            return out

        return step

    def _evaluate(self, fn):
        tracer = self

        def evaluate(f, assignment):
            if tracer.mode == "work":
                tracer.work["semantics.evaluate_calls"] += 1
            return fn(f, assignment)

        return evaluate

    def _count(self, name, fn, args, kwargs):
        w = self.work
        if name == "expressibility.closure":
            self._closure_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._closure_depth -= 1
        out = fn(*args, **kwargs)
        if name == "decide.decide":
            w["decide.decide_calls"] += 1
            w["decide.refuted"] += not out.valid
            if self._closure_depth:
                w["expressibility.equivalence_calls"] += 1
        elif name == "decide.compile":
            w["decide.compiles"] += 1
            w["decide.state_width"] += out.state_width
            w["decide.letters"] += 2 ** len(out.variables)
            w["decide.dag_nodes"] += dag_nodes(args[0])
        elif name == "decide.oracle":
            query, bound = args
            sides = [s for e in query.hypotheses + query.conclusions for s in (e.lhs, e.rhs)]
            names = sorted({v for s in sides for v in magari.free_vars(s)})
            elements = magari.elements_up_to(bound)
            lanes = len(elements) ** len(names)
            w["decide.oracle_calls"] += 1
            w["decide.oracle_lanes"] += lanes
            if out is not None:
                index = 0
                for v in names:
                    index = index * len(elements) + elements.index(out[v])
                w["decide.oracle_hits"] += 1
                w["decide.oracle_first_hit_frac"] += (index + 1) / lanes
        return out

    # --- one op and the results ---

    def call_op(self, op: int, fn, arg):
        """Run one benchmark op as the root span of its tree."""
        self.op = op
        return self._spanned("bench.op", fn)(arg)

    def self_ms(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent, _op in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                total[self.spans[parent][0]] -= t1 - t0
        return {name: s * 1000.0 for name, s in total.items()}

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")
