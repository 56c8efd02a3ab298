"""In-memory span recorder and per-layer counters for the traced run.

The tracer wraps public functions of each coneapprox module from outside,
by replacing the name where the caller looks it up.  Modules import one
another's names directly, so a function is patched in every module that
calls it (``approximate_on_pilot_cone`` in both ``approximation`` and
``inference``, for example).

Two kinds of wrapper share one call stack:

* hot per-element calls (weights, stream access, oracle queries,
  ``seq_norm``) only add to a call count and to inclusive and self time;
* coarse calls (the operation, the rules, the pipeline, the fit, the
  ground-truth steps, tail and block norms) also record a span with its
  parent, kept in memory and written out when the run ends.

A call's self time is its duration minus the time of the wrapped calls made
inside it.  Wrappers do nothing but forward the call outside an operation,
so the benchmark's own checks are never counted.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

import coneapprox.approximation as approximation
import coneapprox.experiments as experiments
import coneapprox.inference as inference
import coneapprox.spaces as spaces
from coneapprox import CoefficientOracle, EvaluationGrid, RandomSeriesFunction, WavenumberStream, WeightModel

# (owner, attribute, counter name, records a span)
_TARGETS = (
    (WeightModel, "weight", "weights.weight", False),
    (WeightModel, "weight_power_sum", "weights.power_sum", False),
    (WavenumberStream, "entry", "enumeration.stream", False),
    (WavenumberStream, "prefix", "enumeration.stream", False),
    (CoefficientOracle, "query", "spaces.oracle", False),
    (spaces, "seq_norm", "spaces.seq_norm", False),
    (approximation, "seq_norm", "spaces.seq_norm", False),
    (approximation, "approximate_on_ball", "approximation.rule", True),
    (approximation, "approximate_on_pilot_cone", "approximation.rule", True),
    (approximation, "approximate_on_tracking_cone", "approximation.rule", True),
    (inference, "approximate_on_pilot_cone", "approximation.rule", True),
    (approximation, "tracking_tail_norm", "approximation.tracking_tail_norm", True),
    (approximation, "block_weight_norm", "approximation.block_norm", True),
    (approximation, "block_ratio_norm", "approximation.block_norm", True),
    (inference, "infer_weights", "inference.fit", True),
    (experiments, "approximate_with_inferred_weights", "inference.pipeline", True),
    (RandomSeriesFunction, "support", "experiments.support", True),
    (experiments, "grid_sup", "experiments.grid_sup", True),
    (EvaluationGrid, "for_dimension", "experiments.grid_build", True),
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.spans: List[dict] = []
        self.entries = 0
        self._stack: List[list] = []  # per open call: [child time, span index or -1]
        self._open_spans: List[int] = []
        self._streams: List[WavenumberStream] = []
        self._op = -1
        self._epoch = time.perf_counter()
        self._saved: List[tuple] = []

    def _wrap(self, name: str, fn, span: bool):
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0, tracer._begin_span(name) if span else -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.inclusive[name] += elapsed
                tracer.self_time[name] += elapsed - frame[0]
                if span:
                    tracer._end_span(frame[1], start, elapsed)

        return functools.wraps(fn)(wrapper)

    def _begin_span(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"id": len(self.spans), "parent": parent, "op": self._op, "name": name})
        self._open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end_span(self, index: int, start: float, elapsed: float) -> None:
        self._open_spans.pop()
        self.spans[index]["start"] = start - self._epoch
        self.spans[index]["end"] = start - self._epoch + elapsed

    def install(self) -> None:
        tracer = self
        for owner, attr, name, span in _TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__, span))
            else:
                replacement = self._wrap(name, original, span)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        init = WavenumberStream.__init__

        def register(stream, *args, **kwargs):
            init(stream, *args, **kwargs)
            if tracer.active:
                tracer._streams.append(stream)

        self._saved.append((WavenumberStream, "__init__", init))
        WavenumberStream.__init__ = register

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def operation(self, label: str):
        """Trace one timed operation; its span is the root of the spans it causes."""
        self._op += 1
        self._streams = []
        index = self._begin_span("op")
        self.spans[index]["label"] = label
        self._stack.append([0.0, index])
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.active = False
            self._stack.pop()
            self.inclusive["op"] += elapsed
            self._end_span(index, start, elapsed)
            self.entries += sum(s.emitted_count for s in self._streams)
            self._streams = []

    def layer_metrics(self, coef_queries: int, has_cells: bool) -> Dict[str, tuple]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        c, inc, own = self.calls, self.inclusive, self.self_time
        truth = inc["op"] - inc["inference.pipeline"] if has_cells else 0.0
        return {
            "weights.weight_calls": (c["weights.weight"], "count"),
            "weights.weight_s": (inc["weights.weight"], "s"),
            "weights.power_sum_calls": (c["weights.power_sum"], "count"),
            "enumeration.entries": (self.entries, "count"),
            "enumeration.stream_s": (own["enumeration.stream"], "s"),
            "enumeration.entries_per_query": (self.entries / coef_queries, "entries/query"),
            "spaces.oracle_calls": (c["spaces.oracle"], "count"),
            "spaces.oracle_s": (inc["spaces.oracle"], "s"),
            "spaces.seq_norm_calls": (c["spaces.seq_norm"], "count"),
            "spaces.seq_norm_s": (inc["spaces.seq_norm"], "s"),
            "approximation.rule_s": (own["approximation.rule"], "s"),
            "approximation.tracking_tail_norm_calls": (c["approximation.tracking_tail_norm"], "count"),
            "approximation.tracking_tail_norm_s": (inc["approximation.tracking_tail_norm"], "s"),
            "approximation.block_norm_calls": (c["approximation.block_norm"], "count"),
            "approximation.block_norm_s": (inc["approximation.block_norm"], "s"),
            "inference.fit_s": (inc["inference.fit"], "s"),
            "inference.pipeline_s": (inc["inference.pipeline"], "s"),
            "experiments.truth_s": (truth, "s"),
            "experiments.support_s": (inc["experiments.support"], "s"),
            "experiments.grid_sup_s": (inc["experiments.grid_sup"], "s"),
            "experiments.grid_build_s": (inc["experiments.grid_build"], "s"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
