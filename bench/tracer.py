"""Span tracer installed from outside the package, around each layer's entry points.

Every wrapped call records a span (id, parent id, layer, start, end) and
adds its self time -- its duration minus the part its child spans cover --
to its layer.  Counters are taken at the same boundaries.  Wrappers are
bound in the namespaces the callers look the names up in, because the
modules import each other's functions by name.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

SPAN_CAP = 200_000  # spans kept for the written trace; later ones are aggregated only

# (layer, owner, attribute) where owner is "module" or "module.Class".  The
# same layer may sit on several owners: each binding a caller looks up.
SPANNED = [
    ("harness.engine", "harness", "run_execution"),
    ("harness.oracle_check", "harness", "oracle_check"),
    ("harness.monitor", "harness._InvariantMonitor", "after_round"),
    ("approximation.snapshot", "approximation.NodeState", "snapshot"),
    ("approximation.make_message", "harness", "make_message"),
    ("approximation.receive_and_merge", "harness", "receive_and_merge"),
    ("approximation.roots_of_partial", "approximation", "roots_of_partial"),
    ("consensus.core_step", "harness", "core_step"),
    ("consensus.confirmed_roots", "consensus", "confirmed_roots"),
    ("adversary.generate", "adversary", "generate_estable"),
    ("adversary.generate", "adversary", "generate_alt_estable"),
    ("adversary.generate", "harness", "generate_estable"),
    ("adversary.generate", "harness", "generate_alt_estable"),
    ("adversary.check", "adversary", "check_estable"),
    ("adversary.check", "adversary", "check_alt_estable"),
    ("adversary.check", "adversary", "check_mad"),
    ("adversary.check", "harness", "check_estable"),
    ("adversary.check", "harness", "check_alt_estable"),
    ("graphs.check_dynamic_diameter", "adversary", "check_dynamic_diameter"),
    ("graphs.root_components", "approximation", "root_components"),
    ("graphs.root_components", "adversary", "root_components"),
]

# Layers reported as self time, calls or both, in report order.
SELF_TIME_LAYERS = [
    "harness.monitor",
    "harness.engine",
    "harness.oracle_check",
    "approximation.snapshot",
    "approximation.receive_and_merge",
    "approximation.make_message",
    "approximation.roots_of_partial",
    "consensus.core_step",
    "consensus.confirmed_roots",
    "adversary.generate",
    "adversary.check",
    "graphs.check_dynamic_diameter",
    "graphs.root_components",
    "bench.unit",
]
CALL_LAYERS = [
    "harness.monitor",
    "approximation.receive_and_merge",
    "approximation.roots_of_partial",
    "consensus.confirmed_roots",
    "adversary.generate",
    "adversary.check",
    "graphs.root_components",
]
# The layer whose calls a counter metric is taken at.
COUNTER_LAYER = {
    "approximation.msg_cells": "approximation.make_message",
    "approximation.roots_of_partial.misses": "approximation.roots_of_partial",
    "consensus.c2_check.calls_after_decision": "consensus.core_step",
    "adversary.generate.attempts": "adversary.generate",
    "adversary.generate.yield": "adversary.generate",
    "adversary.check_liveness.calls": "adversary.check",
    "graphs.scc_cache_entries": "graphs.root_components",
}


def _owner(rc, path: str):
    module, _, cls = path.partition(".")
    obj = getattr(rc, module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans and counters while installed; restores every binding on exit."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.spans = []
        self.dropped_spans = 0
        self.scc_cache_peak = 0
        self._stack = []  # open spans: [span id, child ns]
        self._next_id = 1
        self._generating = 0  # open adversary.generate spans
        self._seen_partial_keys = set()
        self._restore = []

    # --- spans -----------------------------------------------------------

    def span(self, layer: str, fn, after=None):
        """``fn`` wrapped in a span of ``layer``; ``after(result, args)`` runs
        inside the span to take counters."""
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, layer, start, end))
                else:
                    tracer.dropped_spans += 1

        traced.__wrapped__ = fn
        return traced

    # --- installation ----------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self, rc) -> None:
        """Bind the wrappers into the package namespace ``rc`` (a namespace
        holding the ``harness``, ``consensus``, ``approximation``,
        ``adversary`` and ``graphs`` modules)."""
        after = {
            "approximation.make_message": self._count_cells,
            "approximation.roots_of_partial": self._count_partial_key,
        }
        for layer, path, name in SPANNED:
            owner = _owner(rc, path)
            fn = getattr(owner, name)
            if layer == "adversary.generate":
                self._patch(owner, name, self._generator(layer, fn))
            elif layer == "adversary.check":
                self._patch(owner, name, self._checker(layer, fn))
            else:
                self._patch(owner, name, self.span(layer, fn, after.get(layer)))
        liveness = self._counted("adversary.check_liveness", rc.adversary.check_liveness)
        self._patch(rc.adversary, "check_liveness", liveness)
        self._patch(rc.consensus, "c2_check", self._c2_counted(rc.consensus.c2_check))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # --- counters ---------------------------------------------------------

    def _count_cells(self, msg, _args) -> None:
        self.counters["messages"] += 1
        self.counters["msg_cells"] += len(msg.approx) + sum(map(len, msg.locks.values()))

    def _count_partial_key(self, _result, args) -> None:
        key = (args[0], args[1])
        if key not in self._seen_partial_keys:
            self._seen_partial_keys.add(key)
            self.counters["roots_of_partial.misses"] += 1

    def _generator(self, layer, fn):
        inner = self.span(layer, fn)

        def generate(*args, **kwargs):
            self._generating += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._generating -= 1

        return generate

    def _checker(self, layer, fn):
        inner = self.span(layer, fn)

        def check(*args, **kwargs):
            if self._generating:
                self.counters["generate.attempts"] += 1
            return inner(*args, **kwargs)

        return check

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _c2_counted(self, fn):
        def c2_check(s, *args, **kwargs):
            if s.y is not None:
                self.counters["c2_check.calls_after_decision"] += 1
            return fn(s, *args, **kwargs)

        return c2_check

    def caches_reset(self, scc_entries: int) -> None:
        """Called when the program's memo caches are emptied: the miss count
        restarts with them, and the SCC cache size they reached is kept."""
        self._seen_partial_keys.clear()
        self.scc_cache_peak = max(self.scc_cache_peak, scc_entries)

    # --- report -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, name -> (value, unit)."""
        out = {}
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = (self.self_ns[layer] / 1e9, "s")
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        c = self.counters
        messages = c["messages"]
        out["approximation.msg_cells"] = (c["msg_cells"] / messages if messages else 0.0, "cells/msg")
        out["approximation.roots_of_partial.misses"] = (c["roots_of_partial.misses"], "count")
        out["consensus.c2_check.calls_after_decision"] = (c["c2_check.calls_after_decision"], "count")
        attempts = c["generate.attempts"]
        out["adversary.generate.attempts"] = (attempts, "count")
        out["adversary.generate.yield"] = (
            self.calls["adversary.generate"] / attempts if attempts else 0.0,
            "ratio",
        )
        out["adversary.check_liveness.calls"] = (c["adversary.check_liveness"], "count")
        out["graphs.scc_cache_entries"] = (self.scc_cache_peak, "count")
        return out

    def absent_metrics(self) -> set:
        """Metrics of layers whose entry points were never called in this run."""
        absent = set()
        for name in self.metrics():
            layer = COUNTER_LAYER.get(name, name.rsplit(".", 1)[0])
            if self.calls.get(layer, 0) == 0:
                absent.add(name)
        return absent

    def write(self, path: Path, meta: dict) -> None:
        """Spans as JSON lines after one header line of metadata and counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            header = dict(meta, counters=dict(self.counters), dropped_spans=self.dropped_spans)
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, layer, start, end in self.spans:
                out.write(f'{{"id":{span_id},"parent":{parent},"name":"{layer}","start_ns":{start},"end_ns":{end}}}\n')
