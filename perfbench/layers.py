"""Per-layer metrics from the spans that ``traced.py`` records.

A layer's time is the summed duration of its outermost spans; its self
time is that duration minus the part its child spans cover.  Counts
marked computed are exact integers (or exact byte quotients) that repeat
at a fixed seed, so a later change can cite them as counts of work.

A metric whose spans could not be recorded (its shim target is gone) or
collected (a fold worker's spans never arrived) is ``None`` and carries
the reason; it is never reported as 0.
"""
from __future__ import annotations

import glob
import json
import math
from dataclasses import dataclass, field

from traced import SHIMS

# (name, unit, computed) in report order.  Every metric is lower-is-better.
PER_LAYER = [
    ("synthgen.social_s", "s", False),
    ("synthgen.cascades_s", "s", False),
    ("dataio.write_s", "s", False),
    ("dataio.written_mb", "MB", True),
    ("dataio.load_s", "s", False),
    ("features.encode_s", "s", False),
    ("features.rows", "count", True),
    ("propagation.build_s", "s", False),
    ("propagation.graphs", "count", True),
    ("propagation.node_pairs", "count", True),
    ("propagation.truncate_s", "s", False),
    ("evalharness.build_samples_s", "s", False),
    ("evalharness.build_samples_calls", "count", True),
    ("evalharness.cv_s", "s", False),
    ("evalharness.pools", "count", True),
    ("evalharness.dispatch_mb", "MB", True),
    ("evalharness.worker_idle_share", "ratio", False),
    ("evalharness.layout_s", "s", False),
    ("classifier.train_s", "s", False),
    ("classifier.steps", "count", True),
    ("classifier.step_ms_p50", "ms", False),
    ("classifier.step_ms_p99", "ms", False),
    ("classifier.self_s", "s", False),
    ("classifier.prepare_s", "s", False),
    ("classifier.eval_s", "s", False),
    ("classifier.eval_graphs", "count", True),
    ("nn.gat_s", "s", False),
    ("nn.gat_calls", "count", True),
    ("nn.messages", "count", True),
    ("nn.head_s", "s", False),
    ("autograd.backward_s", "s", False),
    ("autograd.backward_calls", "count", True),
    ("optim.amsgrad_s", "s", False),
    ("optim.amsgrad_calls", "count", True),
    ("metrics.roc_s", "s", False),
    ("reports.write_s", "s", False),
    ("cli.self_s", "s", False),
    ("trace.overhead_s", "s", False),
]

# Spans that run inside a fold round, so in a fold worker when jobs > 1.
ROUND_SPANS = {"classifier.train", "classifier.forward", "classifier.validate",
               "classifier.eval", "nn.gat", "autograd.backward", "optim.amsgrad",
               "metrics.roc"}


@dataclass
class Trace:
    """Every record one traced command wrote: its own process and its
    fold workers."""

    spans: dict[int, list[tuple]] = field(default_factory=dict)  # pid -> spans
    main_pid: int | None = None
    counts: dict[str, int] = field(default_factory=dict)
    steps: list[float] = field(default_factory=list)
    pools: list[tuple] = field(default_factory=list)
    missing: set[str] = field(default_factory=set)

    @classmethod
    def load(cls, path: str) -> "Trace":
        trace = cls()
        for name in [path] + sorted(glob.glob(path + ".*")):
            with open(name, "r", encoding="utf-8") as fh:
                for line in fh:
                    doc = json.loads(line)
                    if doc["main"]:
                        trace.main_pid = doc["pid"]
                    trace.spans.setdefault(doc["pid"], []).extend(doc["spans"])
                    for key, value in doc["counts"].items():
                        trace.counts[key] = trace.counts.get(key, 0) + value
                    trace.steps.extend(doc["steps"])
                    trace.pools.extend(doc["pools"])
                    trace.missing.update(doc["missing"])
        return trace

    def _outermost(self, name: str):
        for spans in self.spans.values():
            by_id = {s[0]: s for s in spans}
            for s in spans:
                if s[2] != name:
                    continue
                parent = s[1]
                while parent is not None and by_id[parent][2] != name:
                    parent = by_id[parent][1]
                if parent is None:
                    yield s

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self._outermost(name))

    def calls(self, name: str) -> int:
        return sum(1 for spans in self.spans.values() for s in spans if s[2] == name)

    def self_time(self, name: str) -> float:
        total = 0.0
        for spans in self.spans.values():
            child = {}
            for s in spans:
                if s[1] is not None:
                    child[s[1]] = child.get(s[1], 0.0) + (s[4] - s[3])
            total += sum(s[4] - s[3] - child.get(s[0], 0.0) for s in spans if s[2] == name)
        return total

    def root_time(self) -> float:
        return sum(s[4] - s[3] for s in self.spans.get(self.main_pid, []) if s[1] is None)

    def worker_idle_share(self) -> float:
        capacity = sum((end - start) * workers for start, end, workers in self.pools)
        if capacity == 0.0:
            return 0.0  # no pool ran, so no worker sat idle
        busy = sum(s[4] - s[3] for pid, spans in self.spans.items() if pid != self.main_pid
                   for s in spans if s[2] == "evalharness.round")
        return 1.0 - busy / capacity

    def missing_targets(self, span_names) -> list[str]:
        return sorted(f"{module}.{attr}" for module, attr, span, _ in SHIMS
                      if span in span_names and f"{module}.{attr}" in self.missing)

    def uncollected_rounds(self) -> int:
        dispatched = self.counts.get("evalharness.rounds_dispatched", 0)
        collected = sum(1 for pid, spans in self.spans.items() if pid != self.main_pid
                        for s in spans if s[2] == "evalharness.round")
        return dispatched - collected


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer(gen: Trace, cmd: Trace, written_bytes: int, traced_wall: float,
              plain_wall: float) -> dict[str, tuple[float | None, str]]:
    """name -> (value, note).  The note is 'computed' for exact counts or
    the reason a value is None."""
    # name -> (trace, span names it reads, value thunk)
    rules = {
        "synthgen.social_s": (gen, {"synthgen.social"}, lambda: gen.total("synthgen.social")),
        "synthgen.cascades_s": (gen, {"synthgen.cascades"},
                                lambda: gen.total("synthgen.cascades")),
        "dataio.write_s": (gen, {"dataio.write"}, lambda: gen.total("dataio.write")),
        "dataio.written_mb": (gen, set(), lambda: written_bytes / 1e6),
        "dataio.load_s": (cmd, {"dataio.load"}, lambda: cmd.total("dataio.load")),
        "features.encode_s": (cmd, {"features.encode"}, lambda: cmd.total("features.encode")),
        "features.rows": (cmd, {"features.encode"}, lambda: cmd.calls("features.encode")),
        "propagation.build_s": (cmd, {"propagation.build"},
                                lambda: cmd.total("propagation.build")),
        "propagation.graphs": (cmd, {"propagation.build"},
                               lambda: cmd.calls("propagation.build")),
        "propagation.node_pairs": (cmd, {"propagation.build"},
                                   lambda: cmd.counts.get("propagation.node_pairs", 0)),
        "propagation.truncate_s": (cmd, {"propagation.truncate"},
                                   lambda: cmd.total("propagation.truncate")),
        "evalharness.build_samples_s": (cmd, {"evalharness.build_samples"},
                                        lambda: cmd.total("evalharness.build_samples")),
        "evalharness.build_samples_calls": (cmd, {"evalharness.build_samples"},
                                            lambda: cmd.calls("evalharness.build_samples")),
        "evalharness.cv_s": (cmd, {"evalharness.cv"}, lambda: cmd.total("evalharness.cv")),
        "evalharness.pools": (cmd, {"evalharness.pool"}, lambda: len(cmd.pools)),
        "evalharness.dispatch_mb": (cmd, {"evalharness.dispatch"},
                                    lambda: cmd.counts.get("evalharness.dispatch_bytes", 0) / 1e6),
        "evalharness.worker_idle_share": (cmd, {"evalharness.pool", "evalharness.round"},
                                          cmd.worker_idle_share),
        "evalharness.layout_s": (cmd, {"evalharness.layout"},
                                 lambda: cmd.total("evalharness.layout")),
        "classifier.train_s": (cmd, {"classifier.train"}, lambda: cmd.total("classifier.train")),
        "classifier.steps": (cmd, {"classifier.forward", "optim.amsgrad"},
                             lambda: len(cmd.steps)),
        "classifier.step_ms_p50": (cmd, {"classifier.forward", "optim.amsgrad"},
                                   lambda: 1e3 * _percentile(cmd.steps, 0.50)),
        "classifier.step_ms_p99": (cmd, {"classifier.forward", "optim.amsgrad"},
                                   lambda: 1e3 * _percentile(cmd.steps, 0.99)),
        "classifier.self_s": (cmd, {"classifier.train", "classifier.forward",
                                    "classifier.validate", "autograd.backward",
                                    "optim.amsgrad"},
                              lambda: cmd.self_time("classifier.train")),
        "classifier.prepare_s": (cmd, {"classifier.prepare"},
                                 lambda: cmd.total("classifier.prepare")),
        "classifier.eval_s": (cmd, {"classifier.eval"}, lambda: cmd.total("classifier.eval")),
        "classifier.eval_graphs": (cmd, {"classifier.eval"},
                                   lambda: cmd.calls("classifier.eval")),
        "nn.gat_s": (cmd, {"nn.gat"}, lambda: cmd.total("nn.gat")),
        "nn.gat_calls": (cmd, {"nn.gat"}, lambda: cmd.calls("nn.gat")),
        "nn.messages": (cmd, {"nn.gat"}, lambda: cmd.counts.get("nn.messages", 0)),
        "nn.head_s": (cmd, {"classifier.forward", "nn.gat"},
                      lambda: cmd.self_time("classifier.forward")),
        "autograd.backward_s": (cmd, {"autograd.backward"},
                                lambda: cmd.total("autograd.backward")),
        "autograd.backward_calls": (cmd, {"autograd.backward"},
                                    lambda: cmd.calls("autograd.backward")),
        "optim.amsgrad_s": (cmd, {"optim.amsgrad"}, lambda: cmd.total("optim.amsgrad")),
        "optim.amsgrad_calls": (cmd, {"optim.amsgrad"}, lambda: cmd.calls("optim.amsgrad")),
        "metrics.roc_s": (cmd, {"metrics.roc"}, lambda: cmd.total("metrics.roc")),
        "reports.write_s": (cmd, {"reports.write"}, lambda: cmd.total("reports.write")),
        "cli.self_s": (cmd, set(), lambda: traced_wall - cmd.root_time()),
        "trace.overhead_s": (cmd, set(), lambda: traced_wall - plain_wall),
    }
    out = {}
    lost = cmd.uncollected_rounds()
    for name, unit, computed in PER_LAYER:
        trace, spans, value = rules[name]
        gone = trace.missing_targets(spans)
        if "evalharness.pool" in spans and "evalharness.ProcessPoolExecutor" in trace.missing:
            gone.append("evalharness.ProcessPoolExecutor")
        if gone:
            out[name] = (None, "shim target missing: " + ", ".join(gone))
        elif lost and trace is cmd and spans & (ROUND_SPANS | {"evalharness.round"}):
            out[name] = (None, f"spans of {lost} fold round(s) were not collected")
        else:
            out[name] = (value(), "computed" if computed else "")
    return out
