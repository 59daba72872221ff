"""Run one cascade-gnn CLI command with timing shims on the package layers.

    PYTHONPATH=src python3 perfbench/traced.py SPANS_PATH CLI_ARG...

The shims are installed from outside the package, by ``setattr`` on the
package modules; the package code is not changed.  ``from x import y``
copies a binding into the importing module, so each name is patched where
its caller looks it up (``SHIMS`` below).  A shim target that no longer
exists is recorded as missing, and the metrics that need it come out as
``null`` with its name.

Spans (name, start, end, parent) stay in memory.  The command's own
process writes them to SPANS_PATH when it ends.  Fold workers are forked
and inherit the shims; each one appends its spans to ``SPANS_PATH.<pid>``
after every fold round, so nothing depends on how the pool shuts down.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter


def _nodes(args, kwargs):
    cascades = kwargs.get("cascades", args[1] if len(args) > 1 else ())
    n = sum(len(c.tweets) for c in cascades)
    return {"propagation.node_pairs": n * (n - 1) // 2}


def _messages(args, kwargs):
    edges = kwargs.get("ea", args[1] if len(args) > 1 else None)
    return {"nn.messages": int(edges.src.size)}


def _array_bytes(sample) -> int:
    e = sample.edges
    return sample.features.nbytes + e.src.nbytes + e.dst.nbytes + e.flags.nbytes


def _dispatch(args, kwargs):
    payloads = kwargs.get("payloads", args[0])
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    if jobs <= 1 or len(payloads) <= 1:
        return {}
    nbytes = sum(_array_bytes(s) for p in payloads for part in p[1:4] for s in part)
    return {"evalharness.dispatch_bytes": nbytes,
            "evalharness.rounds_dispatched": len(payloads)}


# (module, attribute path, span name, counter hook).  The module is the one
# whose global the caller reads; see the module docstring.
SHIMS = [
    ("cli", "generate_social_graph", "synthgen.social", None),
    ("cli", "generate_dataset", "synthgen.cascades", None),
    ("dataio", "write_dataset", "dataio.write", None),
    ("cli", "load_dataset", "dataio.load", None),
    ("propagation", "encode_node_features", "features.encode", None),
    ("evalharness", "build_propagation_graph", "propagation.build", _nodes),
    ("evalharness", "truncate", "propagation.truncate", None),
    ("cli", "build_samples", "evalharness.build_samples", None),
    ("evalharness", "build_samples", "evalharness.build_samples", None),
    ("cli", "cross_validate", "evalharness.cv", None),
    ("evalharness", "cross_validate", "evalharness.cv", None),
    ("cli", "diffusion_sweep", "evalharness.sweep", None),
    ("evalharness", "_run_jobs", "evalharness.dispatch", _dispatch),
    ("evalharness", "_run_cv_round", "evalharness.round", None),
    ("cli", "fr_layout", "evalharness.layout", None),
    ("evalharness", "prepare_graph", "classifier.prepare", None),
    ("evalharness", "train", "classifier.train", None),
    ("classifier", "_validation_auc", "classifier.validate", None),
    ("classifier", "_forward_tensors", "classifier.forward", None),
    ("evalharness", "forward", "classifier.eval", None),
    ("classifier", "forward", "classifier.eval", None),
    ("nn", "gat_forward", "nn.gat", _messages),
    ("autograd", "Tensor.backward", "autograd.backward", None),
    ("classifier", "amsgrad_step", "optim.amsgrad", None),
    ("evalharness", "roc_auc", "metrics.roc", None),
    ("classifier", "roc_auc", "metrics.roc", None),
    ("cli", "write_json_report", "reports.write", None),
    ("cli", "write_csv", "reports.write", None),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, path: str):
        self.path = path
        self.main_pid = os.getpid()
        self.missing: list[str] = []
        self._reset()

    def _reset(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end)
        self.stack: list[int] = []
        self.next_id = 0
        self.counts: dict[str, int] = {}
        self.steps: list[float] = []   # training-step durations, seconds
        self.pools: list[tuple] = []   # (start, end, workers)
        self.step_start = None
        self.depth = {"classifier.train": 0, "classifier.validate": 0}

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            depth = tracer.depth
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            if name in depth:
                depth[name] += 1
            t0 = perf_counter()
            # a training step runs from its forward pass to its AMSGrad update
            if (name == "classifier.forward" and tracer.step_start is None
                    and depth["classifier.train"] and not depth["classifier.validate"]):
                tracer.step_start = t0
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                if name in depth:
                    depth[name] -= 1
                tracer.spans.append((sid, parent, name, t0, t1))
                if name == "optim.amsgrad" and tracer.step_start is not None:
                    tracer.steps.append(t1 - tracer.step_start)
                    tracer.step_start = None
                if hook is not None:
                    for key, value in hook(args, kwargs).items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + value
                if name == "evalharness.round" and os.getpid() != tracer.main_pid:
                    tracer.flush(f"{tracer.path}.{os.getpid()}")
        return shim

    def install(self):
        for module, attr, name, hook in SHIMS:
            target_name = f"{module}.{attr}"
            try:
                owner = importlib.import_module(f"cascade_gnn.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target_name)
                continue
            setattr(owner, leaf, self.wrap(fn, name, hook))
        evalharness = importlib.import_module("cascade_gnn.evalharness")
        if hasattr(evalharness, "ProcessPoolExecutor"):
            evalharness.ProcessPoolExecutor = self._pool_class()
        else:
            self.missing.append("evalharness.ProcessPoolExecutor")
        # a forked worker starts with empty buffers; the parent keeps its spans
        os.register_at_fork(after_in_child=self._reset)

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._trace_start = perf_counter()
                self._trace_workers = self._max_workers

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._trace_start is not None:
                    tracer.pools.append((self._trace_start, perf_counter(),
                                         self._trace_workers))
                    self._trace_start = None
        return TracedPool

    def flush(self, path: str):
        """Append this process's buffered records to ``path`` and clear them."""
        doc = {"pid": os.getpid(), "main": os.getpid() == self.main_pid,
               "spans": self.spans, "counts": self.counts, "steps": self.steps,
               "pools": self.pools, "missing": self.missing}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        self.spans, self.counts, self.steps, self.pools = [], {}, [], []


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(spans_path)
    tracer.install()
    from cascade_gnn import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.flush(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
