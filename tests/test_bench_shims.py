"""Every package name that the benchmark's trace shims patch still exists,
and every counter hook still reads the calls it is attached to.

``perfbench/traced.py`` times the package by replacing module attributes
from outside it (its ``SHIMS`` table).  A renamed or deleted target makes
its metric come out as ``null`` in a traced benchmark run; here it fails
the test suite instead.
"""
import importlib.util
import os

import pytest

from cascade_gnn import classifier, evalharness, nn
from cascade_gnn.autograd import Tensor
from cascade_gnn.features import WIDTH
from cascade_gnn.synthgen import GenConfig, generate_dataset, generate_social_graph

from helpers import tape_tensors

TRACED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "traced.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED_MODULE = _traced()
SHIMS = TRACED_MODULE.SHIMS


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _, _ in SHIMS}),
                         ids=lambda value: value)
def test_shim_target_resolves(module, attr):
    owner = importlib.import_module(f"cascade_gnn.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_pool_class_is_a_module_global():
    evalharness = importlib.import_module("cascade_gnn.evalharness")
    assert isinstance(evalharness.ProcessPoolExecutor, type)


def _recording(monkeypatch, owner, name):
    """The (args, kwargs) of every call to ``owner.name``."""
    calls, fn = [], getattr(owner, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


def test_counter_hooks_read_real_calls(monkeypatch):
    # the hooks run in the shims' ``finally``: one that no longer fits its
    # target's call layout would make the traced command fail
    cfg = GenConfig(num_users=150, num_urls=10, mean_cascades_per_url=3.0)
    social = generate_social_graph(cfg)
    stories, cascades = generate_dataset(cfg, social)
    config = classifier.ModelConfig(hidden=8, fc1=4, iterations=1)

    builds = _recording(monkeypatch, evalharness, "build_propagation_graph")
    samples = evalharness.build_samples(stories, cascades, social, "url_wise")
    assert len(builds) == len(samples) > 0
    for (args, kwargs), sample in zip(builds, samples):
        n = len(sample.times)
        assert TRACED_MODULE._nodes(args, kwargs) == {"propagation.node_pairs": n * (n - 1) // 2}

    params = classifier.init_params(config, WIDTH)
    # the reference layer on the tape, and the layer that training runs
    tape_layers = _recording(monkeypatch, nn, "gat_forward")
    classifier._forward_tensors(Tensor(samples[0].features), samples[0].edges,
                                tape_tensors(params))
    array_layers = _recording(monkeypatch, nn, "gat_layer")
    classifier.loss_and_grads(samples[0], params)
    for layers in (tape_layers, array_layers):
        assert len(layers) == 2
        for args, kwargs in layers:
            assert TRACED_MODULE._messages(args, kwargs) == {
                "nn.messages": samples[0].edges.src.size}

    payloads = evalharness._cv_rounds(samples, evalharness.make_folds(stories), config)
    nbytes = sum(s.features.nbytes + s.edges.src.nbytes + s.edges.dst.nbytes
                 + s.edges.flags.nbytes for p in payloads for part in p[1:4] for s in part)
    assert nbytes > 0
    assert TRACED_MODULE._dispatch((payloads, 2), {}) == {
        "evalharness.dispatch_bytes": nbytes, "evalharness.rounds_dispatched": len(payloads)}
