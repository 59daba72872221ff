"""Every package name that the benchmark's trace shims patch still exists.

``perfbench/traced.py`` times the package by replacing module attributes
from outside it (its ``SHIMS`` table).  A renamed or deleted target makes
its metric come out as ``null`` in a traced benchmark run; here it fails
the test suite instead.
"""
import importlib.util
import os

import pytest

TRACED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "traced.py")


def _shims():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SHIMS


SHIMS = _shims()


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
