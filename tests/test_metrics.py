"""ROC/AUC against the pairwise-counting oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gnn.metrics import roc_auc

from helpers import pairwise_auc_oracle


def test_perfect_separation():
    _, auc = roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert auc == 1.0


def test_spec_example_point_seventy_five():
    points, auc = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert auc == pytest.approx(0.75, abs=1e-12)
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)


def test_all_ties_is_half():
    _, auc = roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1])
    assert auc == pytest.approx(0.5, abs=1e-12)


def test_single_class_rejected():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])


def test_nan_score_rejected():
    with pytest.raises(ValueError):
        roc_auc([0.1, float("nan"), 0.3], [1, 0, 1])


def test_infinite_scores_are_ranked():
    _, auc = roc_auc([float("inf"), 0.0, float("-inf")], [1, 0, 0])
    assert auc == 1.0


def test_complement_symmetry_tie_free():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        scores = rng.permutation(n).astype(float)  # distinct scores
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            continue
        _, a = roc_auc(scores, labels)
        _, b = roc_auc(scores, 1 - labels)
        assert a == pytest.approx(1.0 - b, abs=1e-12)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=25)
    labels = (rng.random(25) < 0.4).astype(int)
    labels[0], labels[1] = 0, 1
    _, base = roc_auc(scores, labels)
    for f in (np.exp, np.tanh, lambda x: 3.0 * x + 7.0):
        _, t = roc_auc(f(scores), labels)
        assert t == pytest.approx(base, abs=1e-12)


def test_trapezoid_equals_pairwise_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        # quantized scores produce plenty of ties
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        _, auc = roc_auc(scores, labels)
        assert auc == pytest.approx(pairwise_auc_oracle(scores, labels), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.booleans()), min_size=2, max_size=30))
def test_trapezoid_equals_pairwise_oracle_hypothesis(items):
    scores = [float(s) for s, _ in items]
    labels = [int(l) for _, l in items]
    if len(set(labels)) < 2:
        labels[0] = 1 - labels[0]
    _, auc = roc_auc(scores, labels)
    assert auc == pytest.approx(pairwise_auc_oracle(scores, labels), abs=1e-12)
