"""Explicit forward/backward passes: bit-identical to the autograd tape,
checked by finite differences, and a training run that matches the
tape-driven loop bit for bit."""
import numpy as np
import pytest

import cascade_gnn.classifier as classifier_mod
from cascade_gnn.autograd import Tensor
from cascade_gnn.classifier import (ModelConfig, _forward_tensors, fake_score, forward,
                                    init_params, loss_and_grads, prepare_graph, train)
from cascade_gnn.evalharness import build_samples, default_active_groups
from cascade_gnn.features import FEATURE_GROUPS, WIDTH
from cascade_gnn.metrics import roc_auc
from cascade_gnn.nn import hinge_loss
from cascade_gnn.optim import OptimizerState
from cascade_gnn.synthgen import GenConfig, generate_dataset, generate_social_graph

from helpers import (TINY_WIDTH, block_columns, central_difference_grads, named_views,
                     random_graph_sample, relative_error, tape_tensors)

MASKED = ("user_profile", "network_spreading")


def tape_loss_and_grads(sample, params):
    tensors = tape_tensors(params)
    scores, _ = _forward_tensors(Tensor(sample.features), sample.edges, tensors)
    loss = hinge_loss(scores, sample.label)
    loss.backward()
    return loss.item(), {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
                         for k, t in tensors.items()}


def assert_matches_tape(sample, params) -> bool:
    """Compares loss and all gradients bit for bit; returns whether the
    hinge was active."""
    loss, grads = loss_and_grads(sample.features, sample.edges, sample.label, params)
    ref_loss, ref = tape_loss_and_grads(sample, params)
    assert loss == ref_loss
    if grads is None:
        assert loss == 0.0
        for name, g in ref.items():
            assert np.array_equal(g, np.zeros_like(g)), name
        return False
    assert grads.shape == params.flat.shape
    grads = named_views(params, grads)
    for name, g in ref.items():
        assert np.array_equal(grads[name], g), name
    return True


@pytest.fixture(scope="module")
def small_world():
    cfg = GenConfig(seed=5, num_users=150, num_urls=12, mean_cascades_per_url=3.0)
    social = generate_social_graph(cfg)
    stories, cascades = generate_dataset(cfg, social)
    return stories, cascades, social


def test_random_graphs_match_tape():
    rng = np.random.default_rng(20)
    active = {True: 0, False: 0}
    for k in range(60):
        n = int(rng.integers(1, 13))
        sample = random_graph_sample(rng, n, WIDTH, label=k % 2)
        groups = MASKED if k % 4 >= 2 else FEATURE_GROUPS
        # the features of a sample masked to ``groups``
        sample.features[:, block_columns([g for g in FEATURE_GROUPS if g not in groups])] = 0.0
        params = init_params(ModelConfig(seed=k, active_groups=groups), WIDTH)
        if k % 3 == 0:
            # a wide margin for the correct class switches the hinge off
            params.named["fc2.bias"][0, sample.label] += 10.0
        active[assert_matches_tape(sample, params)] += 1
    assert active[True] >= 20 and active[False] >= 20


def test_every_world_sample_matches_tape(small_world):
    stories, cascades, social = small_world
    params = init_params(ModelConfig(seed=3), WIDTH)
    masked = default_active_groups("cascade_wise")
    samples = (build_samples(stories, cascades, social, "url_wise", hours=24.0)
               + [prepare_graph(s, masked) for s in
                  build_samples(stories, cascades, social, "cascade_wise", hours=24.0)])
    assert len(samples) > 20
    for sample in samples:
        assert_matches_tape(sample, params)
        scores, _, emb = forward(sample.features, sample.edges, params)
        ref_scores, ref_emb = _forward_tensors(Tensor(sample.features), sample.edges,
                                               tape_tensors(params))
        assert np.array_equal(scores, ref_scores.data.reshape(2))
        assert np.array_equal(emb, ref_emb.data)


def test_finite_differences_on_criterion_one_graphs():
    active = 0
    for seed in range(10):
        sample = random_graph_sample(np.random.default_rng(1000 + seed), 5, TINY_WIDTH)
        params = init_params(ModelConfig(hidden=6, fc1=4, iterations=1, seed=seed),
                             TINY_WIDTH)
        arrays = params.named
        _, grads = loss_and_grads(*sample, params)
        active += grads is not None
        grads = named_views(params, np.zeros_like(params.flat) if grads is None else grads)
        numeric = central_difference_grads(lambda: loss_and_grads(*sample, params)[0],
                                           arrays, h=1e-5)
        err = relative_error([grads[k] for k in arrays], [numeric[k] for k in arrays])
        assert err <= 1e-4, f"seed {seed}: relative error {err}"
    assert active >= 5


def test_single_node_graph_without_edges():
    params = init_params(ModelConfig(seed=1), WIDTH)
    for label in (0, 1):
        sample = random_graph_sample(np.random.default_rng(label), 1, WIDTH, label=label)
        assert_matches_tape(sample, params)


def test_zero_loss_over_non_finite_forward_raises():
    params = init_params(ModelConfig(seed=2), WIDTH)
    sample = random_graph_sample(np.random.default_rng(4), 4, WIDTH, label=0)
    params.named["gc2.weight"][0, 0] = np.nan
    # the tape scores NaN as a zero hinge loss with a NaN gradient
    loss, grads = tape_loss_and_grads(sample, params)
    assert loss == 0.0 and not np.isfinite(grads["gc1.weight"]).all()
    with pytest.raises(classifier_mod.NumericError):
        loss_and_grads(*sample, params)


# -- the training loop as it ran on the tape ------------------------------------

def reference_amsgrad(params, grads, state):
    for name, g in grads.items():
        assert np.isfinite(g).all()
    state.step_count += 1
    for name, theta in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(theta))
        v = state.v.setdefault(name, np.zeros_like(theta))
        v_hat = state.v_hat.setdefault(name, np.zeros_like(theta))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        np.maximum(v_hat, v, out=v_hat)
        theta -= state.learning_rate * m / (np.sqrt(v_hat) + state.eps)


def tape_train(train_set, val_set, config):
    params = init_params(config, train_set[0].features.shape[1])
    arrays = params.named
    # the reference keeps its moments per name, in dicts
    state = OptimizerState(learning_rate=config.learning_rate, m={}, v={}, v_hat={})
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 11)))
    loss_trace, val_trace = [], []
    best_auc, best_arrays = -1.0, None
    for it in range(1, config.iterations + 1):
        sample = train_set[rng.integers(len(train_set))]
        value, grads = tape_loss_and_grads(sample, params)
        loss_trace.append(value)
        reference_amsgrad(arrays, grads, state)
        if it % classifier_mod.VALIDATION_EVERY == 0 or it == config.iterations:
            scores = [fake_score(_forward_tensors(Tensor(s.features), s.edges,
                                                  tape_tensors(params))[0].data.reshape(2))
                      for s in val_set]
            auc = roc_auc(scores, [s.label for s in val_set])[1]
            val_trace.append((it, auc))
            if auc > best_auc:
                best_auc, best_arrays = auc, {k: a.copy() for k, a in arrays.items()}
    for k, a in arrays.items():
        a[...] = best_arrays[k]
    return params, loss_trace, val_trace, state


@pytest.mark.parametrize("scope", ["cascade_wise", "url_wise"])
def test_train_matches_tape_loop(small_world, monkeypatch, scope):
    # cascade-wise samples are masked, url-wise ones keep every group; the
    # reference steps on explicit zeros where train() passes None
    stories, cascades, social = small_world
    samples = [prepare_graph(s, default_active_groups(scope))
               for s in build_samples(stories, cascades, social, scope, hours=24.0)]
    first_of_label = {}
    for s in samples:
        first_of_label.setdefault(s.label, s.url_id)
    val = [s for s in samples if s.url_id in first_of_label.values()]
    tr = [s for s in samples if s not in val]
    assert len(first_of_label) == 2 and len(tr) >= 10
    monkeypatch.setattr(classifier_mod, "VALIDATION_EVERY", 50)
    config = ModelConfig(hidden=16, fc1=8, iterations=200, seed=6, learning_rate=5e-3)
    result = train(tr, val, config)
    params, loss_trace, val_trace, state = tape_train(tr, val, config)

    assert result.loss_trace == loss_trace
    assert 0.0 in loss_trace and max(loss_trace) > 0.0
    assert result.val_auc_trace == val_trace and len(val_trace) == 4
    for name, view in params.named.items():
        assert np.array_equal(result.params.named[name], view), name
    assert result.opt_state.step_count == state.step_count == config.iterations
    moments = {k: named_views(result.params, getattr(result.opt_state, k))
               for k in ("m", "v", "v_hat")}
    for k, arrays in moments.items():
        for name, want in getattr(state, k).items():
            assert np.array_equal(arrays[name], want), (k, name)
