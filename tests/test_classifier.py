"""Network assembly, training loop, masking, checkpoints."""
import json
from dataclasses import replace

import numpy as np
import pytest

from cascade_gnn.classifier import (CheckpointError, ModelConfig, fake_score, forward,
                                    init_params, load_checkpoint, param_shapes,
                                    prepare_graph, save_checkpoint, train, user_embeddings)
from cascade_gnn.features import FEATURE_GROUPS, WIDTH
from cascade_gnn.nn import hinge_loss
from cascade_gnn.optim import NumericError, OptimizerState, amsgrad_step
from cascade_gnn.propagation import build_propagation_graph
from cascade_gnn.autograd import Tensor
import cascade_gnn.classifier as classifier_mod

from helpers import (GROUP_SETS, TINY_WIDTH, block_ranges, edge_relation, make_cascade,
                     make_social, make_story, make_user, random_graph_sample, social_graph,
                     tape_tensors, world_table)


def tiny_graph(label="true_news", n_users=3, seed=0, random_embeddings=False):
    rng = np.random.default_rng(seed)
    users = {}
    for i in range(n_users):
        kw = {}
        if random_embeddings:
            v = rng.normal(size=200)
            kw["description_embedding"] = v / np.linalg.norm(v)
        users[f"u{i}"] = make_user(f"u{i}", followers=int(rng.integers(0, 50)), **kw)
    follows = {(f"u{i}", f"u{j}") for i in range(n_users) for j in range(n_users)
               if i != j and rng.random() < 0.4}
    social = social_graph(users, follows)
    cas = make_cascade([(f"u{i}", 30.0 * i) for i in range(n_users)], "c0", "url0")
    story = make_story("url0", label, ["c0"])
    return build_propagation_graph(story, [cas], social, "cascade_wise",
                                   world_table(social, [cas]))


def small_config(**kw):
    defaults = dict(hidden=8, fc1=4, iterations=10, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestForward:
    def test_single_node_graph_runs(self):
        g = tiny_graph(n_users=1)
        params = init_params(small_config(), WIDTH)
        scores, probs, emb = forward(g, params)
        assert scores.shape == (2,) and np.isfinite(scores).all()
        assert emb.shape == (1, 8)

    def test_probabilities_sum_to_one(self):
        params = init_params(small_config(), WIDTH)
        for seed in range(100):
            g = tiny_graph(n_users=int(np.random.default_rng(seed).integers(1, 5)),
                           seed=seed)
            _, probs, _ = forward(g, params)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_node_permutation_leaves_scores(self):
        # permuting the cascade tweet order permutes nodes; scores must agree
        rng = np.random.default_rng(3)
        users = {f"u{i}": int(rng.integers(0, 40)) for i in range(5)}
        follows = {("u1", "u0"), ("u2", "u0"), ("u3", "u1"), ("u4", "u2")}
        social = make_social(users, follows)
        times = [0.0, 10.0, 20.0, 30.0, 40.0]
        cas = make_cascade(list(zip(users, times)), "c0", "url0")
        story = make_story("url0", "fake_news", ["c0"])
        g = build_propagation_graph(story, [cas], social, "cascade_wise",
                                   world_table(social, [cas]))
        params = init_params(small_config(seed=5), WIDTH)
        base, _, _ = forward(g, params)

        n = g.edges.num_nodes
        for k in range(10):
            perm = np.random.default_rng(k).permutation(n)
            feats = g.features[perm]
            from cascade_gnn.nn import build_edge_arrays
            from cascade_gnn.classifier import PreparedGraph, _forward_tensors
            sample = PreparedGraph("k", "url0", feats,
                                   build_edge_arrays(edge_relation(g.edges)[perm][:, perm]), 1)
            scores, _, _ = forward(sample, params)
            np.testing.assert_allclose(scores, base, atol=1e-9)

    def test_width_mismatch_raises(self):
        g = tiny_graph()
        params = init_params(ModelConfig(hidden=8, fc1=4, iterations=1, seed=0), WIDTH)
        bad = type(g)(g.key, g.url_id, g.features[:, :100], g.edges, g.label)
        with pytest.raises(ValueError):
            forward(bad, params)


def block_columns(groups) -> np.ndarray:
    """The columns of the blocks of ``groups``."""
    return np.array([c for _, group, cols in block_ranges() if group in groups for c in cols],
                    dtype=np.intp)


class TestMasking:
    @pytest.mark.parametrize("active", GROUP_SETS, ids="|".join)
    def test_zeroes_exactly_the_inactive_groups(self, active):
        # normal features hold no zero, so a stray zeroed column shows
        sample = random_graph_sample(np.random.default_rng(len(active)), 4, WIDTH)
        before = sample.features.copy()
        masked = prepare_graph(sample, active)
        kept = block_columns(active)
        zeroed = block_columns([g for g in FEATURE_GROUPS if g not in active])
        assert kept.size + zeroed.size == WIDTH
        assert masked.features[:, zeroed].tobytes() == bytes(8 * 4 * zeroed.size)
        assert masked.features[:, kept].tobytes() == before[:, kept].tobytes()
        assert sample.features.tobytes() == before.tobytes()
        if zeroed.size == 0:
            assert masked is sample
        else:
            assert not np.shares_memory(masked.features, sample.features)
            assert masked.edges is sample.edges and masked.label == sample.label

    @pytest.mark.parametrize("width", [TINY_WIDTH, WIDTH - 1, WIDTH + 1])
    def test_a_sample_of_another_width_is_refused(self, width):
        # a clipped or missing column range would mask some other columns, or none
        sample = random_graph_sample(np.random.default_rng(width), 3, width)
        assert prepare_graph(sample, FEATURE_GROUPS) is sample
        with pytest.raises(ValueError, match=f"sample of {width} feature columns: "
                                             f"the feature layout has {WIDTH}"):
            prepare_graph(sample, ("user_profile", "network_spreading", "content"))

    def test_masked_features_get_zero_gradient(self):
        g = tiny_graph(label="fake_news", seed=9)
        active = ("user_profile", "network_spreading")
        sample = prepare_graph(g, active)
        config = small_config(active_groups=active)
        tensors = tape_tensors(init_params(config, WIDTH))
        scores, _ = classifier_mod._forward_tensors(
            Tensor(sample.features), sample.edges, tensors)
        hinge_loss(scores, sample.label).backward()
        grad = tensors["gc1.weight"].grad
        masked_rows = block_columns(("user_activity", "content"))
        assert (grad[masked_rows] == 0.0).all()
        assert np.abs(grad).sum() > 0.0


class TestTrain:
    def build_set(self, n, seed=0, balanced=True, random_embeddings=False):
        samples = []
        for k in range(n):
            label = "fake_news" if (k % 2 == 0 and balanced) else "true_news"
            g = tiny_graph(label=label, n_users=2 + k % 3, seed=seed * 100 + k,
                           random_embeddings=random_embeddings)
            samples.append(replace(g, key=f"g{k}", url_id=f"url{k}"))
        return samples

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train([], [], small_config())

    def test_single_iteration_is_one_amsgrad_step(self):
        samples = self.build_set(4)
        config = small_config(iterations=1, seed=3)
        result = train(samples, [], config)

        # replay: same init, same sampled graph, one manual step
        params = init_params(config, WIDTH)
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 11)))
        sample = samples[rng.integers(len(samples))]
        tensors = tape_tensors(params)
        scores, _ = classifier_mod._forward_tensors(
            Tensor(sample.features), sample.edges, tensors)
        loss = hinge_loss(scores, sample.label)
        loss.backward()
        grads = np.concatenate([t.grad if t.grad is not None else np.zeros_like(t.data)
                                for t in tensors.values()], axis=None)
        amsgrad_step(params.flat, grads, OptimizerState(learning_rate=config.learning_rate))
        for k, view in result.params.named.items():
            np.testing.assert_array_equal(view, params.named[k])

    @pytest.mark.parametrize("name", ["gc1.weight", "gc2.attn", "fc2.bias"])
    def test_non_finite_gradient_names_its_parameter(self, monkeypatch, name):
        params = init_params(small_config(), WIDTH)
        start = 0
        for k, view in params.named.items():
            if k == name:
                break
            start += view.size
        loss_and_grads = classifier_mod.loss_and_grads

        def poisoned(sample, params):
            loss, grads = loss_and_grads(sample, params)
            grads = np.zeros_like(params.flat) if grads is None else grads
            grads[start + 1] = np.nan
            return loss, grads

        monkeypatch.setattr(classifier_mod, "loss_and_grads", poisoned)
        with pytest.raises(NumericError,
                           match=f"^non-finite gradient for parameter '{name}'$"):
            train(self.build_set(4), [], small_config(iterations=3))

    def test_memorizes_small_set(self):
        # final params (empty validation set disables snapshot selection)
        samples = self.build_set(10, seed=1, random_embeddings=True)
        config = small_config(hidden=16, fc1=8, iterations=2000, seed=2,
                              learning_rate=5e-3)
        result = train(samples, [], config)
        losses = []
        for s in samples:
            scores, _, _ = forward(s, result.params)
            losses.append(max(0.0, 1.0 - (scores[s.label] - scores[1 - s.label])))
        assert np.mean(losses) < 0.05

    def test_no_signal_gives_chance_auc(self):
        # identical features for both classes: AUC must hover near 0.5
        g = tiny_graph(label="true_news", seed=11)
        base = replace(g, key="g", url_id="u")
        rng = np.random.default_rng(0)
        samples = []
        for k in range(40):
            label = int(k % 2 == 0)
            samples.append(type(base)(f"g{k}", f"url{k}", base.features.copy(),
                                      base.edges, label))
        config = small_config(iterations=600, seed=7)
        result = train(samples[:24], samples[24:], config)
        assert result.best_val_auc is None or abs(result.best_val_auc - 0.5) <= 0.25
        from cascade_gnn.metrics import roc_auc
        scores = [fake_score(forward(s, result.params)[0]) for s in samples[24:]]
        labels = [s.label for s in samples[24:]]
        auc = roc_auc(scores, labels)[1]
        assert abs(auc - 0.5) <= 0.1

    def test_one_amsgrad_step_per_iteration_and_none_on_zero_loss(self, monkeypatch):
        # one function takes every step, so a trace of amsgrad_step counts
        # them all, and its zero path is the None gradient of a zero loss
        zero_steps = []

        def recording(theta, g, state):
            zero_steps.append(g is None)
            amsgrad_step(theta, g, state)

        monkeypatch.setattr(classifier_mod, "amsgrad_step", recording)
        config = small_config(hidden=16, fc1=8, iterations=300, seed=2, learning_rate=5e-3)
        result = train(self.build_set(10, seed=1, random_embeddings=True), [], config)
        assert len(zero_steps) == config.iterations
        assert zero_steps == [loss == 0.0 for loss in result.loss_trace]
        assert 0 < sum(zero_steps) < config.iterations

    def test_loss_trace_recorded(self):
        samples = self.build_set(4)
        result = train(samples, [], small_config(iterations=25))
        assert len(result.loss_trace) == 25
        assert all(np.isfinite(v) for v in result.loss_trace)


class TestParams:
    def test_named_arrays_tile_the_flat_vector(self, tmp_path):
        config = ModelConfig()
        params = init_params(config, WIDTH)
        assert params.flat.dtype == np.float64 and params.flat.ndim == 1
        assert [(k, v.shape) for k, v in params.named.items()] == list(param_shapes(config, WIDTH))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params)
        stored = json.loads(path.read_text())["params"]
        assert list(stored) == list(params.named)
        start = 0
        base = params.flat.__array_interface__["data"][0]
        for name, view in params.named.items():
            assert type(view) is np.ndarray, name
            assert np.shares_memory(view, params.flat), name
            assert view.flags.c_contiguous, name
            assert view.__array_interface__["data"][0] == base + 8 * start, name
            assert np.array_equal(stored[name]["data"], params.flat[start:start + view.size])
            start += view.size
        assert start == params.flat.size == 45_098


    def test_no_tensor_outside_the_tape_reference(self, tmp_path, monkeypatch):
        # training (validation included), scoring and checkpoints run on the
        # plain parameter arrays: building a Tensor anywhere fails the test
        samples = TestTrain().build_set(6, seed=2)
        config = small_config(iterations=30, seed=4)

        def no_tensor(self, *args, **kwargs):
            raise AssertionError("a Tensor was built")

        monkeypatch.setattr(Tensor, "__init__", no_tensor)
        result = train(samples[:4], samples[4:], config)
        assert result.val_auc_trace and max(result.loss_trace) > 0.0
        forward(samples[0], result.params)
        assert user_embeddings(samples, result.params)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result.params, seed=4)
        params, _ = load_checkpoint(path, config)
        assert np.array_equal(params.flat, result.params.flat)

class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        config = small_config(seed=13)
        samples = TestTrain().build_set(6, seed=4)
        result = train(samples, samples, small_config(iterations=40, seed=13))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result.params, seed=13, meta={"note": "test"})
        params2, seed = load_checkpoint(path, config)
        assert seed == 13
        for k, view in result.params.named.items():
            assert (params2.named[k] == view).all()
        assert list(json.loads(path.read_text())) == ["format", "seed", "meta", "params"]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not_ckpt.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_checkpoint(path, small_config())

    @pytest.mark.parametrize("field, mangle", [
        ("'params'", lambda doc: doc.update(params=[])),
        ("'meta'", lambda doc: doc.update(meta=["url_wise"])),
        ("'gc1.weight'", lambda doc: doc["params"].update({"gc1.weight": [1.0]})),
        ("'gc1.weight'", lambda doc: doc["params"]["gc1.weight"].pop("shape")),
        ("'gc1.weight'", lambda doc: doc["params"]["gc1.weight"].update(data="x")),
        ("'gc1.weight'", lambda doc: doc["params"]["gc1.weight"]["data"].__setitem__(0, "0.5")),
        ("'gc1.weight'", lambda doc: doc["params"]["gc1.weight"]["data"].__setitem__(0, True)),
        ("'gc1.weight'", lambda doc: doc["params"]["gc1.weight"]["data"].__setitem__(
            0, float("nan"))),
    ])
    def test_malformed_field_names_file_and_field(self, tmp_path, field, mangle):
        config = small_config()
        path = tmp_path / "mangled.json"
        save_checkpoint(path, init_params(config, WIDTH))
        doc = json.loads(path.read_text())
        mangle(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"mangled.json.*{field}"):
            load_checkpoint(path, config)

    def test_non_json_file_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(CheckpointError, match="binary.json"):
            load_checkpoint(path, small_config())


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_fake_score_rejects_non_finite_scores():
    assert fake_score(np.array([0.25, 1.0])) == 0.75
    for scores in ([np.inf, np.inf], [np.nan, 0.0], [-np.inf, 1.0]):
        with pytest.raises(NumericError, match="non-finite score"):
            fake_score(np.array(scores))


class TestUserEmbeddings:
    def test_mean_over_graphs(self):
        g1 = tiny_graph(seed=1)
        g2 = tiny_graph(seed=2)
        params = init_params(small_config(), WIDTH)
        table = user_embeddings([g1, g2], params)
        assert set(table) == set(g1.authors) | set(g2.authors)
        _, _, emb1 = forward(g1, params)
        _, _, emb2 = forward(g2, params)
        manual = {}
        counts = {}
        for authors, emb in ((g1.authors, emb1), (g2.authors, emb2)):
            for a, row in zip(authors, emb):
                manual[a] = manual.get(a, 0) + row
                counts[a] = counts.get(a, 0) + 1
        for a in manual:
            np.testing.assert_allclose(table[a], manual[a] / counts[a])


class TestModelConfig:
    def test_equal_fields_make_equal_configs(self):
        assert ModelConfig() == ModelConfig()
        assert hash(ModelConfig()) == hash(ModelConfig())
        assert ModelConfig(seed=1) != ModelConfig()

    def test_rejects_a_repeated_group(self):
        with pytest.raises(ValueError, match="more than once: content$"):
            ModelConfig(active_groups=("content", "user_profile", "content"))

    def test_requires_active_groups(self):
        with pytest.raises(ValueError):
            ModelConfig(active_groups=())

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            ModelConfig(active_groups=("bogus",))

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            ModelConfig(iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -1.0), ("learning_rate", float("nan")), ("iterations", 2.5),
    ])
    def test_rejects_what_the_cli_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be "):
            ModelConfig(**{field: value})
