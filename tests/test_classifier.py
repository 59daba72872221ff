"""Network assembly, training loop, masking, checkpoints."""
import json

import numpy as np
import pytest

from cascade_gnn.classifier import (CheckpointError, ModelConfig, fake_score, forward,
                                    init_params, load_checkpoint, mask_columns,
                                    prepare_graph, save_checkpoint, train, user_embeddings)
from cascade_gnn.features import FEATURE_GROUPS, default_schema
from cascade_gnn.nn import hinge_loss
from cascade_gnn.optim import NumericError, OptimizerState, amsgrad_step
from cascade_gnn.propagation import build_propagation_graph
from cascade_gnn.types import SocialGraph
from cascade_gnn.autograd import Tensor
import cascade_gnn.classifier as classifier_mod

from helpers import make_cascade, make_social, make_story, make_user

SCHEMA = default_schema()


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
    social = SocialGraph(users=users, follows=frozenset(follows))
    cas = make_cascade([(f"u{i}", 30.0 * i) for i in range(n_users)], "c0", "url0")
    story = make_story("url0", label, ["c0"])
    return build_propagation_graph(story, [cas], social, "cascade_wise", SCHEMA)


def small_config(**kw):
    defaults = dict(schema=SCHEMA, hidden=8, fc1=4, iterations=10, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestForward:
    def test_single_node_graph_runs(self):
        g = tiny_graph(n_users=1)
        params = init_params(small_config())
        scores, probs, emb = forward(prepare_graph(g, SCHEMA), params)
        assert scores.shape == (2,) and np.isfinite(scores).all()
        assert emb.shape == (1, 8)

    def test_probabilities_sum_to_one(self):
        params = init_params(small_config())
        for seed in range(100):
            g = tiny_graph(n_users=int(np.random.default_rng(seed).integers(1, 5)),
                           seed=seed)
            _, probs, _ = forward(prepare_graph(g, SCHEMA), params)
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
        g = build_propagation_graph(story, [cas], social, "cascade_wise", SCHEMA)
        params = init_params(small_config(seed=5))
        base, _, _ = forward(prepare_graph(g, SCHEMA), params)

        for k in range(10):
            perm = np.random.default_rng(k).permutation(g.num_nodes)
            feats = g.node_features[perm]
            inv = {int(p): i for i, p in enumerate(perm)}
            edges = []
            for i, j, fl in g.edges:
                a, b = inv[i], inv[j]
                if a < b:
                    edges.append((a, b, fl))
                else:
                    edges.append((b, a, (fl[1], fl[0], fl[3], fl[2])))
            from cascade_gnn.nn import build_edge_arrays
            from cascade_gnn.classifier import PreparedGraph, _forward_tensors
            sample = PreparedGraph("k", "url0", feats,
                                   build_edge_arrays(g.num_nodes, edges), 1)
            scores, _, _ = forward(sample, params)
            np.testing.assert_allclose(scores, base, atol=1e-9)

    def test_width_mismatch_raises(self):
        g = tiny_graph()
        params = init_params(ModelConfig(schema=SCHEMA, hidden=8, fc1=4,
                                         iterations=1, seed=0))
        bad = prepare_graph(g, SCHEMA)
        bad = type(bad)(bad.key, bad.url_id, bad.features[:, :100], bad.edges, bad.label)
        with pytest.raises(ValueError):
            forward(bad, params)


class TestMasking:
    def test_all_groups_active_is_identity(self):
        g = tiny_graph()
        masked = mask_columns(g.node_features, SCHEMA, FEATURE_GROUPS)
        assert (masked == g.node_features).all()

    def test_content_masked_zeroes_400_columns(self):
        g = tiny_graph(seed=7)
        active = tuple(gr for gr in FEATURE_GROUPS if gr != "content")
        masked = mask_columns(g.node_features, SCHEMA, active)
        cols = SCHEMA.group_columns("content")
        assert cols.size == 400
        assert (masked[:, cols] == 0).all()
        others = np.setdiff1d(np.arange(SCHEMA.width), cols)
        assert (masked[:, others] == g.node_features[:, others]).all()

    def test_masked_features_get_zero_gradient(self):
        g = tiny_graph(label="fake_news", seed=9)
        active = ("user_profile", "network_spreading")
        sample = prepare_graph(g, SCHEMA, active, key="url0", url_id="url0")
        config = small_config(active_groups=active)
        params = init_params(config)
        scores, _ = classifier_mod._forward_tensors(
            Tensor(sample.features), sample.edges, params)
        hinge_loss(scores, sample.label).backward()
        grad = params.gc1.weight.grad
        masked_rows = np.concatenate([SCHEMA.group_columns("user_activity"),
                                      SCHEMA.group_columns("content")])
        assert (grad[masked_rows] == 0.0).all()
        assert np.abs(grad).sum() > 0.0


class TestTrain:
    def build_set(self, n, seed=0, balanced=True, random_embeddings=False):
        samples = []
        for k in range(n):
            label = "fake_news" if (k % 2 == 0 and balanced) else "true_news"
            g = tiny_graph(label=label, n_users=2 + k % 3, seed=seed * 100 + k,
                           random_embeddings=random_embeddings)
            samples.append(prepare_graph(g, SCHEMA, FEATURE_GROUPS,
                                         key=f"g{k}", url_id=f"url{k}"))
        return samples

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train([], [], small_config())

    def test_single_iteration_is_one_amsgrad_step(self):
        samples = self.build_set(4)
        config = small_config(iterations=1, seed=3)
        result = train(samples, [], config)

        # replay: same init, same sampled graph, one manual step
        params = init_params(config)
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 11)))
        sample = samples[rng.integers(len(samples))]
        scores, _ = classifier_mod._forward_tensors(
            Tensor(sample.features), sample.edges, params)
        loss = hinge_loss(scores, sample.label)
        params.zero_grad()
        loss.backward()
        named = params.named()
        arrays = {k: t.data for k, t in named.items()}
        grads = {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
                 for k, t in named.items()}
        amsgrad_step(arrays, grads, OptimizerState(learning_rate=config.learning_rate))
        for k, t in result.params.named().items():
            np.testing.assert_array_equal(t.data, named[k].data)

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
        base = prepare_graph(g, SCHEMA, FEATURE_GROUPS, key="g", url_id="u")
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

    def test_loss_trace_recorded(self):
        samples = self.build_set(4)
        result = train(samples, [], small_config(iterations=25))
        assert len(result.loss_trace) == 25
        assert all(np.isfinite(v) for v in result.loss_trace)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        config = small_config(seed=13)
        samples = TestTrain().build_set(6, seed=4)
        result = train(samples, samples, small_config(iterations=40, seed=13))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result.params, result.opt_state, seed=13,
                        meta={"note": "test"})
        params2, state2, seed = load_checkpoint(path, config)
        assert seed == 13
        for k, t in result.params.named().items():
            assert (params2.named()[k].data == t.data).all()
        for k in result.opt_state.v_hat:
            assert (state2.v_hat[k] == result.opt_state.v_hat[k]).all()
        assert state2.step_count == result.opt_state.step_count

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
        ("'optimizer'", lambda doc: doc.update(optimizer={"m": {}})),
        ("'optimizer'", lambda doc: doc.update(optimizer=[1, 2])),
    ])
    def test_malformed_field_names_file_and_field(self, tmp_path, field, mangle):
        config = small_config()
        path = tmp_path / "mangled.json"
        save_checkpoint(path, init_params(config), OptimizerState())
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
        params = init_params(small_config())
        table = user_embeddings([prepare_graph(g1, SCHEMA), prepare_graph(g2, SCHEMA)], params)
        assert set(table) == set(g1.node_authors) | set(g2.node_authors)
        _, _, emb1 = forward(prepare_graph(g1, SCHEMA), params)
        _, _, emb2 = forward(prepare_graph(g2, SCHEMA), params)
        manual = {}
        counts = {}
        for authors, emb in ((g1.node_authors, emb1), (g2.node_authors, emb2)):
            for a, row in zip(authors, emb):
                manual[a] = manual.get(a, 0) + row
                counts[a] = counts.get(a, 0) + 1
        for a in manual:
            np.testing.assert_allclose(table[a], manual[a] / counts[a])


class TestModelConfig:
    def test_requires_active_groups(self):
        with pytest.raises(ValueError):
            ModelConfig(schema=SCHEMA, active_groups=())

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            ModelConfig(schema=SCHEMA, active_groups=("bogus",))

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            ModelConfig(schema=SCHEMA, iterations=0)
