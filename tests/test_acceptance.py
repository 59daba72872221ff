"""Acceptance gate: one test per criterion, each printing a PASS line.

The end-to-end reproduction criteria run on the default generator
(seed 42, 300 URLs, ~10k users) and share one module-scoped dataset.
Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
"""
import filecmp
import time

import numpy as np
import pytest

import cascade_gnn.autograd as ag
import cascade_gnn.nn as nn
from cascade_gnn.autograd import Tensor
from cascade_gnn.classifier import (ModelConfig, _forward_tensors, forward,
                                    init_params)
from cascade_gnn.cli import main as cli_main
from cascade_gnn.evalharness import (backward_feature_selection, build_samples,
                                     cross_validate, make_folds)
from cascade_gnn.features import FEATURE_GROUPS
from cascade_gnn.metrics import roc_auc
from cascade_gnn.nn import build_edge_arrays, hinge_loss
from cascade_gnn.optim import OptimizerState, amsgrad_step
from cascade_gnn.propagation import estimate_spreading_tree, truncate
from cascade_gnn.synthgen import (PLANTED_SIGNAL_GROUPS, GenConfig,
                                  generate_dataset, generate_social_graph,
                                  summary_stats)

from helpers import (TINY_WIDTH, central_difference_grads, edge_relation, gat_params,
                     make_cascade, pairwise_auc_oracle, random_graph_sample,
                     relative_error, tape_tensors)


@pytest.fixture(scope="module")
def default_world():
    cfg = GenConfig()  # seed 42, 300 urls, 10k users
    social = generate_social_graph(cfg)
    stories, cascades = generate_dataset(cfg, social)
    return cfg, social, stories, cascades


def test_criterion_01_gradient_correctness():
    start = time.time()
    tol, h = 1e-4, 1e-5

    # every differentiable op against central differences
    rng = np.random.default_rng(0)
    op_cases = {
        "add": lambda t: ag.sum_all(ag.mul(ag.add(t["a"], t["b"]), t["p"])),
        "sub": lambda t: ag.sum_all(ag.mul(ag.sub(t["a"], t["b"]), t["p"])),
        "mul": lambda t: ag.sum_all(ag.mul(ag.mul(t["a"], t["b"]), t["p"])),
        "div": lambda t: ag.sum_all(ag.mul(ag.div(t["a"], t["shift"]), t["p"])),
        "neg": lambda t: ag.sum_all(ag.mul(ag.neg(t["a"]), t["p"])),
        "matmul": lambda t: ag.sum_all(ag.mul(ag.matmul(t["a"], t["w"]), t["q"])),
        "exp": lambda t: ag.sum_all(ag.mul(ag.exp(t["a"]), t["p"])),
        "selu": lambda t: ag.sum_all(ag.mul(ag.selu(t["a"]), t["p"])),
        "leaky_relu": lambda t: ag.sum_all(ag.mul(ag.leaky_relu(t["a"], 0.2), t["p"])),
        "relu": lambda t: ag.sum_all(ag.mul(ag.relu(t["a"]), t["p"])),
        "gather": lambda t: ag.sum_all(ag.mul(ag.gather_rows(t["a"], [2, 0, 1, 2]), t["g"])),
        "segment_sum": lambda t: ag.sum_all(ag.mul(
            ag.segment_sum(t["a"], [0, 1, 1], 2), t["s"])),
        "segment_softmax": lambda t: ag.sum_all(ag.mul(
            ag.segment_softmax(ag.matmul(t["a"], t["col"]), [0, 0, 1], 2), t["c"])),
        "pair_mean": lambda t: ag.sum_all(ag.mul(ag.pair_mean_channels(t["a"], 2), t["h"])),
        "mean_axis0": lambda t: ag.sum_all(ag.mul(ag.mean_axis0(t["a"]), t["m"])),
        "slice_rows": lambda t: ag.sum_all(ag.mul(ag.slice_rows(t["a"], 0, 2), t["r"])),
    }
    probes = {"p": rng.normal(size=(3, 4)), "q": rng.normal(size=(3, 5)),
              "g": rng.normal(size=(4, 4)), "s": rng.normal(size=(2, 4)),
              "c": rng.normal(size=(3, 1)), "h": rng.normal(size=(3, 2)),
              "m": rng.normal(size=(1, 4)), "r": rng.normal(size=(2, 4)),
              "col": rng.normal(size=(4, 1)), "shift": rng.normal(size=(3, 4)) + 3.0,
              "w": rng.normal(size=(4, 5))}
    for name, build in op_cases.items():
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
        consts = {k: Tensor(v) for k, v in probes.items()}

        def run():
            tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
            tensors.update(consts)
            return build(tensors), tensors

        loss, tensors = run()
        loss.backward()
        numeric = central_difference_grads(lambda: run()[0].item(), arrays, h=h)
        analytic = [tensors[k].grad if tensors[k].grad is not None
                    else np.zeros_like(arrays[k]) for k in arrays]
        err = relative_error(analytic, [numeric[k] for k in arrays])
        assert err <= tol, f"op {name}: relative error {err}"

    # full composed network on 5-node random graphs, 10 seeds
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        sample = random_graph_sample(rng, 5, TINY_WIDTH)
        config = ModelConfig(hidden=6, fc1=4, iterations=1, seed=seed)
        params = init_params(config, TINY_WIDTH)
        arrays = params.named
        tensors = tape_tensors(params)

        def network_loss():
            scores, _ = _forward_tensors(Tensor(sample.features), sample.edges, tensors)
            return hinge_loss(scores, sample.label)

        loss = network_loss()
        loss.backward()
        analytic = {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
                    for k, t in tensors.items()}
        numeric = central_difference_grads(lambda: network_loss().item(), arrays, h=h)
        err = relative_error([analytic[k] for k in arrays],
                             [numeric[k] for k in arrays])
        assert err <= tol, f"network seed {seed}: relative error {err}"

    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 gradient correctness: PASS ({elapsed:.1f}s)")


def test_criterion_02_spreading_tree_oracle():
    start = time.time()
    cfg = GenConfig(num_users=1500, num_urls=120, mean_cascades_per_url=4.0)
    social = generate_social_graph(cfg)
    _, cascades = generate_dataset(cfg, social)
    small = [c for c in cascades if c.size <= 6][:200]
    assert len(small) == 200

    follows = set(social.pairs())

    def brute_force(cascade):
        parent = {}
        for n, tweet in enumerate(cascade.tweets):
            if n == 0:
                continue
            prev = list(cascade.tweets[:n])
            followed = [p for p in prev
                        if (tweet.author, p.author) in follows]
            if followed:
                parent[tweet.tweet_id] = followed[-1].tweet_id
            else:
                most = max(prev,
                           key=lambda p: social.users[p.author].followers_count)
                parent[tweet.tweet_id] = most.tweet_id
        return parent

    for cascade in small:
        tree = estimate_spreading_tree(cascade, social)
        assert tree == brute_force(cascade), cascade.cascade_id
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 spreading-tree oracle equivalence (200 cascades): "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_03_roc_auc_oracle():
    rng = np.random.default_rng(7)
    # edge cases: all ties and perfect separation
    _, auc = roc_auc([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1])
    assert abs(auc - 0.5) <= 1e-12
    _, auc = roc_auc([3.0, 2.0, 1.0, 0.0], [1, 1, 0, 0])
    assert abs(auc - 1.0) <= 1e-12
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        _, auc = roc_auc(scores, labels)
        assert abs(auc - pairwise_auc_oracle(scores, labels)) <= 1e-12
    print("ACCEPTANCE 3 ROC AUC oracle equivalence (1000 instances): PASS")


def test_criterion_04_permutation_equivariance_invariance():
    config = ModelConfig(hidden=6, fc1=4, iterations=1, seed=0)
    for g_idx in range(100):
        rng = np.random.default_rng(2000 + g_idx)
        n = int(rng.integers(2, 9))
        sample = random_graph_sample(rng, n, TINY_WIDTH)
        params = init_params(config, TINY_WIDTH)
        gat = gat_params(rng, TINY_WIDTH, 6)
        gat_tensors = [Tensor(a) for a in gat]
        base_layer = nn.gat_forward(Tensor(sample.features), sample.edges, *gat_tensors).data
        base_array_layer, _ = nn.gat_layer(sample.features, sample.edges, *gat)
        base_scores, _, _ = forward(sample, params)

        for p_idx in range(10):
            perm = np.random.default_rng(3000 + g_idx * 10 + p_idx).permutation(n)
            feats = np.empty_like(sample.features)
            feats[perm] = sample.features
            inv = np.argsort(perm)
            ea = build_edge_arrays(edge_relation(sample.edges)[inv][:, inv])
            layer = nn.gat_forward(Tensor(feats), ea, *gat_tensors).data
            assert np.abs(layer[perm] - base_layer).max() <= 1e-9
            array_layer, _ = nn.gat_layer(feats, ea, *gat)
            assert np.abs(array_layer[perm] - base_array_layer).max() <= 1e-9

            from cascade_gnn.classifier import PreparedGraph
            permuted = PreparedGraph("g", "u", feats, ea, sample.label)
            scores, _, _ = forward(permuted, params)
            assert np.abs(scores - base_scores).max() <= 1e-9
    print("ACCEPTANCE 4 permutation equivariance/invariance (100 graphs x 10): PASS")


def test_criterion_05_truncation_nesting():
    rng = np.random.default_rng(11)
    cascades = []
    for k in range(1000):
        n = int(rng.integers(1, 10))
        deltas = np.sort(rng.exponential(6.0, size=n - 1)) if n > 1 else []
        times = [0.0] + [float(d) * 3600.0 for d in deltas]
        cascades.append(make_cascade([(f"u{i}", t) for i, t in enumerate(times)],
                                     f"c{k}", "url0"))
    for cas in cascades:
        previous = None
        for d in range(0, 25):
            kept = truncate([cas], float(d))
            ids = {t.tweet_id for c in kept for t in c.tweets}
            if previous is not None:
                assert previous <= ids, f"nesting violated at d={d}"
            previous = ids
        if all(t.timestamp - cas.source.timestamp < 24 * 3600.0 for t in cas.tweets):
            kept = truncate([cas], 24.0)
            assert {t.tweet_id for c in kept for t in c.tweets} == \
                {t.tweet_id for t in cas.tweets}
    print("ACCEPTANCE 5 truncation nesting (1000 cascades, d=0..24): PASS")


def test_criterion_06_amsgrad_unit_behavior():
    # hand-computed single step
    params = np.array([1.0])
    state = OptimizerState(learning_rate=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    amsgrad_step(params, np.array([1.0]), state)
    assert abs(params[0] - 0.68377) <= 1e-5
    assert abs(params[0] - (1.0 - 0.1 * 0.1 / (np.sqrt(0.001) + 1e-8))) <= 1e-6

    # v_hat monotone over 10k random steps
    rng = np.random.default_rng(5)
    params = np.zeros(3)
    state = OptimizerState(learning_rate=1e-3)
    prev = np.zeros(3)
    for _ in range(10_000):
        amsgrad_step(params, rng.normal(size=3) * rng.exponential(1.0), state)
        assert (state.v_hat >= prev).all()
        prev = state.v_hat.copy()

    # quadratic bowl convergence
    params = np.array([0.0])
    state = OptimizerState(learning_rate=0.01)
    for _ in range(5000):
        amsgrad_step(params, 2.0 * (params - 3.0), state)
    assert abs(params[0] - 3.0) < 1e-2
    print("ACCEPTANCE 6 AMSGrad unit behavior: PASS")


def test_criterion_07_end_to_end_trends(default_world):
    start = time.time()
    cfg, social, stories, cascades = default_world
    plan = make_folds(stories, seed=0)
    aucs = {}
    for scope, min_size, iters in (("url_wise", 1, 3000), ("cascade_wise", 6, 4000)):
        for hours in (24.0, 0.0):
            samples = build_samples(stories, cascades, social, scope,
                                    hours=hours, min_cascade_size=min_size)
            mc = ModelConfig(iterations=iters, seed=1)
            cv = cross_validate(samples, plan, mc, jobs=2)
            aucs[(scope, hours)] = cv.mean_auc
    elapsed = time.time() - start
    url24, url0 = aucs[("url_wise", 24.0)], aucs[("url_wise", 0.0)]
    cas24, cas0 = aucs[("cascade_wise", 24.0)], aucs[("cascade_wise", 0.0)]
    assert url24 >= 0.85, f"url-wise 24h mean AUC {url24:.4f} < 0.85"
    assert cas24 >= 0.80, f"cascade-wise 24h mean AUC {cas24:.4f} < 0.80"
    assert url24 >= url0 + 0.05, f"url jump {url24 - url0:.4f} < 0.05"
    assert cas24 >= cas0 + 0.05, f"cascade jump {cas24 - cas0:.4f} < 0.05"
    assert elapsed <= 30 * 60, f"took {elapsed:.0f}s > 30 min"
    print(f"ACCEPTANCE 7 end-to-end trends: PASS (url 24h {url24:.3f} vs 0h "
          f"{url0:.3f}; cascade 24h {cas24:.3f} vs 0h {cas0:.3f}; {elapsed:.0f}s)")


def test_criterion_08_generator_calibration(default_world):
    _, social, stories, cascades = default_world
    stats = summary_stats(stories, cascades)
    assert abs(stats.mean_cascade_size - 2.79) / 2.79 <= 0.20, stats.mean_cascade_size
    assert abs(stats.fake_fraction - 0.1674) <= 0.02, stats.fake_fraction
    assert abs(stats.coverage_by_hour[7.0] - 0.91) <= 0.05, stats.coverage_by_hour
    print(f"ACCEPTANCE 8 generator calibration: PASS (size {stats.mean_cascade_size:.3f},"
          f" fake {stats.fake_fraction:.4f}, 7h coverage {stats.coverage_by_hour[7.0]:.3f})")


def test_criterion_09_ablation_sanity(default_world):
    cfg, social, stories, cascades = default_world
    plan = make_folds(stories, seed=0)
    inert = tuple(g for g in FEATURE_GROUPS if g not in PLANTED_SIGNAL_GROUPS)
    samples = build_samples(stories, cascades, social, "url_wise",
                            hours=24.0, active_groups=inert)
    mc = ModelConfig(iterations=3000, seed=1, active_groups=inert)
    cv = cross_validate(samples, plan, mc, jobs=2)
    assert 0.4 <= cv.mean_auc <= 0.6, f"masked-signal AUC {cv.mean_auc:.4f}"

    # structure: exactly 4 subset levels, deterministic ordering given the seed
    fast = ModelConfig(iterations=300, seed=2)
    base = build_samples(stories, cascades, social, "url_wise", hours=24.0)
    r1 = backward_feature_selection(base, stories, fast)
    r2 = backward_feature_selection(base, stories, fast)
    assert [len(l.active_groups) for l in r1.levels] == [4, 3, 2, 1]
    assert r1.removal_order == r2.removal_order
    assert r1.importance_order == r2.importance_order
    # planted-signal groups should top the importance ordering
    assert set(r1.importance_order[:2]) == set(PLANTED_SIGNAL_GROUPS)
    print(f"ACCEPTANCE 9 ablation sanity: PASS (masked AUC {cv.mean_auc:.3f}, "
          f"importance {r1.importance_order})")


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "ds"
    gen = ["generate", "--seed", "11", "--out", str(data), "--users", "200",
           "--urls", "30", "--mean-cascades", "3", "--fake-fraction", "0.3"]
    assert cli_main(gen) == 0
    data2 = tmp_path / "ds2"
    assert cli_main(["generate", "--seed", "11", "--out", str(data2), "--users",
                     "200", "--urls", "30", "--mean-cascades", "3",
                     "--fake-fraction", "0.3"]) == 0
    for name in ("users.jsonl", "follows.csv", "cascades.jsonl", "urls.jsonl",
                 "embeddings.jsonl", "stats.json"):
        assert filecmp.cmp(data / name, data2 / name, shallow=False), name

    fast = ["--iterations", "40", "--jobs", "2", "--seed", "5"]
    commands = {
        "cv": (["cv", "--dataset", str(data), "--scope", "url", "--hours", "24"]
               + fast, ["report.json", "roc.csv"]),
        "sweep": (["sweep", "--dataset", str(data), "--scope", "url", "--hours",
                   "0..2"] + fast, ["report.json", "auc_vs_hours.csv"]),
        "aging": (["aging", "--dataset", str(data), "--scope", "url", "--hours",
                   "24"] + fast, ["report.json", "aging.csv"]),
        "ablate": (["ablate", "--dataset", str(data), "--scope", "url", "--hours",
                    "24", "--iterations", "20", "--jobs", "1", "--seed", "5"],
                   ["report.json", "ablation.csv"]),
        "train": (["train", "--dataset", str(data), "--scope", "url", "--hours",
                   "24"] + fast, ["report.json", "checkpoint.json"]),
        "layout": (["layout", "--dataset", str(data), "--iterations", "5",
                    "--seed", "5"], ["layout.csv"]),
        "stats": (["stats", "--dataset", str(data), "--seed", "5",
                   "--mad-samples", "4"], ["stats.json"]),
    }
    for name, (args, files) in commands.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(args + ["--out", str(a)]) == 0, name
        assert cli_main(args + ["--out", str(b)]) == 0, name
        for fn in files:
            assert filecmp.cmp(a / fn, b / fn, shallow=False), f"{name}/{fn}"

    ckpt = str(tmp_path / "train_a" / "checkpoint.json")
    exp = ["export-embeddings", "--dataset", str(data), "--checkpoint", ckpt] + fast
    a, b = tmp_path / "exp_a", tmp_path / "exp_b"
    assert cli_main(exp + ["--out", str(a)]) == 0
    assert cli_main(exp + ["--out", str(b)]) == 0
    assert filecmp.cmp(a / "embeddings.csv", b / "embeddings.csv", shallow=False)
    print("ACCEPTANCE 10 CLI determinism (byte-identical reruns): PASS")
