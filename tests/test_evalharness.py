"""Folds, sweeps, aging windows, ablation, MAD/MMD, and layout."""
import ctypes
import glob
import multiprocessing
import os

import numpy as np
import pytest

from cascade_gnn import evalharness
from cascade_gnn.classifier import ModelConfig, PreparedGraph
from cascade_gnn.evalharness import (aging_protocol, backward_feature_selection,
                                     build_samples, cross_validate,
                                     default_active_groups, diffusion_sweep,
                                     estimate_diameter, filter_min_cascade_size,
                                     fold_label_fractions, fr_layout, mad_mmd,
                                     make_aging_plan, make_folds)
from cascade_gnn.features import default_schema
from cascade_gnn.synthgen import GenConfig, generate_dataset, generate_social_graph

from helpers import make_cascade, make_social, make_story, reference_fr_layout

SCHEMA = default_schema()


@pytest.fixture(scope="module")
def world():
    cfg = GenConfig(num_users=600, num_urls=30, mean_cascades_per_url=4.0,
                    time_horizon_days=200.0)
    social = generate_social_graph(cfg)
    stories, cascades = generate_dataset(cfg, social)
    return cfg, social, stories, cascades


def fast_config(**kw):
    defaults = dict(schema=SCHEMA, hidden=8, fc1=4, iterations=60, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools the protocols open."""
    opened = []

    class CountingPool(evalharness.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            opened.append(max_workers)

    monkeypatch.setattr(evalharness, "ProcessPoolExecutor", CountingPool)
    return opened


@pytest.fixture
def dispatched(monkeypatch):
    """The payload lists the protocols hand to ``_run_jobs``."""
    calls = []
    run_jobs = evalharness._run_jobs

    def recording(payloads, jobs):
        calls.append(payloads)
        return run_jobs(payloads, jobs)

    monkeypatch.setattr(evalharness, "_run_jobs", recording)
    return calls


class TestFolds:
    def test_paper_scale_split_sizes(self):
        stories = [make_story(f"url{k}", "true_news", []) for k in range(1129)]
        plan = make_folds(stories, seed=3)
        train_ids, val_ids, test_ids = plan.round(0)
        assert len(test_ids) in (225, 226)
        assert len(val_ids) in (225, 226)
        assert len(train_ids) == 1129 - len(test_ids) - len(val_ids)
        assert 676 <= len(train_ids) <= 678

    def test_each_url_tests_exactly_once(self):
        stories = [make_story(f"url{k}", "true_news", []) for k in range(23)]
        plan = make_folds(stories, seed=1)
        seen = []
        for r in range(5):
            _, _, test_ids = plan.round(r)
            seen.extend(test_ids)
        assert sorted(seen) == sorted(s.url_id for s in stories)

    def test_roles_disjoint_within_round(self):
        stories = [make_story(f"url{k}", "true_news", []) for k in range(17)]
        plan = make_folds(stories, seed=2)
        for r in range(5):
            tr, va, te = plan.round(r)
            assert not (tr & va) and not (tr & te) and not (va & te)

    def test_too_few_urls_rejected(self):
        with pytest.raises(ValueError):
            make_folds([make_story("u", "true_news", [])], k=5, seed=0)

    def test_seed_deterministic(self):
        stories = [make_story(f"url{k}", "true_news", []) for k in range(40)]
        assert make_folds(stories, seed=9).folds == make_folds(stories, seed=9).folds
        assert make_folds(stories, seed=9).folds != make_folds(stories, seed=10).folds

    def test_label_fractions_reported(self):
        stories = [make_story(f"url{k}", "fake_news" if k % 4 == 0 else "true_news", [])
                   for k in range(40)]
        plan = make_folds(stories, seed=0)
        fracs = fold_label_fractions(plan, stories)
        assert len(fracs) == 5
        assert all(0.0 <= f <= 1.0 for f in fracs)


class TestMinCascadeFilter:
    def test_threshold_six(self):
        cascades = [make_cascade([(f"u{i}", i * 10.0) for i in range(n)], f"c{n}")
                    for n in range(1, 9)]
        kept = filter_min_cascade_size(cascades, 6)
        assert sorted(c.size for c in kept) == [6, 7, 8]

    def test_threshold_one_is_identity(self):
        cascades = [make_cascade([("a", 0.0)]), make_cascade([("a", 0.0), ("b", 1.0)], "c1")]
        assert filter_min_cascade_size(cascades, 1) == cascades


class TestDefaultGroups:
    def test_cascade_scope_drops_content(self):
        groups = default_active_groups("cascade_wise")
        assert "content" not in groups
        assert set(groups) == {"user_profile", "user_activity", "network_spreading"}

    def test_url_scope_keeps_all(self):
        assert set(default_active_groups("url_wise")) == {
            "user_profile", "user_activity", "network_spreading", "content"}


class TestCrossValidate:
    def test_runs_and_pools_scores(self, world):
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, SCHEMA, "url_wise", hours=24.0)
        plan = make_folds(stories, seed=0)
        cv = cross_validate(samples, plan, fast_config(), jobs=1)
        assert len(cv.fold_aucs) == 5
        assert len(cv.scores) == len(samples)
        assert 0.0 <= cv.mean_auc <= 1.0
        assert cv.pooled_roc[0] == (0.0, 0.0) and cv.pooled_roc[-1] == (1.0, 1.0)

    def test_parallel_matches_sequential(self, world):
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, SCHEMA, "url_wise", hours=24.0)
        plan = make_folds(stories, seed=0)
        a = cross_validate(samples, plan, fast_config(), jobs=1)
        b = cross_validate(samples, plan, fast_config(), jobs=2)
        assert a.fold_aucs == b.fold_aucs
        assert a.scores == b.scores


def blas_thread_getter():
    """numpy's bundled OpenBLAS thread-count getter, or None without one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


class TestWorkerPool:
    """Pool workers inherit the rounds and run BLAS on one thread."""

    @pytest.fixture
    def cv_rounds(self, world):
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, SCHEMA, "url_wise", hours=24.0)
        return evalharness._cv_rounds(samples, make_folds(stories, seed=0),
                                      fast_config(iterations=20))

    def test_forked_workers_pickle_no_sample(self, cv_rounds, monkeypatch):
        def unpicklable(self, protocol):
            raise TypeError("a PreparedGraph was pickled")

        expected = evalharness._run_jobs(cv_rounds, 1)
        monkeypatch.setattr(PreparedGraph, "__reduce_ex__", unpicklable)
        assert evalharness._run_jobs(cv_rounds, 2) == expected

    def test_spawned_workers_give_the_same_results(self, cv_rounds, pools, monkeypatch):
        # correctness does not depend on fork: a spawned worker unpickles its rounds once
        class SpawnPool(evalharness.ProcessPoolExecutor):  # the pools fixture's class
            def __init__(self, max_workers=None, *args, **kwargs):
                kwargs["mp_context"] = multiprocessing.get_context("spawn")
                super().__init__(max_workers, *args, **kwargs)

        expected = evalharness._run_jobs(cv_rounds, 1)
        monkeypatch.setattr(evalharness, "ProcessPoolExecutor", SpawnPool)
        assert evalharness._run_jobs(cv_rounds, 2) == expected
        assert pools == [2]

    def test_workers_run_blas_on_one_thread(self, monkeypatch):
        get_threads = blas_thread_getter()
        if get_threads is None:
            pytest.skip("numpy has no bundled OpenBLAS thread getter")
        before = get_threads()
        monkeypatch.setattr(evalharness, "_run_cv_round", lambda payload: get_threads())
        assert evalharness._run_jobs([None, None, None], 2) == [1, 1, 1]
        assert get_threads() == before

    @pytest.mark.parametrize("found", ["none", "unloadable", "no-setter"])
    def test_worker_start_without_openblas_keeps_blas_threads(self, monkeypatch, tmp_path,
                                                              found):
        get_threads = blas_thread_getter()
        before = get_threads() if get_threads else None
        libs = [] if found == "none" else [str(tmp_path / "libscipy_openblas64_.so")]
        monkeypatch.setattr(evalharness.glob, "glob", lambda pattern: libs)
        if found == "no-setter":
            monkeypatch.setattr(evalharness.ctypes, "CDLL", lambda path: object())
        monkeypatch.setattr(evalharness, "_ROUNDS", [])
        evalharness._start_worker(["round"])
        assert evalharness._ROUNDS == ["round"]
        assert (get_threads() if get_threads else None) == before


def assert_same_sample(cut, fresh):
    assert (cut.key, cut.url_id, cut.label) == (fresh.key, fresh.url_id, fresh.label)
    assert (cut.times, cut.authors) == (fresh.times, fresh.authors)
    assert np.array_equal(cut.features, fresh.features)
    for name in ("src", "dst", "flags", "num_nodes"):
        assert np.array_equal(getattr(cut.edges, name), getattr(fresh.edges, name)), name


class TestPrefix:
    """A sample cut to d hours by ``prefix`` is the sample built at d."""

    @pytest.mark.parametrize("scope", ["url_wise", "cascade_wise"])
    def test_prefix_equals_fresh_build(self, world, scope):
        _, social, stories, cascades = world
        base = build_samples(stories, cascades, social, SCHEMA, scope, hours=24.0)
        cut_nodes = 0
        for d in range(25):
            fresh = build_samples(stories, cascades, social, SCHEMA, scope, hours=float(d))
            assert len(fresh) == len(base)
            for sample, built in zip(base, fresh):
                assert_same_sample(sample.prefix(d), built)
                cut_nodes += len(sample.times) - len(built.times)
        assert cut_nodes > 0  # the world has tweets after its earliest cut-offs

    def test_ties_at_and_around_the_cut(self):
        # url-wise t0 = 1000; the 2 h cut is at 8200: two tweets sit exactly
        # on it, two share a time just before it and two just after it.
        # Cascade-wise, c1's 2 h cut (2800 + 7200) falls on two tweets too.
        social = make_social({u: k for k, u in enumerate("ABCDEFGHIJ")},
                             {("C", "A"), ("D", "A"), ("E", "C"), ("F", "B"), ("G", "E"),
                              ("H", "A"), ("I", "F"), ("J", "G")})
        cascades = [make_cascade([("A", 1000), ("C", 8199), ("D", 8199), ("E", 8200),
                                  ("G", 8201)], "c0"),
                    make_cascade([("B", 2800), ("F", 8200), ("H", 8201), ("I", 10000),
                                  ("J", 10000)], "c1")]
        stories = [make_story("url0", "fake_news", ["c0", "c1"])]
        for scope in ("url_wise", "cascade_wise"):
            base = build_samples(stories, cascades, social, SCHEMA, scope, hours=24.0)
            for d in (0, 1, 2, 2.5, 3, 24):
                fresh = build_samples(stories, cascades, social, SCHEMA, scope, hours=d)
                assert len(fresh) == len(base)
                for sample, built in zip(base, fresh):
                    assert_same_sample(sample.prefix(d), built)
        url_sample = build_samples(stories, cascades, social, SCHEMA, "url_wise")[0]
        assert url_sample.prefix(2).authors == ("A", "B", "C", "D", "E", "F")


class TestDiffusionSweep:
    def test_sweep_nested_coverage_and_structure(self, world):
        _, social, stories, cascades = world
        points = diffusion_sweep(stories, cascades, social, fast_config(),
                                 "url_wise", d_values=[0, 3, 24], jobs=2)
        hours = [p.hours for p in points]
        assert hours == [0.0, 3.0, 24.0]
        coverages = [p.coverage for p in points]
        assert coverages[0] <= coverages[1] <= coverages[2]
        assert coverages[2] == pytest.approx(1.0)

    def test_full_window_equals_base_experiment(self, world, pools):
        # every point of a sweep at 2 jobs, all its rounds in one pool, is
        # the cross-validation of the samples cut to its hour at 1 job
        _, social, stories, cascades = world
        # the sweep's own plan: folds drawn with the config's seed (0)
        plan = make_folds(stories, seed=0)
        samples = build_samples(stories, cascades, social, SCHEMA, "url_wise", hours=24.0)
        points = diffusion_sweep(stories, cascades, social, fast_config(),
                                 "url_wise", d_values=[0, 3, 24], jobs=2)
        assert pools == [2]
        for d, point in zip((0, 3, 24), points):
            base = cross_validate([s.prefix(d) for s in samples], plan, fast_config(), jobs=1)
            assert (point.mean_auc, point.std_auc) == (base.mean_auc, base.std_auc), d
        assert pools == [2]

    def test_one_job_opens_no_pool(self, world, pools):
        _, social, stories, cascades = world
        diffusion_sweep(stories, cascades, social, fast_config(iterations=2), "url_wise",
                        d_values=[0, 3, 24], jobs=1)
        assert pools == []

    def test_rounds_share_the_uncut_samples(self, world, dispatched):
        # every hour's rounds carry the same sample objects and cut them
        # themselves, so the main process holds one sample set at any hours
        _, social, stories, cascades = world
        diffusion_sweep(stories, cascades, social, fast_config(iterations=2), "url_wise",
                        d_values=[0, 3, 24], jobs=1)
        (payloads,) = dispatched
        assert [p[0] for p in payloads] == [(d, r) for d in (0, 3, 24) for r in range(5)]
        for label, *parts, _ in payloads:
            _, *first, _ = payloads[label[1]]
            assert all(a is b for part, part0 in zip(parts, first)
                       for a, b in zip(part, part0, strict=True))


class TestAging:
    def test_plan_constraints(self, world):
        _, _, stories, _ = world
        plan = make_aging_plan(stories, window_frac=0.25, min_gap_days=14.0, seed=0)
        n_test = len(plan.test_urls)
        first_seen = {s.url_id: s.first_seen for s in stories}
        assert n_test == len(stories) - int(round(0.8 * len(stories)))
        means = []
        for a, b in plan.windows:
            assert b - a >= 0.2 * n_test
            means.append(np.mean([first_seen[u] for u in plan.test_urls[a:b]]))
        for m1, m2 in zip(means, means[1:]):
            assert m2 - m1 >= 14.0 * 86400.0

    def test_temporal_split_is_ordered(self, world):
        _, _, stories, _ = world
        plan = make_aging_plan(stories, seed=0)
        first_seen = {s.url_id: s.first_seen for s in stories}
        past = max(first_seen[u] for u in plan.train_urls + plan.val_urls)
        future = min(first_seen[u] for u in plan.test_urls)
        assert past <= future

    def test_too_few_urls_rejected(self):
        stories = [make_story(f"url{k}", "true_news", [], first_seen=k * 1e5)
                   for k in range(10)]
        with pytest.raises(ValueError):
            make_aging_plan(stories)

    def test_protocol_reports_three_series(self, world):
        _, social, stories, cascades = world
        result = aging_protocol(stories, cascades, social, fast_config(),
                                "url_wise", hours=24.0, jobs=2)
        assert len(result.windows) >= 1
        w = result.windows[0]
        assert w.days_from_train > 0
        for value in (w.auc_diffused, w.auc_source_only, w.auc_cv_reference):
            assert value is None or 0.0 <= value <= 1.0
        if len(result.windows) > 1:
            assert result.mean_iou is not None
            assert 0.0 <= result.mean_iou <= 1.0

    def test_one_pool_and_same_result_at_any_jobs(self, world, pools):
        _, social, stories, cascades = world
        runs = [aging_protocol(stories, cascades, social, fast_config(), "url_wise",
                               hours=24.0, jobs=jobs) for jobs in (1, 2)]
        assert pools == [2]  # the two temporal rounds and the five folds together
        assert runs[0] == runs[1]

    def test_single_window_degenerates_to_holdout(self, world):
        _, _, stories, _ = world
        plan = make_aging_plan(stories, window_frac=1.0, min_gap_days=1e9, seed=0)
        assert plan.windows == ((0, len(plan.test_urls)),)


class TestBackwardSelection:
    def test_four_levels_and_deterministic_order(self, world):
        _, social, stories, cascades = world
        r1 = backward_feature_selection(stories, cascades, social, SCHEMA,
                                        fast_config(), "url_wise", hours=24.0)
        r2 = backward_feature_selection(stories, cascades, social, SCHEMA,
                                        fast_config(), "url_wise", hours=24.0)
        assert [len(l.active_groups) for l in r1.levels] == [4, 3, 2, 1]
        assert r1.removal_order == r2.removal_order
        assert len(r1.importance_order) == 4
        assert set(r1.importance_order) == {"user_profile", "user_activity",
                                            "network_spreading", "content"}
        assert r1.importance_order[0] == r1.levels[-1].active_groups[0]

    def test_one_pool_per_level_and_same_result_at_any_jobs(self, world, pools):
        _, social, stories, cascades = world
        runs = [backward_feature_selection(stories, cascades, social, SCHEMA, fast_config(),
                                           "url_wise", hours=24.0, jobs=jobs)
                for jobs in (1, 2)]
        # the first level trains one model in process; then 4, 3 and 2 candidates
        assert pools == [2, 2, 2]
        assert runs[0] == runs[1]

    def test_one_job_trains_one_candidate_at_a_time(self, world, dispatched):
        # so only one candidate's masked copy of the samples exists at a time
        _, social, stories, cascades = world
        backward_feature_selection(stories, cascades, social, SCHEMA, fast_config(iterations=2),
                                   "url_wise", hours=24.0, jobs=1)
        assert [len(payloads) for payloads in dispatched] == [1] * 10


class TestMadMmd:
    def chain_social(self, n):
        users = {f"u{i}": 0 for i in range(n)}
        follows = {(f"u{i}", f"u{i+1}") for i in range(n - 1)}
        return make_social(users, follows)

    def test_shared_users_give_zero(self):
        social = self.chain_social(4)
        res = mad_mmd([["u0", "u1"], ["u0", "u1"]], social)
        assert res.mad == 0.0 and res.mmd == 0.0

    def test_two_hop_distance(self):
        social = self.chain_social(5)
        # u0 vs u2: two hops on the undirected chain
        res = mad_mmd([["u0"], ["u2"]], social)
        assert res.mad == 2.0 and res.mmd == 2.0

    def test_mean_and_min_aggregation(self):
        social = self.chain_social(6)
        # sample A = {u0, u3}, sample B = {u3}: d(u0)=3, d(u3)=0
        res = mad_mmd([["u0", "u3"], ["u3"]], social)
        assert res.mad == pytest.approx((np.mean([3.0, 0.0]) + 0.0) / 2.0)
        assert res.mmd == 0.0

    def test_unreachable_uses_cap(self):
        users = {f"u{i}": 0 for i in range(4)}
        follows = {("u0", "u1"), ("u2", "u3")}  # two components
        social = make_social(users, follows)
        res = mad_mmd([["u0"], ["u2"]], social, unreachable_cap=7)
        assert res.mad == 7.0 and res.mmd == 7.0

    def test_empty_sample_skipped_with_warning(self):
        social = self.chain_social(3)
        with pytest.warns(UserWarning):
            res = mad_mmd([["u0"], [], ["u1"]], social)
        assert res.mad == 1.0

    def test_fewer_than_two_samples_rejected(self):
        social = self.chain_social(3)
        with pytest.raises(ValueError):
            mad_mmd([["u0"]], social)

    def test_bfs_matches_pairwise_oracle(self, world):
        _, social, stories, cascades = world
        rng = np.random.default_rng(0)
        multi = [c for c in cascades if c.size >= 2][:10]
        samples = [sorted({t.author for t in c.tweets}) for c in multi]
        res = mad_mmd(samples, social, unreachable_cap=10)

        # oracle: per-user BFS from each user to the other samples' users
        adj = {}
        for a, b in social.follows:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

        def bfs_dist(src, targets):
            from collections import deque
            seen = {src: 0}
            q = deque([src])
            while q:
                u = q.popleft()
                if u in targets:
                    return seen[u]
                if seen[u] >= 10:
                    continue
                for v in adj.get(u, ()):
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        q.append(v)
            return 10

        means, mins = [], []
        for t, users in enumerate(samples):
            others = set().union(*(samples[o] for o in range(len(samples)) if o != t))
            ds = [min(bfs_dist(u, others), 10) for u in users]
            means.append(np.mean(ds))
            mins.append(min(ds))
        assert res.mad == pytest.approx(np.mean(means))
        assert res.mmd == pytest.approx(np.mean(mins))

    def test_random_graphs_match_all_pairs_oracle(self):
        # oracle: all-pairs BFS, each user's distance to the nearest user of
        # another sample clipped at the cap (unreachable counts as the cap)
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            users = [f"u{i}" for i in range(n)]
            follows = {(users[a], users[b]) for a, b in rng.integers(0, n, size=(n, 2))
                       if a != b}
            social = make_social(dict.fromkeys(users, 0), follows)
            samples = [[users[k] for k in sorted(set(rng.integers(0, n, size=3)))]
                       for _ in range(int(rng.integers(2, 5)))]
            cap = None if rng.random() < 0.5 else int(rng.integers(1, 6))
            res = mad_mmd(samples, social, unreachable_cap=cap)

            hops = np.full((n, n), np.inf)
            for src in range(n):
                hops[src, src], frontier, d = 0, [src], 0
                while frontier:
                    d += 1
                    frontier = [v for u in frontier for v in range(n)
                                if hops[src, v] == np.inf and
                                ((users[u], users[v]) in follows or
                                 (users[v], users[u]) in follows)]
                    hops[src, frontier] = d
            diameter = int(hops[np.isfinite(hops)].max())
            assert 0 <= estimate_diameter(social) <= diameter
            if cap is None:
                cap = estimate_diameter(social) + 1
            index = {u: i for i, u in enumerate(users)}
            means, mins = [], []
            for t, sample in enumerate(samples):
                others = [index[u] for o, s in enumerate(samples) if o != t for u in s]
                ds = [min(hops[index[u], others].min(), cap) for u in sample]
                means.append(np.mean(ds))
                mins.append(min(ds))
            assert res.unreachable_cap == cap
            assert res.mad == pytest.approx(np.mean(means))
            assert res.mmd == pytest.approx(np.mean(mins))

    def test_cascades_more_dispersed_than_urls(self):
        # directional reproduction: single-cascade samples sit farther from
        # each other than whole-URL samples do (needs URLs that aggregate
        # a reasonable number of cascades)
        cfg = GenConfig(num_users=2000, num_urls=40, mean_cascades_per_url=12.0)
        social = generate_social_graph(cfg)
        stories, cascades = generate_dataset(cfg, social)
        by_url = {}
        for c in cascades:
            by_url.setdefault(c.url_id, []).append(c)
        url_samples = [sorted({t.author for c in cs for t in c.tweets})
                       for cs in by_url.values()]
        multi = [c for c in cascades if c.size >= 2][:60]
        cas_samples = [sorted({t.author for t in c.tweets}) for c in multi]
        cap = estimate_diameter(social) + 1
        url_res = mad_mmd(url_samples, social, unreachable_cap=cap)
        cas_res = mad_mmd(cas_samples, social, unreachable_cap=cap)
        assert cas_res.mad > url_res.mad
        assert cas_res.mmd > url_res.mmd


class TestFrLayout:
    def test_two_connected_nodes_near_k(self):
        social = make_social({"a": 0, "b": 0}, {("a", "b")})
        pos = fr_layout(social, iterations=300, seed=1)
        d = np.hypot(pos["a"][0] - pos["b"][0], pos["a"][1] - pos["b"][1])
        k = np.sqrt(1.0 / 2.0)
        assert abs(d - k) / k < 0.2

    def test_single_node_stays_at_init(self):
        social = make_social({"a": 0}, set())
        rng = np.random.default_rng(np.random.SeedSequence((5, 47)))
        expected = rng.random((1, 2))
        pos = fr_layout(social, iterations=10, seed=5)
        assert pos["a"] == (pytest.approx(expected[0, 0]), pytest.approx(expected[0, 1]))

    def test_seed_deterministic(self):
        social = make_social({f"u{i}": 0 for i in range(6)},
                             {(f"u{i}", f"u{(i+1) % 6}") for i in range(6)})
        assert fr_layout(social, 40, seed=3) == fr_layout(social, 40, seed=3)
        assert fr_layout(social, 40, seed=3) != fr_layout(social, 40, seed=4)

    # One repulsion block covers up to 256 users (65536 // n rows); 255-257
    # straddle that size (257 without follows), and at 571 users the last
    # block would be one row wide, which the layout widens to two.
    @pytest.mark.parametrize("n, follows_per_user", [
        (1, 0), (2, 1), (3, 2), (255, 3), (256, 3), (257, 0), (571, 3),
    ])
    def test_equals_unblocked_reference(self, n, follows_per_user):
        rng = np.random.default_rng(n)
        ids = [f"u{i:04d}" for i in range(n)]
        pairs = rng.integers(0, n, size=(follows_per_user * n, 2))
        social = make_social({u: 0 for u in ids},
                             {(ids[a], ids[b]) for a, b in pairs if a != b})
        assert fr_layout(social, 60, seed=n) == reference_fr_layout(social, 60, seed=n)
