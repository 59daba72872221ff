"""Folds, sweeps, aging windows, ablation, MAD/MMD, and layout."""
import ctypes
import itertools
import multiprocessing
import os
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade_gnn import evalharness
from cascade_gnn.classifier import ModelConfig, PreparedGraph, prepare_graph
from cascade_gnn.dataio import cascades_by_url
from cascade_gnn.evalharness import (aging_protocol, backward_feature_selection,
                                     build_samples, cross_validate,
                                     default_active_groups, diffusion_sweep,
                                     estimate_diameter, filter_min_cascade_size,
                                     fold_label_fractions, fr_layout, mad_mmd,
                                     make_aging_plan, make_folds, repulsion)
from cascade_gnn.features import FEATURE_GROUPS
from cascade_gnn.synthgen import GenConfig, generate_dataset, generate_social_graph

from helpers import (blas_thread_getter, blas_thread_setter, make_cascade, make_social,
                     make_story, reference_fr_layout, reference_propagation_graph)

TILE = evalharness.REPULSION_TILE


@pytest.fixture(scope="module")
def world():
    cfg = GenConfig(num_users=600, num_urls=30, mean_cascades_per_url=4.0,
                    time_horizon_days=200.0)
    social = generate_social_graph(cfg)
    stories, cascades = generate_dataset(cfg, social)
    return cfg, social, stories, cascades


def fast_config(**kw):
    defaults = dict(hidden=8, fc1=4, iterations=60, seed=0)
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


@pytest.fixture
def ablation_rounds(monkeypatch):
    """One entry per round trained in process through ``_run_cv_round``: how
    many masked copies that ``prepare_graph`` made for earlier rounds were
    still alive when it started.  A round with every group active trains on
    the samples themselves, not on a masked copy."""
    alive, refs = [], []
    run_round, prepare = evalharness._run_cv_round, evalharness.prepare_graph

    def recording(rnd):
        alive.append(sum(ref() is not None for ref in refs))
        return run_round(rnd)

    def masking(sample, groups):
        masked = prepare(sample, groups)
        if masked is not sample:
            refs.append(weakref.ref(masked.dense))
        return masked

    monkeypatch.setattr(evalharness, "_run_cv_round", recording)
    monkeypatch.setattr(evalharness, "prepare_graph", masking)
    return alive


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
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        plan = make_folds(stories, seed=0)
        cv = cross_validate(samples, plan, fast_config(), jobs=1)
        assert len(cv.fold_aucs) == 5
        assert len(cv.scores) == len(samples)
        assert 0.0 <= cv.mean_auc <= 1.0
        assert cv.pooled_roc[0] == (0.0, 0.0) and cv.pooled_roc[-1] == (1.0, 1.0)

    def test_parallel_matches_sequential(self, world):
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        plan = make_folds(stories, seed=0)
        a = cross_validate(samples, plan, fast_config(), jobs=1)
        b = cross_validate(samples, plan, fast_config(), jobs=2)
        assert a.fold_aucs == b.fold_aucs
        assert a.scores == b.scores


class TestWorkerPool:
    """Pool workers inherit the rounds and run BLAS on one thread."""

    @pytest.fixture
    def cv_rounds(self, world):
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
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

    def test_in_process_rounds_run_blas_on_one_thread(self, monkeypatch):
        get_threads, set_threads = blas_thread_getter(), blas_thread_setter()
        if get_threads is None or set_threads is None:
            pytest.skip("numpy has no bundled OpenBLAS thread functions")
        seen = []

        def train(*args):
            seen.append(get_threads())
            return SimpleNamespace(params=None, best_val_auc=None)

        monkeypatch.setattr(evalharness, "train", train)
        before = get_threads()
        set_threads(2)
        try:
            rounds = [evalharness.Round(r, [], [], [], fast_config()) for r in range(3)]
            assert evalharness._run_jobs(rounds, 1) == [(r, [], None) for r in range(3)]
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert seen == [1, 1, 1]

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


class TestRound:
    def test_a_round_cuts_and_masks_its_own_samples(self, world):
        # the worker's copy equals samples cut and masked before dispatch;
        # the round's config names the groups
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        groups = ("user_profile", "network_spreading")
        rnd = evalharness._fold_round(samples, make_folds(stories, seed=0), 0,
                                      fast_config(iterations=20, active_groups=groups))
        ready = [[prepare_graph(s.prefix(3), groups) for s in part] for part in rnd[1:4]]
        expected = evalharness._run_cv_round(rnd._replace(train=ready[0], val=ready[1],
                                                          test=ready[2]))
        assert evalharness._run_cv_round(rnd._replace(hours=3)) == expected
        assert evalharness._run_cv_round(rnd) != expected

    def test_the_configs_groups_decide_what_a_round_trains_on(self, world):
        # unmasked samples and a config of two groups train as the samples
        # masked to those groups do; every group is a different model
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        plan = make_folds(stories, seed=0)
        groups = ("user_activity", "content")
        config = fast_config(iterations=40, active_groups=groups)
        masked = cross_validate([prepare_graph(s, groups) for s in samples], plan, config)
        assert cross_validate(samples, plan, config).scores == masked.scores
        assert cross_validate(samples, plan, fast_config(iterations=40)).scores != masked.scores


class TestSampleKeys:
    """The keys the CV score table and the aging windows look samples up by."""

    def test_keys_url_ids_labels_and_order(self, world):
        _, social, stories, cascades = world
        by_url = cascades_by_url(cascades)
        fake = {s.url_id: int(s.is_fake) for s in stories}
        url_wise = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        assert [(s.key, s.url_id) for s in url_wise] == [(u, u) for u in sorted(by_url)]
        for min_size in (1, 6):
            cascade_wise = build_samples(stories, cascades, social, "cascade_wise",
                                         hours=24.0, min_cascade_size=min_size)
            assert [(s.key, s.url_id) for s in cascade_wise] == [
                (c.cascade_id, u) for u in sorted(by_url)
                for c in sorted(by_url[u], key=lambda c: c.cascade_id) if c.size >= min_size]
            assert all(s.label == fake[s.url_id] for s in url_wise + cascade_wise)


class TestBuildSamples:
    """The build frees the cascades it is handed only when the caller keeps no list of them."""

    def test_a_kept_cascade_list_is_left_intact(self, world):
        _, social, stories, cascades = world
        before = [(c, c.tweets) for c in cascades]
        for scope in ("url_wise", "cascade_wise"):
            first = build_samples(stories, cascades, social, scope)
            assert [(c, c.tweets) for c in cascades] == before
            for a, b in zip(first, build_samples(stories, cascades, social, scope),
                            strict=True):
                assert_same_sample(a, b)

    @pytest.mark.parametrize("scope", ["url_wise", "cascade_wise"])
    def test_samples_match_the_reference_build(self, world, monkeypatch, scope):
        # the reference encodes node by node and places the spreading trees'
        # ID -> ID maps through a tweet ID -> node index dict
        _, social, stories, cascades = world
        hours = (0.0, 7.0, 24.0)
        built = {d: build_samples(stories, cascades, social, scope, hours=d) for d in hours}
        monkeypatch.setattr(evalharness, "build_propagation_graph", reference_propagation_graph)
        for d in hours:
            reference = build_samples(stories, cascades, social, scope, hours=d)
            assert len(reference) > 20
            for sample, cut, ref in zip(built[d], built[24.0], reference, strict=True):
                assert_bit_identical(sample, ref)
                assert_bit_identical(cut.prefix(d), ref)


    @pytest.mark.parametrize("active", [groups for k in range(1, len(FEATURE_GROUPS) + 1)
                                        for groups in itertools.combinations(FEATURE_GROUPS, k)],
                             ids="|".join)
    def test_masked_samples_match_their_masked_matrices(self, world, active):
        # masking points inactive embedding blocks at the table's zero row:
        # the bytes are those of the plain matrix with the groups' columns zeroed
        _, social, stories, cascades = world
        full = build_samples(stories, cascades, social, "url_wise")
        masked = [prepare_graph(s, active) for s in full]
        for sample, got in zip(full, masked, strict=True):
            plain = replace(sample, dense=sample.features, rows=None, table=None)
            assert_bit_identical(got, prepare_graph(plain, active))
        assert len({id(s.table) for s in masked}) == 1


def assert_same_sample(cut, fresh):
    assert (cut.key, cut.url_id, cut.label) == (fresh.key, fresh.url_id, fresh.label)
    assert (cut.times, cut.authors) == (fresh.times, fresh.authors)
    assert np.array_equal(cut.features, fresh.features)
    for name in ("src", "dst", "flags", "num_nodes"):
        assert np.array_equal(getattr(cut.edges, name), getattr(fresh.edges, name)), name


def assert_bit_identical(a, b):
    assert_same_sample(a, b)
    assert np.array_equal(np.signbit(a.features), np.signbit(b.features))


class TestPrefix:
    """A sample cut to d hours by ``prefix`` is the sample built at d."""

    @pytest.mark.parametrize("scope", ["url_wise", "cascade_wise"])
    def test_prefix_equals_fresh_build(self, world, scope):
        _, social, stories, cascades = world
        base = build_samples(stories, cascades, social, scope, hours=24.0)
        cut_nodes = 0
        for d in range(25):
            fresh = build_samples(stories, cascades, social, scope, hours=float(d))
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
            base = build_samples(stories, cascades, social, scope, hours=24.0)
            for d in (0, 1, 2, 2.5, 3, 24):
                fresh = build_samples(stories, cascades, social, scope, hours=d)
                assert len(fresh) == len(base)
                for sample, built in zip(base, fresh):
                    assert_same_sample(sample.prefix(d), built)
        url_sample = build_samples(stories, cascades, social, "url_wise")[0]
        assert url_sample.prefix(2).authors == ("A", "B", "C", "D", "E", "F")


class TestDiffusionSweep:
    def test_sweep_nested_coverage_and_structure(self, world):
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        points = diffusion_sweep(samples, stories, fast_config(), d_values=[0, 3, 24], jobs=2)
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
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        points = diffusion_sweep(samples, stories, fast_config(), d_values=[0, 3, 24], jobs=2)
        assert pools == [2]
        for d, point in zip((0, 3, 24), points):
            base = cross_validate([s.prefix(d) for s in samples], plan, fast_config(), jobs=1)
            assert (point.mean_auc, point.std_auc) == (base.mean_auc, base.std_auc), d
        assert pools == [2]

    def test_one_job_opens_no_pool(self, world, pools):
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        diffusion_sweep(samples, stories, fast_config(iterations=2), d_values=[0, 3, 24], jobs=1)
        assert pools == []

    def test_rounds_share_the_uncut_samples(self, world, dispatched):
        # every hour's rounds carry the same sample objects and cut them
        # themselves, so the main process holds one sample set at any hours;
        # so does aging's source-only round, cut to 0 h
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        diffusion_sweep(samples, stories, fast_config(iterations=2), d_values=[0, 3, 24], jobs=1)
        aging_protocol(samples, stories, fast_config(iterations=2), jobs=1)
        sweep, aging = dispatched
        assert [(p.label, p.hours) for p in sweep] == [((d, r), d) for d in (0, 3, 24)
                                                      for r in range(5)]
        diffused, source_only = aging[:2]
        assert (diffused.label, diffused.hours) == ("diffused", None)
        assert (source_only.label, source_only.hours) == ("source_only", 0.0)
        built = {id(s) for s in samples}
        for rnd, first in [(p, sweep[p.label[1]]) for p in sweep] + [(source_only, diffused)]:
            assert all(a is b for part, part0 in zip(rnd[1:4], first[1:4])
                       for a, b in zip(part, part0, strict=True))
            assert all(id(s) in built for part in rnd[1:4] for s in part)


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
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        result = aging_protocol(samples, stories, fast_config(), jobs=2)
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
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        runs = [aging_protocol(samples, stories, fast_config(), jobs=jobs) for jobs in (1, 2)]
        assert pools == [2]  # the two temporal rounds and the five folds together
        assert runs[0] == runs[1]

    def test_single_window_degenerates_to_holdout(self, world):
        _, _, stories, _ = world
        plan = make_aging_plan(stories, window_frac=1.0, min_gap_days=1e9, seed=0)
        assert plan.windows == ((0, len(plan.test_urls)),)


class TestBackwardSelection:
    def test_four_levels_and_deterministic_order(self, world):
        _, social, stories, cascades = world
        base = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        r1 = backward_feature_selection(base, stories, fast_config())
        r2 = backward_feature_selection(base, stories, fast_config())
        assert [len(l.active_groups) for l in r1.levels] == [4, 3, 2, 1]
        assert r1.removal_order == r2.removal_order
        assert len(r1.importance_order) == 4
        assert set(r1.importance_order) == {"user_profile", "user_activity",
                                            "network_spreading", "content"}
        assert r1.importance_order[0] == r1.levels[-1].active_groups[0]

    def test_one_job_trains_one_candidate_at_a_time(self, world, ablation_rounds):
        # so only one candidate's masked copy of the samples exists at a time
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        backward_feature_selection(samples, stories, fast_config(iterations=2))
        assert ablation_rounds == [0] * 10

    def test_one_pool_per_level_and_same_result_at_any_jobs(self, world, pools):
        # the levels of 4, 3 and 2 candidates each open a pool; the first
        # level's single round trains in process
        _, social, stories, cascades = world
        samples = build_samples(stories, cascades, social, "url_wise", hours=24.0)
        runs = [backward_feature_selection(samples, stories, fast_config(iterations=20),
                                           jobs=jobs) for jobs in (1, 2)]
        assert pools == [2, 2, 2]
        assert runs[0] == runs[1]


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
        for a, b in social.pairs():
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
        # another sample clipped at the cap (unreachable counts as the cap),
        # and a double BFS that restarts from the farthest user with the
        # smallest ID.  Up to 40 users, so IDs sort as "u1" < "u10" < "u2"
        # and index order is not creation order.
        rng = np.random.default_rng(5)
        seen = dict.fromkeys(["no follows", "isolated", "components", "tied far",
                              "5+ levels", "shared user", "cap hit"], 0)
        for _ in range(300):
            n = int(rng.integers(2, 41))
            users = [f"u{i}" for i in range(n)]
            # follows among ``linked`` users only: the rest are isolated
            linked = rng.permutation(n)[:n if rng.random() < 0.5 else int(rng.integers(1, n))]
            m = 0 if rng.random() < 0.05 else int(rng.integers(linked.size // 2, 2 * linked.size))
            follows = {(users[a], users[b]) for a, b in rng.choice(linked, size=(m, 2))
                       if a != b}
            social = make_social(dict.fromkeys(users, 0), follows)
            pool = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
            samples = [[users[k] for k in sorted(set(rng.choice(pool, size=rng.integers(1, 6))))]
                       for _ in range(int(rng.integers(2, 6)))]
            cap = None if rng.random() < 0.3 else int(rng.integers(0, 7))
            res = mad_mmd(samples, social, unreachable_cap=cap)

            index = {u: i for i, u in enumerate(users)}
            adj = np.zeros((n, n), dtype=np.int64)
            for a, b in follows:
                adj[index[a], index[b]] = adj[index[b], index[a]] = 1
            hops = np.where(np.eye(n, dtype=bool), 0.0, np.inf)
            d = 0
            while True:
                d += 1
                new = ((hops == d - 1) @ adj > 0) & np.isinf(hops)
                if not new.any():
                    break
                hops[new] = d
            diameter = int(hops[np.isfinite(hops)].max())

            start = index[min(users)]
            reached = [u for u in users if np.isfinite(hops[start, index[u]])]
            far = min(reached, key=lambda u: (-hops[start, index[u]], u))
            row = hops[index[far]]
            double_bfs = int(row[np.isfinite(row)].max())
            assert estimate_diameter(social) == double_bfs <= diameter
            if cap is None:
                cap = double_bfs + 1
            means, mins = [], []
            for t, sample in enumerate(samples):
                others = [index[u] for o, s in enumerate(samples) if o != t for u in s]
                true = hops[[index[u] for u in sample]][:, others].min(axis=1)
                seen["shared user"] += int((true == 0).any())
                seen["cap hit"] += int((np.isfinite(true) & (true > cap)).any())
                ds = np.minimum(true, cap)
                means.append(np.mean(ds))
                mins.append(min(ds))
            assert res.unreachable_cap == cap
            assert res.mad == pytest.approx(np.mean(means))
            assert res.mmd == pytest.approx(np.mean(mins))
            seen["no follows"] += not follows
            seen["isolated"] += int((adj.sum(axis=1) == 0).any())
            seen["components"] += int(np.isinf(hops[start]).any())
            seen["tied far"] += int((hops[start] == hops[start, index[far]]).sum() > 1)
            seen["5+ levels"] += int(diameter >= 5)
        assert min(seen.values()) >= 10, seen

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

    # 255-257 straddled the former (n, 65536 // n) column strips, and 571
    # gave them a one-wide last strip.  The tile cases sit on the repulsion
    # tiles' boundaries: one tile, one tile and a user (whose one-wide last
    # block joins the tile), two tiles and a one-wide block, three tiles.
    @pytest.mark.parametrize("n, follows_per_user", [
        (1, 0), (2, 1), (3, 2), (255, 3), (256, 3), (257, 0), (571, 3),
        (TILE - 1, 3), (TILE, 3), (TILE + 1, 3), (2 * TILE + 1, 3), (3 * TILE, 3),
    ])
    def test_equals_unblocked_reference(self, n, follows_per_user):
        rng = np.random.default_rng(n)
        ids = [f"u{i:04d}" for i in range(n)]
        pairs = rng.integers(0, n, size=(follows_per_user * n, 2))
        social = make_social({u: 0 for u in ids},
                             {(ids[a], ids[b]) for a, b in pairs if a != b})
        assert fr_layout(social, 60, seed=n) == reference_fr_layout(social, 60, seed=n)


def unblocked_repulsion(pos, k):
    """The (i, j, 2) repulsion sum that ``repulsion`` tiles."""
    delta = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((delta * delta).sum(axis=2)) + 1e-12
    return (delta / dist[:, :, None] * (k * k / dist)[:, :, None]).sum(axis=1)


class TestRepulsion:
    # Positions in [-0.5, 0.5) with a share of coordinates set to +0.0 or
    # -0.0 and a share of points copied from other points, at sizes of one,
    # two and three tiles.  n = TILE + 1 and 2 * TILE + 1 end in a block one
    # user wide, which must join the block before it.
    @given(n=st.one_of(st.integers(2, TILE), st.integers(TILE + 1, 2 * TILE),
                       st.integers(2 * TILE + 1, 3 * TILE)),
           seed=st.integers(0, 2 ** 32 - 1), zeros=st.floats(0, 1),
           repeats=st.floats(0, 1))
    @example(n=TILE + 1, seed=1, zeros=0.2, repeats=0.2)
    @example(n=2 * TILE + 1, seed=2, zeros=0.2, repeats=0.2)
    @example(n=3 * TILE, seed=3, zeros=0.5, repeats=0.5)
    @settings(max_examples=40, deadline=None)
    def test_equals_unblocked_formula(self, n, seed, zeros, repeats):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 2)) - 0.5
        signed = rng.random((n, 2)) < zeros
        pos[signed] = rng.choice(np.array([0.0, -0.0]), size=int(signed.sum()))
        copies = rng.random(n) < repeats
        pos[copies] = pos[rng.integers(0, n, size=int(copies.sum()))]
        k = np.sqrt(1.0 / n)
        got = repulsion(pos[:, 0], pos[:, 1], k)
        expected = unblocked_repulsion(pos, k)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
