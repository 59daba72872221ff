"""CLI subcommands: flows, file outputs, exit codes, determinism."""
import contextlib
import dataclasses
import filecmp
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gnn import cli, evalharness
from cascade_gnn.classifier import (CheckpointError, ModelConfig, init_params,
                                    load_checkpoint, prepare_graph, save_checkpoint,
                                    user_embeddings)
from cascade_gnn.cli import main
from cascade_gnn.dataio import load_dataset
from cascade_gnn.evalharness import build_samples, default_active_groups
from cascade_gnn.features import WIDTH
from cascade_gnn.synthgen import GenConfig

from helpers import blas_thread_getter, blas_thread_setter, inline_rows, inlined_files

GEN_ARGS = ["--users", "150", "--urls", "12", "--mean-cascades", "3"]
FIXTURE_ARGS = ["--users", "200", "--urls", "30", "--mean-cascades", "3",
                "--fake-fraction", "0.3"]
FAST = ["--iterations", "40", "--jobs", "1"]
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC_DIR] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _empty_dataset(path):
    """A well-formed dataset with no users, follows, cascades or stories."""
    path.mkdir()
    for name in ("users.jsonl", "cascades.jsonl", "urls.jsonl"):
        (path / name).write_text("")
    (path / "follows.csv").write_text("follower_id,followee_id\n")
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds"
    code = main(["generate", "--seed", "7", "--out", str(path)] + FIXTURE_ARGS)
    assert code == 0
    return path


class TestGenerate:
    def test_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--seed", "42", "--out", str(a)] + GEN_ARGS) == 0
        assert main(["generate", "--seed", "42", "--out", str(b)] + GEN_ARGS) == 0
        for name in ("users.jsonl", "follows.csv", "cascades.jsonl", "urls.jsonl",
                     "embeddings.jsonl", "stats.json"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_single_story(self, tmp_path):
        out = tmp_path / "one"
        assert main(["generate", "--seed", "1", "--out", str(out), "--users", "60",
                     "--urls", "1", "--mean-cascades", "1"]) == 0
        urls = (out / "urls.jsonl").read_text().strip().splitlines()
        assert len(urls) == 1

    def test_stats_reports_fake_fraction(self, dataset_dir):
        doc = json.loads((dataset_dir / "stats.json").read_text())
        assert doc["stats"]["fake_fraction"] == pytest.approx(0.3)  # round(30 * 0.3)
        assert "config_hash" in doc

    @pytest.mark.parametrize("text, reason", [
        (b"tok 1 2 3\n", "line 1: expected token plus 200 values, got 4 fields"),
        (b"ok" + b" 0" * 200 + b"\ntok x" + b" 0" * 199 + b"\n",
         "line 2: could not convert string to float: 'x'"),
        (b"tok nan" + b" 0" * 199 + b"\n", "line 1: token 'tok' has a non-finite value"),
        (b"", "no word vectors"),
        (b"tok \xff\xfe\n", "line 1: character 5 is a byte that is not UTF-8"),
    ], ids=["width", "not-a-number", "nan", "empty", "not-utf-8"])
    def test_bad_word_vector_file_exits_two(self, tmp_path, capsys, text, reason):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embedding_mode": "load_file",
                                   "embedding_file": str(vectors)}))
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d"),
                     "--users", "30", "--urls", "2", "--mean-cascades", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {vectors}") and reason in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists()

    # SHA-256 of each file with every embedding inline, recorded with the
    # per-component writer that formatted every embedding component through
    # float(f"{x:.7g}") and wrote it in each record
    PINNED_FILES = {
        "users.jsonl": "98f68d0e3d4cec7e7124b6d078abc890293b4b8ab4fb327b461d991067f441dd",
        "follows.csv": "e4874b3643fa62a776abb29d6d97623ae1a0cd37311d89c10d43a10d7aafbaf9",
        "cascades.jsonl": "fecf220ff8fbdcca764c4ec53d9e331c5654205eadc4cc82ca1a1100173cd99a",
        "urls.jsonl": "e1c7ccaf623f218d8db0dd3d71d63bc2f0327de45330785d3b3ee5b0a1e6bd7a",
        "stats.json": "c3a72076f3635706ed44fade1e351c6eaf8d038b1dbe43e30ff506215dc22121",
    }
    # SHA-256 of the files as written, each embedding a row of embeddings.jsonl
    PINNED_TABLE_FILES = {
        "users.jsonl": "330138756d82bdcdc27dd2cbc6a8d281ce7b0607f7174bc356cf8b634fea37f5",
        "cascades.jsonl": "4866f6bff620139c9509946685adc5bc4456c90f1aada84afe1958951bdd8dc0",
        "embeddings.jsonl": "f77b272df51d77bf9cb4768b5c3c338a2d14c0ba15e6473252eb7718e12e83d1",
    }
    FILES = sorted(set(PINNED_FILES) | set(PINNED_TABLE_FILES))

    def test_files_are_pinned(self, tmp_path):
        assert main(["generate", "--seed", "42", "--out", str(tmp_path)] + GEN_ARGS) == 0
        assert sorted(os.listdir(tmp_path)) == self.FILES
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PINNED_TABLE_FILES}
        assert digests == self.PINNED_TABLE_FILES
        # with the rows inlined, every byte is the per-component writer's
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in inlined_files(tmp_path).items()}
        assert digests == self.PINNED_FILES

    def test_config_keys_and_flags_write_the_same_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_users": 150, "num_urls": 12,
                                   "mean_cascades_per_url": 3}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--seed", "42", "--out", str(a)] + GEN_ARGS) == 0
        assert main(["generate", "--seed", "42", "--out", str(b), "--config", str(cfg)]) == 0
        for name in self.FILES:
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_bad_config_is_usage_error(self, tmp_path):
        code = main(["generate", "--out", str(tmp_path / "x"), "--urls", "5",
                     "--fake-fraction", "1.5"])
        assert code == 1


class TestCv:
    def test_writes_report_and_roc(self, dataset_dir, tmp_path):
        out = tmp_path / "cv"
        code = main(["cv", "--dataset", str(dataset_dir), "--out", str(out),
                     "--scope", "url", "--hours", "24", "--seed", "3"] + FAST)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["fold_aucs"]) == 5
        assert "config_hash" in report
        roc_lines = (out / "roc.csv").read_text().splitlines()
        assert roc_lines[0].startswith("# config_hash=")
        assert roc_lines[1] == "fpr,tpr"

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["cv", "--dataset", str(dataset_dir), "--scope", "url",
                "--hours", "24", "--seed", "3"] + FAST
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert filecmp.cmp(a / "report.json", b / "report.json", shallow=False)
        assert filecmp.cmp(a / "roc.csv", b / "roc.csv", shallow=False)

    def test_cascade_scope_defaults_drop_content(self, dataset_dir, tmp_path):
        out = tmp_path / "cw"
        code = main(["cv", "--dataset", str(dataset_dir), "--out", str(out),
                     "--scope", "cascade", "--min-cascade-size", "2",
                     "--seed", "3"] + FAST)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        groups = report["config"]["model"]["active_groups"]
        assert "content" not in groups
        assert "user_profile" in groups

    def test_overflow_exits_three(self, dataset_dir, tmp_path, capsys):
        # the diverged network scores NaN, whose hinge loss is zero: the
        # zero-loss step must still report the failure
        code = main(["cv", "--dataset", str(dataset_dir), "--out", str(tmp_path / "nf"),
                     "--lr", "1e300", "--iterations", "20", "--jobs", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "numeric failure" in err and "Traceback" not in err

    def test_nan_validation_score_exits_three(self, dataset_dir, tmp_path, capsys):
        # the one training step overflows the parameters; validation, which
        # runs after the last step, is the first to see them and scores NaN
        code = main(["cv", "--dataset", str(dataset_dir), "--out", str(tmp_path / "nv"),
                     "--lr", "1e300", "--iterations", "1", "--jobs", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "numeric failure: non-finite score" in err and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_numeric_failure_is_one_stderr_line(self, dataset_dir, tmp_path, jobs):
        # a fresh interpreter, so numpy's warnings would reach stderr
        proc = subprocess.run(
            [sys.executable, "-c", "from cascade_gnn.cli import entrypoint; entrypoint()",
             "cv", "--dataset", str(dataset_dir), "--out", str(tmp_path / "nf"),
             "--lr", "1e300", "--iterations", "20", "--jobs", jobs, "--seed", "1"],
            capture_output=True, text=True, env=_child_env(), timeout=600)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: "), proc.stderr

    def test_dead_fold_worker_is_one_error_line(self, dataset_dir, tmp_path):
        # every round's worker exits at once, as a killed worker would
        kill_workers = ("import os; from cascade_gnn import evalharness; "
                        "evalharness._run_cv_round = lambda payload: os._exit(9); "
                        "from cascade_gnn.cli import entrypoint; entrypoint()")
        proc = subprocess.run(
            [sys.executable, "-c", kill_workers, "cv", "--dataset", str(dataset_dir),
             "--out", str(tmp_path / "dead"), "--iterations", "2", "--jobs", "2"],
            capture_output=True, text=True, env=_child_env(), timeout=600)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: a fold worker process died")
        assert lines[0].endswith("rerun with a lower --jobs")

    def test_missing_dataset_exits_two(self, tmp_path):
        code = main(["cv", "--dataset", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "o"), "--seed", "1"] + FAST)
        assert code == 2


class TestSweep:
    def test_range_emits_25_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--dataset", str(dataset_dir), "--out", str(out),
                     "--scope", "url", "--hours", "0..24", "--seed", "3",
                     "--iterations", "10", "--jobs", "2"])
        assert code == 0
        lines = (out / "auc_vs_hours.csv").read_text().splitlines()
        assert lines[1] == "hours,mean_auc,std_auc,coverage"
        assert len(lines) == 2 + 25

    def test_invalid_range_is_usage_error(self, dataset_dir, tmp_path):
        code = main(["sweep", "--dataset", str(dataset_dir), "--out",
                     str(tmp_path / "s"), "--hours", "9..3", "--seed", "1"] + FAST)
        assert code == 1


def _dataset_refs(run) -> list:
    """Weak references to the social graph and every cascade and tweet a Run loaded."""
    return [weakref.ref(x) for x in (run.social, *run.cascades,
                                     *(t for c in run.cascades for t in c.tweets))]


class TestDatasetHandOver:
    """A command's Run hands its loaded dataset to the one build, so none
    of it is left once training starts."""

    @pytest.mark.parametrize("args", [["cv", "--scope", "url"], ["cv", "--scope", "cascade"],
                                      ["sweep", "--scope", "url", "--hours", "23..24"]],
                             ids=["cv-url", "cv-cascade", "sweep-url"])
    def test_nothing_loaded_is_left_when_training_starts(self, dataset_dir, tmp_path,
                                                         monkeypatch, args):
        refs, alive = [], []
        resolve, run_jobs = cli._resolve_run, evalharness._run_jobs

        def resolving(*resolve_args):
            run = resolve(*resolve_args)
            refs.extend(_dataset_refs(run))
            return run

        def training(payloads, jobs):
            alive.append(sum(ref() is not None for ref in refs))
            return run_jobs(payloads, jobs)

        monkeypatch.setattr(cli, "_resolve_run", resolving)
        monkeypatch.setattr(evalharness, "_run_jobs", training)
        code = main([*args, "--dataset", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--min-cascade-size", "2", "--seed", "3", "--iterations", "1",
                     "--jobs", "1"])
        assert code == 0
        assert len(refs) > 1 and alive == [0]

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                        reason="an older interpreter keeps a call's arguments on the "
                               "caller's stack until the call returns")
    def test_each_story_is_freed_once_its_samples_are_built(self, dataset_dir, monkeypatch):
        run = cli._resolve_run(None, 1, str(dataset_dir), "url", None, None, None, None,
                               None, 1, "24")
        by_url = [(c.url_id, weakref.ref(c)) for c in run.cascades]
        left, build = [], evalharness.build_propagation_graph

        def building(story, *args):
            left.append(sum(url < story.url_id and ref() is not None for url, ref in by_url))
            return build(story, *args)

        monkeypatch.setattr(evalharness, "build_propagation_graph", building)
        samples = run.build()
        assert len(left) == len(samples) > 1 and set(left) == {0}

    def test_a_run_builds_once(self, dataset_dir):
        run = cli._resolve_run(None, 1, str(dataset_dir), "url", None, None, None, None,
                               None, 1, "24")
        assert run.build()
        assert run.cascades is None and run.social is None
        with pytest.raises(RuntimeError, match="builds its samples once"):
            run.build()


class TestSampleFootprint:
    def test_samples_hold_row_numbers_and_share_one_table(self, dataset_dir):
        # 33 dense float64 columns and 3 intp rows per node: 288 B, where a
        # copy of each node's 633 columns took 5,064 B
        run = cli._resolve_run(None, 1, str(dataset_dir), "url", None, None, None, None,
                               None, 1, "24")
        samples = run.build()
        assert len(samples) > 1 and len({id(s.table) for s in samples}) == 1
        table = samples[0].table
        assert table.shape[1] == 200 and not table.flags.writeable
        for s in samples:
            assert s.dense.nbytes + s.rows.nbytes <= 300 * len(s.times)
            assert s.features.shape == (len(s.times), WIDTH)

    @pytest.mark.parametrize("scope", ["url", "cascade"])
    def test_a_graph_too_large_for_memory_is_one_error_line(self, dataset_dir, tmp_path,
                                                            monkeypatch, capsys, scope):
        # the third graph's build runs out of memory
        build, calls, failed = evalharness.build_propagation_graph, [], []

        def building(story, cascades, *args):
            calls.append(story)
            if len(calls) != 3:
                return build(story, cascades, *args)
            failed.append((story.url_id, cascades[0].cascade_id, sum(c.size for c in cascades)))
            raise MemoryError

        monkeypatch.setattr(evalharness, "build_propagation_graph", building)
        code = main(["cv", "--dataset", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--scope", scope, "--min-cascade-size", "1", "--seed", "1"] + FAST)
        err = capsys.readouterr().err
        url_id, cascade_id, nodes = failed[0]
        name = f"story {url_id!r}" if scope == "url" else f"cascade {cascade_id!r}"
        assert code == 1
        assert err == f"error: {name}: its graph of {nodes} nodes does not fit in memory\n"


class TestAging:
    def test_writes_windows(self, dataset_dir, tmp_path):
        out = tmp_path / "aging"
        code = main(["aging", "--dataset", str(dataset_dir), "--out", str(out),
                     "--scope", "url", "--hours", "24", "--seed", "3"] + FAST)
        assert code == 0
        lines = (out / "aging.csv").read_text().splitlines()
        assert lines[1].startswith("start,stop,mean_date,days_from_train")
        assert len(lines) >= 3


class TestAblate:
    def test_four_levels(self, dataset_dir, tmp_path):
        out = tmp_path / "abl"
        code = main(["ablate", "--dataset", str(dataset_dir), "--out", str(out),
                     "--scope", "url", "--hours", "24", "--seed", "3",
                     "--iterations", "10", "--jobs", "1"])
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 2 + 4
        report = json.loads((out / "report.json").read_text())
        assert len(report["importance_order"]) == 4

    def test_two_jobs_write_the_files_of_one(self, dataset_dir, tmp_path):
        # each level's candidates train in one pool, merged in candidate order
        for jobs in ("1", "2"):
            code = main(["ablate", "--dataset", str(dataset_dir), "--out", str(tmp_path / jobs),
                         "--scope", "url", "--hours", "24", "--seed", "3",
                         "--iterations", "10", "--jobs", jobs])
            assert code == 0
        for name in ("ablation.csv", "report.json"):
            assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name, shallow=False), name


class TestTrainAndExport:
    def test_train_then_export_embeddings(self, dataset_dir, tmp_path):
        out = tmp_path / "train"
        code = main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                     "--scope", "url", "--hours", "24", "--seed", "3"] + FAST)
        assert code == 0
        assert (out / "checkpoint.json").is_file()
        exp = tmp_path / "emb"
        code = main(["export-embeddings", "--dataset", str(dataset_dir),
                     "--out", str(exp), "--checkpoint", str(out / "checkpoint.json"),
                     "--seed", "3"] + FAST)
        assert code == 0
        lines = (exp / "embeddings.csv").read_text().splitlines()
        assert lines[1].split(",")[:2] == ["user_id", "credibility"]
        assert len(lines[1].split(",")) == 2 + 64
        assert len(lines) > 2

    def test_cascade_scope_export_masks_to_the_models_groups(self, dataset_dir, tmp_path):
        # the export scores url-wise samples masked to the groups the
        # cascade-wise model was trained on: every group but content
        args = ["--dataset", str(dataset_dir), "--scope", "cascade", "--min-cascade-size", "1",
                "--seed", "3"] + FAST
        checkpoint = tmp_path / "model" / "checkpoint.json"
        assert main(["train", "--out", str(tmp_path / "model")] + args) == 0
        assert main(["export-embeddings", "--out", str(tmp_path / "emb"),
                     "--checkpoint", str(checkpoint)] + args) == 0
        groups = default_active_groups("cascade_wise")
        params, _ = load_checkpoint(checkpoint, ModelConfig(active_groups=groups))
        social, stories, cascades = load_dataset(str(dataset_dir))
        samples = build_samples(stories, cascades, social, "url_wise")
        with evalharness._one_blas_thread():
            masked = user_embeddings([prepare_graph(s, groups) for s in samples], params)
            unmasked = user_embeddings(samples, params)
        lines = (tmp_path / "emb" / "embeddings.csv").read_text().splitlines()[2:]
        assert len(lines) > 2
        for uid, _, *values in (line.split(",") for line in lines):
            assert [float(v) for v in values] == masked[uid].tolist()
        assert any(not np.array_equal(masked[u], unmasked[u]) for u in masked)

    def export_with(self, dataset_dir, tmp_path, checkpoint, capsys, scope="url"):
        code = main(["export-embeddings", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "e"), "--checkpoint", str(checkpoint),
                     "--scope", scope, "--seed", "1"] + FAST)
        return code, capsys.readouterr().err

    def test_foreign_checkpoint_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        code, err = self.export_with(dataset_dir, tmp_path, path, capsys)
        assert code == 1
        assert "bad.json" in err and "'format'" in err

    def test_wrong_shape_checkpoint_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "narrow.json"
        config = ModelConfig(hidden=8, fc1=4)
        save_checkpoint(path, init_params(config, WIDTH), meta={"scope": "url_wise"})
        code, err = self.export_with(dataset_dir, tmp_path, path, capsys)
        assert code == 1
        assert "narrow.json" in err and "'gc1.weight'" in err

    def test_malformed_checkpoint_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "mangled.json"
        save_checkpoint(path, init_params(ModelConfig(), WIDTH))
        doc = json.loads(path.read_text())
        doc["params"]["gc1.weight"] = {"data": []}
        path.write_text(json.dumps(doc))
        code, err = self.export_with(dataset_dir, tmp_path, path, capsys)
        assert code == 1
        assert "mangled.json" in err and "'gc1.weight'" in err and "Traceback" not in err

    def test_deeply_nested_checkpoint_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, err = self.export_with(dataset_dir, tmp_path, path, capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "deep.json" in err and "maximum recursion depth exceeded" in err

    def test_checkpoint_of_other_scope_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "cascade.json"
        save_checkpoint(path, init_params(ModelConfig(), WIDTH),
                        meta={"scope": "cascade_wise", "hours": 24.0})
        code, err = self.export_with(dataset_dir, tmp_path, path, capsys)
        assert code == 1
        assert "cascade.json" in err and "'scope'" in err
        code, _ = self.export_with(dataset_dir, tmp_path, path, capsys, scope="cascade")
        assert code == 0

    def test_checkpoint_of_other_groups_is_usage_error(self, dataset_dir, tmp_path, capsys):
        model = tmp_path / "model"
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(model),
                     "--seed", "1"] + FAST) == 0
        checkpoint = model / "checkpoint.json"
        meta = json.loads(checkpoint.read_text())["meta"]
        assert meta["active_groups"] == ["user_profile", "user_activity",
                                         "network_spreading", "content"]

        def export(groups):
            return main(["export-embeddings", "--dataset", str(dataset_dir),
                         "--out", str(tmp_path / "e"), "--checkpoint", str(checkpoint),
                         "--groups", groups, "--seed", "1"] + FAST)

        assert export("content") == 1
        err = capsys.readouterr().err
        assert "checkpoint.json" in err and "'active_groups'" in err
        assert len(err.splitlines()) == 1
        # the groups are compared as a set
        assert export("content,network_spreading,user_activity,user_profile") == 0

    @pytest.fixture(scope="class")
    def trained(self, dataset_dir, tmp_path_factory):
        """A checkpoint from ``train``, and the embeddings.csv exported from it."""
        root = tmp_path_factory.mktemp("trained")
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(root / "model"),
                     "--seed", "3"] + FAST) == 0
        checkpoint = root / "model" / "checkpoint.json"
        assert main(["export-embeddings", "--dataset", str(dataset_dir),
                     "--out", str(root / "emb"), "--checkpoint", str(checkpoint),
                     "--seed", "3"] + FAST) == 0
        return checkpoint, (root / "emb" / "embeddings.csv").read_bytes()

    @staticmethod
    def _moments(doc):
        return {k: [0.25] * len(entry["data"]) for k, entry in doc["params"].items()}

    @pytest.mark.parametrize("optimizer", [
        # the optimizer state that checkpoints carried before they dropped it
        lambda doc: {"learning_rate": 0.0005, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08,
                     "step_count": 40, "m": TestTrainAndExport._moments(doc),
                     "v": TestTrainAndExport._moments(doc),
                     "v_hat": TestTrainAndExport._moments(doc)},
        lambda doc: {"m": {}},
        lambda doc: [1, 2],
    ], ids=["well-formed", "malformed-mapping", "malformed-list"])
    def test_optimizer_field_of_older_checkpoints_is_ignored(self, dataset_dir, tmp_path,
                                                             trained, optimizer):
        checkpoint, embeddings = trained
        doc = json.loads(checkpoint.read_text())
        assert list(doc) == ["format", "seed", "meta", "params"]
        doc["optimizer"] = optimizer(doc)
        older = tmp_path / "older.json"
        older.write_text(json.dumps(doc))
        assert main(["export-embeddings", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "emb"), "--checkpoint", str(older),
                     "--seed", "3"] + FAST) == 0
        assert (tmp_path / "emb" / "embeddings.csv").read_bytes() == embeddings

    def test_export_scores_on_one_blas_thread(self, dataset_dir, tmp_path, trained,
                                              monkeypatch):
        get_threads, set_threads = blas_thread_getter(), blas_thread_setter()
        if get_threads is None or set_threads is None:
            pytest.skip("numpy has no bundled OpenBLAS thread functions")
        checkpoint, embeddings = trained
        seen = []
        score = cli.user_embeddings

        def recording(samples, params):
            seen.append(get_threads())
            return score(samples, params)

        monkeypatch.setattr(cli, "user_embeddings", recording)
        before = get_threads()
        set_threads(2)
        try:
            assert main(["export-embeddings", "--dataset", str(dataset_dir),
                         "--out", str(tmp_path / "emb"), "--checkpoint", str(checkpoint),
                         "--seed", "3"] + FAST) == 0
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert seen == [1]
        assert (tmp_path / "emb" / "embeddings.csv").read_bytes() == embeddings

    def test_missing_checkpoint_exits_two(self, dataset_dir, tmp_path):
        code = main(["export-embeddings", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "e"), "--checkpoint",
                     str(tmp_path / "missing.json"), "--seed", "1"] + FAST)
        assert code == 2


class TestLayoutAndStats:
    def test_layout_csv(self, dataset_dir, tmp_path):
        out = tmp_path / "layout"
        code = main(["layout", "--dataset", str(dataset_dir), "--out", str(out),
                     "--iterations", "5", "--seed", "2"])
        assert code == 0
        lines = (out / "layout.csv").read_text().splitlines()
        assert lines[1] == "user_id,x,y,credibility"
        assert len(lines) == 2 + 200

    def test_stats_with_mad(self, dataset_dir, tmp_path):
        out = tmp_path / "stats"
        code = main(["stats", "--dataset", str(dataset_dir), "--out", str(out),
                     "--seed", "2", "--mad-samples", "5"])
        assert code == 0
        doc = json.loads((out / "stats.json").read_text())
        assert "mad_mmd" in doc
        assert doc["mad_mmd"]["url"]["mad"] >= 0.0

    # SHA-256 of stats.json from ``stats --mad-samples 6`` on the fixture,
    # recorded with the dict-of-lists breadth-first search
    PINNED_STATS = {
        2: "1b95e46bc83052bc8fd23ac3d2618cecf27647e32ddea8025d4223002c49b782",
        5: "c9283bd6fef776e3cddf93e5fa082ac0dce5c57405ce6ef5f68d25b7fbd3e87a",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_STATS))
    def test_stats_report_is_pinned(self, dataset_dir, tmp_path, seed):
        out = tmp_path / "stats"
        assert main(["stats", "--dataset", str(dataset_dir), "--out", str(out),
                     "--seed", str(seed), "--mad-samples", "6"]) == 0
        digest = hashlib.sha256((out / "stats.json").read_bytes()).hexdigest()
        assert digest == self.PINNED_STATS[seed]

    @staticmethod
    def _one_url(urls, cascades):
        keep = json.loads(urls[0])["url_id"]
        return urls[:1], [line for line in cascades if json.loads(line)["url_id"] == keep]

    @staticmethod
    def _one_long_cascade(urls, cascades):
        recs = [json.loads(line) for line in cascades]
        longs = [rec for rec in recs if len(rec["tweets"]) >= 2]
        for rec in longs[1:]:
            rec["tweets"] = [t for t in rec["tweets"] if t["is_source"]]
        return urls, [json.dumps(rec) for rec in recs]

    @pytest.mark.parametrize("cut, message", [
        (_one_url, "the URL samples need at least two URLs with cascades, "
                   "and the dataset has 1"),
        (_one_long_cascade, "the cascade samples need at least two cascades of 2 or "
                            "more tweets, and the dataset has 1"),
    ], ids=["one-url", "one-long-cascade"])
    def test_stats_with_too_few_samples_is_one_error_line(self, dataset_dir, tmp_path,
                                                          capsys, cut, message):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        urls, cascades = cut(*((data / name).read_text().splitlines()
                               for name in ("urls.jsonl", "cascades.jsonl")))
        for name, lines in (("urls.jsonl", urls), ("cascades.jsonl", cascades)):
            (data / name).write_text("".join(line + "\n" for line in lines))
        code = main(["stats", "--dataset", str(data), "--out", str(tmp_path / "o"),
                     "--seed", "2", "--mad-samples", "5"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: --mad-samples: {message}"]
        assert not (tmp_path / "o").exists()

    def test_stats_independent_of_string_hashing(self, tmp_path):
        # under string-hash seeds 0 and 2 the follow set iterates in orders
        # that reach different farthest users first on this world
        data = tmp_path / "ds"
        assert main(["generate", "--seed", "3", "--users", "40", "--urls", "8",
                     "--mean-cascades", "2", "--fake-fraction", "0.3",
                     "--out", str(data)]) == 0
        reports = []
        for hash_seed in ("0", "2"):
            out = tmp_path / hash_seed
            subprocess.run(
                [sys.executable, "-m", "cascade_gnn.cli", "stats", "--dataset", str(data),
                 "--out", str(out), "--mad-samples", "4", "--seed", "5"],
                check=True, capture_output=True,
                env=dict(_child_env(), PYTHONHASHSEED=hash_seed), timeout=600)
            reports.append((out / "stats.json").read_bytes())
        assert reports[0] == reports[1]

    def test_layout_of_no_users_is_one_error_line(self, tmp_path, capsys):
        data = _empty_dataset(tmp_path / "empty")
        code = main(["layout", "--dataset", str(data), "--out", str(tmp_path / "o"),
                     "--iterations", "3"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the dataset has no users to lay out"]

    def test_stats_of_no_cascades_is_one_error_line(self, tmp_path, capsys):
        data = _empty_dataset(tmp_path / "empty")
        code = main(["stats", "--dataset", str(data), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the dataset has no cascades to summarize"]
        assert not (tmp_path / "o").exists()


class TestUsageAndSeeds:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_group_is_usage_error(self, dataset_dir, tmp_path):
        code = main(["cv", "--dataset", str(dataset_dir), "--out",
                     str(tmp_path / "g"), "--groups", "nonsense", "--seed", "1"] + FAST)
        assert code == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_module_runs_the_cli(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cascade_gnn.cli", "stats", "--dataset",
             str(tmp_path / "missing")],
            capture_output=True, text=True, env=_child_env(), timeout=600)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: missing dataset file: "), proc.stderr

    def test_env_seed_is_last_resort(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CASCADE_GNN_SEED", "99")
        a = tmp_path / "env_a"
        assert main(["generate", "--out", str(a), "--users", "60", "--urls", "2",
                     "--mean-cascades", "1"]) == 0
        monkeypatch.delenv("CASCADE_GNN_SEED")
        b = tmp_path / "b99"
        assert main(["generate", "--seed", "99", "--out", str(b), "--users", "60",
                     "--urls", "2", "--mean-cascades", "1"]) == 0
        assert filecmp.cmp(a / "users.jsonl", b / "users.jsonl", shallow=False)

    def test_config_file_flags_win(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5, "num_urls": 3}))
        out = tmp_path / "cfgd"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out),
                     "--users", "60", "--urls", "2", "--mean-cascades", "1"]) == 0
        urls = (out / "urls.jsonl").read_text().strip().splitlines()
        assert len(urls) == 2  # flag overrode the config file

    @pytest.mark.parametrize("affinity", [True, False])
    def test_default_jobs_count_the_usable_cpus(self, dataset_dir, monkeypatch, affinity):
        # pinned to one CPU of four, the default is one worker
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        run = cli._resolve_run(None, 1, str(dataset_dir), "url", None, None, None, None,
                               None, None, "24")
        assert run.jobs == (1 if affinity else 4)

    @pytest.mark.parametrize("args, config, named", [
        (["cv", "--hours", "abc"], None, "--hours"),
        (["cv", "--hours", "-5"], None, "--hours"),
        (["cv", "--hours", "3..x"], None, "--hours"),
        (["cv", "--iterations", "0"], None, "--iterations"),
        (["cv"], {"jobs": "x"}, "config key 'jobs'"),
        (["cv"], {"hours": 12.5}, "config key 'hours'"),
        (["cv"], {"active_groups": ["bogus"]}, "config key 'active_groups'"),
        # a group named twice would hash and record as a different group set
        (["cv", "--groups", "content,user_profile,content"], None,
         "--groups: feature groups given more than once: content"),
        (["cv"], {"active_groups": ["content", "content"]},
         "config key 'active_groups': feature groups given more than once: content"),
        (["cv"], {"seed": "s"}, "config key 'seed'"),
        (["stats", "--mad-samples", "-2"], None, "--mad-samples"),
        (["stats", "--mad-samples", "1"], None, "--mad-samples"),
        (["layout", "--iterations", "-3"], None, "--iterations"),
        (["layout", "--iterations", "0"], None, "--iterations"),
        (["layout"], {"layout_iterations": 0}, "config key 'layout_iterations'"),
        (["aging", "--window-frac", "2"], None, "--window-frac"),
        (["aging", "--window-frac", "0"], None, "--window-frac"),
        (["aging"], {"window_frac": 1.5}, "config key 'window_frac'"),
        # data-dependent: a window under 20% of this dataset's 6 test URLs,
        # and cascade-wise folds left empty by the size filter
        (["aging", "--window-frac", "0.1"], None, "--window-frac"),
        (["cv", "--scope", "cascade", "--min-cascade-size", "9"], None, "--min-cascade-size"),
        # counts and a gap out of range (one iteration keeps a missed check short)
        (["cv", "--jobs", "0", "--iterations", "1"], None, "--jobs"),
        (["cv", "--jobs", "-2", "--iterations", "1"], None, "--jobs"),
        (["cv", "--iterations", "1"], {"jobs": 0}, "config key 'jobs'"),
        (["cv", "--min-cascade-size", "-3", "--iterations", "1"], None, "--min-cascade-size"),
        (["cv", "--min-cascade-size", "0", "--iterations", "1"], None, "--min-cascade-size"),
        (["cv", "--iterations", "1"], {"min_cascade_size": 0}, "config key 'min_cascade_size'"),
        (["aging", "--min-gap-days", "-1", "--iterations", "1"], None, "--min-gap-days"),
        (["aging", "--iterations", "1"], {"min_gap_days": -0.5}, "config key 'min_gap_days'"),
        # a learning rate that ascends the loss, never moves it, or is not finite
        (["cv", "--lr", "-0.01", "--iterations", "1"], None, "--lr"),
        (["cv", "--lr", "0", "--iterations", "1"], None, "--lr"),
        (["cv", "--lr", "nan", "--iterations", "1"], None, "--lr"),
        (["cv", "--lr", "inf", "--iterations", "1"], None, "--lr"),
        (["cv", "--iterations", "1"], {"learning_rate": 0}, "config key 'learning_rate'"),
        (["cv", "--iterations", "1"], {"learning_rate": float("nan")},
         "config key 'learning_rate'"),
        # a range of hours is for sweep only
        (["cv", "--hours", "3..5"], None, "--hours"),
        (["train"], {"hours": "0..24"}, "config key 'hours'"),
        # generate's config keys go through the casts its flags share
        (["generate", "--users", "60", "--mean-cascades", "1"], {"num_urls": 2.5},
         "config key 'num_urls'"),
        (["generate", "--mean-cascades", "1"], {"num_urls": True, "num_users": 60},
         "config key 'num_urls'"),
        (["generate", "--users", "60", "--urls", "2"], {"activation_probability": "x"},
         "config key 'activation_probability'"),
        (["generate", "--users", "60", "--urls", "2", "--mean-cascades", "1"],
         {"embedding_mode": "load_file", "embedding_file": 0}, "config key 'embedding_file'"),
        (["generate", "--users", "60", "--urls", "2", "--fake-fraction", "1"], None,
         "--fake-fraction"),
        # an hour that float() cannot hold
        (["cv", "--hours", "1" + "0" * 400, "--iterations", "1"], None, "--hours"),
        (["cv", "--iterations", "1"], {"hours": "1" + "0" * 400}, "config key 'hours'"),
        # active groups are a string or a list of strings
        (["cv", "--iterations", "1"], {"active_groups": {"content": 1}},
         "config key 'active_groups'"),
        # a key that no command reads
        (["cv", "--iterations", "1"], {"lr": 5, "iteratons": 7}, "config key 'lr'"),
        (["cv", "--iterations", "1"], {"iteratons": 7}, "config key 'iteratons'"),
        (["generate", "--users", "60", "--urls", "2"], {"num_user": 60}, "config key 'num_user'"),
        # an infinite gap, and a world so small that every user falls in one community
        (["aging", "--min-gap-days", "1e400", "--iterations", "1"], None, "--min-gap-days"),
        (["generate", "--urls", "5", "--users", "8", "--mean-cascades", "2"], None, "num_users"),
        # a count that numpy cannot size an array by
        (["generate", "--urls", "2"], {"num_users": 10**20}, "config key 'num_users'"),
        (["generate", "--urls", "2"], {"num_users": 10**400}, "config key 'num_users'"),
        (["generate", "--urls", "2", "--users", "1" + "0" * 400], None, "--users"),
        (["generate", "--users", "60"], {"max_cascade_size": 2**63},
         "config key 'max_cascade_size'"),
        # a drawn per-URL cascade count beyond int64
        (["generate", "--mean-cascades", "1e300", "--urls", "2", "--users", "50"], None,
         "mean_cascades_per_url"),
        # fold round 0 with no training sample (60), or no test sample (9)
        (["ablate", "--scope", "cascade", "--min-cascade-size", "60", "--iterations", "1"], None,
         "--min-cascade-size"),
        (["ablate", "--scope", "cascade", "--min-cascade-size", "9", "--iterations", "1"], None,
         "--min-cascade-size"),
        (["train", "--scope", "cascade", "--min-cascade-size", "60", "--iterations", "1"], None,
         "--min-cascade-size"),
        (["train", "--scope", "cascade", "--min-cascade-size", "9", "--iterations", "1"], None,
         "--min-cascade-size"),
    ])
    def test_bad_value_is_one_error_line(self, dataset_dir, tmp_path, capsys,
                                         args, config, named):
        command, *args = args
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        if command != "generate":
            args = ["--dataset", str(dataset_dir)] + args
        # every value is rejected before a model trains
        code = main([command, "--out", str(tmp_path / "o")] + args)
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]

    @pytest.mark.parametrize("text, ranges, hours", [
        ("7", False, (7,)), (7, False, (7,)), ("5..5", False, (5,)), ("3..5", True, (3, 4, 5)),
    ])
    def test_one_hour_or_a_sweep_range(self, text, ranges, hours):
        assert cli._parse_hours(text, ranges=ranges) == hours

    @pytest.mark.parametrize("content, reason", [
        (b'{"seed": \xff}', "can't decode byte 0xff"),
        (b'{"seed": 1,}', "Expecting property name"),
        (b"[1]", "must hold a JSON object"),
        (b"[" * 100000, "maximum recursion depth exceeded"),
    ], ids=["not-utf-8", "not-json", "not-an-object", "nested-too-deep"])
    def test_unreadable_config_is_one_error_line(self, dataset_dir, tmp_path, capsys,
                                                 content, reason):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        code = main(["cv", "--dataset", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--config", str(path)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: --config {path}: ")
        assert reason in lines[0]

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    @pytest.mark.parametrize("command", ["generate", "cv", "sweep", "aging", "ablate", "train",
                                         "export-embeddings", "layout", "stats"])
    def test_negative_seed_is_one_error_line(self, dataset_dir, tmp_path, capsys, monkeypatch,
                                             command, source):
        args = [command, "--out", str(tmp_path / "o")]
        if command != "generate":
            args += ["--dataset", str(dataset_dir)]
        if command not in ("generate", "stats"):
            args += ["--iterations", "1"]  # keeps a missed check short
        if command == "export-embeddings":
            args += ["--checkpoint", str(tmp_path / "missing.json")]
        if source == "flag":
            args += ["--seed", "-1"]
            named = "--seed"
        elif source == "config":
            (tmp_path / "cfg.json").write_text('{"seed": -1}')
            args += ["--config", str(tmp_path / "cfg.json")]
            named = "config key 'seed'"
        else:
            monkeypatch.setenv("CASCADE_GNN_SEED", "-1")
            named = "CASCADE_GNN_SEED"
        code = main(args)
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert lines == [f"error: {named}: must be a non-negative integer, got -1"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("cv", '{"jobs": 1e400}', "jobs"),
        ("cv", '{"seed": 1e400}', "seed"),
        ("cv", '{"min_cascade_size": 1e400}', "min_cascade_size"),
        ("cv", '{"iterations": true}', "iterations"),
        ("cv", '{"iterations": 2.9}', "iterations"),
        ("cv", '{"seed": 1.5}', "seed"),
        ("cv", '{"jobs": false}', "jobs"),
        ("cv", '{"learning_rate": true}', "learning_rate"),
        pytest.param("cv", '{"learning_rate": 1%s}' % ("0" * 400), "learning_rate",
                     id="cv-learning_rate-10**400"),
        ("aging", '{"window_frac": true}', "window_frac"),
        ("aging", '{"min_gap_days": false}', "min_gap_days"),
        ("layout", '{"layout_iterations": 1.5}', "layout_iterations"),
        ("generate", '{"seed": true}', "seed"),
        ("stats", '{"seed": NaN}', "seed"),
    ])
    def test_bad_number_in_config_is_one_error_line(self, dataset_dir, tmp_path, capsys,
                                                    command, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        args = [command, "--out", str(tmp_path / "o"), "--config", str(path)]
        if command != "generate":
            args += ["--dataset", str(dataset_dir)]
        if command not in ("generate", "stats") and not key.endswith("iterations"):
            args += ["--iterations", "1"]  # keeps a missed check short
        code = main(args)
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: config key {key!r}: ")

    @pytest.mark.parametrize("key, value, expected", [
        ("min_cascade_size", 2.0, 2), ("jobs", "3", 3), ("seed", 0, 0),
        ("seed", "7", 7), ("learning_rate", 1, 1.0), ("window_frac", 0.5, 0.5),
    ])
    def test_integral_and_plain_numbers_still_count(self, key, value, expected):
        assert cli.CONFIG_KEYS[key](value) == expected

    def test_every_generator_field_is_a_config_key(self):
        assert {f.name for f in dataclasses.fields(GenConfig)} <= set(cli.CONFIG_KEYS)

    def test_config_keys_share_the_config_classes_rules(self):
        assert cli.CONFIG_KEYS["num_urls"] is GenConfig.RULES["num_urls"]
        assert cli.CONFIG_KEYS["iterations"] is ModelConfig.RULES["iterations"]
        assert cli.CONFIG_KEYS["seed"] is GenConfig.RULES["seed"] is ModelConfig.RULES["seed"]

    def test_a_key_another_command_reads_is_allowed(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_frac": 0.3, "layout_iterations": 2,
                                   "num_users": 5, "iterations": 1, "jobs": 1}))
        assert main(["cv", "--dataset", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 0

    def test_bad_env_seed_is_usage_error(self, dataset_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CASCADE_GNN_SEED", "abc")
        code = main(["layout", "--dataset", str(dataset_dir), "--out", str(tmp_path / "l"),
                     "--iterations", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: CASCADE_GNN_SEED") and "Traceback" not in err


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "ds"
    assert main(["generate", "--seed", "5", "--out", str(path)] + GEN_ARGS) == 0
    return path


def _edit_jsonl(edit, inline=False):
    """Edit line 3's record; with ``inline``, once each embedding row number
    in it is replaced by the row."""
    def corrupt(lines, rows):
        rec = json.loads(lines[2])
        if inline:
            inline_rows(rec, rows)
        edit(rec)
        lines[2] = json.dumps(rec)
    return corrupt


def _past_the_table(holder, field):
    """Point the embedding ``field`` of line 3's record, in the part that
    ``holder`` picks, at the row one past embeddings.jsonl's last."""
    def corrupt(lines, rows):
        rec = json.loads(lines[2])
        holder(rec)[field] = len(rows)
        lines[2] = json.dumps(rec)
    return corrupt


def _repeat_id(holder, field):
    """Give line 3's record the ID ``field`` of line 1's, both found in the
    part of the record that ``holder`` picks."""
    def corrupt(lines, rows):
        first, rec = json.loads(lines[0]), json.loads(lines[2])
        holder(rec)[field] = holder(first)[field]
        lines[2] = json.dumps(rec)
    return corrupt


def _edit_follow(make_row):
    def corrupt(lines, rows):
        lines[2] = make_row(*lines[2].split(","))
    return corrupt


def _repeat_follow(lines, rows):
    """Make line 3 of follows.csv repeat line 2."""
    lines[2] = lines[1]


def _bad_byte(lines, rows):
    """Put a byte that is not UTF-8 (0xff, escaped) in the middle of line 3."""
    half = len(lines[2]) // 2
    lines[2] = lines[2][:half] + "\udcff" + lines[2][half:]


class TestDatasetFormat:
    """A malformed record exits 2 naming its file and line (line 3 here)."""

    @pytest.mark.parametrize("name, corrupt, reason", [
        ("urls.jsonl", _edit_jsonl(lambda r: r.update(label="satire")), "'satire'"),
        ("users.jsonl", _edit_jsonl(lambda r: r.pop("lang")), "missing field 'lang'"),
        ("cascades.jsonl", _edit_jsonl(lambda r: r.pop("url_id")), "missing field 'url_id'"),
        ("cascades.jsonl", _edit_jsonl(lambda r: r["tweets"][0].pop("author")),
         "tweet 0: missing field 'author'"),
        ("follows.csv", _edit_follow(lambda a, b: f"{a},nobody"), "unknown user 'nobody'"),
        ("follows.csv", _edit_follow(lambda a, b: f"{a},{a}"), "self-follow"),
        ("follows.csv", _repeat_follow, "duplicate follow 'u"),
        ("users.jsonl", _repeat_id(lambda r: r, "user_id"), "duplicate user_id"),
        ("cascades.jsonl", _repeat_id(lambda r: r, "cascade_id"), "duplicate cascade_id"),
        ("cascades.jsonl", _repeat_id(lambda r: r["tweets"][0], "tweet_id"),
         "duplicate tweet_id"),
        ("urls.jsonl", _repeat_id(lambda r: r, "url_id"), "duplicate url_id"),
        ("cascades.jsonl", _edit_jsonl(lambda r: r["tweets"][0].update(author="ghost")),
         "unknown author 'ghost'"),
        ("cascades.jsonl", _edit_jsonl(lambda r: r.update(url_id="nowhere")),
         "url_id 'nowhere' names no story"),
        ("urls.jsonl", _edit_jsonl(lambda r: r["cascade_ids"].append("c-bogus")),
         "disagree on cascade 'c-bogus'"),
        ("urls.jsonl", _edit_jsonl(lambda r: r["cascade_ids"].pop()),
         "disagree on cascade 'c00002_0006'"),
        ("urls.jsonl", _edit_jsonl(lambda r: r["cascade_ids"].append(r["cascade_ids"][0])),
         "cascade_ids lists a cascade twice"),
        # a cascade ID that is not a string
        ("urls.jsonl", _edit_jsonl(lambda r: r.update(cascade_ids=[1])),
         "field 'cascade_ids' item 0 must be a string, got an integer"),
        ("urls.jsonl", _edit_jsonl(lambda r: r.update(cascade_ids=[None])),
         "field 'cascade_ids' item 0 must be a string, got null"),
        ("urls.jsonl", _edit_jsonl(lambda r: r.update(cascade_ids=[[1]])),
         "field 'cascade_ids' item 0 must be a string, got an array"),
        # a component of an inline embedding, and the same one in the table
        ("users.jsonl",
         _edit_jsonl(lambda r: r["description_embedding"].__setitem__(5, True), inline=True),
         "field 'description_embedding' component 5 must be a number, got a boolean"),
        ("cascades.jsonl",
         _edit_jsonl(lambda r: r["tweets"][0]["text_embedding"].__setitem__(0, "0.5"),
                     inline=True),
         "tweet 0: field 'text_embedding' component 0 must be a number, got a string"),
        ("users.jsonl",
         _edit_jsonl(lambda r: r["description_embedding"].__setitem__(5, 10**400), inline=True),
         "field 'description_embedding' has a component beyond the float range"),
        ("embeddings.jsonl", _edit_jsonl(lambda r: r.__setitem__(5, True)),
         "embedding component 5 must be a number, got a boolean"),
        ("embeddings.jsonl", _edit_jsonl(lambda r: r.__setitem__(0, "0.5")),
         "embedding component 0 must be a number, got a string"),
        ("embeddings.jsonl", _edit_jsonl(lambda r: r.__setitem__(5, 10**400)),
         "embedding has a component beyond the float range"),
        # a table row that is not an embedding
        ("embeddings.jsonl", _edit_jsonl(lambda r: r.__setitem__(5, math.nan)),
         "embedding contains non-finite components"),
        ("embeddings.jsonl", _edit_jsonl(lambda r: r.pop()),
         "embedding must have exactly 200 components, got shape (199,)"),
        ("embeddings.jsonl", lambda lines, rows: lines.__setitem__(2, '{"0": 0.5}'),
         "expected a JSON array, got an object"),
        ("embeddings.jsonl", _bad_byte, "is a byte that is not UTF-8"),
        ("embeddings.jsonl", lambda lines, rows: lines.__setitem__(2, "[" * 100000),
         "maximum recursion depth exceeded"),
        ("urls.jsonl", lambda lines, rows: lines.__setitem__(2, "[" * 100000),
         "maximum recursion depth exceeded"),
        # an embedding row number outside the table
        ("users.jsonl", _edit_jsonl(lambda r: r.update(description_embedding=-1)),
         "field 'description_embedding' names row -1, but embeddings.jsonl has"),
        ("cascades.jsonl", _past_the_table(lambda r: r["tweets"][0], "hashtag_embedding"),
         "tweet 0: field 'hashtag_embedding' names row "),
        ("users.jsonl", _past_the_table(lambda r: r, "description_embedding"),
         "field 'description_embedding' names row "),
        ("cascades.jsonl",
         _edit_jsonl(lambda r: r["tweets"][0].update(text_embedding=2**63)),
         f"tweet 0: field 'text_embedding' names row {2**63}, but embeddings.jsonl has"),
        ("users.jsonl", _edit_jsonl(lambda r: r.update(description_embedding=10**400)),
         "field 'description_embedding' names row 1000000000"),
        # a field that is neither an embedding nor a row number
        ("users.jsonl", _edit_jsonl(lambda r: r.update(description_embedding=True)),
         "field 'description_embedding' must be an array, got a boolean"),
        ("cascades.jsonl", _edit_jsonl(lambda r: r["tweets"][0].update(text_embedding=2.5)),
         "tweet 0: field 'text_embedding' must be an array, got a number"),
        ("users.jsonl", _edit_jsonl(lambda r: r.update(description_embedding="3")),
         "field 'description_embedding' must be an array, got a string"),
        # cascades.jsonl's line 3 starts kilobytes into the file
        ("urls.jsonl", _bad_byte, "is a byte that is not UTF-8"),
        ("follows.csv", _bad_byte, "is a byte that is not UTF-8"),
        ("cascades.jsonl", _bad_byte, "is a byte that is not UTF-8"),
        ("follows.csv", _edit_follow(lambda a, b: f"{a}{'x' * 131072},{b}"),
         "field larger than field limit"),
        # an integer that a float field cannot hold, or a count beyond int64
        ("cascades.jsonl", _edit_jsonl(lambda r: r["tweets"][0].update(timestamp=10**400)),
         "tweet 0: field 'timestamp' is beyond the float range"),
        ("users.jsonl", _edit_jsonl(lambda r: r.update(created_at=-10**400)),
         "field 'created_at' is beyond the float range"),
        ("urls.jsonl", _edit_jsonl(lambda r: r.update(first_seen=10**400)),
         "field 'first_seen' is beyond the float range"),
        ("users.jsonl", _edit_jsonl(lambda r: r.update(statuses_count=10**400)),
         "field 'statuses_count' is beyond the int64 range"),
        ("users.jsonl", _edit_jsonl(lambda r: r.update(friends_count=2**63)),
         "field 'friends_count' is beyond the int64 range"),
        ("cascades.jsonl",
         _edit_jsonl(lambda r: r["tweets"][0].update(retweeted_retweet_count=10**400)),
         "tweet 0: field 'retweeted_retweet_count' is beyond the int64 range"),
    ])
    def test_bad_record_exits_two(self, small_dataset, tmp_path, capsys, name, corrupt,
                                  reason):
        data = tmp_path / "ds"
        shutil.copytree(small_dataset, data)
        rows = [json.loads(text) for text in (data / "embeddings.jsonl").read_text().splitlines()]
        lines = (data / name).read_text().splitlines()
        corrupt(lines, rows)
        (data / name).write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        code = main(["stats", "--dataset", str(data)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{data / name}, line 3: " in err and reason in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_a_row_number_without_a_table_exits_two(self, small_dataset, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(small_dataset, data)
        (data / "embeddings.jsonl").unlink()
        code = main(["stats", "--dataset", str(data)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: {data / 'users.jsonl'}, line 1: field 'description_embedding' "
                       "names row 0, but there is no embeddings.jsonl\n")

    # json reads NaN, Infinity and -Infinity; in the loaded data, -inf made
    # the feature encoder raise and a NaN source time the statistics divide by 0
    @pytest.mark.parametrize("command, name, edit, reason", [
        ("cv", "users.jsonl", lambda r: r.update(created_at=-math.inf),
         "field 'created_at' must be finite, got -inf"),
        ("stats", "cascades.jsonl", lambda r: r["tweets"][0].update(timestamp=math.nan),
         "tweet 0: field 'timestamp' must be finite, got nan"),
        ("stats", "urls.jsonl", lambda r: r.update(first_seen=math.inf),
         "field 'first_seen' must be finite, got inf"),
    ])
    def test_nonfinite_float_exits_two(self, small_dataset, tmp_path, capsys, command, name,
                                       edit, reason):
        data = tmp_path / "ds"
        shutil.copytree(small_dataset, data)
        lines = (data / name).read_text().splitlines()
        rec = json.loads(lines[0])
        edit(rec)
        lines[0] = json.dumps(rec)
        (data / name).write_text("\n".join(lines) + "\n")
        argv = [command, "--dataset", str(data)]
        if command == "cv":
            argv += ["--out", str(tmp_path / "cv")] + FAST
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {data / name}, line 1: {reason}\n"

    # finite fields whose difference overflows: the account age of a tweet
    # after an account made at -1.79e308, and a delay from a source at -1.7e308
    @pytest.mark.parametrize("ages, times, reason", [
        (-1.79e308, [1e307] * 99, "tweet '{0}' by '{1}': the account age overflows"),
        (None, [-1.7e308] + [1.7e308] * 99,
         "tweet '{2}': the delay from the cascade's source overflows"),
    ])
    def test_overflowing_feature_exits_two(self, small_dataset, tmp_path, capsys, ages,
                                           times, reason):
        data = tmp_path / "ds"
        shutil.copytree(small_dataset, data)
        if ages is not None:
            users = [json.loads(text) for text in (data / "users.jsonl").read_text().splitlines()]
            (data / "users.jsonl").write_text(
                "".join(json.dumps({**u, "created_at": ages}) + "\n" for u in users))
        lines = (data / "cascades.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        for tweet, t in zip(rec["tweets"], times):
            tweet["timestamp"] = t
        lines[0] = json.dumps(rec)
        (data / "cascades.jsonl").write_text("\n".join(lines) + "\n")
        tweets = rec["tweets"]
        code = main(["cv", "--dataset", str(data), "--out", str(tmp_path / "cv"),
                     "--scope", "cascade", "--min-cascade-size", "1", "--iterations", "5",
                     "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: {data / 'cascades.jsonl'}, line 1: "
                       + reason.format(tweets[0]["tweet_id"], tweets[0]["author"],
                                       tweets[1]["tweet_id"]) + "\n")


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "ds"
    assert main(["generate", "--seed", "3", "--out", str(path), "--users", "60",
                 "--urls", "3", "--mean-cascades", "2"]) == 0
    return path


# One value of each JSON kind: a retyped field gets one of another kind.
JSON_VALUES = (None, True, 7, 2.5, "x", [], {})


def _kind(value):
    return "number" if type(value) in (int, float) else type(value)


def _holder(rec, data):
    """The record itself, or for a cascade the record or one of its tweets."""
    return data.draw(st.sampled_from([rec] + rec.get("tweets", [])))


def _drop(lines, k, data, rows):
    if lines[k].startswith("["):  # an embeddings.jsonl row: drop a component
        row = json.loads(lines[k])
        del row[data.draw(st.integers(0, len(row) - 1))]
        lines[k] = json.dumps(row)
        return
    if not lines[k].startswith("{"):  # a follows.csv line
        fields = lines[k].split(",")
        del fields[data.draw(st.integers(0, len(fields) - 1))]
        lines[k] = ",".join(fields)
        return
    rec = json.loads(lines[k])
    holder = _holder(rec, data)
    del holder[data.draw(st.sampled_from(sorted(holder)))]
    lines[k] = json.dumps(rec)


def _retype(lines, k, data, rows):
    if lines[k].startswith("["):  # an embeddings.jsonl row: retype a component
        row = json.loads(lines[k])
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if _kind(v) != "number"]))
        lines[k] = json.dumps(row)
        return
    if not lines[k].startswith("{"):
        fields = lines[k].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = str(
            data.draw(st.sampled_from(JSON_VALUES)))
        lines[k] = ",".join(fields)
        return
    rec = json.loads(lines[k])
    holder = _holder(rec, data)
    key = data.draw(st.sampled_from(sorted(holder)))
    holder[key] = data.draw(st.sampled_from(
        [v for v in JSON_VALUES if _kind(v) != _kind(holder[key])]))
    lines[k] = json.dumps(rec)


def _truncate(lines, k, data, rows):
    lines[k] = lines[k][:data.draw(st.integers(0, len(lines[k]) - 1))]


def _recomponent(lines, k, data, rows):
    """Swap one embedding component for a string, a boolean or null: in an
    embeddings.jsonl row, or in a record's embedding, inlined from its row."""
    rec = json.loads(lines[k])
    if type(rec) is list:
        vec = rec
    else:
        holder = data.draw(st.sampled_from([rec] if "user_id" in rec else rec["tweets"]))
        field = data.draw(st.sampled_from([f for f in sorted(holder) if f.endswith("_embedding")]))
        vec = holder[field] = list(rows[holder[field]])
    vec[data.draw(st.integers(0, len(vec) - 1))] = data.draw(
        st.sampled_from(["0.5", "x", True, False, None]))
    lines[k] = json.dumps(rec)


def _nonfinite(lines, k, data, rows):
    """Set a float field (a time) of a record or tweet to NaN or an infinity."""
    rec = json.loads(lines[k])
    holder = data.draw(st.sampled_from(rec.get("tweets", [rec])))
    field = data.draw(st.sampled_from(sorted(f for f in holder if type(holder[f]) is float)))
    holder[field] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    lines[k] = json.dumps(rec)


def _repeat(lines, k, data, rows):
    """Give line k the ID of another line: the whole line, in follows.csv."""
    j = data.draw(st.sampled_from([i for i in range(len(lines)) if i != k]))
    if not lines[k].startswith("{"):
        lines[k] = lines[j]
        return
    rec, other = json.loads(lines[k]), json.loads(lines[j])
    if "tweets" in rec and data.draw(st.booleans()):
        data.draw(st.sampled_from(rec["tweets"]))["tweet_id"] = other["tweets"][0]["tweet_id"]
    else:
        id_field = next(f for f in ("user_id", "cascade_id", "url_id") if f in rec)
        rec[id_field] = other[id_field]
    lines[k] = json.dumps(rec)


class TestDatasetFuzz:
    """Any one corrupted line or field of a dataset exits 2 with one error
    line naming the file and line, never a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_corrupted_dataset_exits_two(self, tiny_dataset, data):
        corrupt = data.draw(st.sampled_from([_drop, _retype, _truncate, _repeat,
                                             _recomponent, _nonfinite]))
        # only users, tweets and the table hold embeddings, follows.csv holds
        # no floats, and the table may repeat a row
        name = data.draw(st.sampled_from(
            ["users.jsonl", "cascades.jsonl", "embeddings.jsonl"] if corrupt is _recomponent else
            ["users.jsonl", "cascades.jsonl", "urls.jsonl"] if corrupt is _nonfinite else
            ["users.jsonl", "follows.csv", "cascades.jsonl", "urls.jsonl"]
            if corrupt is _repeat else
            ["users.jsonl", "follows.csv", "cascades.jsonl", "urls.jsonl", "embeddings.jsonl"]))
        with tempfile.TemporaryDirectory() as tmp:
            copy = os.path.join(tmp, "ds")
            shutil.copytree(tiny_dataset, copy)
            with open(os.path.join(copy, "embeddings.jsonl"), encoding="utf-8") as fh:
                rows = [json.loads(text) for text in fh]
            path = os.path.join(copy, name)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            corrupt(lines, data.draw(st.integers(0, len(lines) - 1)), data, rows)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["stats", "--dataset", copy])
        assert code == 2
        assert err.getvalue().startswith(f"error: {path}, line ")
        assert len(err.getvalue().splitlines()) == 1


# JSON values: every JSON type, strings that read as numbers, hours or
# feature groups, and lists and objects of them
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                 | st.sampled_from(["3", "2.0", "0.5", "-1", "nan", "inf", "1e400", "1" + "0" * 400,
                                    "3..5", "content", "user_profile,content", "load_file",
                                    10**400, [0.5, 0.5]]))


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)


_JSON = st.recursive(_JSON_SCALARS, _containers, max_leaves=6)
_SMALL_MODEL = ModelConfig(hidden=2, fc1=2)


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.json"
    save_checkpoint(path, init_params(_SMALL_MODEL, WIDTH),
                    meta={"scope": "url_wise", "active_groups": list(_SMALL_MODEL.active_groups)})
    return path.read_text()


class TestConfigFuzz:
    """Any JSON value for a config key passes its rule or is one usage error;
    any JSON document as a checkpoint loads or is one ``CheckpointError``."""

    @settings(max_examples=300, deadline=None)
    @given(config=st.dictionaries(st.sampled_from(sorted(cli.CONFIG_KEYS)), _JSON))
    def test_config_values_pass_or_are_usage_errors(self, config):
        passed = {}
        for key in config:
            with contextlib.suppress(cli.UsageFailure):
                passed[key] = cli._resolve(None, config, key, None)
        # what passed the rules, the config classes take; only a check
        # across GenConfig's fields can still fail
        ModelConfig(**{k: v for k, v in passed.items() if k in ModelConfig.RULES})
        try:
            GenConfig(**{k: v for k, v in passed.items() if k in GenConfig.RULES})
        except ValueError as exc:
            assert str(exc).startswith(("community_fractions:", "unknown embedding_mode",
                                        "embedding_file"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_json_checkpoint_loads_or_is_a_checkpoint_error(self, checkpoint_text, data):
        doc = json.loads(checkpoint_text)
        name = data.draw(st.sampled_from(sorted(doc["params"])))
        entry = doc["params"][name]
        spots = [(doc, "format"), (doc, "seed"), (doc, "meta"), (doc["meta"], "scope"),
                 (doc["meta"], "active_groups"), (doc, "params"), (doc["params"], name),
                 (entry, "shape"), (entry, "data"), (entry["data"], 0)]
        holder, key = data.draw(st.sampled_from([(None, None)] + spots))
        # or a value near a valid one: the shape as floats, an integer beyond floats
        value = data.draw(st.sampled_from([[float(n) for n in entry["shape"]], 10**400]) | _JSON)
        if holder is None:
            doc = value
        elif isinstance(holder, dict) and data.draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "checkpoint.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.suppress(CheckpointError):
                load_checkpoint(path, _SMALL_MODEL, scope="url_wise")


# The config_hash of each command's report on the CLI fixture, recorded
# before the experiment commands' set-up was merged into one path.  The hash
# covers only the resolved parameters, so it is the same on every machine.
PINNED_HASHES = {
    "cv 0": "3e3b2aa4cdb1e218",
    "cv 1": "009e116c4a2cc777",
    "sweep 2": "c0828cca88565ac1",
    "aging 3": "f17ee539a7bec1b9",
    "ablate 4": "2489641cafbd21ed",
    "train 5": "17f69de0420b5f2c",
    "export-embeddings 6": "a850779df73590e9",
    "layout 7": "147073d53887cdd1",
    "stats 8": "2142bc429d5a68cb",
    "stats 9": "4cea2d92c5b143e8",
}


def _report_hash(path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["config_hash"]
    return text.splitlines()[0].removeprefix("# config_hash=")


def test_config_hashes_are_pinned(dataset_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.001, "hours": 12, "jobs": 1}))
    fast = ["--seed", "3", "--iterations", "5", "--jobs", "1"]
    runs = [
        ("cv", ["--scope", "cascade", "--min-cascade-size", "2"] + fast, "report.json"),
        ("cv", ["--config", str(cfg), "--seed", "4", "--iterations", "5"], "roc.csv"),
        ("sweep", ["--hours", "23..24"] + fast, "auc_vs_hours.csv"),
        ("aging", ["--window-frac", "0.3"] + fast, "report.json"),
        ("ablate", ["--lr", "0.002", "--iterations", "3", "--seed", "3"], "ablation.csv"),
        ("train", fast, "report.json"),
        ("export-embeddings", ["--checkpoint", str(tmp_path / "5" / "checkpoint.json"),
                               "--hours", "12"] + fast, "embeddings.csv"),
        ("layout", ["--iterations", "2", "--seed", "2"], "layout.csv"),
        ("stats", ["--seed", "2"], "stats.json"),
        ("stats", ["--mad-samples", "3"], "stats.json"),
    ]
    hashes = {}
    for k, (command, args, report) in enumerate(runs):
        out = tmp_path / str(k)
        assert main([command, "--dataset", str(dataset_dir), "--out", str(out)] + args) == 0
        hashes[f"{command} {k}"] = _report_hash(out / report)
    assert hashes == PINNED_HASHES
