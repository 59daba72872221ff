"""CLI subcommands: flows, file outputs, exit codes, determinism."""
import contextlib
import filecmp
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gnn import cli, evalharness
from cascade_gnn.classifier import ModelConfig, init_params, save_checkpoint
from cascade_gnn.cli import main
from cascade_gnn.features import default_schema

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
                     "stats.json"):
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

    def test_trains_in_process_at_any_jobs(self, dataset_dir, tmp_path, monkeypatch):
        # a pool per level, with the level's masked copies, gained no time
        def no_pool(*args, **kwargs):
            raise AssertionError("ablate opened a process pool")

        monkeypatch.setattr(evalharness, "ProcessPoolExecutor", no_pool)
        code = main(["ablate", "--dataset", str(dataset_dir), "--out", str(tmp_path / "abl"),
                     "--scope", "url", "--hours", "24", "--seed", "3",
                     "--iterations", "2", "--jobs", "2"])
        assert code == 0


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
        config = ModelConfig(schema=default_schema(), hidden=8, fc1=4)
        save_checkpoint(path, init_params(config), meta={"scope": "url_wise"})
        code, err = self.export_with(dataset_dir, tmp_path, path, capsys)
        assert code == 1
        assert "narrow.json" in err and "'gc1.weight'" in err

    def test_malformed_checkpoint_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "mangled.json"
        save_checkpoint(path, init_params(ModelConfig(schema=default_schema())))
        doc = json.loads(path.read_text())
        doc["params"]["gc1.weight"] = {"data": []}
        path.write_text(json.dumps(doc))
        code, err = self.export_with(dataset_dir, tmp_path, path, capsys)
        assert code == 1
        assert "mangled.json" in err and "'gc1.weight'" in err and "Traceback" not in err

    def test_checkpoint_of_other_scope_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "cascade.json"
        save_checkpoint(path, init_params(ModelConfig(schema=default_schema())),
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
    ])
    def test_bad_value_is_one_error_line(self, dataset_dir, tmp_path, capsys,
                                         args, config, named):
        command, *args = args
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        # every value is rejected before a model trains
        code = main([command, "--dataset", str(dataset_dir), "--out", str(tmp_path / "o")]
                    + args)
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]

    @pytest.mark.parametrize("content, reason", [
        (b'{"seed": \xff}', "can't decode byte 0xff"),
        (b'{"seed": 1,}', "Expecting property name"),
        (b"[1]", "must hold a JSON object"),
    ], ids=["not-utf-8", "not-json", "not-an-object"])
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


def _edit_jsonl(edit):
    def corrupt(lines):
        rec = json.loads(lines[2])
        edit(rec)
        lines[2] = json.dumps(rec)
    return corrupt


def _repeat_id(holder, field):
    """Give line 3's record the ID ``field`` of line 1's, both found in the
    part of the record that ``holder`` picks."""
    def corrupt(lines):
        first, rec = json.loads(lines[0]), json.loads(lines[2])
        holder(rec)[field] = holder(first)[field]
        lines[2] = json.dumps(rec)
    return corrupt


def _edit_follow(make_row):
    def corrupt(lines):
        lines[2] = make_row(*lines[2].split(","))
    return corrupt


def _bad_byte(lines):
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
        ("users.jsonl", _edit_jsonl(lambda r: r["description_embedding"].__setitem__(5, True)),
         "field 'description_embedding' component 5 must be a number, got a boolean"),
        ("cascades.jsonl",
         _edit_jsonl(lambda r: r["tweets"][0]["text_embedding"].__setitem__(0, "0.5")),
         "tweet 0: field 'text_embedding' component 0 must be a number, got a string"),
        # cascades.jsonl's line 3 starts kilobytes into the file
        ("urls.jsonl", _bad_byte, "is a byte that is not UTF-8"),
        ("follows.csv", _bad_byte, "is a byte that is not UTF-8"),
        ("cascades.jsonl", _bad_byte, "is a byte that is not UTF-8"),
        ("follows.csv", _edit_follow(lambda a, b: f"{a}{'x' * 131072},{b}"),
         "field larger than field limit"),
    ])
    def test_bad_record_exits_two(self, small_dataset, tmp_path, capsys, name, corrupt,
                                  reason):
        data = tmp_path / "ds"
        shutil.copytree(small_dataset, data)
        lines = (data / name).read_text().splitlines()
        corrupt(lines)
        (data / name).write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        code = main(["stats", "--dataset", str(data)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{data / name}, line 3: " in err and reason in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


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


def _drop(lines, k, data):
    if not lines[k].startswith("{"):  # a follows.csv line
        fields = lines[k].split(",")
        del fields[data.draw(st.integers(0, len(fields) - 1))]
        lines[k] = ",".join(fields)
        return
    rec = json.loads(lines[k])
    holder = _holder(rec, data)
    del holder[data.draw(st.sampled_from(sorted(holder)))]
    lines[k] = json.dumps(rec)


def _retype(lines, k, data):
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


def _truncate(lines, k, data):
    lines[k] = lines[k][:data.draw(st.integers(0, len(lines[k]) - 1))]


def _recomponent(lines, k, data):
    """Swap one embedding component for a string, a boolean or null."""
    rec = json.loads(lines[k])
    holder = data.draw(st.sampled_from([rec] if "user_id" in rec else rec["tweets"]))
    vec = holder[data.draw(st.sampled_from([f for f in sorted(holder)
                                            if f.endswith("_embedding")]))]
    vec[data.draw(st.integers(0, len(vec) - 1))] = data.draw(
        st.sampled_from(["0.5", "x", True, False, None]))
    lines[k] = json.dumps(rec)


def _repeat(lines, k, data):
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
                                             _recomponent]))
        # only users and tweets hold embeddings
        name = data.draw(st.sampled_from(
            ["users.jsonl", "cascades.jsonl"] if corrupt is _recomponent else
            ["users.jsonl", "follows.csv", "cascades.jsonl", "urls.jsonl"]))
        with tempfile.TemporaryDirectory() as tmp:
            copy = os.path.join(tmp, "ds")
            shutil.copytree(tiny_dataset, copy)
            path = os.path.join(copy, name)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            corrupt(lines, data.draw(st.integers(0, len(lines) - 1)), data)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["stats", "--dataset", copy])
        assert code == 2
        assert err.getvalue().startswith(f"error: {path}, line ")
        assert len(err.getvalue().splitlines()) == 1


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
