"""CLI subcommands: flows, file outputs, exit codes, determinism."""
import filecmp
import json

import pytest

from cascade_gnn.classifier import ModelConfig, init_params, save_checkpoint
from cascade_gnn.cli import main
from cascade_gnn.features import default_schema

GEN_ARGS = ["--users", "150", "--urls", "12", "--mean-cascades", "3"]
FIXTURE_ARGS = ["--users", "200", "--urls", "30", "--mean-cascades", "3",
                "--fake-fraction", "0.3"]
FAST = ["--iterations", "40", "--jobs", "1"]


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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_exits_three(self, dataset_dir, tmp_path, capsys):
        # the diverged network scores NaN, whose hinge loss is zero: the
        # zero-loss step must still report the failure
        code = main(["cv", "--dataset", str(dataset_dir), "--out", str(tmp_path / "nf"),
                     "--lr", "1e300", "--iterations", "20", "--jobs", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "numeric failure" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_nan_validation_score_exits_three(self, dataset_dir, tmp_path, capsys):
        # the one training step overflows the parameters; validation, which
        # runs after the last step, is the first to see them and scores NaN
        code = main(["cv", "--dataset", str(dataset_dir), "--out", str(tmp_path / "nv"),
                     "--lr", "1e300", "--iterations", "1", "--jobs", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "numeric failure: non-finite score" in err and "Traceback" not in err

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


class TestUsageAndSeeds:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_group_is_usage_error(self, dataset_dir, tmp_path):
        code = main(["cv", "--dataset", str(dataset_dir), "--out",
                     str(tmp_path / "g"), "--groups", "nonsense", "--seed", "1"] + FAST)
        assert code == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

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
