"""Command-line interface: one executable, one subcommand per pipeline stage.

Parameters resolve as: explicit flag > JSON config file (--config) >
CASCADE_GNN_SEED (seed only) > built-in default.  Every command reads its
config file and seed through ``_config_and_seed``; the six experiment
commands get the rest of their parameters, and the dataset, as one ``Run``,
and build their samples once through ``Run.build``, which takes the dataset
over: only the samples and the stories stay resident while they train.
Exit codes: 0 success, 1 usage error (a bad value names its flag or config
key) or data that an experiment protocol cannot run on, 2 missing/unreadable
dataset or a malformed or inconsistent dataset line (named by file and
line), 3 numeric failure.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import click
import numpy as np

from . import dataio, evalharness
from .classifier import (DEFAULT_ITERATIONS, CheckpointError, ModelConfig, PreparedGraph,
                         load_checkpoint, prepare_graph, save_checkpoint, user_embeddings)
from .dataio import DatasetFormatError, DatasetNotFoundError, cascades_by_url, load_dataset
from .evalharness import (DEFAULT_MIN_CASCADE_SIZE, ProtocolError, aging_protocol,
                          backward_feature_selection, build_samples,
                          cross_validate, default_active_groups,
                          diffusion_sweep, estimate_diameter,
                          fold_label_fractions, fr_layout, mad_mmd, make_folds,
                          sweep_hours, train_and_score)
from .metrics import auc_or_none
from .optim import NumericError
from .propagation import credibility_scores
from .reports import write_csv, write_json_report
from .synthgen import (GenConfig, generate_dataset, generate_social_graph,
                       summary_stats)
from .types import (SCOPE_CASCADE, SCOPE_URL, CascadeRecord, ConfigError, SocialGraph,
                    UrlStory, interval, number, positive_int, rng_seed)

SEED_ENV_VAR = "CASCADE_GNN_SEED"


class UsageFailure(click.ClickException):
    exit_code = 1


def _load_config_file(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise UsageFailure(f"--config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageFailure(f"--config {path}: must hold a JSON object")
    unknown = next((key for key in doc if key not in CONFIG_KEYS), None)
    if unknown is not None:
        raise UsageFailure(f"config key {unknown!r}: no command reads this key "
                           f"(in --config {path})")
    return doc


def _cast(value, rule, source: str):
    try:
        return rule(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageFailure(f"{source}: {exc}") from None


def _resolve(flag_value, file_config: dict, key: str, default, flag=None, rule=None):
    """The flag's value, else the config file's ``key``, else ``default``,
    through ``rule`` (by default ``key``'s in ``CONFIG_KEYS``).  A value that
    the rule rejects is a usage error naming the flag or key."""
    if flag_value is not None:
        value, source = flag_value, flag
    elif key in file_config:
        value, source = file_config[key], f"config key {key!r}"
    else:
        value, source = default, "default"
    return _cast(value, rule or CONFIG_KEYS[key], source)


def _config_and_seed(config_path, seed, default_seed: int = 0) -> tuple[dict, int]:
    """The --config file's settings, and the seed from the flag, the config
    file, CASCADE_GNN_SEED or ``default_seed``, in that order."""
    file_config = _load_config_file(config_path)
    env = os.environ.get(SEED_ENV_VAR)
    if seed is None and "seed" not in file_config and env is not None:
        return file_config, _cast(env, rng_seed, SEED_ENV_VAR)
    return file_config, _resolve(seed, file_config, "seed", default_seed, "--seed")


def _parse_hours(text, ranges: bool = True) -> tuple[int, ...]:
    """Whole hours: 'd', or the inclusive range 'a..b' if ``ranges``."""
    text = str(text)
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise ValueError(f"{text!r} is not a whole hour or an 'a..b' range") from None
    if lo < 0:
        raise ValueError(f"{text!r}: hours must be non-negative")
    if hi < lo:
        raise ValueError(f"empty hours range {text!r}")
    if hi > lo and not ranges:
        raise ValueError(f"{text!r} is a range of hours; only sweep takes one")
    if hi > sys.float_info.max:
        raise ValueError("an hour beyond the float range")
    return tuple(range(lo, hi + 1))


# Every config file key some command reads, with the rule that checks its
# value; a flag of the same meaning shares it.  The GenConfig and ModelConfig
# keys are those classes' own rules.  One file may serve every command, so a
# key that only another command reads is allowed; any other key is a usage
# error.
CONFIG_KEYS = {
    **GenConfig.RULES, **ModelConfig.RULES,
    # the experiment commands
    "hours": _parse_hours, "min_cascade_size": positive_int, "jobs": positive_int,
    "window_frac": interval(number, "(0, 1]"), "min_gap_days": interval(number, "[0, inf)"),
    "layout_iterations": positive_int,
}


@dataclasses.dataclass
class Run:
    """An experiment command's resolved parameters and, until its one build,
    its loaded dataset.

    ``build`` hands the dataset over: it passes its only references to the
    cascades and the social graph straight into ``build_samples``, which
    frees each story's cascades once that story's samples are built.  Only
    the samples and the stories stay resident while the command trains."""

    file_config: dict
    scope: str
    hours: tuple[int, ...]
    min_cascade_size: int
    jobs: int
    social: SocialGraph | None  # None once built
    stories: list[UrlStory]
    cascades: list[CascadeRecord] | None  # None once built
    model: ModelConfig

    @property
    def last_hour(self) -> float:
        """The diffusion cap of every command but ``sweep``."""
        return float(self.hours[-1])

    def _give_up(self, name: str):
        """The dataset part ``name``, to which this Run keeps no reference."""
        value = getattr(self, name)
        setattr(self, name, None)
        return value

    def build(self, hours: float | None = None, scope: str | None = None
              ) -> list[PreparedGraph]:
        """The command's samples, unmasked, at ``hours`` (default
        ``last_hour``) and in ``scope`` (default the Run's); training masks
        them to the model's groups.  The dataset goes to this build, so a
        Run builds once."""
        if self.cascades is None:
            raise RuntimeError("this Run's dataset went to its first build; "
                               "a command builds its samples once")
        # temporaries, not locals: a local would keep the dataset alive
        return build_samples(self.stories, self._give_up("cascades"), self._give_up("social"),
                             scope or self.scope,
                             hours=self.last_hour if hours is None else hours,
                             min_cascade_size=self.min_cascade_size)

    def echo(self, command: str, **fields) -> dict:
        """Config echo for report hashing; filesystem paths stay out so the
        hash depends only on the experiment parameters."""
        return {"command": command, "scope": self.scope, "hours": self.last_hour,
                "min_cascade_size": self.min_cascade_size,
                "model": dataclasses.asdict(self.model),
                "seed": self.model.seed, **fields}


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_run(config_path, seed, dataset_dir, scope, hours, min_cascade_size,
                 iterations, lr, groups, jobs, default_hours, ranges=False) -> Run:
    """Resolve every parameter, then load the dataset."""
    fc, seed = _config_and_seed(config_path, seed)
    scope = SCOPE_URL if scope == "url" else SCOPE_CASCADE
    model = ModelConfig(
        seed=seed,
        iterations=_resolve(iterations, fc, "iterations", DEFAULT_ITERATIONS[scope],
                            "--iterations"),
        learning_rate=_resolve(lr, fc, "learning_rate", 5e-4, "--lr"),
        active_groups=_resolve(groups, fc, "active_groups", default_active_groups(scope),
                               "--groups"))
    hours = _resolve(hours, fc, "hours", default_hours, "--hours",
                     functools.partial(_parse_hours, ranges=ranges))
    min_size = _resolve(min_cascade_size, fc, "min_cascade_size",
                        DEFAULT_MIN_CASCADE_SIZE if scope == SCOPE_CASCADE else 1,
                        "--min-cascade-size")
    jobs = _resolve(jobs, fc, "jobs", _usable_cpus(), "--jobs")
    social, stories, cascades = load_dataset(dataset_dir)
    return Run(fc, scope, hours, min_size, jobs, social, stories, cascades, model)


common_options = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON config file; explicit flags win."),
    click.option("--seed", type=int, default=None, help="Global seed."),
]


def add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@click.group()
def cli():
    """Propagation-based veracity classification pipeline."""


@cli.command()
@add_options(common_options)
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Dataset directory.")
@click.option("--urls", type=int, default=None, help="Number of URL stories.")
@click.option("--users", type=int, default=None, help="Number of users.")
@click.option("--mean-cascades", type=float, default=None, help="Mean cascades per URL.")
@click.option("--fake-fraction", type=float, default=None)
@click.option("--horizon-days", type=float, default=None)
def generate(config_path, seed, out_dir, urls, users, mean_cascades, fake_fraction,
             horizon_days):
    """Write a seeded synthetic dataset plus its statistics report."""
    fc, seed = _config_and_seed(config_path, seed, GenConfig.seed)
    flags = {"num_urls": (urls, "--urls"), "num_users": (users, "--users"),
             "mean_cascades_per_url": (mean_cascades, "--mean-cascades"),
             "fake_fraction": (fake_fraction, "--fake-fraction"),
             "time_horizon_days": (horizon_days, "--horizon-days")}
    settings = {}
    for name in GenConfig.RULES:
        value, flag = flags.get(name, (None, None))
        if name != "seed" and (value is not None or name in fc):
            settings[name] = _resolve(value, fc, name, None, flag)
    try:
        cfg = GenConfig(seed=seed, **settings)
        social = generate_social_graph(cfg)
        stories, cascades = generate_dataset(cfg, social)
    except ConfigError as exc:
        raise UsageFailure(str(exc))
    dataio.write_dataset(out_dir, social, stories, cascades)
    stats = summary_stats(stories, cascades)
    write_json_report(os.path.join(out_dir, "stats.json"),
                      {"stats": stats, "num_follows": len(social.follows)}, cfg)
    click.echo(f"wrote dataset to {out_dir}: {stats.num_urls} urls, "
               f"{stats.num_cascades} cascades, fake fraction "
               f"{stats.fake_fraction:.4f}")


experiment_options = common_options + [
    click.option("--dataset", "dataset_dir", type=click.Path(), required=True),
    click.option("--out", "out_dir", type=click.Path(), required=True),
    click.option("--scope", type=click.Choice(["url", "cascade"]), default="url"),
    click.option("--hours", default=None, help="Diffusion cap in hours (sweep: 'a..b')."),
    click.option("--min-cascade-size", type=int, default=None,
                 help=f"Cascade-wise eligibility threshold (default {DEFAULT_MIN_CASCADE_SIZE})."),
    click.option("--iterations", type=int, default=None),
    click.option("--lr", type=float, default=None),
    click.option("--groups", default=None,
                 help="Comma-separated active feature groups (default: per-scope policy)."),
    click.option("--jobs", type=int, default=None, help="Parallel fold workers."),
]


def experiment_command(name=None, default_hours="24", ranges=False):
    """Register an experiment command: it takes ``experiment_options`` and
    its own, and is called with the resolved ``Run``, ``out_dir`` and its
    own options.  Its ``--hours`` is one hour, or with ``ranges`` an 'a..b' range."""
    def register(fn):
        @functools.wraps(fn)
        def command(config_path, seed, dataset_dir, scope, hours, min_cascade_size,
                    iterations, lr, groups, jobs, **own):
            fn(_resolve_run(config_path, seed, dataset_dir, scope, hours, min_cascade_size,
                            iterations, lr, groups, jobs, default_hours, ranges), **own)
        return cli.command(name)(add_options(experiment_options)(command))
    return register


@experiment_command()
def cv(run: Run, out_dir):
    """Grouped 5-fold cross-validation; writes report.json and roc.csv."""
    samples = run.build()
    plan = make_folds(run.stories, seed=run.model.seed)
    result = cross_validate(samples, plan, run.model, jobs=run.jobs)
    echo = run.echo("cv")
    payload = {
        "n_samples": len(samples),
        "fold_aucs": result.fold_aucs,
        "fold_val_aucs": result.fold_val_aucs,
        "mean_auc": result.mean_auc,
        "std_auc": result.std_auc,
        "pooled_auc": result.pooled_auc,
        "fold_fake_fractions": fold_label_fractions(plan, run.stories),
    }
    write_json_report(os.path.join(out_dir, "report.json"), payload, echo)
    write_csv(os.path.join(out_dir, "roc.csv"), ["fpr", "tpr"],
              result.pooled_roc, echo)
    click.echo(f"cv {run.scope} at {run.last_hour}h: mean AUC {result.mean_auc:.4f} "
               f"± {result.std_auc:.4f} over {plan.k} folds")


@experiment_command(default_hours="0..24", ranges=True)
def sweep(run: Run, out_dir):
    """Diffusion-time sweep; writes auc_vs_hours.csv and report.json."""
    points = diffusion_sweep(run.build(hours=sweep_hours(run.hours)), run.stories, run.model,
                             d_values=run.hours, jobs=run.jobs)
    echo = run.echo("sweep", hours=run.hours)
    rows = [(p.hours, p.mean_auc, p.std_auc, p.coverage) for p in points]
    write_csv(os.path.join(out_dir, "auc_vs_hours.csv"),
              ["hours", "mean_auc", "std_auc", "coverage"], rows, echo)
    write_json_report(os.path.join(out_dir, "report.json"),
                      {"points": points}, echo)
    click.echo(f"sweep {run.scope}: {len(rows)} points, "
               f"AUC {rows[0][1]:.3f} -> {rows[-1][1]:.3f}")


@experiment_command()
@click.option("--window-frac", type=float, default=None)
@click.option("--min-gap-days", type=float, default=None)
def aging(run: Run, out_dir, window_frac, min_gap_days):
    """Train on the past, evaluate future windows; writes aging.csv."""
    wf = _resolve(window_frac, run.file_config, "window_frac", 0.25, "--window-frac")
    gap = _resolve(min_gap_days, run.file_config, "min_gap_days", 14.0, "--min-gap-days")
    result = aging_protocol(run.build(), run.stories, run.model, window_frac=wf,
                            min_gap_days=gap, jobs=run.jobs)
    echo = run.echo("aging", window_frac=wf, min_gap_days=gap)
    rows = [(w.start, w.stop, w.mean_date, w.days_from_train, w.iou_with_prev,
             w.auc_diffused, w.auc_source_only, w.auc_cv_reference)
            for w in result.windows]
    write_csv(os.path.join(out_dir, "aging.csv"),
              ["start", "stop", "mean_date", "days_from_train", "iou_with_prev",
               "auc_diffused", "auc_source_only", "auc_cv_reference"], rows, echo)
    write_json_report(os.path.join(out_dir, "report.json"),
                      {"windows": result.windows, "mean_iou": result.mean_iou,
                       "train_mean_date": result.train_mean_date}, echo)
    click.echo(f"aging {run.scope}: {len(rows)} windows, mean IoU "
               f"{result.mean_iou if result.mean_iou is not None else 'n/a'}")


@experiment_command()
def ablate(run: Run, out_dir):
    """Backward feature selection over the four groups; writes ablation.csv."""
    result = backward_feature_selection(run.build(), run.stories, run.model, run.jobs)
    echo = run.echo("ablate")
    rows = [(len(l.active_groups), "|".join(l.active_groups), l.val_auc, l.test_auc)
            for l in result.levels]
    write_csv(os.path.join(out_dir, "ablation.csv"),
              ["num_groups", "active_groups", "val_auc", "test_auc"], rows, echo)
    write_json_report(os.path.join(out_dir, "report.json"),
                      {"levels": result.levels, "removal_order": result.removal_order,
                       "importance_order": result.importance_order}, echo)
    click.echo("ablation importance (most to least): "
               + ", ".join(result.importance_order))


@experiment_command("train")
def train_cmd(run: Run, out_dir):
    """Train one model on fold round 0; writes checkpoint.json."""
    fold = evalharness._fold_round(run.build(), make_folds(run.stories, seed=run.model.seed),
                                   0, run.model)
    result, scores = train_and_score(fold.train, fold.val, fold.test, fold.config)
    test_auc = auc_or_none(scores, [s.label for s in fold.test])
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), result.params,
                    seed=run.model.seed,
                    meta={"scope": run.scope, "hours": run.last_hour,
                          "active_groups": list(run.model.active_groups)})
    write_json_report(os.path.join(out_dir, "report.json"), {
        "train_size": len(fold.train), "val_size": len(fold.val), "test_size": len(fold.test),
        "best_iteration": result.best_iteration,
        "best_val_auc": result.best_val_auc,
        "test_auc": test_auc,
        "final_loss_mean_100": float(np.mean(result.loss_trace[-100:])),
        "val_auc_trace": result.val_auc_trace,
    }, run.echo("train"))
    click.echo(f"trained {run.scope} at {run.last_hour}h: best val AUC "
               f"{result.best_val_auc if result.best_val_auc is not None else 'n/a'}, "
               f"test AUC {test_auc if test_auc is not None else 'n/a'}")


@experiment_command("export-embeddings")
@click.option("--checkpoint", "checkpoint_path", type=click.Path(), required=True)
def export_embeddings(run: Run, out_dir, checkpoint_path):
    """Per-user mean convolution embeddings + credibility; embeddings.csv."""
    if not os.path.isfile(checkpoint_path):
        raise DatasetNotFoundError(f"missing checkpoint: {checkpoint_path}")
    try:
        params, _ = load_checkpoint(checkpoint_path, run.model, scope=run.scope)
    except CheckpointError as exc:
        raise UsageFailure(str(exc))
    credibility = credibility_scores(run.stories, cascades_by_url(run.cascades))
    # one BLAS thread, as in training, so the digits do not depend on the core count
    with evalharness._one_blas_thread():
        embeddings = user_embeddings([prepare_graph(s, run.model.active_groups)
                                      for s in run.build(scope=SCOPE_URL)], params)
    echo = run.echo("export-embeddings")
    del echo["min_cascade_size"]  # the export builds url-wise graphs, whatever the scope
    header = ["user_id", "credibility"] + [f"e{k:02d}" for k in range(run.model.hidden)]
    rows = [(uid, credibility[uid], *embeddings[uid].tolist())
            for uid in sorted(embeddings) if uid in credibility]
    write_csv(os.path.join(out_dir, "embeddings.csv"), header, rows, echo)
    click.echo(f"exported {len(rows)} user embeddings")


@cli.command()
@add_options(common_options)
@click.option("--dataset", "dataset_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--iterations", type=int, default=None)
def layout(config_path, seed, dataset_dir, out_dir, iterations):
    """Force-directed social-graph layout with credibility; layout.csv."""
    fc, seed = _config_and_seed(config_path, seed)
    iters = _resolve(iterations, fc, "layout_iterations", 60, "--iterations")
    social, stories, cascades = load_dataset(dataset_dir)
    positions = fr_layout(social, iterations=iters, seed=seed)
    credibility = credibility_scores(stories, cascades_by_url(cascades))
    rows = [(uid, positions[uid][0], positions[uid][1], credibility.get(uid))
            for uid in sorted(positions)]
    write_csv(os.path.join(out_dir, "layout.csv"), ["user_id", "x", "y", "credibility"],
              rows, {"command": "layout", "iterations": iters, "seed": seed})
    click.echo(f"layout of {len(rows)} users written")


@cli.command()
@add_options(common_options)
@click.option("--dataset", "dataset_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), default=None)
@click.option("--mad-samples", type=int, default=None,
              help="Also compute MAD/MMD over this many URL and cascade samples.")
def stats(config_path, seed, dataset_dir, out_dir, mad_samples):
    """Dataset statistics report (cascade sizes, label ratio, coverage)."""
    _, seed = _config_and_seed(config_path, seed)
    if mad_samples is not None and (mad_samples < 0 or mad_samples == 1):
        raise UsageFailure(f"--mad-samples: must be 0 (skip) or at least 2, got {mad_samples}")
    social, stories, cascades = load_dataset(dataset_dir)
    if not cascades:
        raise ProtocolError("the dataset has no cascades to summarize")
    st = summary_stats(stories, cascades)
    payload = {"stats": st, "num_follows": len(social.follows)}
    if mad_samples:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 91)))
        by_url = cascades_by_url(cascades)
        multi = [c for c in cascades if c.size >= 2]
        for name, what, have in (("URL", "URLs with cascades", len(by_url)),
                                 ("cascade", "cascades of 2 or more tweets", len(multi))):
            if have < 2:
                raise ProtocolError(f"--mad-samples: the {name} samples need at least two "
                                    f"{what}, and the dataset has {have}")
        url_ids = sorted(by_url)
        pick_urls = [url_ids[i] for i in
                     rng.choice(len(url_ids), size=min(mad_samples, len(url_ids)),
                                replace=False)]
        url_samples = [sorted({t.author for c in by_url[u] for t in c.tweets})
                       for u in pick_urls]
        pick = rng.choice(len(multi), size=min(mad_samples, len(multi)), replace=False)
        cas_samples = [sorted({t.author for t in multi[i].tweets}) for i in pick]
        cap = estimate_diameter(social) + 1
        url_mm = mad_mmd(url_samples, social, unreachable_cap=cap)
        cas_mm = mad_mmd(cas_samples, social, unreachable_cap=cap)
        payload["mad_mmd"] = {"url": url_mm, "cascade": cas_mm}
    if out_dir:
        write_json_report(os.path.join(out_dir, "stats.json"), payload,
                          {"command": "stats", "seed": seed, "mad_samples": mad_samples})
    click.echo(f"urls={st.num_urls} cascades={st.num_cascades} "
               f"fake={st.fake_fraction:.4f} mean_size={st.mean_cascade_size:.3f} "
               f"coverage7h={st.coverage_by_hour[7.0]:.4f}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except UsageFailure as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except ProtocolError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except (OSError, DatasetFormatError) as exc:
        # DatasetNotFoundError is an OSError
        click.echo(f"error: {exc}", err=True)
        return 2
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3
    except BrokenProcessPool:
        click.echo("error: a fold worker process died before its round finished "
                   "(killed, or out of memory); rerun with a lower --jobs", err=True)
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
