"""Command-line interface: one executable, one subcommand per pipeline stage.

Parameters resolve as: explicit flag > JSON config file (--config) >
CASCADE_GNN_SEED (seed only) > built-in default.  Exit codes: 0 success,
1 usage error, 2 missing/unreadable dataset, 3 numeric failure.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys

import click
import numpy as np

from . import dataio
from .classifier import (CheckpointError, ModelConfig, fake_score, forward,
                         load_checkpoint, save_checkpoint, train, user_embeddings)
from .dataio import DatasetNotFoundError, cascades_by_url, load_dataset
from .evalharness import (DEFAULT_MIN_CASCADE_SIZE, aging_protocol,
                          backward_feature_selection, build_samples,
                          cross_validate, default_active_groups,
                          diffusion_sweep, estimate_diameter,
                          fold_label_fractions, fr_layout, mad_mmd, make_folds)
from .features import FEATURE_GROUPS, default_schema
from .metrics import roc_auc
from .optim import NumericError
from .propagation import build_propagation_graph, credibility_scores, truncate
from .reports import write_csv, write_json_report
from .synthgen import (GenConfig, generate_dataset, generate_social_graph,
                       summary_stats)
from .types import SCOPE_CASCADE, SCOPE_URL

SEED_ENV_VAR = "CASCADE_GNN_SEED"


class UsageFailure(click.ClickException):
    exit_code = 1


def _load_config_file(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageFailure("config file must hold a JSON object")
    return doc


def _resolve(flag_value, file_config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in file_config:
        return file_config[key]
    return default


def _resolve_seed(flag_value, file_config: dict, default: int) -> int:
    if flag_value is not None:
        return flag_value
    if "seed" in file_config:
        return int(file_config["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return default


def _parse_hours_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise UsageFailure(f"empty hours range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_groups(text):
    if text is None:
        return None
    groups = tuple(g.strip() for g in text.split(",") if g.strip())
    unknown = set(groups) - set(FEATURE_GROUPS)
    if unknown:
        raise UsageFailure(f"unknown feature groups: {sorted(unknown)}; "
                           f"choose from {', '.join(FEATURE_GROUPS)}")
    return groups


def _load_dataset_or_fail(dataset_dir):
    try:
        return load_dataset(dataset_dir)
    except DatasetNotFoundError:
        raise
    except FileNotFoundError as exc:
        raise DatasetNotFoundError(str(exc))


def _model_config(schema, file_config, scope, seed, iterations, lr, groups):
    iters_default = 25_000 if scope == SCOPE_URL else 50_000
    iterations = _resolve(iterations, file_config, "iterations", iters_default)
    lr = _resolve(lr, file_config, "learning_rate", 5e-4)
    groups = _parse_groups(groups) or tuple(
        file_config.get("active_groups", default_active_groups(scope)))
    return ModelConfig(schema=schema, learning_rate=float(lr),
                       iterations=int(iterations), seed=int(seed),
                       active_groups=groups)


def _experiment_echo(**kwargs):
    """Config echo for report hashing; filesystem paths stay out so the
    hash depends only on the experiment parameters."""
    echo = {}
    for key, value in sorted(kwargs.items()):
        if isinstance(value, ModelConfig):
            echo[key] = {f.name: getattr(value, f.name)
                         for f in dataclasses.fields(value) if f.name != "schema"}
        else:
            echo[key] = value
    return echo


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
    fc = _load_config_file(config_path)
    overrides = {
        "seed": _resolve_seed(seed, fc, GenConfig.seed),
        "num_urls": _resolve(urls, fc, "num_urls", GenConfig.num_urls),
        "num_users": _resolve(users, fc, "num_users", GenConfig.num_users),
        "mean_cascades_per_url": _resolve(mean_cascades, fc, "mean_cascades_per_url",
                                          GenConfig.mean_cascades_per_url),
        "fake_fraction": _resolve(fake_fraction, fc, "fake_fraction", GenConfig.fake_fraction),
        "time_horizon_days": _resolve(horizon_days, fc, "time_horizon_days",
                                      GenConfig.time_horizon_days),
    }
    gen_fields = {f.name for f in dataclasses.fields(GenConfig)}
    for key, value in fc.items():
        if key in gen_fields and key not in overrides:
            overrides[key] = value
    try:
        cfg = GenConfig(**{k: v for k, v in overrides.items()})
    except (TypeError, ValueError) as exc:
        raise UsageFailure(str(exc))
    social = generate_social_graph(cfg)
    stories, cascades = generate_dataset(cfg, social)
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


def _experiment_setup(config_path, seed, dataset_dir, scope, hours, min_cascade_size,
                      iterations, lr, groups, jobs, default_hours="24"):
    fc = _load_config_file(config_path)
    scope = SCOPE_URL if scope == "url" else SCOPE_CASCADE
    seed = _resolve_seed(seed, fc, 0)
    hours = str(_resolve(hours, fc, "hours", default_hours))
    min_size = int(_resolve(min_cascade_size, fc, "min_cascade_size",
                            DEFAULT_MIN_CASCADE_SIZE if scope == SCOPE_CASCADE else 1))
    jobs = int(_resolve(jobs, fc, "jobs", os.cpu_count() or 1))
    social, stories, cascades = _load_dataset_or_fail(dataset_dir)
    schema = default_schema()
    mc = _model_config(schema, fc, scope, seed, iterations, lr, groups)
    return fc, scope, hours, min_size, jobs, social, stories, cascades, schema, mc


@cli.command()
@add_options(experiment_options)
def cv(config_path, seed, dataset_dir, out_dir, scope, hours, min_cascade_size,
       iterations, lr, groups, jobs):
    """Grouped 5-fold cross-validation; writes report.json and roc.csv."""
    (fc, scope, hours, min_size, jobs, social, stories, cascades,
     schema, mc) = _experiment_setup(config_path, seed, dataset_dir, scope, hours,
                                     min_cascade_size, iterations, lr, groups, jobs)
    d = float(_parse_hours_range(hours)[-1])
    samples = build_samples(stories, cascades, social, schema, scope, hours=d,
                            min_cascade_size=min_size, active_groups=mc.active_groups)
    plan = make_folds(stories, seed=mc.seed)
    result = cross_validate(samples, plan, mc, jobs=jobs)
    echo = _experiment_echo(command="cv", scope=scope, hours=d, min_cascade_size=min_size,
                            model=mc, seed=mc.seed)
    payload = {
        "n_samples": len(samples),
        "fold_aucs": result.fold_aucs,
        "fold_val_aucs": result.fold_val_aucs,
        "mean_auc": result.mean_auc,
        "std_auc": result.std_auc,
        "pooled_auc": result.pooled_auc,
        "fold_fake_fractions": fold_label_fractions(plan, stories),
    }
    write_json_report(os.path.join(out_dir, "report.json"), payload, echo)
    write_csv(os.path.join(out_dir, "roc.csv"), ["fpr", "tpr"],
              result.pooled_roc, echo)
    click.echo(f"cv {scope} at {d}h: mean AUC {result.mean_auc:.4f} "
               f"± {result.std_auc:.4f} over {plan.k} folds")


@cli.command()
@add_options(experiment_options)
def sweep(config_path, seed, dataset_dir, out_dir, scope, hours, min_cascade_size,
          iterations, lr, groups, jobs):
    """Diffusion-time sweep; writes auc_vs_hours.csv and report.json."""
    (fc, scope, hours, min_size, jobs, social, stories, cascades,
     schema, mc) = _experiment_setup(config_path, seed, dataset_dir, scope, hours,
                                     min_cascade_size, iterations, lr, groups, jobs,
                                     default_hours="0..24")
    d_values = _parse_hours_range(hours)
    result = diffusion_sweep(stories, cascades, social, schema, mc, scope,
                             d_values=d_values, min_cascade_size=min_size,
                             jobs=jobs, active_groups=mc.active_groups)
    echo = _experiment_echo(command="sweep", scope=scope, hours=d_values,
                            min_cascade_size=min_size, model=mc, seed=mc.seed)
    rows = [(p.hours, p.mean_auc, p.std_auc, p.coverage) for p in result.points]
    write_csv(os.path.join(out_dir, "auc_vs_hours.csv"),
              ["hours", "mean_auc", "std_auc", "coverage"], rows, echo)
    write_json_report(os.path.join(out_dir, "report.json"),
                      {"points": result.points}, echo)
    click.echo(f"sweep {scope}: {len(rows)} points, "
               f"AUC {rows[0][1]:.3f} -> {rows[-1][1]:.3f}")


@cli.command()
@add_options(experiment_options)
@click.option("--window-frac", type=float, default=None)
@click.option("--min-gap-days", type=float, default=None)
def aging(config_path, seed, dataset_dir, out_dir, scope, hours, min_cascade_size,
          iterations, lr, groups, jobs, window_frac, min_gap_days):
    """Train on the past, evaluate future windows; writes aging.csv."""
    (fc, scope, hours, min_size, jobs, social, stories, cascades,
     schema, mc) = _experiment_setup(config_path, seed, dataset_dir, scope, hours,
                                     min_cascade_size, iterations, lr, groups, jobs)
    d = float(_parse_hours_range(hours)[-1])
    wf = float(_resolve(window_frac, fc, "window_frac", 0.25))
    gap = float(_resolve(min_gap_days, fc, "min_gap_days", 14.0))
    result = aging_protocol(stories, cascades, social, schema, mc, scope, hours=d,
                            min_cascade_size=min_size, window_frac=wf,
                            min_gap_days=gap, jobs=jobs,
                            active_groups=mc.active_groups)
    echo = _experiment_echo(command="aging", scope=scope, hours=d,
                            min_cascade_size=min_size, window_frac=wf,
                            min_gap_days=gap, model=mc, seed=mc.seed)
    rows = [(w.start, w.stop, w.mean_date, w.days_from_train, w.iou_with_prev,
             w.auc_diffused, w.auc_source_only, w.auc_cv_reference)
            for w in result.windows]
    write_csv(os.path.join(out_dir, "aging.csv"),
              ["start", "stop", "mean_date", "days_from_train", "iou_with_prev",
               "auc_diffused", "auc_source_only", "auc_cv_reference"], rows, echo)
    write_json_report(os.path.join(out_dir, "report.json"),
                      {"windows": result.windows, "mean_iou": result.mean_iou,
                       "train_mean_date": result.train_mean_date}, echo)
    click.echo(f"aging {scope}: {len(rows)} windows, mean IoU "
               f"{result.mean_iou if result.mean_iou is not None else 'n/a'}")


@cli.command()
@add_options(experiment_options)
def ablate(config_path, seed, dataset_dir, out_dir, scope, hours, min_cascade_size,
           iterations, lr, groups, jobs):
    """Backward feature selection over the four groups; writes ablation.csv."""
    (fc, scope, hours, min_size, jobs, social, stories, cascades,
     schema, mc) = _experiment_setup(config_path, seed, dataset_dir, scope, hours,
                                     min_cascade_size, iterations, lr, groups, jobs)
    d = float(_parse_hours_range(hours)[-1])
    result = backward_feature_selection(stories, cascades, social, schema, mc,
                                        scope, hours=d, min_cascade_size=min_size)
    echo = _experiment_echo(command="ablate", scope=scope, hours=d,
                            min_cascade_size=min_size, model=mc, seed=mc.seed)
    rows = [(len(l.active_groups), "|".join(l.active_groups), l.val_auc, l.test_auc)
            for l in result.levels]
    write_csv(os.path.join(out_dir, "ablation.csv"),
              ["num_groups", "active_groups", "val_auc", "test_auc"], rows, echo)
    write_json_report(os.path.join(out_dir, "report.json"),
                      {"levels": result.levels, "removal_order": result.removal_order,
                       "importance_order": result.importance_order}, echo)
    click.echo("ablation importance (most to least): "
               + ", ".join(result.importance_order))


@cli.command("train")
@add_options(experiment_options)
def train_cmd(config_path, seed, dataset_dir, out_dir, scope, hours, min_cascade_size,
              iterations, lr, groups, jobs):
    """Train one model on fold round 0; writes checkpoint.json."""
    (fc, scope, hours, min_size, jobs, social, stories, cascades,
     schema, mc) = _experiment_setup(config_path, seed, dataset_dir, scope, hours,
                                     min_cascade_size, iterations, lr, groups, jobs)
    d = float(_parse_hours_range(hours)[-1])
    samples = build_samples(stories, cascades, social, schema, scope, hours=d,
                            min_cascade_size=min_size, active_groups=mc.active_groups)
    plan = make_folds(stories, seed=mc.seed)
    train_ids, val_ids, test_ids = plan.round(0)
    tr = [s for s in samples if s.url_id in train_ids]
    va = [s for s in samples if s.url_id in val_ids]
    te = [s for s in samples if s.url_id in test_ids]
    result = train(tr, va, mc)
    test_auc = None
    if len({s.label for s in te}) == 2:
        scores = [fake_score(forward(s, result.params)[0]) for s in te]
        test_auc = roc_auc(scores, [s.label for s in te])[1]
    echo = _experiment_echo(command="train", scope=scope, hours=d,
                            min_cascade_size=min_size, model=mc, seed=mc.seed)
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), result.params,
                    result.opt_state, seed=mc.seed,
                    meta={"scope": scope, "hours": d})
    write_json_report(os.path.join(out_dir, "report.json"), {
        "train_size": len(tr), "val_size": len(va), "test_size": len(te),
        "best_iteration": result.best_iteration,
        "best_val_auc": result.best_val_auc,
        "test_auc": test_auc,
        "final_loss_mean_100": float(np.mean(result.loss_trace[-100:])),
        "val_auc_trace": result.val_auc_trace,
    }, echo)
    click.echo(f"trained {scope} at {d}h: best val AUC "
               f"{result.best_val_auc if result.best_val_auc is not None else 'n/a'}, "
               f"test AUC {test_auc if test_auc is not None else 'n/a'}")


@cli.command("export-embeddings")
@add_options(experiment_options)
@click.option("--checkpoint", "checkpoint_path", type=click.Path(), required=True)
def export_embeddings(config_path, seed, dataset_dir, out_dir, scope, hours,
                      min_cascade_size, iterations, lr, groups, jobs, checkpoint_path):
    """Per-user mean convolution embeddings + credibility; embeddings.csv."""
    (fc, scope, hours, min_size, jobs, social, stories, cascades,
     schema, mc) = _experiment_setup(config_path, seed, dataset_dir, scope, hours,
                                     min_cascade_size, iterations, lr, groups, jobs)
    d = float(_parse_hours_range(hours)[-1])
    if not os.path.isfile(checkpoint_path):
        raise DatasetNotFoundError(f"missing checkpoint: {checkpoint_path}")
    try:
        params, _, _ = load_checkpoint(checkpoint_path, mc, scope=scope)
    except CheckpointError as exc:
        raise UsageFailure(str(exc))
    by_url = cascades_by_url(cascades)
    graphs = []
    for story in sorted(stories, key=lambda s: s.url_id):
        full = sorted(by_url.get(story.url_id, []), key=lambda c: c.cascade_id)
        if not full:
            continue
        kept = truncate(full, d, reference="story")
        if kept:
            graphs.append(build_propagation_graph(story, kept, social, SCOPE_URL,
                                                  schema, diffusion_window_hours=d))
    embeddings = user_embeddings(graphs, params, schema, mc.active_groups)
    credibility = credibility_scores(stories, by_url)
    echo = _experiment_echo(command="export-embeddings", scope=scope, hours=d,
                            model=mc, seed=mc.seed)
    header = ["user_id", "credibility"] + [f"e{k:02d}" for k in range(mc.hidden)]
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
    fc = _load_config_file(config_path)
    seed = _resolve_seed(seed, fc, 0)
    iters = int(_resolve(iterations, fc, "layout_iterations", 60))
    social, stories, cascades = _load_dataset_or_fail(dataset_dir)
    positions = fr_layout(social, iterations=iters, seed=seed)
    credibility = credibility_scores(stories, cascades_by_url(cascades))
    echo = _experiment_echo(command="layout", iterations=iters, seed=seed)
    rows = [(uid, positions[uid][0], positions[uid][1], credibility.get(uid))
            for uid in sorted(positions)]
    write_csv(os.path.join(out_dir, "layout.csv"),
              ["user_id", "x", "y", "credibility"], rows, echo)
    click.echo(f"layout of {len(rows)} users written")


@cli.command()
@add_options(common_options)
@click.option("--dataset", "dataset_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), default=None)
@click.option("--mad-samples", type=int, default=None,
              help="Also compute MAD/MMD over this many URL and cascade samples.")
def stats(config_path, seed, dataset_dir, out_dir, mad_samples):
    """Dataset statistics report (cascade sizes, label ratio, coverage)."""
    fc = _load_config_file(config_path)
    seed = _resolve_seed(seed, fc, 0)
    social, stories, cascades = _load_dataset_or_fail(dataset_dir)
    st = summary_stats(stories, cascades)
    payload = {"stats": st, "num_follows": len(social.follows)}
    if mad_samples:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 91)))
        by_url = cascades_by_url(cascades)
        url_ids = sorted(by_url)
        pick_urls = [url_ids[i] for i in
                     rng.choice(len(url_ids), size=min(mad_samples, len(url_ids)),
                                replace=False)]
        url_samples = [sorted({t.author for c in by_url[u] for t in c.tweets})
                       for u in pick_urls]
        multi = [c for c in cascades if c.size >= 2]
        pick = rng.choice(len(multi), size=min(mad_samples, len(multi)), replace=False)
        cas_samples = [sorted({t.author for t in multi[i].tweets}) for i in pick]
        cap = estimate_diameter(social) + 1
        url_mm = mad_mmd(url_samples, social, unreachable_cap=cap)
        cas_mm = mad_mmd(cas_samples, social, unreachable_cap=cap)
        payload["mad_mmd"] = {"url": url_mm, "cascade": cas_mm}
    echo = _experiment_echo(command="stats", seed=seed, mad_samples=mad_samples)
    if out_dir:
        write_json_report(os.path.join(out_dir, "stats.json"), payload, echo)
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
    except DatasetNotFoundError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3


def entrypoint():
    sys.exit(main())
