"""The cascade-gnn benchmark: times the CLI as users run it.

    python3 perfbench/run.py --workload cv-url --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json
    python3 perfbench/selfcheck.py             # tiny structure check

Run from the root of a source checkout; the package need not be installed.
One run of a workload:

1. generates the benchmark's world with ``cascade-gnn generate`` (the
   set-up, repeated ``SETUP_REPEATS`` times; every copy must be
   byte-identical);
2. runs the workload's command once for each of its fixed experiment
   seeds, each time in a fresh child process started from this one
   process, and then again for each seed (at least ``PASSES`` passes, more
   only if they fit in ``--seconds``); it checks every output, and every
   rerun must write byte-identical reports;
3. prints every metric by name with its unit, and as its last line one
   JSON object: ``correct``, ``attempted`` and ``failed`` count commands
   (``failed / attempted`` is the fail ratio), ``metrics`` holds the
   end-to-end metrics with ``--trace 0`` and the per-layer split with
   ``--trace 1``.

Every run does the same work: the world and the experiment seeds are
fixed, and ``--seed`` only sets the order in which the seeds run.  The
seeds sample different graphs from a heavy-tailed world, so letting
``--seed`` pick them would make the work itself vary from run to run.

The traced run (``--trace 1``) generates the world once through
``traced.py``, then runs the command once untraced and once traced with the
same argv and the workload's first seed; the difference of their wall
clocks is ``trace.overhead_s``.  A record of every run (environment,
commands, checks, per-layer notes) is written to ``.bench_run/``.
"""
from __future__ import annotations

import argparse
import ctypes
import filecmp
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, Trace, per_layer  # noqa: E402

RUN_SECONDS = 25
SETUP_REPEATS = 3        # set-up runs per untraced run; setup_s is their median
PASSES = 2               # passes over the seeds per untraced run; the second reruns
RUN_DEADLINE_S = 170     # no command starts, or keeps running, past this point of a run
COMMAND_TIMEOUT_S = 150  # and none runs longer than this
CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "CASCADE_GNN_SEED")
CLI_BOOT = "import sys; from cascade_gnn.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass(frozen=True)
class World:
    """Arguments of ``cascade-gnn generate``."""

    urls: int
    users: int
    mean_cascades: float
    seed: int = 42   # the generator's default seed

    def argv(self, out: Path) -> list[str]:
        return ["generate", "--seed", str(self.seed), "--out", str(out),
                "--urls", str(self.urls), "--users", str(self.users),
                "--mean-cascades", str(self.mean_cascades)]


# One world for every workload, the same on every run.  The generator's work
# is heavy-tailed: cascades per URL are lognormal and cascade sizes a power
# law up to 120 tweets.  At the sizes a run allows, generator seeds 1-8 of a
# 60-URL world gave 654-927 cascades, and the sum of squared story sizes (the
# url-wise build and message cost) varied by an interquartile range of ~40%
# of its median, which would swamp any regression bound.
#
# The world is far below the generator's default (300 URLs, 10k users): that
# world takes ~30 s to generate on 2 cores, and a run, three set-ups
# included, has about 40 s.  It keeps many cascades per URL, so url-wise
# graphs stay large (679 cascades; story graphs of median 12, mean 31 and at
# most 188 nodes; 1,500 users and ~18k follows).
WORLD = World(urls=60, users=1500, mean_cascades=12.0)
TINY = World(urls=20, users=300, mean_cascades=8.0)   # self-check only


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]        # CLI arguments after --dataset/--out/--seed
    tiny_args: tuple[str, ...]   # the same command at self-check size
    reports: tuple[str, ...]     # files the command must write
    seeds: tuple[int, ...]       # the fixed experiment seeds of every run
    # Every command's AUC must reach the floor, which sits below the lowest
    # per-seed AUC measured at the seed commit (see each workload).
    auc_floor: float


# Which layers each workload loads and which it bypasses.  Seed figures
# were measured on 2 cores at the generator's default world unless noted.
#
# cv-cascade (cascade-wise CV, jobs 1: many small graphs, where per-op tape
# overhead and the fixed ~1 ms AMSGrad update dominate) is left out: at the
# iterations a run fits, its AUC moved by 17% of its median between seeds
# (0.63-0.89 per model), and it exercises the same layers as cv-url.
WORKLOADS = {w.name: w for w in [
    # cv-url: url-wise graphs have a long tail of sizes (at the default world
    # up to 577 nodes and 10,357 messages), so the training step's
    # per-element work dominates: the 633x64 GC1 matmul and the np.add.at
    # scatters in nn/autograd.  One graph build (build_samples once), --jobs
    # 1: no pool, no fold dispatch.  Seed: 500 iterations took 18.7-22.0 s,
    # peak RSS ~410 MB, AUC 0.9543; traced, load 5.0 s, build 3.3 s, forward
    # 7.6 s, backward 6.9 s, AMSGrad 2.8 s.  Here, on 2 cores at the seed
    # commit: ~4.7 s a command; AUCs 0.97, 0.91 and 0.86 for seeds 1-3;
    # traced, training 3.4 s, of which GAT layers 1.0 s, head 0.3 s,
    # backward 1.3 s and AMSGrad 0.7 s.
    Workload("cv-url", "url-wise CV, jobs 1: large graphs, per-element GAT work dominates",
             ("cv", "--scope", "url", "--hours", "24", "--jobs", "1", "--iterations", "150"),
             ("cv", "--scope", "url", "--hours", "24", "--jobs", "1", "--iterations", "4"),
             ("report.json", "roc.csv"), (1, 2, 3), 0.75),
    # sweep-url: one graph build per hour plus the 24 h base and one process
    # pool per hour that pickles every fold's samples to the workers; each
    # model is scored on validation and test sets.  It runs at the CLI
    # default jobs (= cpu count) with BLAS threads left at their default, so
    # the oversubscription defect shows.  At the seed, 100 URLs/3.5k users,
    # hours 0..24 and 20 iterations took 60.7-67.7 s at jobs 2 against
    # 32.2 s at jobs 1 (42.5 s at jobs 2 with one BLAS thread per process).
    # This workload's command, on 2 cores at the seed commit (2 runs each,
    # seeds 1 / 2): 7.0-7.3 / 8.1-8.4 s at the default jobs 2, 4.4-4.6 /
    # 5.2-6.0 s at --jobs 1, 3.7-4.1 / 4.1-6.0 s at jobs 2 with
    # OPENBLAS_NUM_THREADS=1.  Late hours are used because their graphs are
    # large enough for OpenBLAS to thread the matmuls and for the payloads
    # (79 MB a command) to weigh; at hours 0..5 and 30 iterations, jobs 2
    # was no slower than jobs 1.  60 iterations keep the AUC a real guard:
    # 0.84 and 0.73 (mean over the hours) for seeds 1 and 2, where 30
    # iterations gave 0.53 for one seed.  cv-url (one build, jobs 1)
    # bypasses all of this.
    Workload("sweep-url", "url-wise sweep, hours 23..24, default jobs: a build and a process pool per hour",
             ("sweep", "--scope", "url", "--hours", "23..24", "--iterations", "60"),
             ("sweep", "--scope", "url", "--hours", "22..24", "--iterations", "2"),
             ("report.json", "auc_vs_hours.csv"), (1, 2), 0.65),
    # layout: ``cascade-gnn layout`` runs fr_layout, the only dense O(n^2)
    # kernel, on the follow graph of 1,500 users, after a dataset load; no
    # propagation graphs, no training.  No other workload calls it, and
    # ROADMAP item 1 names it a first target.  Seed: ~0.9 s an iteration at
    # 3.5k users, ~9.6 s at 10k.  Here, on 2 cores at the seed commit:
    # ~3.8 s a command, of which fr_layout 2.2 s.  Its auc is the share of
    # (follow edge, random non-adjacent pair) pairs in which the edge is
    # drawn shorter; 0.5 is a layout that ignores the graph.  0.739, 0.732
    # and 0.739 for seeds 1-3.
    Workload("layout", "force-directed layout of the follow graph: the dense O(n^2) kernel only",
             ("layout", "--iterations", "10"),
             ("layout", "--iterations", "2"),
             ("layout.csv",), (1, 2, 3), 0.65),
]}

# (name, unit, better, bound).  fail_ratio is not among them: it is 0 on a
# good run, so it is reported as the result line's failed / attempted.  The
# auc of a run is deterministic (fixed seeds), so its bound only has to
# allow summation-order changes.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("auc", "auc", "higher", 0.1),
]


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u, _ in PER_LAYER],
    }


# -- child processes ------------------------------------------------------------

def _become_subreaper() -> None:
    """Orphaned fold workers of a killed command are re-parented to this
    process, so it can wait for them (Linux only; elsewhere a no-op)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    rc: int | None
    wall_s: float
    maxrss_mb: float
    cpu_s: float      # user + system time of the child and the workers it reaped
    timed_out: bool


def run_child(argv: list[str], log: Path, timeout: float) -> Outcome:
    """Run one child to completion; its rusage covers the fold workers it reaped."""
    fired = threading.Event()

    def kill():
        fired.set()
        _kill_group(proc.pid)

    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        finally:
            timer.cancel()
            _kill_group(proc.pid)  # the command's leftovers, or all of it if interrupted
            _reap_all()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(None if fired.is_set() else proc.returncode, wall,
                   usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, fired.is_set())


def _reap_all() -> None:
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_BOOT, *args]


def traced_argv(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), str(spans), *args]


# -- output checks ----------------------------------------------------------------

def _hash_of(path: Path) -> str | None:
    with open(path, "r", encoding="utf-8") as fh:
        if path.suffix == ".json":
            value = json.load(fh).get("config_hash")
        else:
            first = fh.readline().strip()
            value = first[len("# config_hash="):] if first.startswith("# config_hash=") else None
    if isinstance(value, str) and len(value) == 16 and all(c in "0123456789abcdef" for c in value):
        return value
    return None


def check_reports(out: Path, files) -> list[str]:
    problems = []
    for name in files:
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        try:
            if _hash_of(path) is None:
                problems.append(f"{name} carries no config_hash")
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{name} does not parse: {exc}")
    return problems


def same_files(a: Path, b: Path, files) -> list[str]:
    return [f"{name} differs from the first run" for name in files
            if not (a / name).is_file() or not (b / name).is_file()
            or not filecmp.cmp(a / name, b / name, shallow=False)]


def world_files(world: Path) -> list[str]:
    return sorted(p.name for p in world.iterdir() if p.is_file())


def rank_auc(positive: list[float], negative: list[float]) -> float:
    """P(a positive scores above a negative), ties counted half."""
    scored = sorted([(s, 1) for s in positive] + [(s, 0) for s in negative])
    rank_sum, i = 0.0, 0
    while i < len(scored):
        j = i
        while j < len(scored) and scored[j][0] == scored[i][0]:
            j += 1
        mid_rank = (i + 1 + j) / 2.0
        rank_sum += mid_rank * sum(label for _, label in scored[i:j])
        i = j
    n_pos, n_neg = len(positive), len(negative)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def layout_auc(world: Path, out: Path) -> tuple[float | None, list[str]]:
    """Check layout.csv (one finite row per user) and score it: the share of
    (follow edge, random non-adjacent pair) pairs whose edge is shorter."""
    with open(world / "users.jsonl", "r", encoding="utf-8") as fh:
        users = {json.loads(line)["user_id"] for line in fh if line.strip()}
    pos, problems = {}, []
    with open(out / "layout.csv", "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()[2:]   # config_hash line, header
    for line in lines:
        uid, x, y, _ = line.split(",")
        xy = (float(x), float(y))
        if uid in pos or not all(math.isfinite(v) for v in xy):
            problems.append(f"layout.csv row for {uid} is repeated or not finite")
        pos[uid] = xy
    if set(pos) != users or len(lines) != len(users):
        problems.append(f"layout.csv has {len(lines)} rows for {len(users)} users")
    if problems:
        return None, problems[:5]
    with open(world / "follows.csv", "r", encoding="utf-8") as fh:
        edges = {tuple(sorted(line.split(","))) for line in fh.read().splitlines()[1:]}
    edges.difference_update((a, b) for a, b in list(edges) if a == b)
    ids, rng, others = sorted(pos), random.Random(0), []
    while len(others) < 4 * len(edges):
        pair = tuple(sorted(rng.sample(ids, 2)))
        if pair not in edges:
            others.append(pair)
    return rank_auc([-math.dist(pos[a], pos[b]) for a, b in sorted(edges)],
                    [-math.dist(pos[a], pos[b]) for a, b in others]), []


def read_auc(workload: Workload, world: Path, out: Path) -> tuple[float | None, list[str]]:
    if workload.args[0] == "layout":
        return layout_auc(world, out)
    with open(out / "report.json", "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if workload.args[0] == "sweep":
        return statistics.fmean(p["mean_auc"] for p in report["points"]), []
    return float(report["mean_auc"]), []


# -- runs -------------------------------------------------------------------------

class Run:
    """Commands attempted in one benchmark run, with every failed check."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, tiny: bool, deadline: float):
        self.workload, self.seed, self.tmp, self.tiny = workload, seed, tmp, tiny
        self.deadline = deadline
        self.world_spec = TINY if tiny else WORLD
        self.commands: list[dict] = []

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c["problems"])

    def time_left(self) -> float:
        return self.deadline - perf_counter()

    def command(self, label: str, argv: list[str]) -> Outcome:
        shown = argv[3:] if argv[1] == "-c" else argv[1:]
        if self.time_left() < 1.0:
            self.commands.append({"label": label, "argv": shown, "wall_s": 0.0, "maxrss_mb": 0.0,
                                  "problems": [f"not started: past the run's {RUN_DEADLINE_S} s"]})
            return Outcome(None, 0.0, 0.0, 0.0, False)
        timeout = min(COMMAND_TIMEOUT_S, self.time_left())
        result = run_child(argv, self.tmp / f"{label}.log", timeout)
        problems = []
        if result.timed_out:
            problems.append(f"killed after {timeout:.0f} s")
        elif result.rc != 0:
            tail = (self.tmp / f"{label}.log").read_text(errors="replace")[-400:]
            problems.append(f"exit code {result.rc}: {tail}")
        self.commands.append({"label": label, "argv": shown, "wall_s": result.wall_s,
                              "cpu_s": result.cpu_s, "maxrss_mb": result.maxrss_mb,
                              "problems": problems})
        return result

    def problem(self, *problems: str) -> None:
        self.commands[-1]["problems"].extend(problems)

    def ok(self) -> bool:
        return not self.commands[-1]["problems"]

    def generate(self, label: str, argv_for) -> Outcome:
        world = self.tmp / label
        result = self.command(label, argv_for(self.world_spec.argv(world)))
        if self.ok():
            self.problem(*check_reports(world, ["stats.json"]))
        return result

    def experiment(self, label: str, world: Path, argv_for, seed: int,
                   first: Path | None) -> Outcome:
        out = self.tmp / label
        args = self.workload.tiny_args if self.tiny else self.workload.args
        argv = [args[0], "--dataset", str(world), "--out", str(out), "--seed", str(seed),
                *args[1:]]
        result = self.command(label, argv_for(argv))
        if not self.ok():
            return result
        self.problem(*check_reports(out, self.workload.reports))
        if not self.ok():
            return result
        auc, problems = read_auc(self.workload, world, out)
        self.problem(*problems)
        if auc is None:
            return result
        self.commands[-1]["auc"] = auc
        floor = 0.0 if self.tiny else self.workload.auc_floor
        if not auc >= floor:
            self.problem(f"auc {auc:.4f} below the floor {floor}")
        if first is not None:
            self.problem(*same_files(first, out, self.workload.reports))
        return result


def seed_order(run: Run) -> list[int]:
    """The workload's fixed seeds, rotated by the run's --seed."""
    seeds = list(run.workload.seeds[:1] if run.tiny else run.workload.seeds)
    k = run.seed % len(seeds)
    return seeds[k:] + seeds[:k]


def untraced(run: Run, seconds: float) -> dict[str, float | None]:
    setup = []
    for k in range(1 if run.tiny else SETUP_REPEATS):
        result = run.generate(f"world{k}", cli_argv)
        if run.ok():
            setup.append(result.wall_s)
        if k and run.ok():
            first, this = run.tmp / "world0", run.tmp / f"world{k}"
            run.problem(*same_files(first, this, world_files(first)))
            shutil.rmtree(this)
    world = run.tmp / "world0"
    if run.failed:
        return {}

    # Whole passes over the seeds, so every seed runs equally often; every
    # pass after the first reruns each seed, which must repeat its first
    # output byte for byte.
    seeds = seed_order(run)
    walls, rss, aucs, first = [], [], {}, {}
    start, passes = perf_counter(), 0
    while True:
        for seed in seeds:
            label = f"run{len(run.commands)}"
            result = run.experiment(label, world, cli_argv, seed, first.get(seed))
            if run.ok():
                walls.append(result.wall_s)
                rss.append(result.maxrss_mb)
            if seed in first:
                shutil.rmtree(run.tmp / label, ignore_errors=True)
            else:
                first[seed] = run.tmp / label
                if run.ok():
                    aucs[seed] = run.commands[-1]["auc"]
        passes += 1
        elapsed = perf_counter() - start
        if run.time_left() < 1.0 or (passes >= PASSES
                                     and elapsed * (passes + 1) / passes > seconds):
            break
    return {
        "setup_s": statistics.median(setup) if setup else None,
        "run_s": statistics.median(walls) if walls else None,
        "peak_rss_mb": statistics.median(rss) if rss else None,
        "auc": statistics.fmean(aucs.values()) if len(aucs) == len(seeds) else None,
    }


def traced(run: Run) -> dict[str, tuple[float | None, str]]:
    gen_spans = run.tmp / "spans-generate.jsonl"
    run.generate("world0", lambda argv: traced_argv(gen_spans, argv))
    world = run.tmp / "world0"
    if run.failed:
        return {}
    written = sum((world / name).stat().st_size for name in world_files(world)
                  if name != "stats.json")
    seed = seed_order(run)[0]
    plain = run.experiment("plain", world, cli_argv, seed, None)
    cmd_spans = run.tmp / "spans-command.jsonl"
    result = run.experiment("traced", world, lambda argv: traced_argv(cmd_spans, argv), seed,
                            run.tmp / "plain")
    if run.failed:
        return {}
    return per_layer(Trace.load(str(gen_spans)), Trace.load(str(cmd_spans)), written,
                     result.wall_s, plain.wall_s)


# -- environment record ---------------------------------------------------------------

ENV_PROBE = r"""
import ctypes, glob, json, os, platform
import numpy as np
blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
threads = None
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads_per_process": threads}))
"""


def environment(workload: Workload, tiny: bool) -> dict:
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=30)
    env = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr[-300:]}
    args = workload.tiny_args if tiny else workload.args
    jobs = args[args.index("--jobs") + 1] if "--jobs" in args else f"default ({os.cpu_count()})"
    env.update({"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                "jobs": jobs if args[0] != "layout" else "n/a"})
    return env


# -- main -----------------------------------------------------------------------------

def main(argv=None) -> int:
    deadline = perf_counter() + RUN_DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check size: a tiny world and a few iterations")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this file's tables and exit")
    opts = parser.parse_args(argv)
    if opts.write_spec:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if opts.workload is None:
        parser.error("--workload is required")
    if not (SRC / "cascade_gnn" / "cli.py").is_file():
        print(f"error: no cascade_gnn package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    _become_subreaper()
    # SIGTERM unwinds like Ctrl-C, so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[opts.workload]
    WORK.mkdir(exist_ok=True)
    env = environment(workload, opts.tiny)
    print(f"# workload {workload.name}, seed {opts.seed}, trace {opts.trace}"
          f"{', tiny' if opts.tiny else ''}: {workload.why}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        run = Run(workload, opts.seed, tmp, opts.tiny, deadline)
        if opts.trace:
            layer = traced(run)
            metrics = {name: {"value": layer.get(name, (None, ""))[0], "unit": unit}
                       for name, unit, _ in PER_LAYER}
            notes = {name: note for name, (_, note) in layer.items() if note}
        else:
            values = untraced(run, opts.seconds)
            metrics = {name: {"value": values.get(name), "unit": unit}
                       for name, unit, _, _ in END_TO_END}
            notes = {}
        record = {"workload": workload.name, "seed": opts.seed, "trace": opts.trace,
                  "tiny": opts.tiny, "environment": env, "metrics": metrics, "notes": notes,
                  "commands": run.commands}
        with open(WORK / f"{workload.name}-seed{opts.seed}-trace{opts.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for c in run.commands:
        for p in c["problems"]:
            print(f"# FAILED {c['label']}: {p}")
    attempted, failed = len(run.commands), run.failed
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        value = m["value"]
        value = "null" if value is None else str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:34s} {value:>14s} {m['unit']}{note}")
    print(f"{'fail_ratio':34s} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} commands failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
