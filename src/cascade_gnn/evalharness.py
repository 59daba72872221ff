"""Experiment protocols: grouped cross-validation, diffusion sweeps,
aging windows, backward feature selection, sample-distance analysis and
force-directed layout export.

All protocols are seed-deterministic.  Each trains its models as ``Round``s
through ``_run_jobs``, in one process pool when ``jobs > 1``, merged in round
order; ablation opens one pool per level, as a level depends on the last.

The protocols take samples, not the dataset: ``build_samples`` builds them
once, and a caller that hands it the only reference to its cascade list has
the loaded cascades freed during the build, so only the samples and the
stories stay resident while the protocol trains.  ``train_and_score``
masks the unmasked samples to each model's own ``config.active_groups``:
a masked sample shares its input's arrays and records the groups, so
masking copies no sample.
"""
from __future__ import annotations

import ctypes
import glob
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .classifier import (ModelConfig, PreparedGraph, TrainResult, fake_score, forward,
                         prepare_graph, train)
from .dataio import cascades_by_url
from .features import FEATURE_GROUPS, GROUP_CONTENT, EmbeddingTable
from .metrics import auc_or_none, roc_auc
from .propagation import build_propagation_graph, truncate
from .types import (CascadeRecord, SCOPE_CASCADE, SCOPE_URL, SocialGraph,
                    UrlStory)

DEFAULT_MIN_CASCADE_SIZE = 6
DEFAULT_DIFFUSION_HOURS = 24.0


class ProtocolError(ValueError):
    """The data does not meet a precondition of an experiment protocol."""


def default_active_groups(scope: str) -> tuple[str, ...]:
    """URL-wise uses all four groups; cascade-wise ignores content descriptors."""
    if scope == SCOPE_CASCADE:
        return tuple(g for g in FEATURE_GROUPS if g != GROUP_CONTENT)
    return FEATURE_GROUPS


# -- folds -------------------------------------------------------------------

@dataclass(frozen=True)
class FoldPlan:
    k: int
    seed: int
    folds: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        seen = set()
        for fold in self.folds:
            for url in fold:
                if url in seen:
                    raise ValueError(f"url {url!r} appears in two folds")
                seen.add(url)

    def round(self, r: int) -> tuple[set[str], set[str], set[str]]:
        """(train, validation, test) URL sets for round r: fold r tests,
        fold r+1 validates, the rest trains."""
        test = set(self.folds[r])
        val = set(self.folds[(r + 1) % self.k])
        train_ids = set().union(*self.folds) - test - val
        return train_ids, val, test


def make_folds(stories: list[UrlStory], k: int = 5, seed: int = 0) -> FoldPlan:
    """Shuffle URLs with the seed and partition into k near-equal folds."""
    if len(stories) < k:
        raise ProtocolError(f"need at least {k} URLs, got {len(stories)}")
    ids = sorted(s.url_id for s in stories)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 23)))
    rng.shuffle(ids)
    folds = tuple(tuple(ids[r::k]) for r in range(k))
    return FoldPlan(k=k, seed=seed, folds=folds)


def fold_label_fractions(plan: FoldPlan, stories: list[UrlStory]) -> list[float]:
    label = {s.url_id: s.is_fake for s in stories}
    return [sum(label[u] for u in fold) / len(fold) for fold in plan.folds]


def filter_min_cascade_size(cascades: list[CascadeRecord],
                            min_tweets: int = DEFAULT_MIN_CASCADE_SIZE) -> list[CascadeRecord]:
    return [c for c in cascades if c.size >= min_tweets]


# -- sample construction ------------------------------------------------------

def build_samples(stories: list[UrlStory], cascades: list[CascadeRecord],
                  social: SocialGraph, scope: str, hours: float = DEFAULT_DIFFUSION_HOURS,
                  min_cascade_size: int = 1) -> list[PreparedGraph]:
    """Every sample at the given diffusion time, unmasked (training masks
    it), in sample order: stories (one per URL) by URL, cascades by ID.  Each
    sample's features have the columns of ``features.BLOCKS`` and come from
    one ``encode_node_features`` call over its nodes.  A sample holds 33
    dense columns per node and three row numbers into one read-only
    ``EmbeddingTable`` array, made before the first graph from every
    embedding of the cascades and the users and shared by all the samples:
    the 600 embedding columns of a node are laid out from the table only
    where the network reads them.

    Cascade eligibility (the minimum-size filter) is decided on the full
    cascades; truncation to ``hours`` happens afterwards.  URL-wise
    truncation is measured from the story's first tweet, cascade-wise
    from each cascade's own source.  A sample's ``prefix(d)`` for any
    ``d <= hours`` equals the sample built at ``d``.

    The build drops its reference to ``cascades`` once it has grouped them
    by URL, and each story's group once that story's samples are built: a
    caller that holds no other reference to the list (it passes it
    straight into the call) has each story's cascades freed as the build
    moves on.  A caller that keeps its list finds it unchanged.  A graph
    too large for memory raises ``ProtocolError`` naming its story, or
    cascade, and its node count.
    """
    if scope not in (SCOPE_URL, SCOPE_CASCADE):
        raise ValueError(f"unknown scope {scope!r}")
    table = EmbeddingTable([t for c in cascades for t in c.tweets], list(social.users.values()))
    by_url = cascades_by_url(cascades)
    del cascades
    samples = []
    for story in sorted(stories, key=lambda s: s.url_id):
        samples += _story_samples(story, by_url.pop(story.url_id, []), social, scope, hours,
                                  min_cascade_size, table)
    return samples


def _story_samples(story: UrlStory, cascades: list[CascadeRecord], social: SocialGraph,
                   scope: str, hours: float, min_cascade_size: int,
                   table: EmbeddingTable) -> list[PreparedGraph]:
    """The samples of one story, built from its cascades, in cascade ID order."""
    full = sorted(cascades, key=lambda c: c.cascade_id)
    if scope == SCOPE_URL:
        groups = [truncate(full, hours, reference="story")]
    else:
        groups = [truncate([cas], hours, reference="cascade")
                  for cas in filter_min_cascade_size(full, min_cascade_size)]
    samples = []
    for kept in filter(None, groups):
        try:
            samples.append(build_propagation_graph(story, kept, social, scope, table))
        except MemoryError:
            name = (f"story {story.url_id!r}" if scope == SCOPE_URL
                    else f"cascade {kept[0].cascade_id!r}")
            raise ProtocolError(f"{name}: its graph of {sum(c.size for c in kept)} nodes "
                                "does not fit in memory") from None
    return samples


def split_by_url(samples: list[PreparedGraph], *url_sets) -> tuple[list[PreparedGraph], ...]:
    """One list per URL set: the samples whose URL is in it, in sample order."""
    return tuple([s for s in samples if s.url_id in urls] for urls in url_sets)


def train_and_score(train_set: list[PreparedGraph], val_set: list[PreparedGraph],
                    test_set: list[PreparedGraph], config: ModelConfig
                    ) -> tuple[TrainResult, list[float]]:
    """Train one model on the parts masked to ``config.active_groups`` and
    return it with the fake score of every test sample.  BLAS runs on one
    thread, as in a pool worker: at these graph sizes a second thread saves
    no wall time and costs CPU time."""
    train_set, val_set, test_set = ([prepare_graph(s, config.active_groups) for s in part]
                                    for part in (train_set, val_set, test_set))
    with _one_blas_thread():
        result = train(train_set, val_set, config)
        with np.errstate(all="ignore"):  # fake_score rejects a non-finite score
            return result, [fake_score(forward(s.features, s.edges, result.params)[0])
                            for s in test_set]


# -- cross-validation ---------------------------------------------------------

@dataclass
class CvResult:
    fold_aucs: list[float | None]  # None when a fold's test set is single-class
    mean_auc: float
    std_auc: float
    pooled_roc: list[tuple[float, float]]
    pooled_auc: float
    scores: dict[str, tuple[float, int]]  # key -> (fake score, label) at test time
    fold_val_aucs: list[float | None]


class Round(NamedTuple):
    """One model to train and score on a train/validation/test split.  The
    worker cuts each part to ``hours`` where it is set, and training masks
    it, so the main process holds only the samples the rounds share.  The
    benchmark's dispatch hook reads ``[1:4]`` as the parts."""

    label: object
    train: list[PreparedGraph]
    val: list[PreparedGraph]
    test: list[PreparedGraph]
    config: ModelConfig
    hours: float | None = None


def _run_cv_round(rnd: Round) -> tuple[object, list[tuple[str, float, int]], float | None]:
    """Train and score one round, its parts cut to ``hours``: its label,
    (key, fake score, label) per test sample, and the best validation AUC."""
    parts = rnd[1:4]
    if rnd.hours is not None:
        parts = [[s.prefix(rnd.hours) for s in part] for part in parts]
    result, scores = train_and_score(*parts, rnd.config)
    return rnd.label, [(s.key, sc, s.label) for s, sc in zip(parts[2], scores)], result.best_val_auc


def _test_auc(scored) -> float | None:
    return auc_or_none([x[1] for x in scored], [x[2] for x in scored])


_ROUNDS: list = []  # a pool worker's payloads, set by ``_start_worker``


def _set_blas_threads(n: int) -> int | None:
    """Run BLAS on ``n`` threads and return the count it ran on before.
    Without numpy's bundled OpenBLAS, or its thread functions, BLAS keeps
    its own thread count and the result is None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get_threads is not None and set_threads is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            before = get_threads()
            set_threads(n)
            return before
    return None


@contextmanager
def _one_blas_thread():
    """Run the block's BLAS on one thread, then restore the caller's count."""
    before = _set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)


def _start_worker(rounds) -> None:
    """Pool initializer: keep the payloads, which a forked worker inherits
    without pickling, and run the worker's BLAS on one thread so that
    ``jobs`` workers keep to ``jobs`` cores."""
    global _ROUNDS
    _ROUNDS = rounds
    _set_blas_threads(1)


def _run_round(i: int):
    """Round ``i`` of the payloads this pool worker holds."""
    return _run_cv_round(_ROUNDS[i])


def _run_jobs(payloads, jobs: int):
    """The rounds' results in payload order, trained in one process pool when ``jobs > 1``."""
    if jobs <= 1 or len(payloads) <= 1:
        return [_run_cv_round(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads)),
                             initializer=_start_worker, initargs=(payloads,)) as pool:
        return list(pool.map(_run_round, range(len(payloads))))


def _fold_round(samples: list[PreparedGraph], plan: FoldPlan, r: int,
                config: ModelConfig) -> Round:
    """Fold round r of ``plan``, its model seeded ``config.seed + r``."""
    train_set, val_set, test_set = split_by_url(samples, *plan.round(r))
    if not train_set or not test_set:
        raise ProtocolError(f"round {r} has no train or test sample; lower --min-cascade-size")
    return Round(r, train_set, val_set, test_set, replace(config, seed=config.seed + r))


def _cv_rounds(samples: list[PreparedGraph], plan: FoldPlan, config: ModelConfig) -> list[Round]:
    return [_fold_round(samples, plan, r, config) for r in range(plan.k)]


def _cv_result(results) -> CvResult:
    """The fold rounds' results merged, in round order."""
    fold_aucs = [_test_auc(scored) for _, scored, _ in results]
    scores = {key: (sc, lab) for _, scored, _ in results for key, sc, lab in scored}
    defined = [a for a in fold_aucs if a is not None]
    if not defined:
        raise ProtocolError("every fold's test set was single-class; AUC undefined")
    pooled_roc, pooled_auc = roc_auc(*zip(*scores.values()))
    return CvResult(fold_aucs=fold_aucs,
                    mean_auc=float(np.mean(defined)),
                    std_auc=float(np.std(defined)),
                    pooled_roc=pooled_roc,
                    pooled_auc=pooled_auc,
                    scores=scores,
                    fold_val_aucs=[val_auc for *_, val_auc in results])


def cross_validate(samples: list[PreparedGraph], plan: FoldPlan,
                   config: ModelConfig, jobs: int = 1) -> CvResult:
    """Grouped k-fold CV: all samples of a URL stay in that URL's fold."""
    return _cv_result(_run_jobs(_cv_rounds(samples, plan, config), jobs))


# -- diffusion-time sweep -----------------------------------------------------

def sweep_hours(d_values) -> float:
    """The diffusion hour a sweep over ``d_values`` builds its samples at."""
    return float(max([DEFAULT_DIFFUSION_HOURS, *d_values]))


@dataclass
class SweepPoint:
    hours: float
    mean_auc: float
    std_auc: float
    coverage: float  # tweets retained / tweets at 24 h over the sample set


def diffusion_sweep(base: list[PreparedGraph], stories: list[UrlStory], config: ModelConfig,
                    d_values, jobs: int = 1) -> list[SweepPoint]:
    """Train and cross-validate separately for each diffusion time, on the
    ``base`` samples of ``stories`` cut to each d in its rounds.  ``base``
    is built at ``sweep_hours(d_values)``: the latest hour, and 24 h at
    least, since coverage is measured against 24 h.

    One fold plan is shared across all d values so the AUC series is
    comparable point to point.
    """
    plan = make_folds(stories, seed=config.seed)
    total_24h = sum(len(s.prefix(DEFAULT_DIFFUSION_HOURS).times) for s in base)

    rounds = _cv_rounds(base, plan, config)
    results = _run_jobs([rnd._replace(label=(d, rnd.label), hours=d)
                         for d in d_values for rnd in rounds], jobs)
    cvs = [_cv_result(results[i:i + plan.k]) for i in range(0, len(results), plan.k)]
    return [SweepPoint(hours=float(d), mean_auc=cv.mean_auc, std_auc=cv.std_auc,
                       coverage=sum(len(s.prefix(d).times) for s in base) / total_24h
                       if total_24h else 0.0)
            for d, cv in zip(d_values, cvs)]


# -- aging --------------------------------------------------------------------

@dataclass(frozen=True)
class AgingPlan:
    """Temporal 80/20 split plus overlapping index windows over the test items."""

    train_urls: tuple[str, ...]
    val_urls: tuple[str, ...]
    test_urls: tuple[str, ...]   # sorted by first_seen
    windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.test_urls)
        for a, b in self.windows:
            if not (0 <= a < b <= n):
                raise ProtocolError(f"window ({a}, {b}) out of range of {n} test URLs")
            if (b - a) < 0.2 * n:
                raise ProtocolError(f"window ({a}, {b}) under 20% of {n} test URLs; "
                                    "raise --window-frac")


@dataclass
class AgingWindow:
    start: int
    stop: int
    mean_date: float
    days_from_train: float
    iou_with_prev: float | None
    auc_diffused: float | None
    auc_source_only: float | None
    auc_cv_reference: float | None


@dataclass
class AgingResult:
    windows: list[AgingWindow]
    mean_iou: float | None
    train_mean_date: float


def make_aging_plan(stories: list[UrlStory], window_frac: float = 0.25,
                    min_gap_days: float = 14.0, seed: int = 0) -> AgingPlan:
    """Past 80% of URLs train/validate, future 20% test, windows >= 20%
    of the test set with consecutive mean dates >= ``min_gap_days`` apart."""
    ordered = sorted(stories, key=lambda s: (s.first_seen, s.url_id))
    n = len(ordered)
    n_test = n - int(round(0.8 * n))
    if n_test < 5:
        raise ProtocolError(f"test span of {n_test} URLs too short to build aging windows")
    past, future = ordered[:n - n_test], ordered[n - n_test:]

    rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    past_ids = [s.url_id for s in past]
    rng.shuffle(past_ids)
    n_val = max(1, int(round(0.25 * len(past_ids))))
    val_urls = tuple(sorted(past_ids[:n_val]))
    train_urls = tuple(sorted(past_ids[n_val:]))

    dates = np.array([s.first_seen for s in future])
    w = max(1, int(np.ceil(window_frac * n_test)))
    windows = [(0, w)]
    prev_mean = dates[0:w].mean()
    start = 1
    while start + w <= n_test:
        mean = dates[start:start + w].mean()
        if mean - prev_mean >= min_gap_days * 86400.0:
            windows.append((start, start + w))
            prev_mean = mean
        start += 1
    return AgingPlan(train_urls=train_urls, val_urls=val_urls,
                     test_urls=tuple(s.url_id for s in future),
                     windows=tuple(windows))


def aging_protocol(diffused: list[PreparedGraph], stories: list[UrlStory],
                   config: ModelConfig, window_frac: float = 0.25,
                   min_gap_days: float = 14.0, jobs: int = 1) -> AgingResult:
    """Train on the past, evaluate windows of the future, on the ``diffused``
    samples of ``stories``, cut to 0 h for the source-only model.

    Each window reports the diffused model, the source-only (0 h) model,
    and the uniformly sampled cross-validation reference scores.
    """
    plan = make_aging_plan(stories, window_frac=window_frac,
                           min_gap_days=min_gap_days, seed=config.seed)
    first_seen = {s.url_id: s.first_seen for s in stories}
    parts = split_by_url(diffused, *(set(urls) for urls in
                                     (plan.train_urls, plan.val_urls, plan.test_urls)))
    if not (parts[0] and parts[2]):
        raise ProtocolError("temporal split left no train or test sample; "
                            "lower --min-cascade-size")
    temporal = [Round("diffused", *parts, config),
                Round("source_only", *parts, config, hours=0.0)]
    cv_plan = make_folds(stories, seed=config.seed)
    results = _run_jobs(temporal + _cv_rounds(diffused, cv_plan, config), jobs)
    scores = {label: {key: (sc, lab) for key, sc, lab in scored}  # key -> (fake score, label)
              for label, scored, _ in results[:2]}
    scores["cv"] = _cv_result(results[2:]).scores
    key_url = {s.key: s.url_id for s in diffused}

    train_dates = [first_seen[u] for u in plan.train_urls + plan.val_urls]
    train_mean = float(np.mean(train_dates))
    windows = []
    prev_range = None
    ious = []
    for a, b in plan.windows:
        urls = set(plan.test_urls[a:b])
        mean_date = float(np.mean([first_seen[u] for u in plan.test_urls[a:b]]))
        iou = None
        if prev_range is not None:
            inter = max(0, min(b, prev_range[1]) - max(a, prev_range[0]))
            union = (b - a) + (prev_range[1] - prev_range[0]) - inter
            iou = inter / union
            ious.append(iou)
        prev_range = (a, b)

        series = {}
        for label, scored in scores.items():
            items = [v for key, v in scored.items() if key_url[key] in urls]
            series[label] = auc_or_none([sc for sc, _ in items], [lab for _, lab in items])
        windows.append(AgingWindow(
            start=a, stop=b, mean_date=mean_date,
            days_from_train=(mean_date - train_mean) / 86400.0,
            iou_with_prev=iou,
            auc_diffused=series["diffused"],
            auc_source_only=series["source_only"],
            auc_cv_reference=series["cv"],
        ))
    return AgingResult(windows=windows,
                       mean_iou=float(np.mean(ious)) if ious else None,
                       train_mean_date=train_mean)


# -- backward feature selection ------------------------------------------------

@dataclass
class AblationLevel:
    active_groups: tuple[str, ...]
    val_auc: float | None
    test_auc: float | None


@dataclass
class AblationResult:
    levels: list[AblationLevel]       # sizes 4, 3, 2, 1
    removal_order: list[str]          # least important first
    importance_order: list[str]       # most important first


def backward_feature_selection(base: list[PreparedGraph], stories: list[UrlStory],
                               config: ModelConfig, jobs: int = 1) -> AblationResult:
    """Iteratively drop the group whose removal hurts validation AUC least,
    from the unmasked ``base`` samples of ``stories``.

    Uses round 0 of the fold plan: selection on the validation fold, the
    reported AUC on the test fold.  Emits one level per subset size; a
    level's candidates, each a config of its groups, are seeded in candidate
    order and go to ``_run_jobs`` together, each training on the samples
    masked to its groups, which share the arrays of ``base``.
    """
    fold = _fold_round(base, make_folds(stories, seed=config.seed), 0, config)

    def train_level(candidates, seed: int) -> list[tuple[float | None, float | None]]:
        """(validation AUC, test AUC) of a model per candidate group set."""
        rounds = [fold._replace(label=groups,
                                config=replace(config, seed=seed + k, active_groups=groups))
                  for k, groups in enumerate(candidates)]
        return [(val_auc, _test_auc(scored)) for _, scored, val_auc in _run_jobs(rounds, jobs)]

    active = FEATURE_GROUPS
    levels = [AblationLevel(active, *train_level([active], config.seed)[0])]
    removal_order: list[str] = []
    seed = config.seed + 1
    while len(active) > 1:
        reduced = [tuple(x for x in active if x != g) for g in active]
        candidates = list(zip(active, reduced, train_level(reduced, seed)))
        seed += len(active)
        dropped, active, (v, t) = min(candidates, key=lambda c: (
            -(c[2][0] if c[2][0] is not None else -1.0), FEATURE_GROUPS.index(c[0])))
        removal_order.append(dropped)
        levels.append(AblationLevel(active, v, t))
    importance_order = [active[0]] + list(reversed(removal_order))
    return AblationResult(levels=levels, removal_order=removal_order,
                          importance_order=importance_order)


# -- MAD / MMD sample-distance analysis ----------------------------------------

def _undirected_edges(social: SocialGraph) -> np.ndarray:
    """(2, 2 * len(follows)) intp: every follow once in each direction, as
    (from, to) user indexes into ``social.ids``."""
    pairs = social.index_pairs().T
    return np.concatenate([pairs, pairs[::-1]], axis=1)


def _hop_distances(edges: np.ndarray, n: int, sources, targets=None,
                   cap: int | None = None) -> np.ndarray:
    """Hop distance from the nearest of ``sources`` to each of the ``n``
    users over the undirected ``edges``, -1 where not reached.  The search
    adds one whole level at a time, so each level it finishes is exact, and
    it stops when a level adds no user, when every one of ``targets`` has a
    distance, or before it would expand level ``cap``."""
    dist = np.full(n, -1, dtype=np.intp)
    dist[sources] = 0
    level = 0
    while cap is None or level < cap:
        if targets is not None and (dist[targets] >= 0).all():
            break
        reached = edges[1][dist[edges[0]] == level]
        reached = reached[dist[reached] < 0]
        if not reached.size:
            break
        level += 1
        dist[reached] = level
    return dist


def estimate_diameter(social: SocialGraph) -> int:
    """Double-BFS lower bound on the follow graph diameter.  The second
    search starts from the user farthest from the smallest ID, the smallest
    ID among ties: index order is ID order, so ``argmax`` finds it."""
    n = len(social.ids)
    if not n:
        return 0
    edges = _undirected_edges(social)
    far = int(np.argmax(_hop_distances(edges, n, [0])))
    return int(_hop_distances(edges, n, [far]).max())


@dataclass
class MadMmdResult:
    mad: float
    mad_std: float
    mmd: float
    mmd_std: float
    unreachable_cap: int


def mad_mmd(samples: list[list[str]], social: SocialGraph,
            unreachable_cap: int | None = None) -> MadMmdResult:
    """Hop distance from each sample's users to the nearest user of any
    other sample, aggregated as mean-of-means (MAD) and mean-of-mins (MMD).

    The distance metric is the undirected hop distance on the follow
    graph, clipped at the cap (diameter estimate + 1 by default), which
    unreachable users get too.  Each search stops once the sample's users
    all have a distance, or before it expands level ``cap``; a user left
    out then lies ``cap`` or more hops away, so either way the clipped
    distances are exact.
    """
    index = {u: k for k, u in enumerate(social.ids)}
    kept = []
    for idx, sample in enumerate(samples):
        users = [index[u] for u in sample if u in index]
        if not users:
            warnings.warn(f"sample {idx} is empty or has no known users; skipped")
            continue
        kept.append(np.array(users, dtype=np.intp))
    if len(kept) < 2:
        raise ProtocolError("need at least two non-empty samples")
    if unreachable_cap is None:
        unreachable_cap = estimate_diameter(social) + 1

    edges = _undirected_edges(social)
    per_sample_mean = []
    per_sample_min = []
    for t, users in enumerate(kept):
        sources = np.concatenate(kept[:t] + kept[t + 1:])
        ds = _hop_distances(edges, len(index), sources, users, unreachable_cap)[users]
        ds = np.where(ds < 0, unreachable_cap, np.minimum(ds, unreachable_cap))
        per_sample_mean.append(float(np.mean(ds)))
        per_sample_min.append(float(np.min(ds)))
    return MadMmdResult(
        mad=float(np.mean(per_sample_mean)), mad_std=float(np.std(per_sample_mean)),
        mmd=float(np.mean(per_sample_min)), mmd_std=float(np.std(per_sample_min)),
        unreachable_cap=unreachable_cap,
    )


# -- Fruchterman-Reingold layout ------------------------------------------------

# Edge of the square repulsion tiles, chosen by measurement on 2 cores (2 MB
# of L2 each): at 700, 1,500 and 4,000 users 144-176 were fastest, while
# 112-128 and 192-384 were 5-35% slower.
REPULSION_TILE = 160
_LAYOUT_EPS = 1e-12


def repulsion(x: np.ndarray, y: np.ndarray, k: float) -> np.ndarray:
    """Every user's summed repulsion (n, 2), equal bit for bit to the
    unblocked ``(i, j, 2).sum(axis=1)`` of ``delta / d * (k^2 / d)`` with
    ``delta = pos[i] - pos[j]`` and ``d = |delta| + eps``.

    Each pair is computed once.  Square tiles cover the upper triangle of the
    pair matrix (row block a <= column block b), laid out (j, i).  A tile's
    terms are added to the users of block b; unless a == b, their negated
    transpose is added to the users of block a.  That is exact: fl(x_i - x_j)
    is -fl(x_j - x_i), so the squares, their sum, the sqrt, ``+ eps`` and
    ``k^2 / d`` are equal, and each (j, i) term is the exact negation of the
    (i, j) term.  Only a +0.0 term can come out as -0.0, and adding either to
    a running sum that starts at +0.0 (and so is never -0.0) gives the same
    bits.

    Each user still adds its terms in the unblocked order, j = 0, 1, ...,
    n - 1, one at a time.  Row 0 of each tile buffer carries the users'
    running sums, and reducing a C-order array over axis 0 adds its rows one
    after another.  Tiles are visited a-major with b >= a, so block j's terms
    reach every user in order of j.  A block one user wide would make axis 0
    the contiguous axis, which numpy sums pairwise, changing the bits; so
    every block is at least two wide: a last block of one user joins the
    block before it.  The four tile buffers, allocated once a call, take
    about 0.8 MB."""
    bounds = list(range(0, len(x), REPULSION_TILE)) + [len(x)]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    width = max(hi - lo for lo, hi in blocks)
    buffers = np.empty((4, (width + 1) * width))
    sums = np.zeros((2, len(x)))
    kk = k * k
    for a, (a_lo, a_hi) in enumerate(blocks):
        for b_lo, b_hi in blocks[a:]:
            rows, cols = a_hi - a_lo, b_hi - b_lo
            dx, dy, norm, ratio = (buf[:(rows + 1) * cols].reshape(rows + 1, cols)
                                   for buf in buffers)
            tx, ty, tnorm, tratio = dx[1:], dy[1:], norm[1:], ratio[1:]
            np.subtract(x[b_lo:b_hi], x[a_lo:a_hi, None], out=tx)
            np.subtract(y[b_lo:b_hi], y[a_lo:a_hi, None], out=ty)
            np.multiply(tx, tx, out=tnorm)
            np.multiply(ty, ty, out=tratio)
            tnorm += tratio
            np.sqrt(tnorm, out=tnorm)
            tnorm += _LAYOUT_EPS
            np.divide(kk, tnorm, out=tratio)
            for term, total in ((dx, sums[0, b_lo:b_hi]), (dy, sums[1, b_lo:b_hi])):
                term[1:] /= tnorm
                term[1:] *= tratio
                term[0] = total
                np.add.reduce(term, axis=0, out=total)
            if a_lo == b_lo:
                continue
            # norm and ratio are spent, so their buffers take the mirrors.
            for term, buf, total in ((dx, buffers[2], sums[0, a_lo:a_hi]),
                                     (dy, buffers[3], sums[1, a_lo:a_hi])):
                mirror = buf[:(cols + 1) * rows].reshape(cols + 1, rows)
                np.negative(term[1:].T, out=mirror[1:])
                mirror[0] = total
                np.add.reduce(mirror, axis=0, out=total)
    return np.ascontiguousarray(sums.T)


def fr_layout(social: SocialGraph, iterations: int = 60,
              seed: int = 0) -> dict[str, tuple[float, float]]:
    """Standard force-directed layout: repulsion k^2/d, attraction d^2/k,
    linearly cooled displacement cap, seeded uniform init in the unit square.

    Repulsion is exact O(n^2) and bit-identical to the unblocked formula
    (``repulsion`` gives the full argument).  It computes each pair once, in
    square tiles over the upper triangle of the pair matrix whose four
    buffers take about 0.8 MB, and adds a tile's negated transpose to its
    row users: fl(x_j - x_i) = -fl(x_i - x_j), so the (j, i) force is the
    exact negation of the (i, j) force.  Each user adds its forces one at a
    time in order of j, as the running sum in row 0 of tiles visited row
    block by row block, which numpy's axis-0 reduction keeps only for arrays
    two or more columns wide; so no block is one user wide.  Attraction adds
    the follow edges in sorted (follower, followee) order."""
    ids = social.ids
    n = len(ids)
    if n == 0:
        raise ProtocolError("the dataset has no users to lay out")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 47)))
    pos = rng.random((n, 2))
    if n == 1:
        return {ids[0]: (float(pos[0, 0]), float(pos[0, 1]))}
    edges = social.index_pairs()
    k = np.sqrt(1.0 / n)
    temp = 0.1
    dt = temp / (iterations + 1)
    eps = _LAYOUT_EPS

    for _ in range(iterations):
        disp = repulsion(pos[:, 0], pos[:, 1], k)
        if edges.size:
            delta = pos[edges[:, 0]] - pos[edges[:, 1]]
            dist = np.sqrt((delta * delta).sum(axis=1)) + eps
            force = (dist * dist / k) / dist
            pull = delta * force[:, None]
            np.add.at(disp, edges[:, 0], -pull)
            np.add.at(disp, edges[:, 1], pull)
        length = np.sqrt((disp * disp).sum(axis=1)) + eps
        pos += disp / length[:, None] * np.minimum(length, temp)[:, None]
        temp = max(temp - dt, 0.0)
    return {u: (float(pos[i, 0]), float(pos[i, 1])) for i, u in enumerate(ids)}
