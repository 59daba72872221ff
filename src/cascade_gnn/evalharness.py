"""Experiment protocols: grouped cross-validation, diffusion sweeps,
aging windows, backward feature selection, sample-distance analysis and
force-directed layout export.

All protocols are seed-deterministic; their train-and-score rounds run in
one process pool when ``jobs > 1`` and results merge in round order.
"""
from __future__ import annotations

import ctypes
import glob
import os
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .classifier import (ModelConfig, PreparedGraph, TrainResult, fake_score, forward,
                         mask_columns, prepare_graph, train)
from .dataio import cascades_by_url
from .features import FEATURE_GROUPS, GROUP_CONTENT, FeatureSchema
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
                  social: SocialGraph, schema: FeatureSchema, scope: str,
                  hours: float = DEFAULT_DIFFUSION_HOURS,
                  min_cascade_size: int = 1,
                  active_groups=None) -> list[PreparedGraph]:
    """Every sample at the given diffusion time, masked to ``active_groups``,
    in sample order: stories by URL, cascades by ID.

    Cascade eligibility (the minimum-size filter) is decided on the full
    cascades; truncation to ``hours`` happens afterwards.  URL-wise
    truncation is measured from the story's first tweet, cascade-wise
    from each cascade's own source.  A sample's ``prefix(d)`` for any
    ``d <= hours`` equals the sample built at ``d``.
    """
    if scope not in (SCOPE_URL, SCOPE_CASCADE):
        raise ValueError(f"unknown scope {scope!r}")
    if active_groups is None:
        active_groups = default_active_groups(scope)
    by_url = cascades_by_url(cascades)
    samples = []
    for story in sorted(stories, key=lambda s: s.url_id):
        full = sorted(by_url.get(story.url_id, []), key=lambda c: c.cascade_id)
        if scope == SCOPE_URL:
            groups = [(story.url_id, truncate(full, hours, reference="story"))]
        else:
            groups = [(cas.cascade_id, truncate([cas], hours, reference="cascade"))
                      for cas in filter_min_cascade_size(full, min_cascade_size)]
        for key, kept in groups:
            if kept:
                graph = build_propagation_graph(story, kept, social, scope, schema)
                samples.append(prepare_graph(graph, schema, active_groups, key=key,
                                             url_id=story.url_id))
    return samples


def split_by_url(samples: list[PreparedGraph], *url_sets) -> tuple[list[PreparedGraph], ...]:
    """One list per URL set: the samples whose URL is in it, in sample order."""
    return tuple([s for s in samples if s.url_id in urls] for urls in url_sets)


def train_and_score(train_set: list[PreparedGraph], val_set: list[PreparedGraph],
                    test_set: list[PreparedGraph], config: ModelConfig
                    ) -> tuple[TrainResult, list[float]]:
    """Train one model and return it with the fake score of every test sample."""
    result = train(train_set, val_set, config)
    with np.errstate(all="ignore"):  # fake_score rejects a non-finite score
        return result, [fake_score(forward(s, result.params)[0]) for s in test_set]


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


def _run_cv_round(payload) -> tuple[object, list[tuple[str, float, int]], float | None]:
    """Train and score one round.  A sweep round, labelled ``(hours, r)``, cuts its
    samples here, so the main process holds no cut copy of them."""
    label, *parts, config = payload
    if isinstance(label, tuple):
        parts = [[s.prefix(label[0]) for s in part] for part in parts]
    result, scores = train_and_score(*parts, config)
    return label, [(s.key, sc, s.label) for s, sc in zip(parts[2], scores)], result.best_val_auc


def _test_auc(scored) -> float | None:
    return auc_or_none([x[1] for x in scored], [x[2] for x in scored])


_ROUNDS: list = []  # a pool worker's payloads, set by ``_start_worker``


def _start_worker(rounds) -> None:
    """Pool initializer: keep the payloads, which a forked worker inherits
    without pickling, and run the worker's BLAS on one thread so that
    ``jobs`` workers keep to ``jobs`` cores.  Without numpy's bundled
    OpenBLAS, or its thread setter, BLAS keeps its own thread count."""
    global _ROUNDS
    _ROUNDS = rounds
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


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


def _cv_rounds(samples: list[PreparedGraph], plan: FoldPlan, config: ModelConfig) -> list:
    """One payload per fold round r, its model seeded ``config.seed + r``."""
    payloads = []
    for r in range(plan.k):
        train_set, val_set, test_set = split_by_url(samples, *plan.round(r))
        if not train_set or not test_set:
            raise ProtocolError(f"round {r} has no train or test sample; lower --min-cascade-size")
        payloads.append((r, train_set, val_set, test_set, replace(config, seed=config.seed + r)))
    return payloads


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

@dataclass
class SweepPoint:
    hours: float
    mean_auc: float
    std_auc: float
    coverage: float  # tweets retained / tweets at 24 h over the sample set


def diffusion_sweep(stories, cascades, social, config: ModelConfig,
                    scope: str, d_values, min_cascade_size: int = 1,
                    jobs: int = 1) -> list[SweepPoint]:
    """Train and cross-validate separately for each diffusion time, on samples
    built once at the latest hour (24 h at least) and cut to each d in its rounds.
    The samples take ``config``'s schema and active groups.

    One fold plan is shared across all d values so the AUC series is
    comparable point to point.
    """
    plan = make_folds(stories, seed=config.seed)
    base = build_samples(stories, cascades, social, config.schema, scope,
                         hours=float(max([DEFAULT_DIFFUSION_HOURS, *d_values])),
                         min_cascade_size=min_cascade_size,
                         active_groups=config.active_groups)
    total_24h = sum(len(s.prefix(DEFAULT_DIFFUSION_HOURS).times) for s in base)

    rounds = _cv_rounds(base, plan, config)
    results = _run_jobs([((d, r), *rest) for d in d_values for r, *rest in rounds], jobs)
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


def aging_protocol(stories, cascades, social, config: ModelConfig,
                   scope: str, hours: float = DEFAULT_DIFFUSION_HOURS,
                   min_cascade_size: int = 1, window_frac: float = 0.25,
                   min_gap_days: float = 14.0, jobs: int = 1) -> AgingResult:
    """Train on the past, evaluate windows of the future, on samples with
    ``config``'s schema and active groups.

    Each window reports the diffused model, the source-only (0 h) model,
    and the uniformly sampled cross-validation reference scores.
    """
    plan = make_aging_plan(stories, window_frac=window_frac,
                           min_gap_days=min_gap_days, seed=config.seed)
    first_seen = {s.url_id: s.first_seen for s in stories}
    url_sets = [set(urls) for urls in (plan.train_urls, plan.val_urls, plan.test_urls)]
    diffused = build_samples(stories, cascades, social, config.schema, scope, hours=hours,
                             min_cascade_size=min_cascade_size,
                             active_groups=config.active_groups)
    temporal = [(label, *split_by_url(samples, *url_sets), config)
                for label, samples in (("diffused", diffused),
                                       ("source_only", [s.prefix(0.0) for s in diffused]))]
    if not all(tr and te for _, tr, _, te, _ in temporal):
        raise ProtocolError("temporal split left no train or test sample; "
                            "lower --min-cascade-size")
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


def backward_feature_selection(stories, cascades, social, schema,
                               config: ModelConfig, scope: str,
                               hours: float = DEFAULT_DIFFUSION_HOURS,
                               min_cascade_size: int = 1, jobs: int = 1) -> AblationResult:
    """Iteratively drop the group whose removal hurts validation AUC least.

    Uses round 0 of the fold plan: selection on the validation fold, the
    reported AUC on the test fold.  Emits one level per subset size; the
    candidates of a level, seeded in candidate order, share one pool at ``jobs`` > 1.
    """
    plan = make_folds(stories, seed=config.seed)
    base = build_samples(stories, cascades, social, schema, scope, hours=hours,
                         min_cascade_size=min_cascade_size, active_groups=FEATURE_GROUPS)
    parts = split_by_url(base, *plan.round(0))

    def evaluate(subsets, shift: int):
        """(validation AUC, test AUC) per subset, the k-th seeded ``config.seed + shift + k``."""
        def payload(k, active):
            return (k, *[[replace(s, features=mask_columns(s.features, schema, active))
                          for s in part] for part in parts],
                    replace(config, seed=config.seed + shift + k, active_groups=active))
        # at one job, one masked copy of the samples lives at a time
        batches = [list(enumerate(subsets))] if jobs > 1 else [[c] for c in enumerate(subsets)]
        return [(val_auc, _test_auc(scored)) for batch in batches
                for _, scored, val_auc in _run_jobs([payload(*c) for c in batch], jobs)]

    active = FEATURE_GROUPS
    levels = [AblationLevel(active, *evaluate([active], 0)[0])]
    removal_order: list[str] = []
    shift = 1
    while len(active) > 1:
        reduced = [tuple(x for x in active if x != g) for g in active]
        candidates = zip(active, reduced, evaluate(reduced, shift))
        shift += len(active)
        dropped, active, (v, t) = min(candidates, key=lambda c: (
            -(c[2][0] if c[2][0] is not None else -1.0), FEATURE_GROUPS.index(c[0])))
        removal_order.append(dropped)
        levels.append(AblationLevel(active, v, t))
    importance_order = [active[0]] + list(reversed(removal_order))
    return AblationResult(levels=levels, removal_order=removal_order,
                          importance_order=importance_order)


# -- MAD / MMD sample-distance analysis ----------------------------------------

def _undirected_adjacency(social: SocialGraph) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {u: [] for u in social.users}
    for a, b in social.follows:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _hop_distances(adj: dict[str, list[str]], sources, targets=(),
                  cap: int | None = None) -> dict[str, int]:
    """Breadth-first hop distance from the nearest source to each node it
    reaches.  The search ends once every target is reached, or when the
    next node to expand lies ``cap`` or more hops out."""
    dist = {u: 0 for u in sources}
    q = deque(dist)
    left = set(targets) - dist.keys()
    while q and (left or not targets):
        u = q.popleft()
        if cap is not None and dist[u] >= cap:
            break
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                left.discard(v)
                q.append(v)
    return dist


def estimate_diameter(social: SocialGraph) -> int:
    """Double-BFS lower bound on the follow graph diameter; the second
    search starts from the farthest node with the smallest user ID."""
    adj = _undirected_adjacency(social)
    if not adj:
        return 0
    dist = _hop_distances(adj, [min(adj)])
    far = min(dist, key=lambda u: (-dist[u], u))
    return max(_hop_distances(adj, [far]).values())


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
    graph; users unreachable from every other sample's users get the
    configured cap (diameter estimate + 1 by default).
    """
    kept = []
    for idx, sample in enumerate(samples):
        users = [u for u in sample if u in social.users]
        if not users:
            warnings.warn(f"sample {idx} is empty or has no known users; skipped")
            continue
        kept.append(users)
    if len(kept) < 2:
        raise ProtocolError("need at least two non-empty samples")
    if unreachable_cap is None:
        unreachable_cap = estimate_diameter(social) + 1
    adj = _undirected_adjacency(social)

    per_sample_mean = []
    per_sample_min = []
    for t, users in enumerate(kept):
        sources = {u for o, other in enumerate(kept) if o != t for u in other}
        dist = _hop_distances(adj, sources, users, unreachable_cap)
        ds = [min(dist.get(u, unreachable_cap), unreachable_cap) for u in users]
        per_sample_mean.append(float(np.mean(ds)))
        per_sample_min.append(float(np.min(ds)))
    return MadMmdResult(
        mad=float(np.mean(per_sample_mean)), mad_std=float(np.std(per_sample_mean)),
        mmd=float(np.mean(per_sample_min)), mmd_std=float(np.std(per_sample_min)),
        unreachable_cap=unreachable_cap,
    )


# -- Fruchterman-Reingold layout ------------------------------------------------

def fr_layout(social: SocialGraph, iterations: int = 60,
              seed: int = 0) -> dict[str, tuple[float, float]]:
    """Standard force-directed layout: repulsion k^2/d, attraction d^2/k,
    linearly cooled displacement cap, seeded uniform init in the unit square.

    Repulsion is exact O(n^2), computed for a block of users i at a time
    in four (n, block) buffers of about 2 MB together, allocated once.  The
    buffers are laid out (j, i): reducing a C-order array over axis 0 adds
    the j terms one after another, in the order the unblocked
    ``(i, j, 2).sum(axis=1)`` adds them, so positions are bit-identical to
    that formula.  A block of one user would make axis 0 the contiguous
    axis, which numpy sums pairwise, changing the bits; so a last block of
    one user also takes the user before it, whose forces it does not add
    again."""
    ids = sorted(social.users)
    n = len(ids)
    if n == 0:
        raise ProtocolError("the dataset has no users to lay out")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 47)))
    pos = rng.random((n, 2))
    if n == 1:
        return {ids[0]: (float(pos[0, 0]), float(pos[0, 1]))}
    index = {u: i for i, u in enumerate(ids)}
    edges = np.array([[index[a], index[b]] for a, b in sorted(social.follows)], dtype=np.intp)
    k = np.sqrt(1.0 / n)
    temp = 0.1
    dt = temp / (iterations + 1)
    eps = 1e-12

    x, y = pos[:, 0], pos[:, 1]
    block = min(n, max(2, 65536 // n))
    buffers = np.empty((4, n, block))
    sums = np.empty(block)
    for _ in range(iterations):
        disp = np.zeros_like(pos)
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            start = min(lo, hi - 2)
            dx, dy, norm, ratio = buffers[:, :, :hi - start]
            np.subtract(x[start:hi], x[:, None], out=dx)
            np.subtract(y[start:hi], y[:, None], out=dy)
            np.multiply(dx, dx, out=norm)
            np.multiply(dy, dy, out=ratio)
            norm += ratio
            np.sqrt(norm, out=norm)
            norm += eps
            np.divide(k * k, norm, out=ratio)
            for term, column in ((dx, 0), (dy, 1)):
                term /= norm
                term *= ratio
                total = term.sum(axis=0, out=sums[:hi - start])
                disp[lo:hi, column] += total[lo - start:]
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
    return {u: (float(pos[i, 0]), float(pos[i, 1])) for u, i in index.items()}
