"""Experiment protocols: grouped cross-validation, diffusion sweeps,
aging windows, backward feature selection, sample-distance analysis and
force-directed layout export.

All protocols are seed-deterministic; fold/sweep workers run in parallel
when ``jobs > 1`` and results merge in job order.
"""
from __future__ import annotations

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


def _run_cv_round(payload) -> tuple[int, list[tuple[str, float, int]], float | None]:
    r, train_set, val_set, test_set, config = payload
    result, scores = train_and_score(train_set, val_set, test_set, config)
    return r, [(s.key, sc, s.label) for s, sc in zip(test_set, scores)], result.best_val_auc


def _run_jobs(payloads, jobs: int):
    if jobs <= 1 or len(payloads) <= 1:
        return [_run_cv_round(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(_run_cv_round, payloads))


def cross_validate(samples: list[PreparedGraph], plan: FoldPlan,
                   config: ModelConfig, jobs: int = 1) -> CvResult:
    """Grouped k-fold CV: all samples of a URL stay in that URL's fold."""
    payloads = []
    for r in range(plan.k):
        train_set, val_set, test_set = split_by_url(samples, *plan.round(r))
        if not train_set or not test_set:
            raise ProtocolError(f"round {r} has no train or test sample; lower --min-cascade-size")
        cfg_r = replace(config, seed=config.seed + r)
        payloads.append((r, train_set, val_set, test_set, cfg_r))

    fold_aucs: list[float | None] = []
    fold_val: list[float | None] = []
    scores: dict[str, tuple[float, int]] = {}
    for r, scored, val_auc in sorted(_run_jobs(payloads, jobs)):
        fold_scores = [x[1] for x in scored]
        fold_labels = [x[2] for x in scored]
        fold_aucs.append(auc_or_none(fold_scores, fold_labels))
        fold_val.append(val_auc)
        for key, sc, lab in scored:
            scores[key] = (sc, lab)
    defined = [a for a in fold_aucs if a is not None]
    if not defined:
        raise ProtocolError("every fold's test set was single-class; AUC undefined")
    all_scores = [v[0] for v in scores.values()]
    all_labels = [v[1] for v in scores.values()]
    pooled_roc, pooled_auc = roc_auc(all_scores, all_labels)
    return CvResult(fold_aucs=fold_aucs,
                    mean_auc=float(np.mean(defined)),
                    std_auc=float(np.std(defined)),
                    pooled_roc=pooled_roc,
                    pooled_auc=pooled_auc,
                    scores=scores,
                    fold_val_aucs=fold_val)


# -- diffusion-time sweep -----------------------------------------------------

@dataclass
class SweepPoint:
    hours: float
    mean_auc: float
    std_auc: float
    coverage: float  # tweets retained / tweets at 24 h over the sample set


@dataclass
class SweepResult:
    points: list[SweepPoint]
    scope: str


def diffusion_sweep(stories, cascades, social, schema, config: ModelConfig,
                    scope: str, d_values=None, min_cascade_size: int = 1,
                    plan: FoldPlan | None = None, jobs: int = 1,
                    active_groups=None) -> SweepResult:
    """Train and cross-validate separately for each diffusion time, on samples
    built once at the latest hour (24 h at least) and cut to each d by ``prefix``.

    One fold plan is shared across all d values so the AUC series is
    comparable point to point.
    """
    if d_values is None:
        d_values = list(range(0, 25))
    if plan is None:
        plan = make_folds(stories, seed=config.seed)
    base = build_samples(stories, cascades, social, schema, scope,
                         hours=float(max([DEFAULT_DIFFUSION_HOURS, *d_values])),
                         min_cascade_size=min_cascade_size,
                         active_groups=active_groups)
    total_24h = sum(len(s.prefix(DEFAULT_DIFFUSION_HOURS).times) for s in base)

    points = []
    for d in d_values:
        samples = [s.prefix(d) for s in base]
        retained = sum(len(s.times) for s in samples)
        cv = cross_validate(samples, plan, config, jobs=jobs)
        points.append(SweepPoint(hours=float(d), mean_auc=cv.mean_auc,
                                 std_auc=cv.std_auc,
                                 coverage=retained / total_24h if total_24h else 0.0))
    return SweepResult(points=points, scope=scope)


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
    plan: AgingPlan
    windows: list[AgingWindow]
    mean_iou: float | None
    train_mean_date: float


def make_aging_plan(stories: list[UrlStory], window_frac: float = 0.25,
                    min_gap_days: float = 14.0, val_frac: float = 0.25,
                    seed: int = 0) -> AgingPlan:
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
    n_val = max(1, int(round(val_frac * len(past_ids))))
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


def aging_protocol(stories, cascades, social, schema, config: ModelConfig,
                   scope: str, hours: float = DEFAULT_DIFFUSION_HOURS,
                   min_cascade_size: int = 1, window_frac: float = 0.25,
                   min_gap_days: float = 14.0, jobs: int = 1,
                   active_groups=None) -> AgingResult:
    """Train on the past, evaluate windows of the future.

    Each window reports the diffused model, the source-only (0 h) model,
    and the uniformly sampled cross-validation reference scores.
    """
    plan = make_aging_plan(stories, window_frac=window_frac,
                           min_gap_days=min_gap_days, seed=config.seed)
    first_seen = {s.url_id: s.first_seen for s in stories}
    url_sets = [set(urls) for urls in (plan.train_urls, plan.val_urls, plan.test_urls)]
    diffused = build_samples(stories, cascades, social, schema, scope, hours=hours,
                             min_cascade_size=min_cascade_size, active_groups=active_groups)
    scores = {}  # series -> sample key -> (fake score, label)
    for label, samples in (("diffused", diffused),
                           ("source_only", [s.prefix(0.0) for s in diffused])):
        tr, va, te = split_by_url(samples, *url_sets)
        if not tr or not te:
            raise ProtocolError("temporal split left no train or test sample; "
                                "lower --min-cascade-size")
        _, test_scores = train_and_score(tr, va, te, config)
        scores[label] = {s.key: (sc, s.label) for s, sc in zip(te, test_scores)}
    cv_plan = make_folds(stories, seed=config.seed)
    scores["cv"] = cross_validate(diffused, cv_plan, config, jobs=jobs).scores
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
    return AgingResult(plan=plan, windows=windows,
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
                               min_cascade_size: int = 1,
                               groups: tuple[str, ...] = FEATURE_GROUPS) -> AblationResult:
    """Iteratively drop the group whose removal hurts validation AUC least.

    Uses round 0 of the fold plan: selection on the validation fold, the
    reported AUC on the test fold.  Emits one level per subset size.
    """
    plan = make_folds(stories, seed=config.seed)
    base = build_samples(stories, cascades, social, schema, scope, hours=hours,
                         min_cascade_size=min_cascade_size, active_groups=FEATURE_GROUPS)

    def evaluate(active: tuple[str, ...], seed_shift: int):
        samples = [replace(s, features=mask_columns(s.features, schema, active)) for s in base]
        tr, va, te = split_by_url(samples, *plan.round(0))
        result, scores = train_and_score(tr, va, te, replace(
            config, seed=config.seed + seed_shift, active_groups=active))
        return result.best_val_auc, auc_or_none(scores, [s.label for s in te])

    active = tuple(g for g in FEATURE_GROUPS if g in groups)
    levels = []
    removal_order: list[str] = []
    val_auc, test_auc = evaluate(active, 0)
    levels.append(AblationLevel(active, val_auc, test_auc))
    shift = 1
    while len(active) > 1:
        candidates = []
        for g in active:
            reduced = tuple(x for x in active if x != g)
            v, t = evaluate(reduced, shift)
            shift += 1
            candidates.append((v if v is not None else -1.0, g, reduced, v, t))
        candidates.sort(key=lambda c: (-c[0], FEATURE_GROUPS.index(c[1])))
        _, dropped, active, v, t = candidates[0]
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


def estimate_diameter(social: SocialGraph) -> int:
    """Double-BFS lower bound on the follow graph diameter."""
    adj = _undirected_adjacency(social)
    if not adj:
        return 0

    def bfs_far(start):
        dist = {start: 0}
        q = deque([start])
        far, fd = start, 0
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    if dist[v] > fd:
                        far, fd = v, dist[v]
                    q.append(v)
        return far, fd

    start = min(adj)
    far, _ = bfs_far(start)
    _, diameter = bfs_far(far)
    return diameter


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
        sources = set()
        for o, other in enumerate(kept):
            if o != t:
                sources.update(other)
        dist = {u: 0 for u in sources}
        q = deque(sources)
        targets = set(users)
        found = {u for u in targets if u in dist}
        while q and len(found) < len(targets):
            u = q.popleft()
            if dist[u] >= unreachable_cap:
                break
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    if v in targets:
                        found.add(v)
                    q.append(v)
        ds = [min(dist.get(u, unreachable_cap), unreachable_cap) for u in users]
        per_sample_mean.append(float(np.mean(ds)))
        per_sample_min.append(float(np.min(ds)))
    return MadMmdResult(
        mad=float(np.mean(per_sample_mean)), mad_std=float(np.std(per_sample_mean)),
        mmd=float(np.mean(per_sample_min)), mmd_std=float(np.std(per_sample_min)),
        unreachable_cap=unreachable_cap,
    )


# -- Fruchterman-Reingold layout ------------------------------------------------

def fr_layout(social: SocialGraph, iterations: int = 60, seed: int = 0,
              area: float = 1.0) -> dict[str, tuple[float, float]]:
    """Standard force-directed layout: repulsion k^2/d, attraction d^2/k,
    linearly cooled displacement cap, seeded uniform init."""
    ids = sorted(social.users)
    n = len(ids)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 47)))
    pos = rng.random((n, 2)) * np.sqrt(area)
    if n == 1:
        return {ids[0]: (float(pos[0, 0]), float(pos[0, 1]))}
    index = {u: i for i, u in enumerate(ids)}
    edges = np.array([[index[a], index[b]] for a, b in sorted(social.follows)], dtype=np.intp)
    k = np.sqrt(area / n)
    temp = 0.1 * np.sqrt(area)
    dt = temp / (iterations + 1)
    eps = 1e-12

    for _ in range(iterations):
        disp = np.zeros_like(pos)
        # repulsion in row blocks to bound memory on large graphs
        block = max(1, int(4e6) // max(n, 1))
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            delta = pos[lo:hi, None, :] - pos[None, :, :]
            dist = np.sqrt((delta * delta).sum(axis=2)) + eps
            disp[lo:hi] += (delta / dist[:, :, None] * (k * k / dist)[:, :, None]).sum(axis=1)
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
