"""Seeded synthetic social graph, stories, and cascades.

Users are split into a reliable and an unreliable latent community.  The
follow graph grows by preferential attachment with homophilic rejection
of cross-community targets.  Stories carry binary labels; fake stories
seed their cascades mostly from unreliable users, cascades spread over
follow edges as an independent-cascade process (capped at a size drawn
from a truncated power law, topping up with spontaneous adopters when
the frontier dies), and retweet gaps are exponential with a
label-dependent rate.

The label signal available to a classifier is planted only in the
``user_profile`` and ``network_spreading`` feature groups (community-
shifted profiles; label-dependent timing and devices).  User activity
counts, content embeddings, and cascade sizes are label-neutral by
construction, so zeroing the planted groups removes the signal.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .features import embed_tokens, load_word_vectors
from .types import (CascadeRecord, EMBEDDING_DIM, LABEL_FAKE, LABEL_TRUE,
                    ConfigError, SocialGraph, Tweet, UrlStory, User, check_fields, integer,
                    interval, number, optional_text, positive_number, rng_seed, text)

PLANTED_SIGNAL_GROUPS = ("user_profile", "network_spreading")

# dataset epoch: 2016-01-01T00:00:00Z
EPOCH = 1451606400.0

_STREAM_COMMUNITY = 1
_STREAM_GRAPH = 2
_STREAM_PROFILE = 3
_STREAM_URLS = 4
_STREAM_CASCADE = 5
_STREAM_SIGNAL_DIR = 6
_STREAM_EMBED_DICT = 7

_DEVICES = ("web", "android", "iphone", "ipad", "tweetdeck", "other")
_DEVICE_P_RELIABLE = (0.34, 0.22, 0.30, 0.06, 0.05, 0.03)
_DEVICE_P_UNRELIABLE = (0.22, 0.34, 0.20, 0.04, 0.02, 0.18)
_LANGS = ("en", "es", "pt", "fr", "de", "it", "ja", "und")
_LANG_P = (0.72, 0.08, 0.05, 0.04, 0.03, 0.03, 0.02, 0.03)

_probability = interval(number, "[0, 1]")
_finite = interval(number, "(-inf, inf)")
_fraction = interval(number, "(0, 1]")
# a count sizes numpy arrays, so it must be an index numpy can hold
_count = interval(integer, f"[1, {np.iinfo(np.intp).max}]")


def _fraction_pair(value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"must be a list of two numbers, got {value!r}")
    return tuple(_fraction(v) for v in value)


@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    num_users: int = 10_000
    num_urls: int = 300
    fake_fraction: float = 0.1674
    mean_cascades_per_url: float = 25.0
    cascade_size_tail_exponent: float = 2.1
    max_cascade_size: int = 120
    homophily_strength: float = 0.85
    community_fractions: tuple[float, float] = (0.8, 0.2)
    time_horizon_days: float = 365.0
    embedding_mode: str = "seeded_random_unit"
    embedding_file: str | None = None
    # graph shape
    follows_per_user: int = 11
    reciprocal_follow_prob: float = 0.1
    # spreading dynamics
    activation_probability: float = 0.12
    retweet_gap_hours_true: float = 4.0
    retweet_gap_hours_fake: float = 1.8
    cascade_root_spread_hours: float = 6.0
    # planted label signal
    seed_unreliable_prob_fake: float = 0.95
    seed_unreliable_prob_true: float = 0.02
    spontaneous_same_community_prob: float = 0.95
    profile_signal_strength: float = 0.8
    description_signal: float = 0.045

    # each field's rule, which the CLI applies to its config key and flag too
    RULES = {
        "seed": rng_seed, "num_users": _count, "num_urls": _count,
        "fake_fraction": interval(number, "(0, 1)"),
        "mean_cascades_per_url": positive_number, "cascade_size_tail_exponent": _finite,
        "max_cascade_size": _count, "homophily_strength": _probability,
        "community_fractions": _fraction_pair, "time_horizon_days": positive_number,
        "embedding_mode": text, "embedding_file": optional_text,
        "follows_per_user": _count, "reciprocal_follow_prob": _probability,
        "activation_probability": _probability, "retweet_gap_hours_true": positive_number,
        "retweet_gap_hours_fake": positive_number, "cascade_root_spread_hours": positive_number,
        "seed_unreliable_prob_fake": _probability, "seed_unreliable_prob_true": _probability,
        "spontaneous_same_community_prob": _probability, "profile_signal_strength": _finite,
        "description_signal": _finite,
    }

    def __post_init__(self):
        check_fields(self, self.RULES)
        fr = self.community_fractions
        if abs(fr[0] + fr[1] - 1.0) > 1e-9:
            raise ConfigError(f"community_fractions: must sum to 1, got {list(fr)}")
        if self.embedding_mode not in ("seeded_random_unit", "load_file"):
            raise ConfigError(f"unknown embedding_mode {self.embedding_mode!r}")
        if self.embedding_mode == "load_file" and not self.embedding_file:
            raise ConfigError("embedding_file required for load_file mode")


def _rng(cfg: GenConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed,) + key))


def user_id(i: int) -> str:
    return f"u{i:06d}"


def community_assignments(cfg: GenConfig) -> np.ndarray:
    """Latent community per user: 0 reliable, 1 unreliable.  Seed-stable."""
    rng = _rng(cfg, _STREAM_COMMUNITY)
    return (rng.random(cfg.num_users) < cfg.community_fractions[1]).astype(np.int8)


def signal_direction(cfg: GenConfig) -> np.ndarray:
    """Fixed unit direction along which community shifts description embeddings."""
    rng = _rng(cfg, _STREAM_SIGNAL_DIR)
    v = rng.normal(size=EMBEDDING_DIM)
    return v / np.linalg.norm(v)


class _EmbeddingSampler:
    """Unit embedding vectors drawn from a seeded finite dictionary.

    Real bios and tweet texts cluster into recurring phrasings, so
    synthetic embeddings are sampled from a shared pool of random unit
    vectors rather than being unique per user/tweet (unique vectors act
    as sample fingerprints that a no-regularization model memorizes).
    """

    DICT_SIZE = 64

    def __init__(self, cfg: GenConfig):
        self.mode = cfg.embedding_mode
        if self.mode == "load_file":
            table = load_word_vectors(cfg.embedding_file)
            self.tokens = sorted(table)
            self.table = table
        else:
            rng = _rng(cfg, _STREAM_EMBED_DICT)
            d = rng.normal(size=(self.DICT_SIZE, EMBEDDING_DIM))
            self.dictionary = d / np.linalg.norm(d, axis=1, keepdims=True)

    def unit(self, rng: np.random.Generator) -> np.ndarray:
        if self.mode == "load_file":
            k = int(rng.integers(5, 13))
            picks = rng.choice(len(self.tokens), size=min(k, len(self.tokens)), replace=False)
            vec = embed_tokens([self.tokens[i] for i in picks], self.table)
            norm = np.linalg.norm(vec)
            return vec / norm if norm > 0 else vec
        return self.dictionary[int(rng.integers(self.DICT_SIZE))]


def generate_social_graph(cfg: GenConfig) -> SocialGraph:
    """Preferential-attachment follow graph plus community-shifted profiles.

    With probability ``homophily_strength`` a new follow is drawn from the
    user's own community's preferential pool, otherwise from the global
    pool, which keeps the within-community follow fraction comparable for
    both communities regardless of their sizes.
    """
    comm = community_assignments(cfg)
    rng = _rng(cfg, _STREAM_GRAPH)
    n = cfg.num_users
    m = min(cfg.follows_per_user, max(1, n - 1))
    h = cfg.homophily_strength

    follows_idx: set[tuple[int, int]] = set()
    # preferential pools: nodes repeated once per follower gained, plus once on arrival
    global_pool: list[int] = []
    comm_pool: tuple[list[int], list[int]] = ([], [])

    def add_follow(a: int, b: int):
        if a != b and (a, b) not in follows_idx:
            follows_idx.add((a, b))
            global_pool.append(b)
            comm_pool[comm[b]].append(b)

    def arrive(u: int):
        global_pool.append(u)
        comm_pool[comm[u]].append(u)

    core = min(m + 1, n)
    for i in range(core):
        arrive(i)
        for j in range(i):
            add_follow(i, j)
            if rng.random() < cfg.reciprocal_follow_prob:
                add_follow(j, i)

    for u in range(core, n):
        arrive(u)
        picked: set[int] = set()
        for _ in range(m):
            chosen = None
            for _attempt in range(40):
                own = comm_pool[comm[u]]
                pool = own if (h > 0.0 and own and rng.random() < h) else global_pool
                cand = pool[int(rng.integers(len(pool)))]
                if cand == u or cand in picked:
                    continue
                chosen = cand
                break
            if chosen is None:
                continue
            picked.add(chosen)
            add_follow(u, chosen)
            if rng.random() < cfg.reciprocal_follow_prob:
                add_follow(chosen, u)

    pairs = np.array(list(follows_idx), dtype=np.int64).reshape(-1, 2)
    out_deg = np.bincount(pairs[:, 0], minlength=n)
    in_deg = np.bincount(pairs[:, 1], minlength=n)
    users = _generate_profiles(cfg, comm, in_deg, out_deg)  # user i is list(users)[i]
    return SocialGraph.from_pairs(users, pairs[:, 0], pairs[:, 1])


def _generate_profiles(cfg: GenConfig, comm, in_deg, out_deg) -> dict[str, User]:
    rng = _rng(cfg, _STREAM_PROFILE)
    emb = _EmbeddingSampler(cfg)
    mu = signal_direction(cfg)
    s = cfg.profile_signal_strength
    t_ref = EPOCH

    users: dict[str, User] = {}
    for i in range(cfg.num_users):
        unreliable = bool(comm[i])
        direction = -1.0 if unreliable else 1.0
        # community-dependent Bernoulli rates; contrast scales with s
        geo = rng.random() < 0.40 + direction * 0.08 * s
        background = rng.random() < 0.55 + direction * 0.07 * s
        default_profile = rng.random() < 0.35 - direction * 0.10 * s
        default_image = rng.random() < 0.10 - direction * 0.05 * s
        verified = rng.random() < max(0.002, 0.045 + direction * 0.04 * s)
        lang = _LANGS[rng.choice(len(_LANGS), p=_LANG_P)]
        # older accounts are more often reliable
        age_mean_years = 4.5 if not unreliable else 4.5 * (1.0 - 0.5 * s)
        age_years = rng.exponential(age_mean_years)
        desc = emb.unit(rng) + direction * cfg.description_signal * s * mu
        desc = desc / np.linalg.norm(desc)
        users[user_id(i)] = User(
            user_id=user_id(i),
            geo_enabled=bool(geo),
            background_picture=bool(background),
            default_profile=bool(default_profile),
            default_profile_image=bool(default_image),
            verified=bool(verified),
            lang=lang,
            description_embedding=desc,
            statuses_count=int(np.expm1(rng.normal(5.5, 2.0)).clip(0)),
            favourites_count=int(np.expm1(rng.normal(4.5, 2.2)).clip(0)),
            listed_count=int(np.expm1(rng.normal(1.2, 1.5)).clip(0)),
            followers_count=int(in_deg[i]),
            friends_count=int(out_deg[i]),
            created_at=t_ref - age_years * 365.0 * 86400.0,
        )
    return users


def _cascade_size_probs(cfg: GenConfig) -> np.ndarray:
    k = np.arange(1, cfg.max_cascade_size + 1, dtype=np.float64)
    w = k ** (-cfg.cascade_size_tail_exponent)
    return w / w.sum()


def _followers_adjacency(cfg: GenConfig, social: SocialGraph) -> list[np.ndarray]:
    """followers_of[v] = indexes of users following v, ascending."""
    number = np.array([int(u[1:]) for u in social.ids], dtype=np.int64)  # user_id's inverse
    pairs = number[social.index_pairs()]
    followers = pairs[np.lexsort((pairs[:, 0], pairs[:, 1])), 0]
    return np.split(followers, np.cumsum(np.bincount(pairs[:, 1], minlength=cfg.num_users))[:-1])


def _grow_cascade(rng, cfg: GenConfig, size: int, seed_user: int, root_time: float,
                  gap_seconds: float, comm, followers_of,
                  members_by_comm) -> list[tuple[int, float]]:
    """Capped independent-cascade wave over follow edges.

    Returns (user_index, timestamp) activations; spontaneous adopters top
    up the cascade when the frontier is exhausted before reaching size.
    """

    active = {seed_user}
    events = [(seed_user, root_time)]
    times = {seed_user: root_time}
    frontier = deque([seed_user])
    last_time = root_time
    while len(events) < size:
        if frontier:
            v = frontier.popleft()
            cands = followers_of[v]
            if cands.size:
                hits = cands[rng.random(cands.size) < cfg.activation_probability]
                for w in hits:
                    w = int(w)
                    if w in active:
                        continue
                    t = times[v] + rng.exponential(gap_seconds)
                    active.add(w)
                    times[w] = t
                    events.append((w, t))
                    last_time = max(last_time, t)
                    frontier.append(w)
                    if len(events) >= size:
                        break
        else:
            # spontaneous adopter, biased toward the seed's community
            same = rng.random() < cfg.spontaneous_same_community_prob
            group = members_by_comm[comm[seed_user]] if same else members_by_comm[1 - comm[seed_user]]
            w = None
            for _ in range(60):
                cand = int(group[int(rng.integers(group.size))])
                if cand not in active:
                    w = cand
                    break
            if w is None:
                break  # community exhausted; accept a shorter cascade
            t = last_time + rng.exponential(gap_seconds)
            active.add(w)
            times[w] = t
            events.append((w, t))
            last_time = t
            frontier.append(w)
    return events


def generate_dataset(cfg: GenConfig, social: SocialGraph) -> tuple[list[UrlStory], list[CascadeRecord]]:
    """Labeled stories plus their cascades over the given social graph."""
    comm = community_assignments(cfg)
    followers_of = _followers_adjacency(cfg, social)
    members_by_comm = (np.flatnonzero(comm == 0), np.flatnonzero(comm == 1))
    if members_by_comm[0].size == 0 or members_by_comm[1].size == 0:
        raise ConfigError(f"num_users: {cfg.num_users} at seed {cfg.seed} puts every user in "
                          f"one community; both communities need at least one member")
    emb = _EmbeddingSampler(cfg)

    rng_urls = _rng(cfg, _STREAM_URLS)
    n_fake = int(round(cfg.num_urls * cfg.fake_fraction))
    labels = np.array([LABEL_FAKE] * n_fake + [LABEL_TRUE] * (cfg.num_urls - n_fake))
    rng_urls.shuffle(labels)
    first_seen = EPOCH + rng_urls.random(cfg.num_urls) * cfg.time_horizon_days * 86400.0
    raw = rng_urls.lognormal(mean=0.0, sigma=1.0, size=cfg.num_urls)
    scale = cfg.mean_cascades_per_url / np.exp(0.5)  # lognormal(0,1) mean is e^0.5
    with np.errstate(over="ignore"):  # inf fails the check below
        counts = np.round(raw * scale)
    if not counts.max() < 2.0 ** 63:
        raise ConfigError(f"mean_cascades_per_url: {cfg.mean_cascades_per_url} at seed "
                          f"{cfg.seed} draws more cascades for a URL than int64 holds")
    counts = np.maximum(1, counts.astype(np.int64))

    size_probs = _cascade_size_probs(cfg)
    device_p = _device_probabilities(cfg.profile_signal_strength)
    stories: list[UrlStory] = []
    cascades: list[CascadeRecord] = []
    for u_idx in range(cfg.num_urls):
        rng = _rng(cfg, _STREAM_CASCADE, u_idx)
        fake = labels[u_idx] == LABEL_FAKE
        gap_hours = cfg.retweet_gap_hours_fake if fake else cfg.retweet_gap_hours_true
        p_unreliable = cfg.seed_unreliable_prob_fake if fake else cfg.seed_unreliable_prob_true
        url = f"url{u_idx:05d}"
        cascade_ids = []
        for c_idx in range(int(counts[u_idx])):
            size = int(rng.choice(size_probs.size, p=size_probs)) + 1
            seed_pool = members_by_comm[1] if rng.random() < p_unreliable else members_by_comm[0]
            seed_user = int(seed_pool[int(rng.integers(seed_pool.size))])
            root = first_seen[u_idx] if c_idx == 0 else (
                first_seen[u_idx] + rng.exponential(cfg.cascade_root_spread_hours * 3600.0))
            events = _grow_cascade(rng, cfg, size, seed_user, root, gap_hours * 3600.0,
                                   comm, followers_of, members_by_comm)
            events.sort(key=lambda e: e[1])
            cid = f"c{u_idx:05d}_{c_idx:04d}"
            tweets = []
            for k, (uidx, t) in enumerate(events):
                no_hashtags = rng.random() < 0.4
                tweets.append(Tweet(
                    tweet_id=f"{cid}_t{k:04d}",
                    author=user_id(uidx),
                    timestamp=float(t),
                    is_source=(k == 0),
                    retweeted_reply_count=int(np.expm1(rng.normal(1.5, 1.4)).clip(0)),
                    retweeted_quote_count=int(np.expm1(rng.normal(1.0, 1.2)).clip(0)),
                    retweeted_favorite_count=int(np.expm1(rng.normal(2.5, 1.8)).clip(0)),
                    retweeted_retweet_count=int(np.expm1(rng.normal(2.0, 1.6)).clip(0)),
                    source_device=_DEVICES[rng.choice(len(_DEVICES), p=device_p[comm[uidx]])],
                    text_embedding=emb.unit(rng),
                    hashtag_embedding=(np.zeros(EMBEDDING_DIM) if no_hashtags else emb.unit(rng)),
                ))
            cascades.append(CascadeRecord(cid, url, tuple(tweets)))
            cascade_ids.append(cid)
        stories.append(UrlStory(url, str(labels[u_idx]), float(first_seen[u_idx]),
                                tuple(cascade_ids)))
    return stories, cascades


def _device_probabilities(s: float) -> tuple[np.ndarray, np.ndarray]:
    """The source-device distribution of each community (reliable first),
    shifted from the communities' mean by the signal strength ``s``."""
    base = np.array([(b + u) / 2 for b, u in zip(_DEVICE_P_RELIABLE, _DEVICE_P_UNRELIABLE)])
    shifted = [(1.0 - s) * base + s * np.asarray(p) for p in (_DEVICE_P_RELIABLE,
                                                              _DEVICE_P_UNRELIABLE)]
    return tuple(p / p.sum() for p in shifted)


@dataclass(frozen=True)
class SummaryStats:
    num_urls: int
    num_cascades: int
    num_tweets: int
    fake_fraction: float
    mean_cascade_size: float
    cascade_size_histogram: dict[int, int]
    url_cumulative_share: tuple[float, ...]  # cascades held by top-k URLs, k = 1..num_urls
    coverage_by_hour: dict[float, float]     # mean per-cascade first-day coverage


COVERAGE_HOURS = (1.0, 3.0, 7.0, 15.0, 24.0)


def summary_stats(stories: list[UrlStory], cascades: list[CascadeRecord]) -> SummaryStats:
    if not stories or not cascades:
        raise ValueError("empty dataset")
    sizes = [c.size for c in cascades]
    hist: dict[int, int] = {}
    for s in sizes:
        hist[s] = hist.get(s, 0) + 1

    per_url: dict[str, int] = {}
    for c in cascades:
        per_url[c.url_id] = per_url.get(c.url_id, 0) + 1
    ranked = sorted(per_url.values(), reverse=True)
    total = sum(ranked)
    cum, acc = [], 0
    for v in ranked:
        acc += v
        cum.append(acc / total)

    coverage = {}
    for h in COVERAGE_HOURS:
        fracs = []
        for c in cascades:
            t0 = c.source.timestamp
            day = [t for t in c.tweets if t.timestamp - t0 <= 24 * 3600.0]
            within = sum(1 for t in day if t.timestamp - t0 <= h * 3600.0)
            fracs.append(within / len(day))
        coverage[h] = float(np.mean(fracs))

    n_fake = sum(1 for s in stories if s.is_fake)
    return SummaryStats(
        num_urls=len(stories),
        num_cascades=len(cascades),
        num_tweets=int(np.sum(sizes)),
        fake_fraction=n_fake / len(stories),
        mean_cascade_size=float(np.mean(sizes)),
        cascade_size_histogram=hist,
        url_cumulative_share=tuple(cum),
        coverage_by_hour=coverage,
    )

