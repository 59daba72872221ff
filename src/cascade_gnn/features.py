"""Node feature schema and encoders.

The node vector layout groups 22 named slices into four ablation groups:
user_profile (214), user_activity (3), network_spreading (16) and
content (400), for a total width of 633.  Categorical strings (lang,
source device) are mapped to a stable 8-bucket hash one-hot; counts are
compressed with log(1 + x).
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .types import EMBEDDING_DIM, Tweet, User

GROUP_USER_PROFILE = "user_profile"
GROUP_USER_ACTIVITY = "user_activity"
GROUP_NETWORK_SPREADING = "network_spreading"
GROUP_CONTENT = "content"
FEATURE_GROUPS = (GROUP_USER_PROFILE, GROUP_USER_ACTIVITY,
                  GROUP_NETWORK_SPREADING, GROUP_CONTENT)

HASH_BINS = 8
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_YEAR = 365.0 * 86400.0


@dataclass(frozen=True)
class FeatureSlice:
    name: str
    group: str
    start: int
    stop: int

    @property
    def width(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True, eq=False)
class FeatureSchema:
    """Ordered, disjoint feature slices covering [0, width)."""

    slices: tuple[FeatureSlice, ...]

    def __post_init__(self):
        pos = 0
        for s in self.slices:
            if s.start != pos or s.stop <= s.start:
                raise ValueError(f"slice {s.name!r} does not tile the feature vector")
            if s.group not in FEATURE_GROUPS:
                raise ValueError(f"slice {s.name!r} has unknown group {s.group!r}")
            pos = s.stop
        names = [s.name for s in self.slices]
        if len(set(names)) != len(names):
            raise ValueError("duplicate slice names")

    @property
    def width(self) -> int:
        return self.slices[-1].stop

    def slice(self, name: str) -> FeatureSlice:
        for s in self.slices:
            if s.name == name:
                return s
        raise KeyError(name)

    def group_columns(self, group: str) -> np.ndarray:
        cols = []
        for s in self.slices:
            if s.group == group:
                cols.extend(range(s.start, s.stop))
        return np.asarray(cols, dtype=np.intp)

    def group_width(self, group: str) -> int:
        return sum(s.width for s in self.slices if s.group == group)


def _layout(spec: list[tuple[str, str, int]]) -> tuple[FeatureSlice, ...]:
    out, pos = [], 0
    for name, group, width in spec:
        out.append(FeatureSlice(name, group, pos, pos + width))
        pos += width
    return tuple(out)


def default_schema() -> FeatureSchema:
    return FeatureSchema(_layout([
        ("geo_enabled", GROUP_USER_PROFILE, 1),
        ("background_picture", GROUP_USER_PROFILE, 1),
        ("default_profile", GROUP_USER_PROFILE, 1),
        ("default_profile_image", GROUP_USER_PROFILE, 1),
        ("verified", GROUP_USER_PROFILE, 1),
        ("lang", GROUP_USER_PROFILE, HASH_BINS),
        ("description_embedding", GROUP_USER_PROFILE, EMBEDDING_DIM),
        ("account_age_years", GROUP_USER_PROFILE, 1),
        ("statuses_count", GROUP_USER_ACTIVITY, 1),
        ("favourites_count", GROUP_USER_ACTIVITY, 1),
        ("listed_count", GROUP_USER_ACTIVITY, 1),
        ("followers_count", GROUP_NETWORK_SPREADING, 1),
        ("friends_count", GROUP_NETWORK_SPREADING, 1),
        ("is_source", GROUP_NETWORK_SPREADING, 1),
        ("time_delta", GROUP_NETWORK_SPREADING, 1),
        ("retweeted_reply_count", GROUP_NETWORK_SPREADING, 1),
        ("retweeted_quote_count", GROUP_NETWORK_SPREADING, 1),
        ("retweeted_favorite_count", GROUP_NETWORK_SPREADING, 1),
        ("retweeted_retweet_count", GROUP_NETWORK_SPREADING, 1),
        ("source_device", GROUP_NETWORK_SPREADING, HASH_BINS),
        ("text_embedding", GROUP_CONTENT, EMBEDDING_DIM),
        ("hashtag_embedding", GROUP_CONTENT, EMBEDDING_DIM),
    ]))


def stable_hash_bin(value: str, bins: int = HASH_BINS) -> int:
    """Process-independent bucket for a categorical string."""
    return zlib.crc32(value.encode("utf-8")) % bins


def _one_hot(value: str, bins: int) -> np.ndarray:
    v = np.zeros(bins)
    v[stable_hash_bin(value, bins)] = 1.0
    return v


def encode_node_features(tweet: Tweet, user: User, cascade_root_time: float,
                         schema: FeatureSchema) -> np.ndarray:
    """Encode one tweet+author into the schema's node vector.

    Booleans map to {0,1}, counts to log(1+x), account age to years at
    tweet time, and the tweet's delay from its cascade root to
    log(1 + seconds/3600).  Embedding slices are copied verbatim.
    """
    out = np.zeros(schema.width)

    def put(name, value):
        s = schema.slice(name)
        out[s.start:s.stop] = value

    put("geo_enabled", float(user.geo_enabled))
    put("background_picture", float(user.background_picture))
    put("default_profile", float(user.default_profile))
    put("default_profile_image", float(user.default_profile_image))
    put("verified", float(user.verified))
    put("lang", _one_hot(user.lang, HASH_BINS))
    put("description_embedding", user.description_embedding)
    put("account_age_years", max(0.0, tweet.timestamp - user.created_at) / SECONDS_PER_YEAR)
    put("statuses_count", np.log1p(user.statuses_count))
    put("favourites_count", np.log1p(user.favourites_count))
    put("listed_count", np.log1p(user.listed_count))
    put("followers_count", np.log1p(user.followers_count))
    put("friends_count", np.log1p(user.friends_count))
    put("is_source", float(tweet.is_source))
    put("time_delta", np.log1p(max(0.0, tweet.timestamp - cascade_root_time) / SECONDS_PER_HOUR))
    put("retweeted_reply_count", np.log1p(tweet.retweeted_reply_count))
    put("retweeted_quote_count", np.log1p(tweet.retweeted_quote_count))
    put("retweeted_favorite_count", np.log1p(tweet.retweeted_favorite_count))
    put("retweeted_retweet_count", np.log1p(tweet.retweeted_retweet_count))
    put("source_device", _one_hot(tweet.source_device, HASH_BINS))
    put("text_embedding", tweet.text_embedding)
    put("hashtag_embedding", tweet.hashtag_embedding)

    if not np.isfinite(out).all():
        raise ValueError("encoded node features contain non-finite values")
    return out


def load_word_vectors(path) -> dict[str, np.ndarray]:
    """Read a plain-text word-vector file: ``token v1 ... v200`` per line."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != EMBEDDING_DIM + 1:
                raise ValueError(f"expected token plus {EMBEDDING_DIM} values, "
                                 f"got {len(parts)} fields")
            table[parts[0]] = np.array([float(x) for x in parts[1:]])
    return table


def embed_tokens(tokens, table: dict[str, np.ndarray]) -> np.ndarray:
    """Mean of the known tokens' vectors; zero vector when none are known."""
    vecs = [table[t] for t in tokens if t in table]
    if not vecs:
        return np.zeros(EMBEDDING_DIM)
    return np.mean(vecs, axis=0)
