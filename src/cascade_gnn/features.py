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

from .dataio import DatasetFormatError, text_lines
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

    def group_columns(self, group: str) -> np.ndarray:
        cols = []
        for s in self.slices:
            if s.group == group:
                cols.extend(range(s.start, s.stop))
        return np.asarray(cols, dtype=np.intp)


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
    values = {
        "geo_enabled": float(user.geo_enabled),
        "background_picture": float(user.background_picture),
        "default_profile": float(user.default_profile),
        "default_profile_image": float(user.default_profile_image),
        "verified": float(user.verified),
        "lang": _one_hot(user.lang, HASH_BINS),
        "description_embedding": user.description_embedding,
        "account_age_years": max(0.0, tweet.timestamp - user.created_at) / SECONDS_PER_YEAR,
        "statuses_count": np.log1p(user.statuses_count),
        "favourites_count": np.log1p(user.favourites_count),
        "listed_count": np.log1p(user.listed_count),
        "followers_count": np.log1p(user.followers_count),
        "friends_count": np.log1p(user.friends_count),
        "is_source": float(tweet.is_source),
        "time_delta": np.log1p(max(0.0, tweet.timestamp - cascade_root_time) / SECONDS_PER_HOUR),
        "retweeted_reply_count": np.log1p(tweet.retweeted_reply_count),
        "retweeted_quote_count": np.log1p(tweet.retweeted_quote_count),
        "retweeted_favorite_count": np.log1p(tweet.retweeted_favorite_count),
        "retweeted_retweet_count": np.log1p(tweet.retweeted_retweet_count),
        "source_device": _one_hot(tweet.source_device, HASH_BINS),
        "text_embedding": tweet.text_embedding,
        "hashtag_embedding": tweet.hashtag_embedding,
    }
    out = np.zeros(schema.width)
    for s in schema.slices:
        out[s.start:s.stop] = values[s.name]

    if not np.isfinite(out).all():
        raise ValueError("encoded node features contain non-finite values")
    return out


def load_word_vectors(path) -> dict[str, np.ndarray]:
    """Read a plain-text word-vector file: ``token v1 ... v200`` per line.
    A line that is not UTF-8, of another width or with a value that is not
    a finite number, and a file without vectors, raise ``DatasetFormatError``."""
    table = {}
    for line, text in enumerate(text_lines(path), 1):
        parts = text.rstrip("\n").split(" ")
        if len(parts) != EMBEDDING_DIM + 1:
            raise DatasetFormatError(path, line, f"expected token plus {EMBEDDING_DIM} "
                                                 f"values, got {len(parts)} fields")
        try:
            vec = np.array([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise DatasetFormatError(path, line, str(exc)) from None
        if not np.isfinite(vec).all():
            raise DatasetFormatError(path, line, f"token {parts[0]!r} has a non-finite value")
        table[parts[0]] = vec
    if not table:
        raise DatasetFormatError(path, 1, "no word vectors")
    return table


def embed_tokens(tokens, table: dict[str, np.ndarray]) -> np.ndarray:
    """Mean of the known tokens' vectors; zero vector when none are known."""
    vecs = [table[t] for t in tokens if t in table]
    if not vecs:
        return np.zeros(EMBEDDING_DIM)
    return np.mean(vecs, axis=0)
