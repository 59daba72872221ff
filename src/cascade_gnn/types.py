"""Domain types: users, tweets, cascades, stories, and propagation graphs.

All types are immutable after construction and validate their invariants in
``__post_init__``; operations elsewhere in the package treat them as values.
Timestamps are UTC seconds as floats.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EMBEDDING_DIM = 200

LABEL_TRUE = "true_news"
LABEL_FAKE = "fake_news"
LABELS = (LABEL_TRUE, LABEL_FAKE)

SCOPE_URL = "url_wise"
SCOPE_CASCADE = "cascade_wise"
SCOPES = (SCOPE_URL, SCOPE_CASCADE)


def _check_embedding(name: str, vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (EMBEDDING_DIM,):
        raise ValueError(f"{name} must have exactly {EMBEDDING_DIM} components, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} contains non-finite components")
    return vec


@dataclass(frozen=True, eq=False)
class User:
    user_id: str
    geo_enabled: bool
    background_picture: bool
    default_profile: bool
    default_profile_image: bool
    verified: bool
    lang: str
    description_embedding: np.ndarray
    statuses_count: int
    favourites_count: int
    listed_count: int
    followers_count: int
    friends_count: int
    created_at: float

    def __post_init__(self):
        for name in ("statuses_count", "favourites_count", "listed_count",
                     "followers_count", "friends_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        object.__setattr__(self, "description_embedding",
                           _check_embedding("description_embedding", self.description_embedding))


@dataclass(frozen=True, eq=False)
class Tweet:
    tweet_id: str
    author: str
    timestamp: float
    cascade_id: str
    is_source: bool
    retweeted_reply_count: int
    retweeted_quote_count: int
    retweeted_favorite_count: int
    retweeted_retweet_count: int
    source_device: str
    text_embedding: np.ndarray
    hashtag_embedding: np.ndarray

    def __post_init__(self):
        for name in ("retweeted_reply_count", "retweeted_quote_count",
                     "retweeted_favorite_count", "retweeted_retweet_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        object.__setattr__(self, "text_embedding",
                           _check_embedding("text_embedding", self.text_embedding))
        object.__setattr__(self, "hashtag_embedding",
                           _check_embedding("hashtag_embedding", self.hashtag_embedding))


@dataclass(frozen=True, eq=False)
class SocialGraph:
    """Directed follow relations; ``(a, b)`` in ``follows`` means a follows b."""

    users: dict[str, User]
    follows: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "follows", frozenset(self.follows))
        for a, b in self.follows:
            if a == b:
                raise ValueError(f"self-follow pair {a!r}")
            if a not in self.users or b not in self.users:
                raise ValueError(f"follow pair ({a!r}, {b!r}) references unknown user")

    def follows_pair(self, a: str, b: str) -> bool:
        return (a, b) in self.follows


@dataclass(frozen=True, eq=False)
class CascadeRecord:
    """A source tweet plus its retweets, sorted non-decreasing by timestamp."""

    cascade_id: str
    url_id: str
    tweets: tuple[Tweet, ...]

    def __post_init__(self):
        object.__setattr__(self, "tweets", tuple(self.tweets))
        if not self.tweets:
            raise ValueError(f"cascade {self.cascade_id!r} has no tweets")
        times = [t.timestamp for t in self.tweets]
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError(f"cascade {self.cascade_id!r} tweets not sorted by timestamp")
        sources = [t for t in self.tweets if t.is_source]
        if len(sources) != 1:
            raise ValueError(f"cascade {self.cascade_id!r} must have exactly one source tweet")
        if not self.tweets[0].is_source:
            raise ValueError(f"cascade {self.cascade_id!r} first tweet is not the source")

    @property
    def source(self) -> Tweet:
        return self.tweets[0]

    @property
    def size(self) -> int:
        return len(self.tweets)


@dataclass(frozen=True, eq=False)
class UrlStory:
    url_id: str
    label: str
    first_seen: float
    cascade_ids: tuple[str, ...]

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")
        object.__setattr__(self, "cascade_ids", tuple(self.cascade_ids))

    @property
    def is_fake(self) -> bool:
        return self.label == LABEL_FAKE


@dataclass(frozen=True, eq=False)
class SpreadingTree:
    """Estimated diffusion predecessor for each non-source tweet of one cascade."""

    cascade_id: str
    root: str
    parent: dict[str, str]

    def __post_init__(self):
        # parent links must form a tree rooted at the source
        for child in self.parent:
            node, hops = child, 0
            while node != self.root:
                node = self.parent.get(node)
                hops += 1
                if node is None or hops > len(self.parent):
                    raise ValueError(f"parent map of cascade {self.cascade_id!r} is not a tree "
                                     f"rooted at {self.root!r}")

    def spread_pairs(self) -> set[tuple[str, str]]:
        """Directed (parent_tweet, child_tweet) diffusion links."""
        return {(p, c) for c, p in self.parent.items()}


# Edge relation flags, fixed order: the remaining code indexes into this.
FLAG_I_FOLLOWS_J = 0
FLAG_J_FOLLOWS_I = 1
FLAG_SPREAD_I_TO_J = 2
FLAG_SPREAD_J_TO_I = 3


@dataclass(frozen=True, eq=False)
class PropagationGraph:
    """Tweet-level graph: nodes, feature matrix, and 4-flag relation edges.

    ``edges`` holds each unordered node pair at most once as
    ``(i, j, (i_follows_j, j_follows_i, spread_i_to_j, spread_j_to_i))``
    with ``i < j`` by node index.  ``node_times`` and ``node_authors`` give
    each node's timestamp and author, in node order.
    """

    nodes: tuple[str, ...]
    node_features: np.ndarray
    edges: tuple[tuple[int, int, tuple[bool, bool, bool, bool]], ...]
    label: str
    scope: str
    node_times: tuple[float, ...] = field(default=())
    node_authors: tuple[str, ...] = field(default=())

    def __post_init__(self):
        feats = np.asarray(self.node_features, dtype=np.float64)
        if feats.shape[0] != len(self.nodes):
            raise ValueError("node_features row count must match node count")
        if not np.isfinite(feats).all():
            raise ValueError("node_features contains non-finite values")
        object.__setattr__(self, "node_features", feats)
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}")
        seen = set()
        n = len(self.nodes)
        for i, j, flags in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references missing node")
            if i >= j:
                raise ValueError(f"edge ({i}, {j}) not stored in canonical i < j order")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            if len(flags) != 4:
                raise ValueError("relation flags must have exactly 4 entries")
            if not any(flags):
                raise ValueError(f"edge ({i}, {j}) has no relation flag set")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)
