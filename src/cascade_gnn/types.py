"""Domain types: users, tweets, the social graph, cascades and stories; and
the value rules that check a config value wherever it comes from.

All types are immutable after construction and validate their invariants in
``__post_init__``; operations elsewhere in the package treat them as values.
Timestamps are UTC seconds as floats.  ``SocialGraph`` keeps its follow
relations as one sorted, read-only integer array, whose encoding only this
module knows; other modules read index pairs, ID pairs, counts or
``follow_matrix`` lookups from it.
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


# -- value rules --------------------------------------------------------------
# A rule takes a value as a flag, a JSON config file or a Python caller gives
# it, and returns it as its field's type, or raises ValueError (or the
# TypeError or OverflowError of a conversion) saying what it must be.

def integer(value) -> int:
    """An int, a float with an integral value, or a decimal string; a
    boolean is not a number."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def number(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def interval(parse, bounds: str):
    """The rule that ``parse``s a value and checks that it lies in
    ``bounds``, an interval written as '(0, 1]' or '[1, inf)'."""
    lo, hi = (float(b) if "inf" in b else parse(b) for b in bounds[1:-1].split(","))
    kind = "an integer" if parse is integer else "a number"

    def rule(value):
        x = parse(value)
        above = lo < x if bounds[0] == "(" else lo <= x
        below = x < hi if bounds[-1] == ")" else x <= hi
        if not (above and below):
            raise ValueError(f"must be {kind} in {bounds}, got {x}")
        return x
    return rule


positive_int = interval(integer, "[1, inf)")
positive_number = interval(number, "(0, inf)")


def rng_seed(value) -> int:
    n = integer(value)
    if n < 0:
        raise ValueError(f"must be a non-negative integer, got {n}")
    return n


def text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def optional_text(value) -> str | None:
    return None if value is None else text(value)


class ConfigError(ValueError):
    """A config value that its class, or the generator, cannot work with."""


def check_fields(obj, rules: dict) -> None:
    """Pass each field of the frozen dataclass ``obj`` that ``rules`` names
    through its rule and keep the result; a value that a rule rejects
    raises ``ConfigError`` naming the field."""
    for name, rule in rules.items():
        try:
            value = rule(getattr(obj, name))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: {exc}") from None
        object.__setattr__(obj, name, value)


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
    """Directed follow relations among ``users``.

    ``ids`` holds the user IDs sorted, and a user's index is its position
    there.  ``follows`` holds one int64 code per follow relation,
    ``a * len(ids) + b`` for "user a follows user b", sorted and unique; so
    its order is the order of the sorted (follower, followee) ID pairs.  Only
    this class reads or writes the codes: ``from_pairs`` builds a graph from
    index pairs, and ``index_pairs``, ``pairs`` and ``follow_matrix`` read it.
    """

    users: dict[str, User]
    follows: np.ndarray
    ids: tuple[str, ...] = field(init=False, repr=False)
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        ids = tuple(sorted(self.users))
        n = len(ids)
        codes = np.asarray(self.follows)
        if codes.ndim != 1 or (codes.size and codes.dtype.kind not in "iu"):
            raise ValueError(f"follows must be a 1-d integer array, got {codes.dtype} "
                             f"of shape {codes.shape}")
        codes = codes.astype(np.int64)
        codes.flags.writeable = False
        step = np.diff(codes)
        if (step < 0).any():
            raise ValueError("follows are not sorted")
        if (step == 0).any():
            raise ValueError("a follow is repeated")
        if codes.size and (codes[0] < 0 or codes[-1] >= n * n):
            raise ValueError(f"a follow references a user beyond the {n} users")
        if (codes // n == codes % n).any():
            raise ValueError("a user follows itself")
        object.__setattr__(self, "follows", codes)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_index", {u: k for k, u in enumerate(ids)})

    @classmethod
    def from_pairs(cls, users: dict[str, User], followers, followees) -> SocialGraph:
        """The graph in which ``followers[k]`` follows ``followees[k]``, both
        positions in ``list(users)``, in any order; a pair out of range,
        repeated or of one user raises ``ValueError``."""
        n = len(users)
        a, b = (np.asarray(x, dtype=np.int64) for x in (followers, followees))
        if a.size != b.size:
            raise ValueError(f"{a.size} followers for {b.size} followees")
        if a.size and (min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n):
            raise ValueError(f"a follow references a user beyond the {n} users")
        keys = list(users)
        rank = np.empty(n, dtype=np.int64)
        rank[sorted(range(n), key=keys.__getitem__)] = np.arange(n)
        return cls(users, np.sort(rank[a] * n + rank[b]))

    def index_pairs(self) -> np.ndarray:
        """(len(follows), 2) intp: each follow's (follower, followee) indexes
        into ``ids``, in sorted order."""
        return np.stack(np.divmod(self.follows, len(self.ids)), axis=1).astype(np.intp, copy=False)

    def pairs(self) -> list[tuple[str, str]]:
        """Each follow as its (follower ID, followee ID) pair, in sorted order."""
        ids = self.ids
        return [(ids[a], ids[b]) for a, b in self.index_pairs().tolist()]

    def follow_matrix(self, ids) -> np.ndarray:
        """(k, k) bool for the k user IDs ``ids``, which may repeat: entry
        [i, j] says that ``ids[i]`` follows ``ids[j]``.  An unknown ID raises
        ``KeyError``."""
        at = np.fromiter(map(self._index.__getitem__, ids), dtype=np.int64, count=len(ids))
        follows = self.follows
        if not follows.size:
            return np.zeros((at.size, at.size), dtype=bool)
        # in sorted user order the codes come sorted, and searchsorted walks them in order
        order = np.argsort(at)
        users = at[order]
        codes = (users[:, None] * len(self.ids) + users).ravel()
        found = np.minimum(np.searchsorted(follows, codes), follows.size - 1)
        hit = (follows[found] == codes).reshape(at.size, at.size)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return hit[rank[:, None], rank]


def first_repeat(followers, followees) -> int | None:
    """The position of the first (follower, followee) index pair that
    repeats an earlier one, or None."""
    a, b = (np.asarray(x, dtype=np.int64) for x in (followers, followees))
    if a.size < 2:
        return None
    codes = a * (max(a.max(), b.max()) + 1) + b
    order = np.argsort(codes, kind="stable")  # a repeat sorts after its first
    later = order[1:][codes[order[1:]] == codes[order[:-1]]]
    return int(later.min()) if later.size else None


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
