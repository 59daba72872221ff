"""Propagation-graph construction: spreading trees, edges, truncation.

The spreading rules assign each retweet an estimated predecessor: the
latest preceding tweet whose author the retweeter follows, falling back
to the preceding tweet whose author has the most followers.
"""
from __future__ import annotations

import numpy as np

from .features import FeatureSchema, encode_node_features
from .types import (FLAG_I_FOLLOWS_J, FLAG_J_FOLLOWS_I, FLAG_SPREAD_I_TO_J, CascadeRecord,
                    PropagationGraph, SCOPE_CASCADE, SCOPE_URL, SocialGraph, SpreadingTree,
                    Tweet, UrlStory)


def estimate_spreading_tree(cascade: CascadeRecord, social: SocialGraph) -> SpreadingTree:
    """Assign every retweet its estimated diffusion predecessor.

    Rule 1: if the retweeter follows at least one earlier author, the
    parent is the latest preceding tweet with a followed author.
    Rule 2: otherwise the parent is the preceding tweet whose author has
    the largest followers_count (earliest such tweet on ties).
    """
    for t in cascade.tweets:
        if t.author not in social.users:
            raise KeyError(f"cascade {cascade.cascade_id!r} references unknown user {t.author!r}")

    parent: dict[str, str] = {}
    preceding: list[Tweet] = []
    for tweet in cascade.tweets:
        if tweet.is_source:
            preceding.append(tweet)
            continue
        chosen = None
        for prev in reversed(preceding):
            if social.follows_pair(tweet.author, prev.author):
                chosen = prev
                break
        if chosen is None:
            best = -1
            for prev in preceding:
                followers = social.users[prev.author].followers_count
                if followers > best:
                    best = followers
                    chosen = prev
        parent[tweet.tweet_id] = chosen.tweet_id
        preceding.append(tweet)
    return SpreadingTree(cascade.cascade_id, cascade.source.tweet_id, parent)


def truncate(cascades: list[CascadeRecord], d_hours: float,
             reference: str = "cascade") -> list[CascadeRecord]:
    """Keep tweets published within [t, t + d] hours of the reference tweet.

    ``reference="cascade"`` measures from each cascade's own source tweet
    (so every cascade keeps at least its source); ``reference="story"``
    measures from the earliest source across the given cascades and drops
    cascades left empty.
    """
    if d_hours < 0:
        raise ValueError("diffusion window must be non-negative")
    if not cascades:
        return []
    if reference not in ("cascade", "story"):
        raise ValueError(f"unknown reference {reference!r}")
    story_t0 = min(c.source.timestamp for c in cascades)
    horizon = d_hours * 3600.0
    out = []
    for cas in cascades:
        t0 = cas.source.timestamp if reference == "cascade" else story_t0
        kept = tuple(t for t in cas.tweets if t0 <= t.timestamp <= t0 + horizon)
        if kept:
            out.append(CascadeRecord(cas.cascade_id, cas.url_id, kept))
    return out


def credibility_score(user_id: str, participated: dict[str, set[str]],
                      labels: dict[str, str]) -> float:
    """(true - fake) / (true + fake) over the distinct labeled stories a user (re)tweeted.

    ``participated`` maps user_id to the set of url_ids the user tweeted in;
    positive scores mean reliable.
    """
    urls = participated.get(user_id)
    if not urls:
        raise ValueError(f"user {user_id!r} participated in no labeled story")
    n_true = sum(1 for u in urls if labels[u] == "true_news")
    n_fake = len(urls) - n_true
    return (n_true - n_fake) / (n_true + n_fake)


def story_participation(stories: list[UrlStory],
                        cascades_by_url: dict[str, list[CascadeRecord]]) -> tuple[dict, dict]:
    """Collect per-user sets of (re)tweeted stories plus the label map."""
    participated: dict[str, set[str]] = {}
    labels = {s.url_id: s.label for s in stories}
    for story in stories:
        for cas in cascades_by_url.get(story.url_id, []):
            for t in cas.tweets:
                participated.setdefault(t.author, set()).add(story.url_id)
    return participated, labels


def credibility_scores(stories, cascades_by_url) -> dict[str, float]:
    participated, labels = story_participation(stories, cascades_by_url)
    return {u: credibility_score(u, participated, labels) for u in participated}


def build_propagation_graph(story: UrlStory, cascades: list[CascadeRecord],
                            social: SocialGraph, scope: str,
                            schema: FeatureSchema) -> PropagationGraph:
    """Tweets as nodes; an edge wherever any of the four relations holds.

    ``scope="url_wise"`` takes all given cascades of the story,
    ``scope="cascade_wise"`` exactly one.  Spreading flags come from the
    per-cascade spreading trees, follow flags from the social graph; each
    unordered pair is stored once with merged flags.  Tweet IDs must be
    unique across the given cascades.
    """
    if scope == SCOPE_CASCADE and len(cascades) != 1:
        raise ValueError("cascade_wise scope requires exactly one cascade")
    if scope == SCOPE_URL:
        for cas in cascades:
            if cas.url_id != story.url_id:
                raise ValueError(f"cascade {cas.cascade_id!r} does not belong to story {story.url_id!r}")
    if not cascades:
        raise ValueError("no cascades given")

    # canonical node order: (timestamp, tweet_id), independent of cascade ordering
    entries = []
    for cas in cascades:
        for t in cas.tweets:
            if t.author not in social.users:
                raise KeyError(f"tweet {t.tweet_id!r} references unknown user {t.author!r}")
            entries.append((t, cas))
    entries.sort(key=lambda e: (e[0].timestamp, e[0].tweet_id))
    index: dict[str, int] = {}
    for k, (t, _) in enumerate(entries):
        if index.setdefault(t.tweet_id, k) != k:
            raise ValueError(f"duplicate tweet id {t.tweet_id!r} in story {story.url_id!r}")

    spread: set[tuple[int, int]] = set()
    for cas in sorted(cascades, key=lambda c: c.cascade_id):
        tree = estimate_spreading_tree(cas, social)
        for p, c in tree.spread_pairs():
            spread.add((index[p], index[c]))

    flags: dict[tuple[int, int], list[bool]] = {}

    def flag(i, j, pos):
        if i == j:
            return
        key, swap = ((i, j), False) if i < j else ((j, i), True)
        rec = flags.setdefault(key, [False, False, False, False])
        # swapping endpoints swaps the members of each directed flag pair
        rec[(pos ^ 1) if swap else pos] = True

    for a, b in spread:
        flag(a, b, FLAG_SPREAD_I_TO_J)  # with i=a, j=b
    authors = [t.author for t, _ in entries]
    n = len(entries)
    for i in range(n):
        for j in range(i + 1, n):
            if social.follows_pair(authors[i], authors[j]):
                flag(i, j, FLAG_I_FOLLOWS_J)
            if social.follows_pair(authors[j], authors[i]):
                flag(i, j, FLAG_J_FOLLOWS_I)

    feats = np.empty((n, schema.width))
    root_time = {cas.cascade_id: cas.source.timestamp for cas in cascades}
    for k, (t, cas) in enumerate(entries):
        feats[k] = encode_node_features(t, social.users[t.author],
                                        root_time[cas.cascade_id], schema)

    edges = tuple((i, j, tuple(f)) for (i, j), f in sorted(flags.items()))
    return PropagationGraph(
        nodes=tuple(t.tweet_id for t, _ in entries),
        node_features=feats,
        edges=edges,
        label=story.label,
        scope=scope,
        node_times=tuple(t.timestamp for t, _ in entries),
        node_authors=tuple(authors),
    )
