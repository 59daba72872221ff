"""Propagation-graph construction: spreading trees, training samples, truncation.

The spreading rules assign each retweet an estimated predecessor: the
latest preceding tweet whose author the retweeter follows, falling back
to the preceding tweet whose author has the most followers.  A cascade's
spreading tree gives each retweet its predecessor's position in the
cascade; the build places it through a rank array from the one sort that
puts a graph's tweets in node order.  Who follows whom comes from one
``SocialGraph.follow_matrix`` lookup per graph, and the node features from
one ``encode_node_features`` call per graph: 33 dense columns per node, and
its rows of the build's ``EmbeddingTable`` for the three embedding blocks.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .classifier import PreparedGraph
from .features import EmbeddingTable, encode_node_features
from .nn import build_edge_arrays
from .types import CascadeRecord, SCOPE_CASCADE, SCOPE_URL, SCOPES, SocialGraph, UrlStory


def _spreading_tree(cascade: CascadeRecord, follows: np.ndarray,
                    social: SocialGraph) -> np.ndarray:
    """The position in the cascade of each retweet's parent, retweets in
    cascade order, given the cascade's follow matrix: entry [k, j] says
    tweet k's author follows tweet j's."""
    tweets = cascade.tweets
    rows = follows.tolist()
    followers = [social.users[t.author].followers_count for t in tweets]
    parents = []
    most = 0  # the earliest tweet before k whose author has the most followers
    for k in range(1, len(tweets)):
        if followers[k - 1] > followers[most]:
            most = k - 1
        earlier = rows[k][k - 1::-1]  # does k's author follow that of tweet k - 1, ..., 0
        parents.append(k - 1 - earlier.index(True) if True in earlier else most)
    return np.array(parents, dtype=np.intp)


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
                            table: EmbeddingTable) -> PreparedGraph:
    """The story's sample, features unmasked: tweets as nodes in (timestamp,
    tweet ID) order, and the messages that ``nn.build_edge_arrays`` makes
    of the nodes' pair relations.  The relation array's entry [i, j] holds
    (i_follows_j, j_follows_i, spread_i_to_j, spread_j_to_i): follow flags
    from one ``follow_matrix`` lookup over the nodes' authors, spread flags
    from the per-cascade spreading trees, which read their cascade's block
    of that matrix.  The features come from one ``encode_node_features``
    call over all nodes, with their embedding blocks as rows of ``table``,
    which must hold every embedding of the nodes and their authors.

    ``scope="url_wise"`` takes all given cascades of the story and is keyed
    by its URL, ``scope="cascade_wise"`` exactly one, keyed by its ID.
    Tweet IDs must be unique across the cascades.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}")
    if scope == SCOPE_CASCADE and len(cascades) != 1:
        raise ValueError("cascade_wise scope requires exactly one cascade")
    if scope == SCOPE_URL:
        for cas in cascades:
            if cas.url_id != story.url_id:
                raise ValueError(f"cascade {cas.cascade_id!r} does not belong to story {story.url_id!r}")
    if not cascades:
        raise ValueError("no cascades given")

    tweets = [t for cas in cascades for t in cas.tweets]  # in cascade order
    roots = [cas.source.timestamp for cas in cascades for _ in cas.tweets]
    for t in tweets:
        if t.author not in social.users:
            raise KeyError(f"tweet {t.tweet_id!r} references unknown user {t.author!r}")
    # canonical node order: (timestamp, tweet_id), independent of cascade
    # ordering; tweets[k] is node rank[k]
    n = len(tweets)
    order = sorted(range(n), key=lambda k: (tweets[k].timestamp, tweets[k].tweet_id))
    rank = np.argsort(order)
    nodes = [tweets[k] for k in order]
    repeated = [i for i, count in Counter(t.tweet_id for t in nodes).items() if count > 1]
    if repeated:
        raise ValueError(f"duplicate tweet id {repeated[0]!r} in story {story.url_id!r}")

    # follows[i, j]: node i's author follows node j's
    authors = [t.author for t in nodes]
    users = [social.users[a] for a in authors]
    follows = social.follow_matrix(authors)
    # spread[i, j]: node i is node j's spreading-tree parent
    spread = np.zeros((n, n), dtype=bool)
    ends = np.cumsum([cas.size for cas in cascades])
    for cas, at in zip(cascades, np.split(rank, ends[:-1])):  # at: the cascade's nodes
        spread[at[_spreading_tree(cas, follows[at[:, None], at], social)], at[1:]] = True
    relation = np.stack([follows, follows.T, spread, spread.T], axis=2)

    dense, rows = encode_node_features(nodes, users, [roots[k] for k in order], table)
    return PreparedGraph(
        key=story.url_id if scope == SCOPE_URL else cascades[0].cascade_id,
        url_id=story.url_id,
        dense=dense,
        edges=build_edge_arrays(relation),
        label=int(story.is_fake),
        times=tuple(t.timestamp for t in nodes),
        authors=tuple(authors),
        rows=rows,
        table=table.array,
    )
