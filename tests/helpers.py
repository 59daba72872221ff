"""Shared test fixtures: tiny worlds, finite differences, dense oracles."""
from __future__ import annotations

import numpy as np

from cascade_gnn.classifier import PreparedGraph
from cascade_gnn.features import FEATURE_GROUPS, FeatureSchema, FeatureSlice
from cascade_gnn.nn import build_edge_arrays
from cascade_gnn.types import (CascadeRecord, EMBEDDING_DIM, SocialGraph,
                               Tweet, UrlStory, User)

ZERO_EMB = np.zeros(EMBEDDING_DIM)


def make_user(uid, followers=0, friends=0, **kw):
    defaults = dict(
        user_id=uid, geo_enabled=False, background_picture=False,
        default_profile=False, default_profile_image=False, verified=False,
        lang="en", description_embedding=ZERO_EMB, statuses_count=0,
        favourites_count=0, listed_count=0, followers_count=followers,
        friends_count=friends, created_at=0.0,
    )
    defaults.update(kw)
    return User(**defaults)


def make_tweet(tid, author, ts, cascade_id="c0", is_source=False, **kw):
    defaults = dict(
        tweet_id=tid, author=author, timestamp=float(ts), cascade_id=cascade_id,
        is_source=is_source, retweeted_reply_count=0, retweeted_quote_count=0,
        retweeted_favorite_count=0, retweeted_retweet_count=0,
        source_device="web", text_embedding=ZERO_EMB, hashtag_embedding=ZERO_EMB,
    )
    defaults.update(kw)
    return Tweet(**defaults)


def make_cascade(authors_times, cascade_id="c0", url_id="url0"):
    """Cascade from [(author, timestamp), ...]; the first entry is the source."""
    tweets = [make_tweet(f"{cascade_id}_t{k}", a, ts, cascade_id, is_source=(k == 0))
              for k, (a, ts) in enumerate(authors_times)]
    return CascadeRecord(cascade_id, url_id, tuple(tweets))


def make_social(user_specs, follows):
    """user_specs: {uid: followers_count}; follows: iterable of (a, b)."""
    users = {uid: make_user(uid, followers=cnt) for uid, cnt in user_specs.items()}
    return SocialGraph(users=users, follows=frozenset(follows))


def make_story(url_id, label, cascade_ids, first_seen=0.0):
    return UrlStory(url_id, label, first_seen, tuple(cascade_ids))


# -- tiny networks -------------------------------------------------------------

def tiny_schema(width_per_group=3) -> FeatureSchema:
    slices, pos = [], 0
    for g in FEATURE_GROUPS:
        slices.append(FeatureSlice(f"{g}_block", g, pos, pos + width_per_group))
        pos += width_per_group
    return FeatureSchema(tuple(slices))


def random_graph_sample(rng, n_nodes, schema, label=None):
    feats = rng.normal(size=(n_nodes, schema.width))
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < 0.5:
                flags = tuple(bool(rng.integers(0, 2)) for _ in range(4))
                if not any(flags):
                    flags = (True, False, False, False)
                edges.append((i, j, flags))
    return PreparedGraph("g", "u", feats, build_edge_arrays(n_nodes, edges),
                         int(label if label is not None else rng.integers(0, 2)))


# -- numeric oracles -----------------------------------------------------------

def central_difference_grads(f, arrays, h=1e-5):
    """Finite-difference gradients of the scalar ``f()`` w.r.t. each array,
    evaluated by perturbing entries in place."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads


def relative_error(analytic, numeric):
    a = np.concatenate([np.asarray(v).reshape(-1) for v in analytic])
    b = np.concatenate([np.asarray(v).reshape(-1) for v in numeric])
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def swap_flag_pairs(flags):
    f = list(flags)
    return (f[1], f[0], f[3], f[2])


def dense_gat_oracle(h, edges, weight, attn, bias, slope=0.2):
    """Per-node loop computation of one attention head (self loops, zero
    self-loop flags), independent of the vectorized implementation."""
    n, f_out = h.shape[0], weight.shape[1]
    wh = h @ weight
    out = np.zeros((n, f_out))
    for dst in range(n):
        neigh = [(dst, np.zeros(4))]
        for u, v, fl in edges:
            if u == dst:
                neigh.append((v, np.asarray(fl, dtype=float)))
            elif v == dst:
                neigh.append((u, np.asarray(swap_flag_pairs(fl), dtype=float)))
        logits = []
        for j, fl in neigh:
            z = attn.reshape(-1) @ np.concatenate([wh[dst], wh[j], fl])
            logits.append(z if z > 0 else slope * z)
        logits = np.asarray(logits)
        alpha = np.exp(logits - logits.max())
        alpha /= alpha.sum()
        for (j, _), a in zip(neigh, alpha):
            out[dst] += a * wh[j]
        out[dst] += bias.reshape(-1)
    return out


def pairwise_auc_oracle(scores, labels):
    """AUC as the probability a positive outranks a negative, ties half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))
