"""Shared test fixtures: tiny worlds, finite differences, dense oracles."""
from __future__ import annotations

import ctypes
import dataclasses
import glob
import json
import os

import numpy as np

from cascade_gnn.autograd import Tensor
from cascade_gnn.classifier import PreparedGraph
from cascade_gnn.features import (BLOCKS, HASH_BINS, SECONDS_PER_HOUR, SECONDS_PER_YEAR,
                                  WIDTH, EmbeddingTable, stable_hash_bin)
from cascade_gnn.nn import NUM_EDGE_FLAGS, EdgeArrays, build_edge_arrays, glorot
from cascade_gnn.propagation import _spreading_tree
from cascade_gnn.types import (CascadeRecord, EMBEDDING_DIM, SCOPE_URL, SocialGraph,
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


def make_tweet(tid, author, ts, is_source=False, **kw):
    defaults = dict(
        tweet_id=tid, author=author, timestamp=float(ts), is_source=is_source,
        retweeted_reply_count=0, retweeted_quote_count=0,
        retweeted_favorite_count=0, retweeted_retweet_count=0,
        source_device="web", text_embedding=ZERO_EMB, hashtag_embedding=ZERO_EMB,
    )
    defaults.update(kw)
    return Tweet(**defaults)


def make_cascade(authors_times, cascade_id="c0", url_id="url0"):
    """Cascade from [(author, timestamp), ...]; the first entry is the source."""
    tweets = [make_tweet(f"{cascade_id}_t{k}", a, ts, is_source=(k == 0))
              for k, (a, ts) in enumerate(authors_times)]
    return CascadeRecord(cascade_id, url_id, tuple(tweets))


def assert_spreading_tree(parent, cascade):
    """``parent`` maps each retweet of ``cascade`` to an earlier tweet of the
    cascade, so it is a tree rooted at the source."""
    position = {t.tweet_id: k for k, t in enumerate(cascade.tweets)}
    assert len(parent) == cascade.size - 1
    assert set(parent) == {t.tweet_id for t in cascade.tweets if not t.is_source}
    assert all(p in position and position[p] < position[c] for c, p in parent.items())


def social_graph(users, follows):
    """The graph of the ``users`` dict with the (follower, followee) ID pairs ``follows``."""
    position = {u: k for k, u in enumerate(users)}
    pairs = np.array([(position[a], position[b]) for a, b in follows], dtype=np.intp)
    return SocialGraph.from_pairs(users, *pairs.reshape(-1, 2).T)


def make_social(user_specs, follows):
    """user_specs: {uid: followers_count}; follows: iterable of (a, b)."""
    users = {uid: make_user(uid, followers=cnt) for uid, cnt in user_specs.items()}
    return social_graph(users, follows)


def make_story(url_id, label, cascade_ids, first_seen=0.0):
    return UrlStory(url_id, label, first_seen, tuple(cascade_ids))


# -- dataset files -------------------------------------------------------------

def _inline(value):
    if isinstance(value, np.ndarray):
        return [float(f"{x:.7g}") for x in value]
    if isinstance(value, tuple):
        return [_inline(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _inline(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def inline_json(record) -> str:
    """A record's line as datasets held it before embeddings.jsonl: ``json.dumps``
    of its fields in order, with every embedding inline as its components
    rounded to 7 significant digits."""
    return json.dumps(_inline(record))


def inline_rows(rec: dict, rows: list) -> dict:
    """``rec``, a users.jsonl or cascades.jsonl record, with each embedding
    row number, in the record or its tweets, replaced by a copy of that row
    of ``rows`` (the embeddings.jsonl lines as JSON values)."""
    for holder in [rec] + rec.get("tweets", []):
        for name, value in holder.items():
            if name.endswith("_embedding") and type(value) is int:
                holder[name] = list(rows[value])
    return rec


def inlined_files(dirpath) -> dict[str, bytes]:
    """The bytes of each file of a dataset directory but embeddings.jsonl,
    with every embedding row number inlined (``inline_rows``)."""
    with open(os.path.join(dirpath, "embeddings.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(text) for text in fh]
    out = {}
    for name in sorted(os.listdir(dirpath)):
        with open(os.path.join(dirpath, name), "rb") as fh:
            data = fh.read()
        if name in ("users.jsonl", "cascades.jsonl"):
            data = "".join(json.dumps(inline_rows(json.loads(text), rows)) + "\n"
                           for text in data.decode("utf-8").splitlines()).encode("utf-8")
        if name != "embeddings.jsonl":
            out[name] = data
    return out


# -- tiny networks -------------------------------------------------------------

TINY_WIDTH = 12  # the input width of the tiny networks


def random_graph_sample(rng, n_nodes, width, label=None):
    feats = rng.normal(size=(n_nodes, width))
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < 0.5:
                flags = tuple(bool(rng.integers(0, 2)) for _ in range(4))
                if not any(flags):
                    flags = (True, False, False, False)
                edges.append((i, j, flags))
    return PreparedGraph("g", "u", feats, build_edge_arrays(relation(n_nodes, edges)),
                         int(label if label is not None else rng.integers(0, 2)))


# -- pair relations ------------------------------------------------------------

def swap_flag_pairs(flags):
    f = list(flags)
    return (f[1], f[0], f[3], f[2])


def relation(n, pairs) -> np.ndarray:
    """The (n, n, 4) relation array of an edge list [(i, j, flags), ...],
    ``flags`` read as (i_follows_j, j_follows_i, spread_i_to_j,
    spread_j_to_i): entry [i, j] holds them and entry [j, i] their swap."""
    r = np.zeros((n, n, NUM_EDGE_FLAGS), dtype=bool)
    for i, j, flags in pairs:
        r[i, j] = flags
        r[j, i] = swap_flag_pairs(flags)
    return r


def edge_relation(edges: EdgeArrays) -> np.ndarray:
    """The relation array that ``build_edge_arrays`` made ``edges`` from:
    each message j -> i carries entry [i, j]."""
    r = np.zeros((edges.num_nodes, edges.num_nodes, NUM_EDGE_FLAGS), dtype=bool)
    r[edges.dst, edges.src] = edges.flags != 0
    return r


def reference_edge_arrays(num_nodes: int, edges) -> EdgeArrays:
    """The per-pair expansion that ``build_edge_arrays`` replaced: self loops,
    then for each stored pair (i, j, flags) in list order the message j -> i
    with ``flags`` and i -> j with the flag pairs swapped."""
    src = list(range(num_nodes))
    dst = list(range(num_nodes))
    flags = [(0.0, 0.0, 0.0, 0.0)] * num_nodes
    for i, j, f in edges:
        fi = (float(f[0]), float(f[1]), float(f[2]), float(f[3]))
        # message j -> i: flags as (i_follows_j, j_follows_i, spread_i_to_j, spread_j_to_i)
        src.append(j)
        dst.append(i)
        flags.append(fi)
        # message i -> j: the directed flag pairs swap
        src.append(i)
        dst.append(j)
        flags.append((fi[1], fi[0], fi[3], fi[2]))
    return EdgeArrays(np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp),
                      np.asarray(flags, dtype=np.float64), num_nodes)


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


def named_views(params, vec) -> dict[str, np.ndarray]:
    """``vec``, a vector laid out as ``params.flat``, as views shaped and
    named like ``params.named``."""
    views, start = {}, 0
    for name, view in params.named.items():
        views[name] = vec[start:start + view.size].reshape(view.shape)
        start += view.size
    assert start == vec.size
    return views


def tape_tensors(params) -> dict[str, Tensor]:
    """A leaf ``Tensor`` around each of ``params``' named views, for the tape
    reference.  Each shares its view's memory, so a change made to the
    parameters in place (a finite-difference step) reaches the tape."""
    return {name: Tensor(view, requires_grad=True) for name, view in params.named.items()}


def gat_params(rng, f_in, f_out):
    """The (weight, attn, bias) arrays of one attention layer, drawn as
    ``init_params`` draws a layer: Glorot-uniform weight and attention
    vector, zero bias."""
    return (glorot(rng, (f_in, f_out)), glorot(rng, (2 * f_out + NUM_EDGE_FLAGS, 1)),
            np.zeros((1, f_out)))


def relative_error(analytic, numeric):
    a = np.concatenate([np.asarray(v).reshape(-1) for v in analytic])
    b = np.concatenate([np.asarray(v).reshape(-1) for v in numeric])
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def pair_flags(sample) -> dict[tuple[int, int], tuple[bool, bool, bool, bool]]:
    """The node pairs (i, j), i < j, of a sample and their relation flags
    (i_follows_j, j_follows_i, spread_i_to_j, spread_j_to_i), in message
    order, read back from the messages j -> i that carry them as stored.

    Asserts the rest of the message layout: one self loop per node with
    zero flags, and for each pair the message i -> j with swapped flags."""
    e = sample.edges
    messages = [(int(s), int(d), tuple(bool(x) for x in f))
                for s, d, f in zip(e.src, e.dst, e.flags)]
    loops = [(s, f) for s, d, f in messages if s == d]
    assert loops == [(k, (False,) * 4) for k in range(e.num_nodes)]
    pairs = {(d, s): f for s, d, f in messages if s > d}
    assert len(pairs) + len(loops) + len(pairs) == len(messages)
    assert {(s, d): f for s, d, f in messages if s < d} == {
        (i, j): swap_flag_pairs(f) for (i, j), f in pairs.items()}
    assert all(any(f) for f in pairs.values())
    return pairs


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


def reference_fr_layout(social: SocialGraph, iterations: int = 60, seed: int = 0,
                        area: float = 1.0) -> dict[str, tuple[float, float]]:
    """The unblocked Fruchterman-Reingold layout that ``fr_layout`` replaced:
    (i, j, 2) pair arrays, allocated afresh each iteration."""
    ids = sorted(social.users)
    n = len(ids)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 47)))
    pos = rng.random((n, 2)) * np.sqrt(area)
    if n == 1:
        return {ids[0]: (float(pos[0, 0]), float(pos[0, 1]))}
    index = {u: i for i, u in enumerate(ids)}
    edges = np.array([[index[a], index[b]] for a, b in sorted(social.pairs())], dtype=np.intp)
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


# -- reference build -------------------------------------------------------------

def _one_hot(value: str, bins: int) -> np.ndarray:
    v = np.zeros(bins)
    v[stable_hash_bin(value, bins)] = 1.0
    return v


def block_ranges():
    """Each block of ``BLOCKS``: its name, its group and its columns, laid
    out from the block widths."""
    start = 0
    for name, group, width, _ in BLOCKS:
        yield name, group, range(start, start + width)
        start += width


def reference_node_features(tweet: Tweet, user: User, cascade_root_time: float) -> np.ndarray:
    """The per-node encoder that the per-graph ``encode_node_features``
    replaced: one tweet+author into the node vector, block by block in the
    column order and widths of ``BLOCKS``.

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
    out = np.concatenate([np.reshape(values[name], width) for name, _, width, _ in BLOCKS],
                         dtype=float)

    if not np.isfinite(out).all():
        raise ValueError("encoded node features contain non-finite values")
    return out


def estimate_spreading_tree(cascade: CascadeRecord, social: SocialGraph) -> dict[str, str]:
    """The spreading rules as the tests state them, over the package's
    ``_spreading_tree``: the map from each retweet's ID to its estimated
    diffusion predecessor's.  Each parent is an earlier tweet of the
    cascade, and the first tweet is the source, so the map is a tree rooted
    at the source.

    Rule 1: if the retweeter follows at least one earlier author, the
    parent is the latest preceding tweet with a followed author.
    Rule 2: otherwise the parent is the preceding tweet whose author has
    the largest followers_count (earliest such tweet on ties).
    """
    for t in cascade.tweets:
        if t.author not in social.users:
            raise KeyError(f"cascade {cascade.cascade_id!r} references unknown user {t.author!r}")
    tweets = cascade.tweets
    parents = _spreading_tree(cascade, social.follow_matrix([t.author for t in tweets]), social)
    return {t.tweet_id: tweets[j].tweet_id for t, j in zip(tweets[1:], parents)}


def world_table(social: SocialGraph, cascades: list[CascadeRecord]) -> EmbeddingTable:
    """The embedding table a build makes: every tweet of ``cascades`` and
    every user of ``social``."""
    return EmbeddingTable([t for c in cascades for t in c.tweets], list(social.users.values()))


def reference_propagation_graph(story: UrlStory, cascades: list[CascadeRecord],
                                social: SocialGraph, scope: str, table) -> PreparedGraph:
    """``build_propagation_graph`` as it was before it worked on node
    positions: a tweet ID -> node index dict, the ID -> ID map of
    ``estimate_spreading_tree`` per cascade, and the per-node encoder.  It
    builds a sample from the plain feature matrix and ignores ``table``."""
    entries = sorted(((t, cas) for cas in cascades for t in cas.tweets),
                     key=lambda e: (e[0].timestamp, e[0].tweet_id))
    index = {t.tweet_id: k for k, (t, _) in enumerate(entries)}
    assert len(index) == len(entries)
    n = len(entries)
    authors = [t.author for t, _ in entries]
    follows = social.follow_matrix(authors)
    spread = np.zeros((n, n), dtype=bool)
    for cas in cascades:
        for child, parent in estimate_spreading_tree(cas, social).items():
            spread[index[parent], index[child]] = True
    relation = np.stack([follows, follows.T, spread, spread.T], axis=2)
    feats = np.empty((n, WIDTH))
    for k, (t, cas) in enumerate(entries):
        feats[k] = reference_node_features(t, social.users[t.author], cas.source.timestamp)
    return PreparedGraph(
        key=story.url_id if scope == SCOPE_URL else cascades[0].cascade_id,
        url_id=story.url_id, dense=feats, edges=build_edge_arrays(relation),
        label=int(story.is_fake), times=tuple(t.timestamp for t, _ in entries),
        authors=tuple(authors))


def blas_thread_getter():
    """numpy's bundled OpenBLAS thread-count getter, or None without one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


def blas_thread_setter():
    """numpy's bundled OpenBLAS thread-count setter, or None without one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return setter
    return None
