"""Node features: the column table and the per-graph encoder.

``BLOCKS`` lists each of the node vector's 22 blocks once, in column order:
its name, its ablation group, its width and how its rows are computed.
Each group's blocks are contiguous, so ``GROUP_COLUMNS`` maps each group to
one column range: user_profile (214), user_activity (3), network_spreading
(16) and content (400), ``WIDTH`` = 633 columns in all.

A sample holds its nodes compactly.  The 19 blocks the encoder computes
fill 33 dense columns, in column order.  The three embedding blocks
(``EMBEDDINGS``, 600 columns) are held as row numbers into one read-only
``EmbeddingTable`` per build, which keeps each distinct vector once.
``encode_node_features`` encodes a whole graph in one call, one block at
a time.  Booleans map to {0, 1} and counts to log(1 + x); categorical
strings (lang, source device) to a stable 8-bucket hash one-hot; account
age to years at tweet time, and a tweet's delay from its cascade's source
to log(1 + hours).  ``node_matrix`` lays the dense columns and the table
rows out as the (n, 633) matrix, whose embedding columns are the
vectors' bytes.  It masks there too: a masked group's columns are
written +0.0, and its embedding blocks are not gathered.
"""
from __future__ import annotations

import zlib

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


def _one_hot(values) -> np.ndarray:
    return np.eye(HASH_BINS)[[stable_hash_bin(v) for v in values]]


def _user(encode):
    """The block's namesake field of each node's author, through ``encode``."""
    return lambda name, tweets, users, root_times: encode([getattr(u, name) for u in users])


def _tweet(encode):
    """The block's namesake field of each node's tweet, through ``encode``."""
    return lambda name, tweets, users, root_times: encode([getattr(t, name) for t in tweets])


def _since(tweets, starts) -> np.ndarray:
    """Each tweet's time minus its start, with a negative or -0.0 difference
    as 0.0."""
    delta = np.array([t.timestamp for t in tweets], dtype=float) - starts
    return np.where(delta > 0.0, delta, 0.0)


def _account_age_years(name, tweets, users, root_times) -> np.ndarray:
    return _since(tweets, [u.created_at for u in users]) / SECONDS_PER_YEAR


def _time_delta(name, tweets, users, root_times) -> np.ndarray:
    return np.log1p(_since(tweets, root_times) / SECONDS_PER_HOUR)


# The node vector, block by block in column order: name, ablation group,
# width, and how the block's rows are computed from the nodes' tweets, their
# authors and their cascades' root times.
BLOCKS = (
    ("geo_enabled", GROUP_USER_PROFILE, 1, _user(np.array)),
    ("background_picture", GROUP_USER_PROFILE, 1, _user(np.array)),
    ("default_profile", GROUP_USER_PROFILE, 1, _user(np.array)),
    ("default_profile_image", GROUP_USER_PROFILE, 1, _user(np.array)),
    ("verified", GROUP_USER_PROFILE, 1, _user(np.array)),
    ("lang", GROUP_USER_PROFILE, HASH_BINS, _user(_one_hot)),
    ("description_embedding", GROUP_USER_PROFILE, EMBEDDING_DIM, _user(list)),
    ("account_age_years", GROUP_USER_PROFILE, 1, _account_age_years),
    ("statuses_count", GROUP_USER_ACTIVITY, 1, _user(np.log1p)),
    ("favourites_count", GROUP_USER_ACTIVITY, 1, _user(np.log1p)),
    ("listed_count", GROUP_USER_ACTIVITY, 1, _user(np.log1p)),
    ("followers_count", GROUP_NETWORK_SPREADING, 1, _user(np.log1p)),
    ("friends_count", GROUP_NETWORK_SPREADING, 1, _user(np.log1p)),
    ("is_source", GROUP_NETWORK_SPREADING, 1, _tweet(np.array)),
    ("time_delta", GROUP_NETWORK_SPREADING, 1, _time_delta),
    ("retweeted_reply_count", GROUP_NETWORK_SPREADING, 1, _tweet(np.log1p)),
    ("retweeted_quote_count", GROUP_NETWORK_SPREADING, 1, _tweet(np.log1p)),
    ("retweeted_favorite_count", GROUP_NETWORK_SPREADING, 1, _tweet(np.log1p)),
    ("retweeted_retweet_count", GROUP_NETWORK_SPREADING, 1, _tweet(np.log1p)),
    ("source_device", GROUP_NETWORK_SPREADING, HASH_BINS, _tweet(_one_hot)),
    ("text_embedding", GROUP_CONTENT, EMBEDDING_DIM, _tweet(list)),
    ("hashtag_embedding", GROUP_CONTENT, EMBEDDING_DIM, _tweet(list)),
)
# the blocks a sample holds as rows of its build's EmbeddingTable; their
# rows functions give each node's vector
EMBEDDINGS = ("description_embedding", "text_embedding", "hashtag_embedding")
DENSE_BLOCKS = tuple(b for b in BLOCKS if b[0] not in EMBEDDINGS)
EMBEDDED_BLOCKS = tuple(b for b in BLOCKS if b[0] in EMBEDDINGS)


def _matrix_layout() -> tuple[dict, tuple, tuple]:
    """Where ``node_matrix`` puts its parts: each group's columns, as the one
    range from its first block's start to its last block's stop (``BLOCKS``
    keeps a group's blocks together); the (matrix columns, dense columns) of
    each run of dense blocks; and the (group, matrix columns) of each
    embedding block, in column order."""
    groups, embedded, column, dense = {}, [], 0, 0
    runs = []  # [matrix start, dense start, width]
    for name, group, width, _ in BLOCKS:
        groups[group] = slice(groups[group].start if group in groups else column, column + width)
        if name in EMBEDDINGS:
            embedded.append((group, slice(column, column + width)))
        else:
            if not runs or runs[-1][0] + runs[-1][2] != column:
                runs.append([column, dense, 0])
            runs[-1][2] += width
            dense += width
        column += width
    return groups, tuple((slice(c, c + w), slice(d, d + w)) for c, d, w in runs), tuple(embedded)


# GROUP_COLUMNS maps each group to the slice of its columns
GROUP_COLUMNS, DENSE_RUNS, EMBEDDED_COLUMNS = _matrix_layout()
WIDTH = sum(width for _, _, width, _ in BLOCKS)  # the columns of node_matrix


class EmbeddingTable:
    """The distinct embedding vectors of one build, one row each, in
    ``array``: (R, EMBEDDING_DIM) float64 and read-only.  Rows are keyed by
    their float64 bytes, so equal bytes share a row and -0.0 keeps apart
    from +0.0.

    The table is made up front from every vector the build may encode: the
    embedding blocks of ``tweets`` and ``users``.  It holds no reference to
    them."""

    def __init__(self, tweets, users):
        index = {}
        for name, _, _, vectors in EMBEDDED_BLOCKS:
            for vec in vectors(name, tweets, users, None):
                index.setdefault(vec.tobytes(), len(index))
        self._index = index
        self.array = np.frombuffer(b"".join(index)).reshape(len(index), EMBEDDING_DIM)

    def rows(self, vectors) -> list[int]:
        """The row of each of ``vectors``."""
        index = self._index
        return [index[vec.tobytes()] for vec in vectors]


def stable_hash_bin(value: str, bins: int = HASH_BINS) -> int:
    """Process-independent bucket for a categorical string."""
    return zlib.crc32(value.encode("utf-8")) % bins


def encode_node_features(tweets: list[Tweet], users: list[User], root_times,
                         table: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
    """The compact features of n nodes: node k is ``tweets[k]`` by
    ``users[k]`` in a cascade whose source was published at
    ``root_times[k]``.  Returns the (n, 33) float64 columns of the 19
    computed blocks, joined in column order, and the (n, 3) intp rows of
    ``table`` that hold each node's embedding blocks, in column order.
    Each block is computed for all nodes at once."""
    with np.errstate(over="ignore"):  # an overflow to inf fails the check below
        dense = np.concatenate([rows(name, tweets, users, root_times).reshape(-1, width)
                                for name, _, width, rows in DENSE_BLOCKS], axis=1, dtype=float)
    if not np.isfinite(dense).all():
        raise ValueError("encoded node features contain non-finite values")
    rows = np.empty((len(tweets), len(EMBEDDED_BLOCKS)), dtype=np.intp)
    for k, (name, _, _, vectors) in enumerate(EMBEDDED_BLOCKS):
        rows[:, k] = table.rows(vectors(name, tweets, users, root_times))
    return dense, rows


def node_matrix(dense: np.ndarray, rows: np.ndarray, table: np.ndarray,
                masked: tuple[str, ...]) -> np.ndarray:
    """The (n, WIDTH) C-contiguous float64 feature matrix of nodes held as
    ``encode_node_features`` returns them, with ``table`` the array of their
    ``EmbeddingTable``, and the columns of the ``masked`` groups +0.0: the
    dense runs and the gathered table rows of the other groups written into
    one new array, each in its columns."""
    out = np.empty((len(dense), WIDTH))
    for columns, part in DENSE_RUNS:
        out[:, columns] = dense[:, part]
    for k, (group, columns) in enumerate(EMBEDDED_COLUMNS):
        if group not in masked:
            out[:, columns] = table[rows[:, k]]
    for group in masked:
        out[:, GROUP_COLUMNS[group]] = 0.0
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
