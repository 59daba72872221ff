"""Feature layout and node encoders."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade_gnn.features import (BLOCKS, EMBEDDINGS, FEATURE_GROUPS,
                                  GROUP_COLUMNS, WIDTH, EmbeddingTable, embed_tokens,
                                  encode_node_features, load_word_vectors, node_matrix,
                                  stable_hash_bin)
from cascade_gnn.types import EMBEDDING_DIM

from helpers import block_ranges, make_tweet, make_user, reference_node_features


def encode_matrix(tweets, users, root_times):
    """The nodes' (n, WIDTH) matrix, laid out from their compact encoding
    against a table of their own embeddings."""
    table = EmbeddingTable(tweets, users)
    return node_matrix(*encode_node_features(tweets, users, root_times, table), table.array, ())


class TestLayout:
    def test_total_width(self):
        assert WIDTH == sum(width for _, _, width, _ in BLOCKS) == 633

    def test_group_widths(self):
        widths = {g: len(range(WIDTH)[GROUP_COLUMNS[g]]) for g in FEATURE_GROUPS}
        assert widths == {"user_profile": 214, "user_activity": 3,
                          "network_spreading": 16, "content": 400}

    def test_groups_are_contiguous_and_in_order(self):
        # each group's blocks fill its one range, and the ranges follow
        # each other in FEATURE_GROUPS order
        runs = []
        for _, group, cols in block_ranges():
            if runs and runs[-1][0] == group:
                runs[-1][1].extend(cols)
            else:
                runs.append((group, list(cols)))
        assert [g for g, _ in runs] == list(FEATURE_GROUPS)
        for group, cols in runs:
            assert cols == list(range(WIDTH)[GROUP_COLUMNS[group]])
        assert list(GROUP_COLUMNS) == list(FEATURE_GROUPS)

    def test_every_block_has_one_group(self):
        for _, group, _, _ in BLOCKS:
            assert group in FEATURE_GROUPS

    def test_block_names_are_unique(self):
        names = [name for name, _, _, _ in BLOCKS]
        assert len(set(names)) == len(names) == 22

    def test_node_matrix_places_each_block_in_its_columns(self):
        # dense column d holds d, and the node's k-th table row holds
        # 1000 * (k + 1) + its component index
        table = np.vstack([1000.0 * k + np.arange(EMBEDDING_DIM) for k in range(4)])
        got = node_matrix(np.arange(33.0)[None],
                          np.array([[1, 2, 3]], dtype=np.intp), table, ())[0]
        want, dense = [], 0
        for name, _, cols in block_ranges():
            if name in EMBEDDINGS:
                want.extend(1000.0 * (EMBEDDINGS.index(name) + 1) + np.arange(EMBEDDING_DIM))
            else:
                want.extend(range(dense, dense + len(cols)))
                dense += len(cols)
        assert dense == 33
        assert got.tolist() == want


class TestEmbeddingTable:
    def test_rows_are_keyed_by_bytes(self):
        # equal bytes share a row, and -0.0 keeps apart from +0.0
        a, b = np.linspace(-1.0, 1.0, EMBEDDING_DIM), np.full(EMBEDDING_DIM, -0.0)
        users = [make_user("A", description_embedding=a)]
        tweets = [make_tweet("t0", "A", 0.0, text_embedding=a.copy(), hashtag_embedding=b),
                  make_tweet("t1", "A", 1.0, text_embedding=b.copy())]
        table = EmbeddingTable(tweets, users)
        assert table.array.shape == (3, EMBEDDING_DIM)
        assert table.rows([a.copy(), b, np.zeros(EMBEDDING_DIM)]) == [0, 1, 2]
        assert not table.array.flags.writeable

    def test_an_embedding_outside_the_table_is_not_looked_up(self):
        table = EmbeddingTable([make_tweet("t0", "A", 0.0)], [make_user("A")])
        with pytest.raises(KeyError):
            table.rows([np.ones(EMBEDDING_DIM)])


class TestNodeEncoding:
    def encode(self, tweet=None, user=None, root_time=0.0):
        tweet = tweet or make_tweet("t0", "A", 0.0, is_source=True)
        user = user or make_user("A")
        return encode_matrix([tweet], [user], [root_time])[0]

    def slot(self, vec, name):
        cols = next(cols for block, _, cols in block_ranges() if block == name)
        return vec[cols.start:cols.stop]

    def test_boolean_and_zero_count_slots(self):
        vec = self.encode(user=make_user("A", followers=0, verified=False))
        assert self.slot(vec, "verified")[0] == 0.0
        assert self.slot(vec, "followers_count")[0] == 0.0  # log(1 + 0)

    def test_log_count_transform(self):
        vec = self.encode(user=make_user("A", followers=999))
        assert self.slot(vec, "followers_count")[0] == pytest.approx(np.log(1000.0), abs=1e-4)
        assert self.slot(vec, "followers_count")[0] == pytest.approx(6.9078, abs=1e-4)

    def test_source_tweet_slots(self):
        vec = self.encode(make_tweet("t0", "A", 100.0, is_source=True), root_time=100.0)
        assert self.slot(vec, "time_delta")[0] == 0.0
        assert self.slot(vec, "is_source")[0] == 1.0

    def test_time_delta_log_hours(self):
        tweet = make_tweet("t1", "A", 2 * 3600.0)
        vec = self.encode(tweet, root_time=0.0)
        assert self.slot(vec, "time_delta")[0] == pytest.approx(np.log(3.0))

    def test_account_age_in_years(self):
        user = make_user("A", created_at=0.0)
        tweet = make_tweet("t0", "A", 365.0 * 86400.0, is_source=True)
        vec = self.encode(tweet, user, root_time=tweet.timestamp)
        assert self.slot(vec, "account_age_years")[0] == pytest.approx(1.0)

    def test_lang_one_hot_bin(self):
        vec = self.encode(user=make_user("A", lang="en"))
        lang = self.slot(vec, "lang")
        assert lang.sum() == 1.0
        assert lang[stable_hash_bin("en")] == 1.0

    def test_embeddings_copied_verbatim(self):
        emb = np.linspace(-1, 1, 200)
        user = make_user("A", description_embedding=emb)
        vec = self.encode(user=user)
        np.testing.assert_array_equal(self.slot(vec, "description_embedding"), emb)

    def test_deterministic_bit_identical(self):
        tweet = make_tweet("t0", "A", 123.0, is_source=True)
        user = make_user("A", followers=7, lang="es")
        a = encode_matrix([tweet], [user], [0.0])
        b = encode_matrix([tweet], [user], [0.0])
        assert (a == b).all()

    def test_an_overflowing_account_age_is_rejected(self):
        tweet = make_tweet("t0", "A", 1e308, is_source=True)
        user = make_user("A", created_at=-1e308)
        with pytest.raises(ValueError, match="encoded node features contain non-finite values"):
            encode_matrix([tweet], [user], [1e308])


def _embedding(seed):
    """0: all +0.0, 1: all -0.0, else normal components with -0.0 sprinkled in."""
    if seed < 2:
        return np.full(EMBEDDING_DIM, (0.0, -0.0)[seed])
    rng = np.random.default_rng(seed)
    v = rng.normal(size=EMBEDDING_DIM)
    v[rng.random(EMBEDDING_DIM) < 0.2] = -0.0
    return v


_times = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e10, 1e10))
_counts = st.one_of(st.sampled_from([0, 2**63 - 1]), st.integers(0, 2**63 - 1))
# strings that hash to a bucket like any other: seen, empty and unseen ones
_labels = st.one_of(st.sampled_from(["en", "es", "web", "android", ""]), st.text(max_size=8))
_embeddings = st.integers(0, 6).map(_embedding)


@st.composite
def _nodes(draw):
    """One node: its tweet, its author and its cascade's root time."""
    user = make_user("A", followers=draw(_counts), friends=draw(_counts),
                     statuses_count=draw(_counts), favourites_count=draw(_counts),
                     listed_count=draw(_counts), created_at=draw(_times),
                     geo_enabled=draw(st.booleans()), verified=draw(st.booleans()),
                     background_picture=draw(st.booleans()),
                     default_profile=draw(st.booleans()),
                     default_profile_image=draw(st.booleans()),
                     lang=draw(_labels), description_embedding=draw(_embeddings))
    tweet = make_tweet("t", "A", draw(_times), is_source=draw(st.booleans()),
                       retweeted_reply_count=draw(_counts),
                       retweeted_quote_count=draw(_counts),
                       retweeted_favorite_count=draw(_counts),
                       retweeted_retweet_count=draw(_counts),
                       source_device=draw(_labels), text_embedding=draw(_embeddings),
                       hashtag_embedding=draw(_embeddings))
    return tweet, user, draw(_times)


class TestGraphEncoding:
    """The per-graph encoder fills each node's row as the per-node reference
    does: its dense columns, and the embedding rows of a table whose rows
    repeat across nodes and blocks, laid out as one matrix."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_nodes(), min_size=1, max_size=6))
    # one-node graphs: a -0.0 time and delay, counts at the int64 edge, a
    # tweet a year before its account was made, lang and device strings
    # that no generated dataset holds
    @example([(make_tweet("t", "A", -0.0, text_embedding=_embedding(1)),
               make_user("A", created_at=0.0, description_embedding=_embedding(3)), 0.0)])
    @example([(make_tweet("t", "A", 5.0, retweeted_retweet_count=2**63 - 1,
                          source_device="\u00e9\x00"),
               make_user("A", followers=2**63 - 1, listed_count=0, lang="zz-unseen",
                         created_at=5.0 + 365 * 86400.0), 7.0)])
    def test_matches_the_per_node_reference(self, nodes):
        tweets, users, root_times = zip(*nodes)
        got = encode_matrix(list(tweets), list(users), list(root_times))
        want = np.array([reference_node_features(t, u, r) for t, u, r in nodes])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.flags.c_contiguous and got.dtype == np.float64


class TestWordVectors:
    def test_load_and_average(self, tmp_path):
        path = tmp_path / "vectors.txt"
        v1 = np.arange(200.0)
        v2 = np.ones(200)
        lines = ["alpha " + " ".join(str(x) for x in v1),
                 "beta " + " ".join(str(x) for x in v2)]
        path.write_text("\n".join(lines) + "\n")
        table = load_word_vectors(path)
        assert set(table) == {"alpha", "beta"}
        mean = embed_tokens(["alpha", "beta", "missing"], table)
        np.testing.assert_allclose(mean, (v1 + v2) / 2.0)

    def test_unknown_tokens_give_zero(self):
        assert (embed_tokens(["x"], {}) == 0).all()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tok 1.0 2.0\n")
        with pytest.raises(ValueError):
            load_word_vectors(path)
