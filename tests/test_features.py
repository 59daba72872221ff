"""Feature schema layout and node encoders."""
import numpy as np
import pytest

from cascade_gnn.features import (FEATURE_GROUPS, default_schema, embed_tokens,
                                  encode_node_features, load_word_vectors,
                                  stable_hash_bin)

from helpers import make_tweet, make_user

SCHEMA = default_schema()


class TestSchemaLayout:
    def test_total_width(self):
        assert SCHEMA.width == 633

    def test_group_widths(self):
        assert SCHEMA.group_width("user_profile") == 214
        assert SCHEMA.group_width("user_activity") == 3
        assert SCHEMA.group_width("network_spreading") == 16
        assert SCHEMA.group_width("content") == 400

    def test_slices_disjoint_and_cover(self):
        cols = np.concatenate([SCHEMA.group_columns(g) for g in FEATURE_GROUPS])
        assert sorted(cols.tolist()) == list(range(SCHEMA.width))

    def test_every_slice_has_one_group(self):
        for s in SCHEMA.slices:
            assert s.group in FEATURE_GROUPS


class TestNodeEncoding:
    def encode(self, tweet=None, user=None, root_time=0.0):
        tweet = tweet or make_tweet("t0", "A", 0.0, is_source=True)
        user = user or make_user("A")
        return encode_node_features(tweet, user, root_time, SCHEMA)

    def slot(self, vec, name):
        s = SCHEMA.slice(name)
        return vec[s.start:s.stop]

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
        a = encode_node_features(tweet, user, 0.0, SCHEMA)
        b = encode_node_features(tweet, user, 0.0, SCHEMA)
        assert (a == b).all()


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
