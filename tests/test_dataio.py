"""Dataset file formats: write/load round trip and determinism."""
import filecmp
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gnn import dataio
from cascade_gnn.dataio import (DatasetNotFoundError, cascades_by_url,
                                load_dataset, write_dataset)
from cascade_gnn.evalharness import build_samples
from cascade_gnn.synthgen import GenConfig, generate_dataset, generate_social_graph
from cascade_gnn.types import EMBEDDING_DIM, CascadeRecord, UrlStory

from helpers import inline_json, inlined_files, make_tweet, make_user, social_graph

CFG = GenConfig(num_users=150, num_urls=8, mean_cascades_per_url=3.0)
FILES = ("users.jsonl", "follows.csv", "cascades.jsonl", "urls.jsonl", "embeddings.jsonl")


@pytest.fixture(scope="module")
def world():
    social = generate_social_graph(CFG)
    stories, cascades = generate_dataset(CFG, social)
    return social, stories, cascades


def test_round_trip_preserves_structure(tmp_path, world):
    social, stories, cascades = world
    write_dataset(tmp_path, social, stories, cascades)
    for name in FILES:
        assert (tmp_path / name).is_file()
    social2, stories2, cascades2 = load_dataset(tmp_path)
    assert set(social2.users) == set(social.users)
    assert np.array_equal(social2.follows, social.follows)
    assert [s.url_id for s in stories2] == sorted(s.url_id for s in stories)
    assert {s.url_id: s.label for s in stories2} == {s.url_id: s.label for s in stories}
    by_id = {c.cascade_id: c for c in cascades}
    for cas in cascades2:
        orig = by_id[cas.cascade_id]
        assert [t.tweet_id for t in cas.tweets] == [t.tweet_id for t in orig.tweets]
        assert [t.timestamp for t in cas.tweets] == [t.timestamp for t in orig.tweets]
    # embeddings survive up to the 7-significant-digit write rounding
    u = next(iter(social.users))
    np.testing.assert_allclose(social2.users[u].description_embedding,
                               social.users[u].description_embedding,
                               rtol=1e-6, atol=1e-7)


def test_write_is_byte_deterministic(tmp_path, world):
    social, stories, cascades = world
    a, b = tmp_path / "a", tmp_path / "b"
    write_dataset(a, social, stories, cascades)
    write_dataset(b, social, stories, cascades)
    for name in FILES:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_missing_file_raises(tmp_path):
    with pytest.raises(DatasetNotFoundError):
        load_dataset(tmp_path)


def test_bad_follows_header_rejected(tmp_path, world):
    social, stories, cascades = world
    write_dataset(tmp_path, social, stories, cascades)
    follows = tmp_path / "follows.csv"
    lines = follows.read_text().splitlines()
    follows.write_text("\n".join(["a,b"] + lines[1:]) + "\n")
    with pytest.raises(ValueError):
        load_dataset(tmp_path)


def test_cascades_by_url_groups(world):
    _, stories, cascades = world
    groups = cascades_by_url(cascades)
    assert sum(len(v) for v in groups.values()) == len(cascades)
    for url, group in groups.items():
        assert all(c.url_id == url for c in group)


def test_all_zero_embeddings_share_one_read_only_array(tmp_path, world):
    social, stories, cascades = world
    write_dataset(tmp_path / "a", social, stories, cascades)
    social2, stories2, cascades2 = load_dataset(tmp_path / "a")
    hashtags = [t.hashtag_embedding for c in cascades2 for t in c.tweets]
    zeros = [v for v in hashtags if not v.any()]
    assert zeros and all(v is zeros[0] for v in zeros)
    assert not np.signbit(zeros[0]).any()
    assert all(v is not zeros[0] for v in hashtags if v.any())
    with pytest.raises(ValueError):
        zeros[0][0] = 1.0
    # the shared array writes as the zeros it replaced
    write_dataset(tmp_path / "b", social2, stories2, cascades2)
    for name in FILES:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name


@pytest.mark.parametrize("values", [[0.0] * EMBEDDING_DIM, [0] * EMBEDDING_DIM])
def test_a_zero_embedding_is_the_shared_array(values):
    table = {}
    zeros = dataio._embedding({"e": [0.0] * EMBEDDING_DIM}, "e", table)
    assert dataio._embedding({"e": values}, "e", table) is zeros
    assert not zeros.flags.writeable and not np.signbit(zeros).any()


@pytest.mark.parametrize("values", [
    [0.0] * (EMBEDDING_DIM - 1) + [-0.0],  # the writer prints -0.0
    [-0.0] * EMBEDDING_DIM,
    [0.0] * (EMBEDDING_DIM - 1),           # the wrong length still fails the type's check
])
def test_an_embedding_that_differs_keeps_its_own_array(values):
    table = {}
    zeros = dataio._embedding({"e": [0.0] * EMBEDDING_DIM}, "e", table)
    vec = dataio._embedding({"e": values}, "e", table)
    assert vec is not zeros and not vec.flags.writeable
    assert np.array_equal(np.signbit(vec), np.signbit(values))


def vector_pool(seed: int) -> list[np.ndarray]:
    """Distinct embeddings whose 7-digit text is easy to get wrong: unit
    scale, with a component at least 0.5, with subnormal components, all
    zeros of either sign, and twins that differ only in the sign of a zero."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.4, 0.4, EMBEDDING_DIM)
    big, tiny, twin = base.copy(), base.copy(), base.copy()
    big[rng.integers(EMBEDDING_DIM)] = rng.choice([0.5, -0.99999996, 3.0, 1.234568e7])
    tiny[rng.integers(EMBEDDING_DIM, size=3)] = [5e-324, -1e-310, 1.234567e-320]
    twin[rng.integers(EMBEDDING_DIM)] = 0.0
    negative_twin = twin.copy()
    negative_twin[twin == 0] = -0.0
    return [base, big, tiny, twin, negative_twin, np.zeros(EMBEDDING_DIM),
            -np.zeros(EMBEDDING_DIM)]


@st.composite
def repeating_datasets(draw):
    """Users, two cascades and their story, with every embedding drawn from
    one ``vector_pool``, so vectors repeat within and across records."""
    pool = vector_pool(draw(st.integers(0, 2**32 - 1)))
    pick = st.integers(0, len(pool) - 1).map(lambda k: pool[k])
    users = {f"u{k}": make_user(f"u{k}", description_embedding=draw(pick))
             for k in range(draw(st.integers(1, 6)))}
    authors = st.sampled_from(sorted(users))
    cascades = []
    for c in range(2):
        tweets = [make_tweet(f"c{c}_t{k}", draw(authors), k, is_source=(k == 0),
                             text_embedding=draw(pick), hashtag_embedding=draw(pick))
                  for k in range(draw(st.integers(1, 5)))]
        cascades.append(CascadeRecord(f"c{c}", "url0", tuple(tweets)))
    story = UrlStory("url0", "fake_news", 0.0, ("c0", "c1"))
    return social_graph(users, []), [story], cascades


def _embeddings(social, cascades) -> list[np.ndarray]:
    """Every embedding of a dataset: the users', then each tweet's two."""
    return [u.description_embedding for u in social.users.values()] + [
        v for cas in cascades for t in cas.tweets for v in (t.text_embedding,
                                                            t.hashtag_embedding)]


def _assert_same_samples(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.key, x.url_id, x.label, x.times, x.authors) == (
            y.key, y.url_id, y.label, y.times, y.authors)
        assert x.features.dtype == y.features.dtype
        assert x.features.tobytes() == y.features.tobytes()
        for name in ("src", "dst", "flags", "num_nodes"):
            assert np.array_equal(getattr(x.edges, name), getattr(y.edges, name)), name


@settings(max_examples=150, deadline=None)
@given(repeating_datasets())
def test_interned_write_and_load_match_the_per_record_path(dataset):
    """The table form loads as the inline form that every record held
    before embeddings.jsonl (written here by the test's own copy of that
    writer), down to the sign bits and the samples built from it."""
    social, stories, cascades = dataset
    users = [social.users[u] for u in sorted(social.users)]
    inline_users = "".join(inline_json(u) + "\n" for u in users)
    inline_cascades = "".join(inline_json(cas) + "\n" for cas in cascades)
    with tempfile.TemporaryDirectory() as tmp:
        table, inline = os.path.join(tmp, "table"), os.path.join(tmp, "inline")
        write_dataset(table, social, stories, cascades)
        # the table's rows hold the inline text, byte for byte
        files = inlined_files(table)
        assert files["users.jsonl"].decode() == inline_users
        assert files["cascades.jsonl"].decode() == inline_cascades
        write_dataset(inline, social, stories, cascades)
        os.remove(os.path.join(inline, "embeddings.jsonl"))
        with open(os.path.join(inline, "users.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(inline_users)
        with open(os.path.join(inline, "cascades.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(inline_cascades)
        social_t, stories_t, cascades_t = load_dataset(table)
        social_i, stories_i, cascades_i = load_dataset(inline)
    loaded, expected = _embeddings(social_t, cascades_t), _embeddings(social_i, cascades_i)
    written = _embeddings(social, cascades)  # users u0, u1, ... are in sorted order
    # each vector reads back as its rounded text, sign bits included, and
    # vectors with the same bytes, and only those, share one read-only array
    for v, w, x in zip(written, loaded, expected, strict=True):
        assert np.array_equal(w, x) and np.array_equal(np.signbit(w), np.signbit(x))
        assert w.tobytes() == np.array(json.loads(json.dumps(dataio._round_vec(v)))).tobytes()
        assert not w.flags.writeable
    for v in loaded:
        assert all((v is w) == (v.tobytes() == w.tobytes()) for w in loaded)
    for scope in ("url_wise", "cascade_wise"):
        _assert_same_samples(build_samples(stories_t, cascades_t, social_t, scope),
                             build_samples(stories_i, cascades_i, social_i, scope))


def test_the_table_holds_each_distinct_vector_once_in_first_sighting_order(tmp_path):
    base, big, tiny, twin, negative_twin, zeros, negative_zeros = vector_pool(0)
    users = {"a": make_user("a", description_embedding=twin),
             "b": make_user("b", description_embedding=base),
             "c": make_user("c", description_embedding=twin.copy())}
    tweets = [make_tweet("t0", "a", 0, is_source=True, text_embedding=negative_twin,
                         hashtag_embedding=zeros),
              make_tweet("t1", "b", 1, text_embedding=base, hashtag_embedding=negative_zeros),
              make_tweet("t2", "c", 2, text_embedding=big, hashtag_embedding=tiny)]
    cascades = [CascadeRecord("c0", "url0", tuple(tweets))]
    stories = [UrlStory("url0", "true_news", 0.0, ("c0",))]
    write_dataset(tmp_path, social_graph(users, []), stories, cascades)
    order = [twin, base, negative_twin, zeros, negative_zeros, big, tiny]
    rows = (tmp_path / "embeddings.jsonl").read_text().splitlines()
    assert rows == [json.dumps(dataio._round_vec(v)) for v in order]
    # a signed-zero twin has other bytes, so it has its own row
    assert len({v.tobytes() for v in order}) == len(order)
    users_rows = [json.loads(t)["description_embedding"]
                  for t in (tmp_path / "users.jsonl").read_text().splitlines()]
    tweet_rows = [(t["text_embedding"], t["hashtag_embedding"])
                  for t in json.loads((tmp_path / "cascades.jsonl").read_text())["tweets"]]
    assert users_rows == [0, 1, 0]
    assert tweet_rows == [(2, 3), (1, 4), (5, 6)]


def test_repeated_embeddings_share_one_read_only_array(tmp_path, world):
    write_dataset(tmp_path, *world)
    social, _, cascades = load_dataset(tmp_path)
    vecs = [u.description_embedding for u in social.users.values()] + [
        v for cas in cascades for t in cas.tweets for v in (t.text_embedding,
                                                            t.hashtag_embedding)]
    by_bytes = {}
    for v in vecs:
        assert by_bytes.setdefault(v.tobytes(), v) is v
        assert not v.flags.writeable
    assert len(by_bytes) < len(vecs)   # the generator repeats its phrases
    with pytest.raises(ValueError):
        vecs[0][0] = 1.0


def _users_with(tmp_path, embeddings):
    """A dataset of one user per embedding (a list of JSON values or a row
    number), and nothing else but any embeddings.jsonl already there."""
    lines = []
    for k, vec in enumerate(embeddings):
        rec = json.loads(inline_json(make_user(f"u{k}")))
        rec["description_embedding"] = vec
        lines.append(json.dumps(rec) + "\n")
    (tmp_path / "users.jsonl").write_text("".join(lines))
    (tmp_path / "follows.csv").write_text("follower_id,followee_id\n")
    for name in ("cascades.jsonl", "urls.jsonl"):
        (tmp_path / name).write_text("")


def test_a_signed_zero_twin_keeps_its_own_array(tmp_path):
    vec = [0.25] * EMBEDDING_DIM
    vec[7] = 0.0
    twin = list(vec)
    twin[7] = -0.0
    _users_with(tmp_path, [vec, twin, vec, twin, [-0.0] * EMBEDDING_DIM, [0] * EMBEDDING_DIM])
    social, _, _ = load_dataset(tmp_path)
    a, b, c, d, negative_zeros, zeros = (u.description_embedding for u in social.users.values())
    assert a is c and b is d and a is not b
    assert np.array_equal(np.signbit(a), np.signbit(vec))
    assert np.array_equal(np.signbit(b), np.signbit(twin))
    assert not np.signbit(zeros).any() and negative_zeros is not zeros
    assert np.signbit(negative_zeros).all()


@pytest.mark.parametrize("k, value, reason", [
    (3, True, "field 'description_embedding' component 3 must be a number, got a boolean"),
    (4, "0.5", "field 'description_embedding' component 4 must be a number, got a string"),
    (5, 10**400, "field 'description_embedding' has a component beyond the float range"),
    (5, float("inf"), "description_embedding contains non-finite components"),
    (5, float("nan"), "description_embedding contains non-finite components"),
])
def test_a_bad_repeat_of_an_interned_vector_fails_on_its_line(tmp_path, k, value, reason):
    # component 3 is 1.0 and 4 is 0.5, as numpy would read true and "0.5"
    vec = [0.25] * EMBEDDING_DIM
    vec[3], vec[4] = 1.0, 0.5
    bad = list(vec)
    bad[k] = value
    _users_with(tmp_path, [vec, vec, bad, vec])
    with pytest.raises(dataio.DatasetFormatError) as err:
        load_dataset(tmp_path)
    assert (err.value.line, err.value.reason) == (3, reason)


def test_rows_and_inline_lists_share_arrays(tmp_path):
    vec = [0.25] * EMBEDDING_DIM
    vec[7] = -0.0
    (tmp_path / "embeddings.jsonl").write_text(
        "".join(json.dumps(v) + "\n" for v in ([0.0] * EMBEDDING_DIM, vec, vec)))
    _users_with(tmp_path, [vec, 1, [0] * EMBEDDING_DIM, 0, 2])
    a, b, zeros, zero_row, c = (u.description_embedding for u in
                                load_dataset(tmp_path)[0].users.values())
    assert a is b is c and np.signbit(a[7])
    assert zeros is zero_row and not np.signbit(zeros).any()


@pytest.mark.parametrize("value", [-1, 2, 2**63, 10**400])
def test_a_row_number_outside_the_table_fails_on_its_line(tmp_path, value):
    (tmp_path / "embeddings.jsonl").write_text(json.dumps([0.5] * EMBEDDING_DIM) + "\n" +
                                               json.dumps([0.25] * EMBEDDING_DIM) + "\n")
    _users_with(tmp_path, [0, 1, value, 0])
    with pytest.raises(dataio.DatasetFormatError) as err:
        load_dataset(tmp_path)
    assert (err.value.path, err.value.line, err.value.reason) == (
        str(tmp_path / "users.jsonl"), 3, f"field 'description_embedding' names row {value}, "
                                          "but embeddings.jsonl has 2 rows, numbered from 0")


def test_a_bad_row_fails_on_its_table_line_before_any_record(tmp_path):
    rows = [[0.5] * EMBEDDING_DIM, [0.25] * (EMBEDDING_DIM - 1) + [float("inf")]]
    (tmp_path / "embeddings.jsonl").write_text("".join(json.dumps(v) + "\n" for v in rows))
    _users_with(tmp_path, [0, "bad"])
    with pytest.raises(dataio.DatasetFormatError) as err:
        load_dataset(tmp_path)
    assert (err.value.path, err.value.line, err.value.reason) == (
        str(tmp_path / "embeddings.jsonl"), 2, "embedding contains non-finite components")


def test_a_row_number_without_a_table_names_the_file(tmp_path):
    _users_with(tmp_path, [[0.5] * EMBEDDING_DIM, 0])
    with pytest.raises(dataio.DatasetFormatError) as err:
        load_dataset(tmp_path)
    assert (err.value.line, err.value.reason) == (
        2, "field 'description_embedding' names row 0, but there is no embeddings.jsonl")


def test_a_non_finite_repeat_still_fails_the_type_check():
    table = {}
    values = {"description_embedding": [0.25] * (EMBEDDING_DIM - 1) + [float("nan")]}
    first = dataio._embedding(values, "description_embedding", table)
    assert dataio._embedding(values, "description_embedding", table) is first
    for _ in range(2):
        with pytest.raises(ValueError, match="non-finite"):
            make_user("A", description_embedding=first)


@pytest.mark.parametrize("rows, line, reason", [
    # of a repeated row and a bad row, the first in the file is reported
    (["A,B", "A,B", "A,nobody"], 3, "duplicate follow 'A' -> 'B'"),
    (["A,B", "A,nobody", "A,B"], 3, "unknown user 'nobody'"),
    (["A,B", "B,A", "B,A", "A,A"], 4, "duplicate follow 'B' -> 'A'"),
    (["A,B", "B,B", "A,B"], 3, "self-follow 'B'"),
    (["B,A", "A,B", "B,A", "A,B"], 4, "duplicate follow 'B' -> 'A'"),
    (["A,B", "A"], 3, "expected 2 fields, got 1"),
])
def test_follow_rows_fail_in_file_order(tmp_path, rows, line, reason):
    (tmp_path / "users.jsonl").write_text("".join(
        inline_json(make_user(u)) + "\n" for u in "BA"))
    (tmp_path / "follows.csv").write_text("\n".join(["follower_id,followee_id"] + rows) + "\n")
    for name in ("cascades.jsonl", "urls.jsonl"):
        (tmp_path / name).write_text("")
    with pytest.raises(dataio.DatasetFormatError) as err:
        load_dataset(tmp_path)
    assert (err.value.line, err.value.reason) == (line, reason)


def test_loaded_follows_name_the_rows(tmp_path):
    (tmp_path / "users.jsonl").write_text("".join(
        inline_json(make_user(u)) + "\n" for u in "CAB"))
    (tmp_path / "follows.csv").write_text("follower_id,followee_id\nC,A\nA,B\nB,C\nA,C\n")
    for name in ("cascades.jsonl", "urls.jsonl"):
        (tmp_path / name).write_text("")
    social, _, _ = load_dataset(tmp_path)
    assert social.pairs() == [("A", "B"), ("A", "C"), ("B", "C"), ("C", "A")]
