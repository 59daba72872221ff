"""Domain types and propagation operations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gnn.propagation import (build_propagation_graph, credibility_score,
                                     credibility_scores, estimate_spreading_tree,
                                     truncate)
from cascade_gnn.features import default_schema
from cascade_gnn.types import CascadeRecord, SCOPE_CASCADE, SCOPE_URL

from helpers import make_cascade, make_social, make_story, make_tweet, make_user

SCHEMA = default_schema()


def brute_force_tree(cascade, social):
    """Direct restatement of the two spreading rules, kept independent of
    the production implementation."""
    parent = {}
    for n, tweet in enumerate(cascade.tweets):
        if n == 0:
            continue
        prev = list(cascade.tweets[:n])
        followed = [p for p in prev if (tweet.author, p.author) in social.follows]
        if followed:
            parent[tweet.tweet_id] = followed[-1].tweet_id
        else:
            most = max(prev, key=lambda p: social.users[p.author].followers_count)
            # max() keeps the earliest on ties
            parent[tweet.tweet_id] = most.tweet_id
    return parent


class TestSpreadingTree:
    def test_single_retweet_follows_source(self):
        social = make_social({"A": 10, "B": 5}, {("B", "A")})
        cas = make_cascade([("A", 0), ("B", 60)])
        tree = estimate_spreading_tree(cas, social)
        assert tree.parent == {"c0_t1": "c0_t0"}

    def test_rule2_most_followed_predecessor(self):
        social = make_social({"A": 10, "B": 500, "C": 3}, set())
        cas = make_cascade([("A", 0), ("B", 10), ("C", 20)])
        tree = estimate_spreading_tree(cas, social)
        assert tree.parent["c0_t2"] == "c0_t1"  # B has 500 followers

    def test_rule1_latest_followed_predecessor(self):
        social = make_social({"A": 10, "B": 5, "C": 1}, {("C", "A"), ("C", "B")})
        cas = make_cascade([("A", 0), ("B", 10), ("C", 20)])
        tree = estimate_spreading_tree(cas, social)
        assert tree.parent["c0_t2"] == "c0_t1"  # latest followed tweet wins

    def test_rule2_tie_picks_earliest(self):
        social = make_social({"A": 7, "B": 7, "C": 0}, set())
        cas = make_cascade([("A", 0), ("B", 10), ("C", 20)])
        tree = estimate_spreading_tree(cas, social)
        assert tree.parent["c0_t2"] == "c0_t0"

    def test_unknown_author_raises(self):
        social = make_social({"A": 1}, set())
        cas = make_cascade([("A", 0), ("B", 5)])
        with pytest.raises(KeyError):
            estimate_spreading_tree(cas, social)

    def test_tree_shape_invariant(self):
        social = make_social({u: i for i, u in enumerate("ABCDE")},
                             {("B", "A"), ("C", "B"), ("E", "D")})
        cas = make_cascade([("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 4)])
        tree = estimate_spreading_tree(cas, social)
        assert len(tree.parent) == cas.size - 1
        assert tree.root == cas.source.tweet_id

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        n_users = data.draw(st.integers(3, 7))
        users = [f"u{i}" for i in range(n_users)]
        followers = {u: data.draw(st.integers(0, 50)) for u in users}
        pairs = [(a, b) for a in users for b in users if a != b]
        follows = {p for p in pairs if data.draw(st.booleans())}
        social = make_social(followers, follows)
        size = data.draw(st.integers(1, 6))
        authors = [users[data.draw(st.integers(0, n_users - 1))] for _ in range(size)]
        cas = make_cascade([(a, 10.0 * k) for k, a in enumerate(authors)])
        tree = estimate_spreading_tree(cas, social)
        assert tree.parent == brute_force_tree(cas, social)


class TestTruncate:
    def cascade_with_deltas(self, deltas_hours):
        times = [0.0] + [h * 3600.0 for h in deltas_hours]
        return make_cascade([(f"u{k}", t) for k, t in enumerate(times)])

    def test_zero_hours_keeps_only_source(self):
        cas = self.cascade_with_deltas([0.5, 3.0])
        out = truncate([cas], 0.0)
        assert [t.tweet_id for t in out[0].tweets] == ["c0_t0"]

    def test_full_window_keeps_everything(self):
        cas = self.cascade_with_deltas([0.5, 3.0, 10.0])
        out = truncate([cas], 24.0)
        assert out[0].size == 4

    def test_partial_window(self):
        cas = self.cascade_with_deltas([0.5, 3.0, 10.0])
        out = truncate([cas], 3.0)
        assert [t.tweet_id for t in out[0].tweets] == ["c0_t0", "c0_t1", "c0_t2"]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            truncate([self.cascade_with_deltas([1.0])], -1.0)

    def test_story_reference_drops_late_cascades(self):
        early = make_cascade([("u0", 0.0), ("u1", 3600.0)], "c0")
        late = make_cascade([("u2", 50 * 3600.0)], "c1")
        out = truncate([early, late], 24.0, reference="story")
        assert [c.cascade_id for c in out] == ["c0"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 30.0), min_size=0, max_size=8),
           st.integers(0, 24), st.integers(0, 24))
    def test_monotone_nesting(self, deltas, d1, d2):
        d1, d2 = min(d1, d2), max(d1, d2)
        cas = self.cascade_with_deltas(sorted(deltas))
        ids1 = {t.tweet_id for c in truncate([cas], float(d1)) for t in c.tweets}
        ids2 = {t.tweet_id for c in truncate([cas], float(d2)) for t in c.tweets}
        assert ids1 <= ids2


class TestCredibility:
    def scores_for(self, urls_by_user, labels):
        return {u: credibility_score(u, urls_by_user, labels)
                for u in urls_by_user}

    def test_all_true_is_plus_one(self):
        labels = {f"u{i}": "true_news" for i in range(4)}
        out = self.scores_for({"alice": set(labels)}, labels)
        assert out["alice"] == 1.0

    def test_three_true_one_fake(self):
        labels = {"a": "true_news", "b": "true_news", "c": "true_news", "d": "fake_news"}
        out = self.scores_for({"alice": set(labels)}, labels)
        assert out["alice"] == pytest.approx(0.5)

    def test_balanced_is_zero(self):
        labels = {"a": "true_news", "b": "true_news", "c": "fake_news", "d": "fake_news"}
        out = self.scores_for({"alice": set(labels)}, labels)
        assert out["alice"] == 0.0

    def test_no_participation_raises(self):
        with pytest.raises(ValueError):
            credibility_score("ghost", {}, {})

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 10))
    def test_antisymmetric_under_label_swap(self, n_true, n_fake):
        if n_true + n_fake == 0:
            return
        labels = {f"t{i}": "true_news" for i in range(n_true)}
        labels.update({f"f{i}": "fake_news" for i in range(n_fake)})
        swapped = {k: ("fake_news" if v == "true_news" else "true_news")
                   for k, v in labels.items()}
        urls = {"u": set(labels)}
        a = credibility_score("u", urls, labels)
        b = credibility_score("u", urls, swapped)
        assert a == pytest.approx(-b)

    def test_credibility_scores_from_dataset(self):
        cas = make_cascade([("A", 0), ("B", 10)], "c0", "url0")
        story = make_story("url0", "fake_news", ["c0"])
        out = credibility_scores([story], {"url0": [cas]})
        assert out == {"A": -1.0, "B": -1.0}


class TestBuildPropagationGraph:
    def test_single_tweet_graph(self):
        social = make_social({"A": 1}, set())
        cas = make_cascade([("A", 0)], "c0", "url0")
        story = make_story("url0", "true_news", ["c0"])
        g = build_propagation_graph(story, [cas], social, SCOPE_CASCADE, SCHEMA)
        assert g.num_nodes == 1 and g.edges == ()

    def test_two_tweets_merge_follow_and_spread(self):
        social = make_social({"A": 10, "B": 1}, {("B", "A")})
        cas = make_cascade([("A", 0), ("B", 10)], "c0", "url0")
        story = make_story("url0", "true_news", ["c0"])
        g = build_propagation_graph(story, [cas], social, SCOPE_CASCADE, SCHEMA)
        assert len(g.edges) == 1
        i, j, flags = g.edges[0]
        assert (i, j) == (0, 1)
        # node 0 = A's tweet, node 1 = B's: B follows A -> j_follows_i;
        # spreading A -> B -> spread_i_to_j
        assert flags == (False, True, True, False)
        assert sum(flags) >= 2

    def test_url_scope_matches_pair_enumeration(self):
        users = {f"u{i}": i * 3 for i in range(6)}
        follows = {("u1", "u0"), ("u2", "u1"), ("u3", "u0"), ("u4", "u5"),
                   ("u5", "u4"), ("u2", "u5")}
        social = make_social(users, follows)
        c0 = make_cascade([("u0", 0)], "c0", "url0")
        c1 = make_cascade([("u1", 5), ("u2", 15)], "c1", "url0")
        c2 = make_cascade([("u3", 2), ("u4", 9), ("u5", 30)], "c2", "url0")
        story = make_story("url0", "fake_news", ["c0", "c1", "c2"])
        g = build_propagation_graph(story, [c0, c1, c2], social, SCOPE_URL, SCHEMA)
        assert g.num_nodes == 6

        # oracle: enumerate all node pairs and recompute every relation
        authors = dict(zip(g.nodes, g.node_authors))
        spread = set()
        for cas in (c0, c1, c2):
            tree = estimate_spreading_tree(cas, social)
            spread |= tree.spread_pairs()
        expected = {}
        for a in range(6):
            for b in range(a + 1, 6):
                ta, tb = g.nodes[a], g.nodes[b]
                fl = ((authors[ta], authors[tb]) in follows,
                      (authors[tb], authors[ta]) in follows,
                      (ta, tb) in spread,
                      (tb, ta) in spread)
                if any(fl):
                    expected[(a, b)] = fl
        assert {(i, j): f for i, j, f in g.edges} == expected

    def test_cascade_order_independence(self):
        users = {f"u{i}": i for i in range(5)}
        follows = {("u1", "u0"), ("u3", "u2"), ("u4", "u0")}
        social = make_social(users, follows)
        c0 = make_cascade([("u0", 0), ("u1", 4)], "c0", "url0")
        c1 = make_cascade([("u2", 1), ("u3", 6), ("u4", 9)], "c1", "url0")
        story = make_story("url0", "true_news", ["c0", "c1"])
        g1 = build_propagation_graph(story, [c0, c1], social, SCOPE_URL, SCHEMA)
        g2 = build_propagation_graph(story, [c1, c0], social, SCOPE_URL, SCHEMA)
        assert g1.nodes == g2.nodes
        assert g1.edges == g2.edges
        assert (g1.node_features == g2.node_features).all()

    def test_unknown_user_raises(self):
        social = make_social({"A": 1}, set())
        cas = make_cascade([("A", 0), ("Z", 1)], "c0", "url0")
        story = make_story("url0", "true_news", ["c0"])
        with pytest.raises(KeyError):
            build_propagation_graph(story, [cas], social, SCOPE_CASCADE, SCHEMA)

    def test_duplicate_tweet_id_raises(self):
        # two cascades of one story sharing a tweet ID used to merge two nodes
        social = make_social({"A": 1, "B": 1}, set())
        c0 = make_cascade([("A", 0), ("B", 5)], "c0", "url0")
        c1 = CascadeRecord("c1", "url0", (make_tweet("c1_t0", "A", 1, "c1", is_source=True),
                                          make_tweet("c0_t1", "B", 3, "c1")))
        story = make_story("url0", "true_news", ["c0", "c1"])
        with pytest.raises(ValueError, match="duplicate tweet id 'c0_t1'"):
            build_propagation_graph(story, [c0, c1], social, SCOPE_URL, SCHEMA)

    def test_cascade_scope_needs_exactly_one(self):
        social = make_social({"A": 1}, set())
        c0 = make_cascade([("A", 0)], "c0", "url0")
        c1 = make_cascade([("A", 0)], "c1", "url0")
        story = make_story("url0", "true_news", ["c0", "c1"])
        with pytest.raises(ValueError):
            build_propagation_graph(story, [c0, c1], social, SCOPE_CASCADE, SCHEMA)


class TestTypeInvariants:
    def test_cascade_requires_sorted_timestamps(self):
        t0 = make_tweet("t0", "A", 10.0, is_source=True)
        t1 = make_tweet("t1", "B", 5.0)
        with pytest.raises(ValueError):
            CascadeRecord("c0", "url0", (t0, t1))

    def test_cascade_requires_single_source(self):
        t0 = make_tweet("t0", "A", 0.0, is_source=True)
        t1 = make_tweet("t1", "B", 5.0, is_source=True)
        with pytest.raises(ValueError):
            CascadeRecord("c0", "url0", (t0, t1))

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            CascadeRecord("c0", "url0", ())

    def test_social_graph_rejects_self_follow(self):
        with pytest.raises(ValueError):
            make_social({"A": 0}, {("A", "A")})

    def test_user_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            make_user("A", followers=-1)

    def test_embedding_length_enforced(self):
        with pytest.raises(ValueError):
            make_user("A", description_embedding=np.zeros(17))

    def test_non_finite_embedding_rejected(self):
        bad = np.zeros(200)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            make_user("A", description_embedding=bad)
