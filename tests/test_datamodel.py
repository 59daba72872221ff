"""Domain types and propagation operations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gnn.propagation import (build_propagation_graph, credibility_score,
                                     credibility_scores, truncate)
from cascade_gnn.types import CascadeRecord, SCOPE_CASCADE, SCOPE_URL, SocialGraph, first_repeat

from helpers import (assert_spreading_tree, estimate_spreading_tree, make_cascade, make_social,
                     make_story, make_tweet, make_user, pair_flags, world_table)


def brute_force_tree(cascade, social):
    """Direct restatement of the two spreading rules, kept independent of
    the production implementation."""
    parent = {}
    follows = set(social.pairs())
    for n, tweet in enumerate(cascade.tweets):
        if n == 0:
            continue
        prev = list(cascade.tweets[:n])
        followed = [p for p in prev if (tweet.author, p.author) in follows]
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
        assert tree == {"c0_t1": "c0_t0"}

    def test_rule2_most_followed_predecessor(self):
        social = make_social({"A": 10, "B": 500, "C": 3}, set())
        cas = make_cascade([("A", 0), ("B", 10), ("C", 20)])
        tree = estimate_spreading_tree(cas, social)
        assert tree["c0_t2"] == "c0_t1"  # B has 500 followers

    def test_rule1_latest_followed_predecessor(self):
        social = make_social({"A": 10, "B": 5, "C": 1}, {("C", "A"), ("C", "B")})
        cas = make_cascade([("A", 0), ("B", 10), ("C", 20)])
        tree = estimate_spreading_tree(cas, social)
        assert tree["c0_t2"] == "c0_t1"  # latest followed tweet wins

    def test_rule2_tie_picks_earliest(self):
        social = make_social({"A": 7, "B": 7, "C": 0}, set())
        cas = make_cascade([("A", 0), ("B", 10), ("C", 20)])
        tree = estimate_spreading_tree(cas, social)
        assert tree["c0_t2"] == "c0_t0"

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
        assert_spreading_tree(tree, cas)

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
        assert_spreading_tree(tree, cas)
        assert tree == brute_force_tree(cas, social)


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
        g = build_propagation_graph(story, [cas], social, SCOPE_CASCADE, world_table(social, [cas]))
        assert g.edges.num_nodes == 1 and pair_flags(g) == {}

    def test_two_tweets_merge_follow_and_spread(self):
        social = make_social({"A": 10, "B": 1}, {("B", "A")})
        cas = make_cascade([("A", 0), ("B", 10)], "c0", "url0")
        story = make_story("url0", "true_news", ["c0"])
        g = build_propagation_graph(story, [cas], social, SCOPE_CASCADE, world_table(social, [cas]))
        pairs = pair_flags(g)
        assert len(pairs) == 1
        ((i, j), flags), = pairs.items()
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
        g = build_propagation_graph(story, [c0, c1, c2], social, SCOPE_URL,
                                    world_table(social, [c0, c1, c2]))
        assert g.edges.num_nodes == 6

        # oracle: order the tweets, enumerate all node pairs and recompute every relation
        nodes = sorted((t for cas in (c0, c1, c2) for t in cas.tweets),
                       key=lambda t: (t.timestamp, t.tweet_id))
        assert g.authors == tuple(t.author for t in nodes)
        assert g.times == tuple(t.timestamp for t in nodes)
        authors = {t.tweet_id: t.author for t in nodes}
        spread = set()
        for cas in (c0, c1, c2):
            spread |= {(p, c) for c, p in estimate_spreading_tree(cas, social).items()}
        expected = {}
        for a in range(6):
            for b in range(a + 1, 6):
                ta, tb = nodes[a].tweet_id, nodes[b].tweet_id
                fl = ((authors[ta], authors[tb]) in follows,
                      (authors[tb], authors[ta]) in follows,
                      (ta, tb) in spread,
                      (tb, ta) in spread)
                if any(fl):
                    expected[(a, b)] = fl
        assert pair_flags(g) == expected

    def test_retweet_sorted_before_its_parent(self):
        # same timestamp: the retweet's ID sorts first, so it is node 0 and
        # its parent node 1, and the spreading link runs from j to i
        social = make_social({"A": 1, "B": 1}, {("B", "A")})
        cas = CascadeRecord("c0", "url0", (make_tweet("z_src", "A", 5, is_source=True),
                                           make_tweet("a_rt", "B", 5)))
        story = make_story("url0", "true_news", ["c0"])
        g = build_propagation_graph(story, [cas], social, SCOPE_CASCADE, world_table(social, [cas]))
        assert (g.authors, g.times) == (("B", "A"), (5.0, 5.0))  # a_rt, then z_src
        assert pair_flags(g) == {(0, 1): (True, False, False, True)}

    def test_cascade_order_independence(self):
        users = {f"u{i}": i for i in range(5)}
        follows = {("u1", "u0"), ("u3", "u2"), ("u4", "u0")}
        social = make_social(users, follows)
        c0 = make_cascade([("u0", 0), ("u1", 4)], "c0", "url0")
        c1 = make_cascade([("u2", 1), ("u3", 6), ("u4", 9)], "c1", "url0")
        story = make_story("url0", "true_news", ["c0", "c1"])
        table = world_table(social, [c0, c1])
        g1 = build_propagation_graph(story, [c0, c1], social, SCOPE_URL, table)
        g2 = build_propagation_graph(story, [c1, c0], social, SCOPE_URL, table)
        assert (g1.authors, g1.times) == (g2.authors, g2.times)
        for name in ("src", "dst", "flags", "num_nodes"):
            assert np.array_equal(getattr(g1.edges, name), getattr(g2.edges, name)), name
        assert (g1.features == g2.features).all()

    def test_unknown_user_raises(self):
        social = make_social({"A": 1}, set())
        cas = make_cascade([("A", 0), ("Z", 1)], "c0", "url0")
        story = make_story("url0", "true_news", ["c0"])
        with pytest.raises(KeyError):
            build_propagation_graph(story, [cas], social, SCOPE_CASCADE, world_table(social, [cas]))

    def test_duplicate_tweet_id_raises(self):
        # two cascades of one story sharing a tweet ID used to merge two nodes
        social = make_social({"A": 1, "B": 1}, set())
        c0 = make_cascade([("A", 0), ("B", 5)], "c0", "url0")
        c1 = CascadeRecord("c1", "url0", (make_tweet("c1_t0", "A", 1, is_source=True),
                                          make_tweet("c0_t1", "B", 3)))
        story = make_story("url0", "true_news", ["c0", "c1"])
        with pytest.raises(ValueError, match="duplicate tweet id 'c0_t1'"):
            build_propagation_graph(story, [c0, c1], social, SCOPE_URL,
                                    world_table(social, [c0, c1]))

    def test_unknown_scope_rejected(self):
        social = make_social({"A": 1}, set())
        c0 = make_cascade([("A", 0)], "c0", "url0")
        story = make_story("url0", "true_news", ["c0"])
        with pytest.raises(ValueError, match="scope must be one of"):
            build_propagation_graph(story, [c0], social, "story_wise", world_table(social, [c0]))

    def test_cascade_scope_needs_exactly_one(self):
        social = make_social({"A": 1}, set())
        c0 = make_cascade([("A", 0)], "c0", "url0")
        c1 = make_cascade([("A", 0)], "c1", "url0")
        story = make_story("url0", "true_news", ["c0", "c1"])
        with pytest.raises(ValueError):
            build_propagation_graph(story, [c0, c1], social, SCOPE_CASCADE,
                                    world_table(social, [c0, c1]))


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


class TestSocialGraph:
    """The follow graph's sorted index array against the ID pairs it encodes."""

    @staticmethod
    def graph(data, max_users=6):
        """A drawn graph, in drawn user order, and its follow ID pairs."""
        users = data.draw(st.lists(st.sampled_from("ABCDEFGHIJ"), unique=True,
                                   max_size=max_users))
        follows = {(a, b) for a in users for b in users if a != b and data.draw(st.booleans())}
        return make_social({u: 0 for u in users}, follows), follows

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_follow_matrix_matches_pair_lookups(self, data):
        social, follows = self.graph(data)
        ids = data.draw(st.lists(st.sampled_from(sorted(social.users)), max_size=12)
                        if social.users else st.just([]))
        matrix = social.follow_matrix(ids)
        assert matrix.dtype == bool and matrix.shape == (len(ids), len(ids))
        assert matrix.tolist() == [[(a, b) in follows for b in ids] for a in ids]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_views_are_the_sorted_pairs(self, data):
        social, follows = self.graph(data)
        assert social.ids == tuple(sorted(social.users))
        assert social.pairs() == sorted(follows)
        ids = social.ids
        assert [(ids[a], ids[b]) for a, b in social.index_pairs().tolist()] == sorted(follows)
        assert social.index_pairs().dtype == np.intp and len(social.follows) == len(follows)

    def test_repeated_ids_users_without_follows_and_empty_graphs(self):
        social = make_social({"A": 0, "B": 0, "C": 0}, {("A", "B")})
        assert social.follow_matrix(["B", "A", "A", "C"]).tolist() == [
            [False, False, False, False], [True, False, False, False],
            [True, False, False, False], [False, False, False, False]]
        lonely = make_social({"A": 0, "B": 0}, set())
        assert not lonely.follow_matrix(["A", "B", "B"]).any()
        empty = make_social({}, set())
        assert empty.follow_matrix([]).shape == (0, 0)
        assert empty.pairs() == [] and empty.index_pairs().shape == (0, 2)
        with pytest.raises(KeyError):
            social.follow_matrix(["A", "nobody"])

    def test_follow_array_is_read_only(self):
        social = make_social({"A": 0, "B": 0}, {("A", "B")})
        with pytest.raises(ValueError):
            social.follows[0] = 0

    @pytest.mark.parametrize("codes, reason", [
        ([2, 1], "not sorted"),       # B -> A before A -> B
        ([1, 1], "repeated"),
        ([1, 4], "beyond the 2 users"),
        ([-1], "beyond the 2 users"),
        ([0], "follows itself"),      # A -> A
        ([3], "follows itself"),      # B -> B
        ([[1, 2]], "1-d integer array"),
        ([1.0], "1-d integer array"),
    ])
    def test_rejects_a_bad_follow_array(self, codes, reason):
        # with users A and B, the code a * 2 + b says user a follows user b
        users = {u: make_user(u) for u in "AB"}
        assert make_social({"A": 0, "B": 0}, {("A", "B"), ("B", "A")}).follows.tolist() == [1, 2]
        with pytest.raises(ValueError, match=reason):
            SocialGraph(users, np.array(codes))

    @pytest.mark.parametrize("followers, followees, reason", [
        ([0], [0], "follows itself"),
        ([0, 0], [1, 1], "repeated"),
        ([0], [2], "beyond the 2 users"),
        ([-1], [0], "beyond the 2 users"),
        ([0, 1], [1], "2 followers for 1 followees"),
    ])
    def test_from_pairs_rejects_bad_pairs(self, followers, followees, reason):
        users = {u: make_user(u) for u in "BA"}  # positions in dict order: B 0, A 1
        with pytest.raises(ValueError, match=reason):
            SocialGraph.from_pairs(users, followers, followees)

    def test_from_pairs_reads_positions_in_dict_order(self):
        users = {u: make_user(u) for u in "CAB"}
        social = SocialGraph.from_pairs(users, [0, 2, 1], [1, 0, 0])
        assert social.pairs() == [("A", "C"), ("B", "C"), ("C", "A")]

    @pytest.mark.parametrize("followers, followees, first", [
        ([], [], None), ([0], [1], None), ([0, 1], [1, 0], None),
        ([0, 1, 0], [1, 0, 1], 2), ([2, 0, 2, 0, 2], [0, 1, 0, 1, 0], 2),
    ])
    def test_first_repeat(self, followers, followees, first):
        assert first_repeat(followers, followees) == first
