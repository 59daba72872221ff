"""Generator determinism, invariants, and calibration targets.

Calibration examples run on reduced-scale configs where the statistic is
scale-free; the full default-scale targets are asserted in the
acceptance suite.
"""
import numpy as np
import pytest

from cascade_gnn.propagation import estimate_spreading_tree
from cascade_gnn.synthgen import (GenConfig, _cascade_size_probs, community_assignments,
                                  generate_dataset, generate_social_graph, summary_stats)
from cascade_gnn.types import CascadeRecord, SocialGraph, UrlStory

from helpers import assert_spreading_tree

SMALL = GenConfig(num_users=800, num_urls=40, mean_cascades_per_url=6.0)


def expected_cascade_size(cfg: GenConfig) -> float:
    p = _cascade_size_probs(cfg)
    return float((np.arange(1, cfg.max_cascade_size + 1) * p).sum())


def cross_community_edge_fraction(cfg: GenConfig, social: SocialGraph) -> float:
    """Fraction of follow pairs whose endpoints sit in different communities."""
    comm = community_assignments(cfg)
    if len(social.follows) == 0:
        return 0.0
    cross = sum(1 for a, b in social.pairs() if comm[int(a[1:])] != comm[int(b[1:])])
    return cross / len(social.follows)


@pytest.fixture(scope="module")
def small_world():
    social = generate_social_graph(SMALL)
    stories, cascades = generate_dataset(SMALL, social)
    return social, stories, cascades


class TestConfig:
    def test_rejects_bad_fake_fraction(self):
        with pytest.raises(ValueError):
            GenConfig(fake_fraction=0.0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            GenConfig(community_fractions=(0.5, 0.6))

    def test_rejects_unknown_embedding_mode(self):
        with pytest.raises(ValueError):
            GenConfig(embedding_mode="glove")

    def test_load_file_requires_path(self):
        with pytest.raises(ValueError):
            GenConfig(embedding_mode="load_file")

    @pytest.mark.parametrize("field, value", [
        ("activation_probability", 1.5), ("time_horizon_days", float("inf")), ("num_urls", 2.5),
    ])
    def test_rejects_what_the_cli_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be "):
            GenConfig(**{field: value})

    def test_keeps_each_value_as_its_rule_reads_it(self):
        cfg = GenConfig(mean_cascades_per_url=3, num_urls="7", community_fractions=[0.5, 0.5])
        assert (cfg.mean_cascades_per_url, cfg.num_urls) == (3.0, 7)
        assert type(cfg.mean_cascades_per_url) is float
        assert cfg.community_fractions == (0.5, 0.5)


class TestSocialGraph:
    def test_single_user_has_no_follows(self):
        cfg = GenConfig(num_users=1, num_urls=1)
        social = generate_social_graph(cfg)
        assert len(social.users) == 1 and len(social.follows) == 0

    def test_deterministic_given_seed(self):
        cfg = GenConfig(num_users=300, num_urls=5)
        a = generate_social_graph(cfg)
        b = generate_social_graph(cfg)
        assert np.array_equal(a.follows, b.follows)
        ua, ub = a.users["u000007"], b.users["u000007"]
        assert (ua.description_embedding == ub.description_embedding).all()
        assert ua.created_at == ub.created_at

    def test_follower_counts_match_in_degree(self, small_world):
        social, _, _ = small_world
        in_deg = {}
        for a, b in social.pairs():
            in_deg[b] = in_deg.get(b, 0) + 1
        for uid, user in social.users.items():
            assert user.followers_count == in_deg.get(uid, 0)

    def test_edges_per_user_ratio(self):
        # scaled-down check of the published edges/users ratio ~12.08
        cfg = GenConfig(num_users=2000, num_urls=5)
        social = generate_social_graph(cfg)
        ratio = len(social.follows) / cfg.num_users
        assert 12.08 * 0.75 <= ratio <= 12.08 * 1.25

    def test_no_homophily_null_cross_fraction(self):
        # with homophily off, an edge crosses communities w.p. 2*p*q
        fractions = []
        for seed in range(10):
            cfg = GenConfig(seed=seed, num_users=400, num_urls=5,
                            homophily_strength=0.0)
            social = generate_social_graph(cfg)
            fractions.append(cross_community_edge_fraction(cfg, social))
        p, q = GenConfig.community_fractions
        expected = 2 * p * q
        mean = np.mean(fractions)
        sigma = np.std(fractions, ddof=1) / np.sqrt(len(fractions))
        assert abs(mean - expected) <= 3 * max(sigma, 1e-9)

    def test_homophily_reduces_cross_edges(self):
        base = GenConfig(num_users=400, num_urls=5, homophily_strength=0.0)
        tight = GenConfig(num_users=400, num_urls=5, homophily_strength=0.9)
        f0 = cross_community_edge_fraction(base, generate_social_graph(base))
        f1 = cross_community_edge_fraction(tight, generate_social_graph(tight))
        assert f1 < f0 * 0.5


class TestDataset:
    def test_single_story_single_cascade(self):
        cfg = GenConfig(num_users=200, num_urls=1, mean_cascades_per_url=1.0)
        social = generate_social_graph(cfg)
        stories, cascades = generate_dataset(cfg, social)
        assert len(stories) == 1
        assert len(cascades) >= 1
        assert stories[0].cascade_ids == tuple(c.cascade_id for c in cascades)

    def test_deterministic_given_seed(self):
        cfg = GenConfig(num_users=300, num_urls=8, mean_cascades_per_url=3.0)
        social = generate_social_graph(cfg)
        s1, c1 = generate_dataset(cfg, social)
        s2, c2 = generate_dataset(cfg, social)
        assert [s.url_id for s in s1] == [s.url_id for s in s2]
        assert [s.label for s in s1] == [s.label for s in s2]
        for a, b in zip(c1, c2):
            assert a.cascade_id == b.cascade_id
            assert [t.timestamp for t in a.tweets] == [t.timestamp for t in b.tweets]
            assert (a.tweets[0].text_embedding == b.tweets[0].text_embedding).all()

    def test_cascade_invariants_hold(self, small_world):
        _, _, cascades = small_world
        for cas in cascades:
            assert isinstance(cas, CascadeRecord)  # construction validates sortedness
            authors = [t.author for t in cas.tweets]
            assert len(set(authors)) == len(authors)

    def test_spreading_tree_estimation_never_fails(self, small_world):
        social, _, cascades = small_world
        for cas in cascades[:200]:
            assert_spreading_tree(estimate_spreading_tree(cas, social), cas)

    def test_fake_fraction_on_realized_draw(self, small_world):
        _, stories, _ = small_world
        frac = np.mean([s.is_fake for s in stories])
        assert abs(frac - SMALL.fake_fraction) <= 0.02

    def test_mean_cascade_size_within_band(self):
        assert abs(expected_cascade_size(GenConfig()) - 2.79) / 2.79 <= 0.20

    def test_labels_are_valid_stories(self, small_world):
        _, stories, _ = small_world
        for s in stories:
            assert isinstance(s, UrlStory)


class TestSummaryStats:
    def test_single_cascade_histogram(self):
        cfg = GenConfig(num_users=50, num_urls=1, mean_cascades_per_url=1.0,
                        cascade_size_tail_exponent=50.0)  # forces size 1
        social = generate_social_graph(cfg)
        stories, cascades = generate_dataset(cfg, social)
        stats = summary_stats(stories, cascades)
        assert stats.cascade_size_histogram == {1: len(cascades)}

    def test_cumulative_share_at_rank(self, small_world):
        _, stories, cascades = small_world
        stats = summary_stats(stories, cascades)
        per_url = {}
        for c in cascades:
            per_url[c.url_id] = per_url.get(c.url_id, 0) + 1
        ranked = sorted(per_url.values(), reverse=True)
        k = min(15, len(ranked))
        expected = sum(ranked[:k]) / len(cascades)
        assert stats.url_cumulative_share[k - 1] == pytest.approx(expected)
        assert stats.url_cumulative_share[-1] == pytest.approx(1.0)

    def test_coverage_between_zero_and_one(self, small_world):
        _, stories, cascades = small_world
        stats = summary_stats(stories, cascades)
        cov = stats.coverage_by_hour
        assert cov[24.0] == pytest.approx(1.0)
        assert 0.0 < cov[1.0] <= cov[3.0] <= cov[7.0] <= cov[15.0] <= 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            summary_stats([], [])


class TestLoadFileEmbeddings:
    def test_dictionary_from_word_vector_file(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for k in range(6):
            vec = rng.normal(size=200)
            lines.append(f"tok{k} " + " ".join(f"{x:.5f}" for x in vec))
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines) + "\n")
        cfg = GenConfig(num_users=40, num_urls=2, mean_cascades_per_url=2.0,
                        embedding_mode="load_file", embedding_file=str(path))
        social = generate_social_graph(cfg)
        stories, cascades = generate_dataset(cfg, social)
        emb = cascades[0].tweets[0].text_embedding
        assert emb.shape == (200,)
        assert np.isfinite(emb).all()
