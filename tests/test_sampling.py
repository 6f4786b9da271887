import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkconformal.errors import DegenerateCalibrationError
from linkconformal.graph import generate_powerlaw_graph, inject_cliques, degree_sequence, split_edges, training_subgraph, negative_sample
from linkconformal.powerlaw import PowerLawFit, adaptive_min_tail, fit_power_law
from linkconformal.sampling import (
    SamplerConfig,
    _cdf,
    _keep_rule,
    keep_probabilities,
    pareto_sequence,
    sample_edges,
)
from linkconformal.seeding import derive_rng, derive_seed, edge_uniforms

from test_graph import row_set


class TestParetoSequence:
    def test_inverse_cdf_at_zero(self):
        # the law starts at x_m: the smallest of many draws rounds to it
        assert pareto_sequence(3.0, 2.5, 1000, seed=0).min() == 3

    def test_inverse_cdf_halfway(self):
        # beta 1: x = x_m/(1-u); x_m 1e9 makes the rounding invisible
        u = derive_rng(5, "pareto").random(64)
        assert pareto_sequence(1e9, 1.0, 64, seed=5) == pytest.approx(1e9 / (1.0 - u))

    def test_mean_before_discretization(self):
        # Pareto mean is beta/(beta-1) * x_m = 1.5 x_m for beta 3; at x_m 1000
        # rounding moves each draw by at most 0.05% of x_m
        seq = pareto_sequence(1000.0, 3.0, 10**5, seed=0)
        assert abs(seq.mean() / 1000.0 - 1.5) < 0.02

    def test_discretized_floor(self):
        seq = pareto_sequence(1.0, 3.0, 1000, seed=1)
        assert seq.min() >= 1
        assert seq.dtype == np.int64

    def test_deterministic(self):
        assert np.array_equal(pareto_sequence(2.0, 2.5, 64, seed=5), pareto_sequence(2.0, 2.5, 64, seed=5))

    def test_validations(self):
        with pytest.raises(ValueError):
            pareto_sequence(1.0, 2.5, 0, seed=0)
        with pytest.raises(ValueError):
            pareto_sequence(-1.0, 2.5, 10, seed=0)
        with pytest.raises(ValueError):
            pareto_sequence(1.0, 0.0, 10, seed=0)


class TestEcdf:
    def test_fractions(self):
        assert _cdf(np.array([1, 2, 3]), 2) == pytest.approx(2 / 3)

    def test_maximum_is_one(self):
        assert np.all(_cdf(np.array([4, 7, 7, 9]), [9, 100]) == 1.0)

    def test_below_minimum_is_zero(self):
        assert _cdf(np.array([4, 7]), 3) == 0.0

    def test_non_decreasing(self):
        rng = np.random.default_rng(1)
        vals = _cdf(rng.integers(1, 50, size=200), np.arange(0, 60))
        assert np.all(np.diff(vals) >= 0)
        assert np.all((0 <= vals) & (vals <= 1))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=200), st.lists(st.integers(0, 250), max_size=60))
    def test_matches_sort_and_searchsorted(self, sample, d):
        sample, d = np.array(sample, dtype=np.int64), np.array(d, dtype=np.int64)
        want = np.searchsorted(np.sort(sample), d, side="right") / sample.size
        assert _cdf(sample, d).tobytes() == want.tobytes()

    def test_far_draw_does_not_size_the_counts(self, traced_peak):
        # One Pareto draw of 10^12 would make a 10^12-entry count array.
        sample = np.array([3, 1, 10**12, 2, 2], dtype=np.int64)
        d = np.arange(0, 6)
        got, peak = traced_peak(lambda: _cdf(sample, d))
        assert got.tolist() == [0.0, 0.2, 0.6, 0.8, 0.8, 0.8]
        assert peak < 10_000

    def test_empty_rejected(self):
        # a graph with no edges has no degrees to build either CDF from
        fit = PowerLawFit(beta_hat=2.5, d_min=1, ks=0.1, tail_size=1)
        with pytest.raises(ValueError):
            keep_probabilities([(0, 1)], np.zeros(3, dtype=np.int64), fit, SamplerConfig(mode="literal"))


def keep(d_u, d_v, cfg, orig, ideal):
    """_keep_rule on the gaps between the CDFs of two degree samples."""
    orig, ideal = np.asarray(orig), np.asarray(ideal)
    gap_u, gap_v = (_cdf(orig, d) - _cdf(ideal, d) for d in (d_u, d_v))
    return _keep_rule(gap_u, gap_v, cfg)


def deviation(d, orig, ideal):
    """|CDF_orig(d) - CDF_ideal(d)|: the literal keep probability of a (d, d)
    edge at lambda 1 with max aggregation."""
    return keep(d, d, SamplerConfig(lam=1.0, agg="max", mode="literal"), orig, ideal)


class TestDeviation:
    def test_identity(self):
        a = [1, 2, 3, 4]
        for d in range(6):
            assert deviation(d, a, a) == 0.0

    def test_direct_difference(self):
        a = [1, 1, 9, 9, 9]  # CDF 0.4 at 5
        b = [1] * 7 + [9] * 3  # CDF 0.7 at 5
        assert deviation(5, a, b) == pytest.approx(0.3)

    def test_symmetry(self):
        a = [1, 1, 2]
        b = [2, 3, 3]
        directional = SamplerConfig(lam=1.0, agg="max", mode="directional")
        for d in range(5):
            assert deviation(d, a, b) == deviation(d, b, a)
            # directional removes max(0, -gap) of the signed gap; the two
            # orders split the literal |gap| between them
            removals = [1.0 - keep(d, d, directional, x, y) for x, y in ((a, b), (b, a))]
            assert min(removals) == 0.0
            assert max(removals) == pytest.approx(deviation(d, a, b))


class TestKeepProbability:
    orig = [1, 1, 2, 3, 8, 9]
    ideal = [1, 2, 2, 3, 4, 5]

    def test_literal_lambda_zero(self):
        cfg = SamplerConfig(lam=0.0, mode="literal", seed=0)
        assert keep(1, 2, cfg, self.orig, self.ideal) == 0.0

    def test_directional_perfect_fit_keeps(self):
        cfg = SamplerConfig(lam=5.0, mode="directional", seed=0)
        same = [1, 2, 3]
        assert keep(2, 3, cfg, same, same) == 1.0

    def test_clamped_at_one(self):
        cfg = SamplerConfig(lam=1e9, mode="literal", seed=0)
        assert keep(1, 1, cfg, self.orig, self.ideal) == 1.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for mode in ("literal", "directional"):
            for agg in ("sum", "max"):
                cfg = SamplerConfig(lam=float(rng.uniform(0, 10)), mode=mode, agg=agg, seed=0)
                p = keep(rng.integers(0, 12, 50), rng.integers(0, 12, 50), cfg, self.orig, self.ideal)
                assert np.all((0.0 <= p) & (p <= 1.0))

    def test_literal_monotone_in_lambda(self):
        lams = [0.45, 0.30, 0.15]
        edges = [(1, 2), (2, 3), (1, 8), (8, 9)]
        degs = np.arange(10)
        fit = PowerLawFit(beta_hat=2.5, d_min=1, ks=0.1, tail_size=9)
        totals = []
        for lam in lams:
            cfg = SamplerConfig(lam=lam, mode="literal", seed=0)
            totals.append(keep_probabilities(edges, degs, fit, cfg).sum())
        assert totals[0] >= totals[1] >= totals[2]

    def test_directional_keep_monotone_as_lambda_grows(self):
        # directional removal grows with lambda, so keep probability falls
        cfg_lo = SamplerConfig(lam=0.5, mode="directional", seed=0)
        cfg_hi = SamplerConfig(lam=4.0, mode="directional", seed=0)
        p_lo = keep(8, 9, cfg_lo, self.orig, self.ideal)
        p_hi = keep(8, 9, cfg_hi, self.orig, self.ideal)
        assert p_hi <= p_lo

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SamplerConfig(agg="mean")
        with pytest.raises(ValueError):
            SamplerConfig(mode="both")

    @pytest.mark.parametrize("lam", [float("inf"), float("nan")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="finite"):
            SamplerConfig(lam=lam)

    def test_tail_beyond_every_degree_rejected(self):
        # directional mode conditions the graph's degrees on d >= d_min
        fit = PowerLawFit(beta_hat=2.5, d_min=10, ks=0.1, tail_size=1)
        with pytest.raises(ValueError, match="d_min=10"):
            keep_probabilities([(1, 2)], np.arange(10), fit, SamplerConfig(mode="directional"))


def degree_fit(sub):
    """The training subgraph's node degrees and their fit, as a trial makes them."""
    node_deg = degree_sequence(sub)
    positive = node_deg[node_deg > 0]
    return node_deg, fit_power_law(positive, min_tail=adaptive_min_tail(positive.size))


def clique_setup(seed=0):
    """A split of a clique-injected graph, and its subgraph's degrees and fit."""
    g = generate_powerlaw_graph(600, 2.5, 1, seed=seed)
    g = inject_cliques(g, 12, 4, seed=seed + 1)
    pos = g.edge_array()
    neg = negative_sample(g, len(pos), seed=seed + 2)
    split = split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=seed + 3)
    return (split, *degree_fit(training_subgraph(g, split)))


class TestSampleEdges:
    def test_keep_all_is_identity(self):
        split, node_deg, fit = clique_setup(seed=10)
        # directional on a perfectly fitted graph touches nothing; force the
        # stronger statement with lambda 0 (removal probability 0 everywhere)
        cfg = SamplerConfig(lam=0.0, mode="directional", seed=1)
        train, val, calib = sample_edges(split.train, split.val, split.calib, node_deg, fit, cfg)
        assert row_set(train) == row_set(split.train)
        assert row_set(val) == row_set(split.val)
        assert row_set(calib) == row_set(split.calib)

    def test_keep_none_degenerates(self):
        split, node_deg, fit = clique_setup(seed=11)
        cfg = SamplerConfig(lam=0.0, mode="literal", seed=2)
        with pytest.raises(DegenerateCalibrationError):
            sample_edges(split.train, split.val, split.calib, node_deg, fit, cfg)

    def test_label_outside_zero_one_rejected(self):
        # Lambda 0 in directional mode keeps every edge, so a row labelled 2
        # could only vanish in the class rebalance.
        split, node_deg, fit = clique_setup(seed=10)
        train = split.train[:40].copy()
        train[:5, 2] = 2
        cfg = SamplerConfig(lam=0.0, mode="directional", seed=1)
        with pytest.raises(ValueError, match="^label must be 0 or 1, got 2$"):
            sample_edges(train, split.val, split.calib, node_deg, fit, cfg)

    def test_output_subset_labels_unchanged(self):
        split, node_deg, fit = clique_setup(seed=12)
        cfg = SamplerConfig(lam=1.0, mode="literal", seed=3)
        train, val, calib = sample_edges(split.train, split.val, split.calib, node_deg, fit, cfg)
        for kept, original in ((train, split.train), (val, split.val), (calib, split.calib)):
            assert row_set(kept) <= row_set(original)

    def test_class_balance_restored(self):
        split, node_deg, fit = clique_setup(seed=13)
        cfg = SamplerConfig(lam=0.8, mode="literal", seed=4)
        train, val, calib = sample_edges(split.train, split.val, split.calib, node_deg, fit, cfg)
        for subset in (train, val, calib):
            n_pos = int(subset[:, 2].sum())
            assert 2 * n_pos == len(subset)

    def test_deterministic_and_order_independent(self):
        split, node_deg, fit = clique_setup(seed=14)
        cfg = SamplerConfig(lam=1.2, mode="literal", seed=5)
        first = sample_edges(split.train, split.val, split.calib, node_deg, fit, cfg)
        second = sample_edges(split.train, split.val, split.calib, node_deg, fit, cfg)
        assert len(first) == len(second) == 3
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        reversed_train = split.train[::-1]
        third = sample_edges(reversed_train, split.val, split.calib, node_deg, fit, cfg)
        assert row_set(third[0]) == row_set(first[0])

    def test_test_set_untouched(self):
        split, node_deg, fit = clique_setup(seed=15)
        cfg = SamplerConfig(lam=0.7, mode="literal", seed=6)
        before = split.test.copy()
        sample_edges(split.train, split.val, split.calib, node_deg, fit, cfg)
        assert np.array_equal(split.test, before)

    def test_expected_retention_matches_empirical(self):
        split, node_deg, fit = clique_setup(seed=16)
        cfg = SamplerConfig(lam=1.0, mode="literal", seed=0)
        probs = keep_probabilities(split.train, node_deg, fit, cfg)
        expected = probs.sum()
        variance = float(np.sum(probs * (1 - probs)))
        endpoints = split.train[:, :2]
        labels = split.train[:, 2]
        counts = [
            int((edge_uniforms(derive_seed(seed, "edge-draws"), endpoints, labels) <= probs).sum())
            for seed in range(20)
        ]
        assert abs(np.mean(counts) - expected) < 4 * np.sqrt(variance / 20)

    @pytest.mark.parametrize("mode", ["literal", "directional"])
    def test_keeps_balanced_subset_of_edges_drawn_under_probability(self, mode):
        split, node_deg, fit = clique_setup(seed=17)
        cfg = SamplerConfig(lam=0.8, mode=mode, seed=7)
        subsets = (split.train, split.val, split.calib)
        for rows, kept in zip(subsets, sample_edges(*subsets, node_deg, fit, cfg)):
            draws = edge_uniforms(derive_seed(cfg.seed, "edge-draws"), rows[:, :2], rows[:, 2])
            eligible = rows[draws <= keep_probabilities(rows, node_deg, fit, cfg)]
            n_pos = int(eligible[:, 2].sum())
            assert row_set(kept) <= row_set(eligible)
            assert len(kept) == 2 * min(n_pos, len(eligible) - n_pos)
            assert 2 * int(kept[:, 2].sum()) == len(kept)

    @pytest.mark.parametrize("mode", ["literal", "directional"])
    def test_concatenated_rows_match_per_subset_calls(self, mode):
        split, node_deg, fit = clique_setup(seed=18)
        cfg = SamplerConfig(lam=0.8, mode=mode, seed=8)
        subsets = (split.train, split.val, split.calib, split.test)
        whole = keep_probabilities(np.concatenate(subsets), node_deg, fit, cfg)
        parts = [keep_probabilities(rows, node_deg, fit, cfg) for rows in subsets]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_directional_reduces_ks_on_clique_graph(self):
        reduced = 0
        for seed in range(5):
            g = generate_powerlaw_graph(2000, 2.5, 1, seed=derive_seed(777, seed, "graph"))
            g = inject_cliques(g, 25, 5, seed=derive_seed(777, seed, "cliques"))
            pos = g.edge_array()
            neg = negative_sample(g, len(pos), seed=derive_seed(777, seed, "neg"))
            split = split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=derive_seed(777, seed, "split"))
            sub = training_subgraph(g, split)
            node_deg, fit = degree_fit(sub)
            ks_before = fit.ks
            cfg = SamplerConfig(lam=1.0, mode="directional", seed=derive_seed(777, seed, "samp"))
            train, val, _ = sample_edges(split.train, split.val, split.calib, node_deg, fit, cfg)
            kept = np.concatenate([train, val])
            sampled = sub.with_edges(kept[kept[:, 2] == 1, :2])
            d1 = degree_sequence(sampled, drop_isolated=True)
            ks_after = fit_power_law(d1, min_tail=adaptive_min_tail(d1.size)).ks
            reduced += ks_after < ks_before
        assert reduced >= 4
