import numpy as np
import pytest

from linkconformal.errors import DegenerateCalibrationError
from linkconformal.graph import generate_powerlaw_graph, inject_cliques, degree_sequence, split_edges, training_subgraph, negative_sample
from linkconformal.powerlaw import adaptive_min_tail, fit_power_law
from linkconformal.sampling import (
    Ecdf,
    SamplerConfig,
    ecdf,
    edge_keep_probability,
    fitted_ecdfs,
    keep_probabilities,
    pareto_inverse_cdf,
    pareto_sequence,
    sample_edges,
)


class TestParetoSequence:
    def test_inverse_cdf_at_zero(self):
        assert pareto_inverse_cdf(0.0, 3.0, 2.5) == 3.0

    def test_inverse_cdf_halfway(self):
        # beta 1, x_m 1: x = 1/(1-u) so u=0.5 gives 2
        assert pareto_inverse_cdf(0.5, 1.0, 1.0) == pytest.approx(2.0)

    def test_mean_before_discretization(self):
        # Pareto mean is beta/(beta-1) = 1.5 for beta 3, x_m 1
        rng = np.random.default_rng(0)
        x = pareto_inverse_cdf(rng.random(10**5), 1.0, 3.0)
        assert abs(x.mean() - 1.5) < 0.02

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
            pareto_inverse_cdf(0.5, -1.0, 2.5)
        with pytest.raises(ValueError):
            pareto_inverse_cdf(0.5, 1.0, 0.0)


class TestEcdf:
    def test_fractions(self):
        e = ecdf([1, 2, 3])
        assert e(2) == pytest.approx(2 / 3)

    def test_maximum_is_one(self):
        e = ecdf([4, 7, 7, 9])
        assert e(9) == 1.0
        assert e(100) == 1.0

    def test_below_minimum_is_zero(self):
        e = ecdf([4, 7])
        assert e(3) == 0.0

    def test_non_decreasing(self):
        rng = np.random.default_rng(1)
        e = ecdf(rng.integers(1, 50, size=200))
        grid = np.arange(0, 60)
        vals = e(grid)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((0 <= vals) & (vals <= 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])


def deviation(d, ecdf_orig, ecdf_ideal):
    """|eCDF_orig(d) - eCDF_ideal(d)|: the literal keep probability of a (d, d)
    edge at lambda 1 with max aggregation."""
    cfg = SamplerConfig(lam=1.0, agg="max", mode="literal")
    return edge_keep_probability(d, d, cfg, ecdf_orig, ecdf_ideal)


class TestDeviation:
    def test_identity(self):
        a = ecdf([1, 2, 3, 4])
        for d in range(6):
            assert deviation(d, a, a) == 0.0

    def test_direct_difference(self):
        a = Ecdf(np.array([1.0]), np.array([0.4]))
        b = Ecdf(np.array([1.0]), np.array([0.7]))
        assert deviation(5, a, b) == pytest.approx(0.3)

    def test_symmetry(self):
        a = ecdf([1, 1, 2])
        b = ecdf([2, 3, 3])
        directional = SamplerConfig(lam=1.0, agg="max", mode="directional")
        for d in range(5):
            assert deviation(d, a, b) == deviation(d, b, a)
            # directional removes max(0, -gap) of the signed gap; the two
            # orders split the literal |gap| between them
            removals = [1.0 - edge_keep_probability(d, d, directional, x, y) for x, y in ((a, b), (b, a))]
            assert min(removals) == 0.0
            assert max(removals) == pytest.approx(deviation(d, a, b))


class TestKeepProbability:
    def setup_method(self):
        self.orig = ecdf([1, 1, 2, 3, 8, 9])
        self.ideal = ecdf([1, 2, 2, 3, 4, 5])

    def test_literal_lambda_zero(self):
        cfg = SamplerConfig(lam=0.0, mode="literal", seed=0)
        assert edge_keep_probability(1, 2, cfg, self.orig, self.ideal) == 0.0

    def test_directional_perfect_fit_keeps(self):
        cfg = SamplerConfig(lam=5.0, mode="directional", seed=0)
        same = ecdf([1, 2, 3])
        assert edge_keep_probability(2, 3, cfg, same, same) == 1.0

    def test_clamped_at_one(self):
        cfg = SamplerConfig(lam=1e9, mode="literal", seed=0)
        assert edge_keep_probability(1, 1, cfg, self.orig, self.ideal) == 1.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for mode in ("literal", "directional"):
            for agg in ("sum", "max"):
                cfg = SamplerConfig(lam=float(rng.uniform(0, 10)), mode=mode, agg=agg, seed=0)
                p = edge_keep_probability(rng.integers(0, 12, 50), rng.integers(0, 12, 50), cfg, self.orig, self.ideal)
                assert np.all((0.0 <= p) & (p <= 1.0))

    def test_literal_monotone_in_lambda(self):
        lams = [0.45, 0.30, 0.15]
        edges = [(1, 2), (2, 3), (1, 8), (8, 9)]
        degs = np.arange(10)
        totals = []
        for lam in lams:
            cfg = SamplerConfig(lam=lam, mode="literal", seed=0)
            totals.append(keep_probabilities(edges, degs, cfg, self.orig, self.ideal).sum())
        assert totals[0] >= totals[1] >= totals[2]

    def test_directional_keep_monotone_as_lambda_grows(self):
        # directional removal grows with lambda, so keep probability falls
        cfg_lo = SamplerConfig(lam=0.5, mode="directional", seed=0)
        cfg_hi = SamplerConfig(lam=4.0, mode="directional", seed=0)
        p_lo = edge_keep_probability(8, 9, cfg_lo, self.orig, self.ideal)
        p_hi = edge_keep_probability(8, 9, cfg_hi, self.orig, self.ideal)
        assert p_hi <= p_lo

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SamplerConfig(agg="mean")
        with pytest.raises(ValueError):
            SamplerConfig(mode="both")


def row_set(rows):
    return set(map(tuple, rows.tolist()))


def degree_fit(sub):
    """The training subgraph's node degrees and their fit, as a trial makes them."""
    node_deg = degree_sequence(sub)
    positive = node_deg[node_deg > 0]
    return node_deg, fit_power_law(positive, min_tail=adaptive_min_tail(positive.size))


def clique_setup(seed=0):
    """A split of a clique-injected graph, and its subgraph's degrees and fit."""
    g = generate_powerlaw_graph(600, 2.5, 1, seed=seed)
    g = inject_cliques(g, 12, 4, seed=seed + 1)
    pos = sorted(g.edges)
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
        from linkconformal.seeding import derive_seed, edge_uniforms
        split, node_deg, fit = clique_setup(seed=16)
        cfg = SamplerConfig(lam=1.0, mode="literal", seed=0)
        eo, ei = fitted_ecdfs(node_deg, fit, cfg)
        probs = keep_probabilities(split.train, node_deg, cfg, eo, ei)
        expected = probs.sum()
        variance = float(np.sum(probs * (1 - probs)))
        endpoints = split.train[:, :2]
        labels = split.train[:, 2]
        counts = [
            int((edge_uniforms(derive_seed(seed, "edge-draws"), endpoints, labels) <= probs).sum())
            for seed in range(20)
        ]
        assert abs(np.mean(counts) - expected) < 4 * np.sqrt(variance / 20)

    def test_directional_reduces_ks_on_clique_graph(self):
        from linkconformal.seeding import derive_seed
        reduced = 0
        for seed in range(5):
            g = generate_powerlaw_graph(2000, 2.5, 1, seed=derive_seed(777, seed, "graph"))
            g = inject_cliques(g, 25, 5, seed=derive_seed(777, seed, "cliques"))
            pos = sorted(g.edges)
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
