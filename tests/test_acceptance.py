"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Most criteria run the full pipeline at desk scale (2000-node graphs); the
whole module is sized to finish in well under the 10-minute budget that
applies to the coverage criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta
from scipy.stats import spearmanr

import linkconformal as lc
from linkconformal.config import RunConfig
from linkconformal.model import ModelConfig
from linkconformal.pipeline import load_graph, run_pipeline, sweep_cliques
from linkconformal.quantile import QuantileConfig
from linkconformal.sampling import SamplerConfig, keep_probabilities, sample_edges
from linkconformal.seeding import derive_seed

BASE_MODEL = ModelConfig(hidden_dim=32, num_layers=2, epochs=150, learning_rate=0.1,
                         batch_size=4096, scorer_hidden_dim=32)
STRONG_MODEL = ModelConfig(hidden_dim=32, num_layers=2, epochs=300, learning_rate=0.1,
                           batch_size=4096, scorer_hidden_dim=32)
DENSE_MODEL = ModelConfig(hidden_dim=32, num_layers=2, epochs=150, learning_rate=0.1,
                          batch_size=8192, scorer_hidden_dim=32)
MILD_QNET = QuantileConfig(epochs=200, learning_rate=5e-3, batch_size=256, hidden_dim=32)
STRONG_QNET = QuantileConfig(epochs=300, learning_rate=2e-2, batch_size=256, hidden_dim=32)
DENSE_QNET = QuantileConfig(epochs=200, learning_rate=1e-2, batch_size=512, hidden_dim=32)


def _report(criterion, ok, detail):
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.mark.slow
def test_criterion_1_marginal_coverage():
    # synthetic power-law graph (M=2000, beta=2.5) with injected cliques,
    # alpha=0.1, >= 800 calibration edges, 20 trials
    start = time.monotonic()
    cfg = RunConfig(
        alpha=0.1, seed=404, n_splits=5, n_reps=4,
        synth_nodes=2000, synth_beta=2.5, synth_d_min=1,
        clique_m=25, clique_n=5, feature_dim=32,
        model=BASE_MODEL, quantile=MILD_QNET, run_sampled_arm=False,
    )
    graph = load_graph(cfg)
    n_pos = graph.num_edges
    calib_edges = 2 * int(np.floor(0.2 * n_pos))
    report = run_pipeline(cfg, graph=graph)
    covs = [t.coverage for t in report.trials if t.arm == "cqr" and t.error is None]
    mean_cov = float(np.mean(covs))
    elapsed = time.monotonic() - start
    ok = 0.88 <= mean_cov <= 0.94 and len(covs) >= 20 and calib_edges >= 800 and elapsed < 600
    _report(1, ok, f"mean coverage {mean_cov:.4f} over {len(covs)} trials, "
                   f"K={calib_edges}, {elapsed:.0f}s")


def test_criterion_2_conformal_quantile_oracle():
    def brute_force(scores, alpha):
        ordered = sorted(scores)
        k = math.ceil((len(ordered) + 1) * (1.0 - alpha) - 1e-9)
        return math.inf if k > len(ordered) else ordered[k - 1]

    rng = np.random.default_rng(12021)
    infinite_cases = 0
    mismatches = 0
    for _ in range(1000):
        k_calib = int(rng.integers(1, 201))
        alpha = float(rng.choice([0.05, 0.1, 0.2]))
        scores = rng.standard_normal(k_calib)
        expected = brute_force(scores.tolist(), alpha)
        got = lc.conformal_quantile(scores, alpha)
        infinite_cases += math.isinf(expected)
        mismatches += got != expected
    ok = mismatches == 0 and infinite_cases > 0
    _report(2, ok, f"1000 random score sets, {mismatches} mismatches, "
                   f"{infinite_cases} infinite-quantile cases exercised")


def test_criterion_3_permutation_invariance():
    cfg_model = ModelConfig(hidden_dim=12, num_layers=2, epochs=20, learning_rate=0.05,
                            batch_size=1024, scorer_hidden_dim=12)
    g = lc.generate_powerlaw_graph(400, 2.5, 1, seed=31)
    g = lc.ensure_features(g, 8, seed=32)
    pos = g.edge_array()
    neg = lc.negative_sample(g, len(pos), seed=33)
    split = lc.split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=34)
    sub = lc.training_subgraph(g, split)
    params = lc.train_link_predictor(sub, split.train, split.val, cfg_model, seed=35)
    h = lc.encode_nodes(params, sub)
    fit_rows = np.concatenate([split.train, split.val])
    qmodel = lc.fit_quantile_functions(
        lc.edge_embeddings(h, fit_rows[:, :2]),
        fit_rows[:, 2].astype(float),
        0.1, QuantileConfig(epochs=30, learning_rate=5e-3, batch_size=64, hidden_dim=12), seed=36,
    )

    pooled = np.concatenate([split.calib, split.test])
    n_calib = len(split.calib)

    def score_all(order):
        edges = pooled[order]
        z = lc.edge_embeddings(h, edges[:, :2])
        bands = qmodel.quantiles(z)
        y = edges[:, 2].astype(float)
        return lc.nonconformity(bands[:, 0], bands[:, 1], y), bands

    base_order = np.arange(len(pooled))
    base_scores, base_bands = score_all(base_order)
    base_sorted = np.sort(base_scores)
    base_qhat = lc.conformal_quantile(base_scores[:n_calib], 0.1)
    rng = np.random.default_rng(37)
    failures = 0
    for _ in range(50):
        perm = rng.permutation(len(pooled))
        scores, bands = score_all(perm)
        inverse = np.argsort(perm)
        calib_scores = scores[inverse[:n_calib]]
        qhat = lc.conformal_quantile(calib_scores, 0.1)
        same_multiset = np.array_equal(np.sort(scores), base_sorted)
        same_qhat = qhat == base_qhat
        same_intervals = np.array_equal(bands[inverse], base_bands)
        failures += not (same_multiset and same_qhat and same_intervals)
    _report(3, failures == 0,
            f"50 shuffles of calib+test: {failures} with any change in score "
            f"multiset, q_hat, or intervals")


def test_criterion_4_hurwitz_zeta():
    basel = abs(lc.hurwitz_zeta(2.0, 1) - np.pi**2 / 6.0)
    apery = abs(lc.hurwitz_zeta(3.0, 1) - 1.2020569032)
    worst_shift = max(
        abs(lc.hurwitz_zeta(beta, a + 1) - (lc.hurwitz_zeta(beta, a) - a ** (-beta)))
        for beta in (1.5, 2.0, 3.0)
        for a in range(1, 11)
    )
    ok = basel < 1e-8 and apery < 1e-8 and worst_shift < 1e-9
    _report(4, ok, f"basel err {basel:.2e}, apery err {apery:.2e}, "
                   f"worst shift-identity err {worst_shift:.2e}")


def test_criterion_5_mle_recovery():
    # independent inverse-CDF oracle built on scipy's zeta
    rng = np.random.default_rng(5)
    support = np.arange(1, 10**6)
    cdf = np.cumsum(support.astype(float) ** (-2.5) / scipy_zeta(2.5, 1))
    degrees = support[np.minimum(np.searchsorted(cdf, rng.random(10**4), side="left"),
                                 support.size - 1)]
    fit = lc.fit_power_law(degrees)
    ok = 2.4 <= fit.beta_hat <= 2.6 and fit.ks < 0.03
    _report(5, ok, f"10^4 samples from beta=2.5, d_min=1: recovered "
                   f"beta_hat={fit.beta_hat:.4f} (d_min={fit.d_min}), ks={fit.ks:.4f}")


def test_criterion_6_gradient_checks():
    g = lc.generate_powerlaw_graph(120, 2.5, 1, seed=0)
    g = lc.ensure_features(g, 6, seed=1)
    pos = g.edge_array()
    neg = lc.negative_sample(g, len(pos), seed=2)
    split = lc.split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=3)
    sub = lc.training_subgraph(g, split)
    cfg = ModelConfig(hidden_dim=12, num_layers=2, epochs=30, learning_rate=0.05,
                      batch_size=256, scorer_hidden_dim=10)
    params = lc.train_link_predictor(sub, split.train, split.val, cfg, seed=6)
    bce_err = lc.gradient_check(params, split.train[:48], sub, step=1e-6, n_coords=100, seed=0)

    rng = np.random.default_rng(11)
    z = rng.standard_normal((200, 6))
    y = (rng.random(200) < 0.5).astype(float)
    qmodel = lc.fit_quantile_functions(
        z, y, 0.2, QuantileConfig(epochs=60, learning_rate=5e-3, batch_size=32, hidden_dim=12), seed=12,
    )
    margin = np.abs(qmodel.raw(z) - y[:, None]).min()
    assert margin > 1e-5, "pinball check point sits on a kink"
    pinball_err = lc.quantile_gradient_check(qmodel, z, y, step=1e-6, n_coords=100, seed=0)
    ok = bce_err < 1e-4 and pinball_err < 1e-4
    _report(6, ok, f"max relative error: scorer BCE {bce_err:.2e}, "
                   f"pinball head {pinball_err:.2e} (100 coords, step 1e-6)")


@pytest.mark.slow
def test_criterion_7_ks_length_trend():
    base = lc.generate_latent_powerlaw_graph(2000, 2.5, 10, 16, seed=7, homophily=10.0)
    cfg = RunConfig(alpha=0.1, seed=7, n_splits=1, n_reps=1, feature_dim=16,
                    model=DENSE_MODEL, quantile=DENSE_QNET, run_sampled_arm=False)
    rows = sweep_cliques(cfg, [(10, 5), (25, 5), (40, 5)], n_variants=5, base_graph=base)
    kss = [r.mean_ks for r in rows]
    lengths = [r.mean_length for r in rows]
    rho, _ = spearmanr(kss, lengths)
    ok = rho > 0
    _report(7, ok, f"grid (10,5)/(25,5)/(40,5) x 5 seeds: mean ks={np.round(kss, 4).tolist()}, "
                   f"mean length={np.round(lengths, 4).tolist()}, spearman={rho:.2f}")


def test_criterion_8_sampler_reduces_ks():
    from linkconformal.powerlaw import adaptive_min_tail
    reduced = 0
    pairs = []
    for seed in range(5):
        g = lc.generate_powerlaw_graph(2000, 2.5, 1, seed=derive_seed(777, seed, "graph"))
        g = lc.inject_cliques(g, 25, 5, seed=derive_seed(777, seed, "cliques"))
        pos = g.edge_array()
        neg = lc.negative_sample(g, len(pos), seed=derive_seed(777, seed, "neg"))
        split = lc.split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=derive_seed(777, seed, "split"))
        sub = lc.training_subgraph(g, split)
        node_deg = lc.degree_sequence(sub)
        d0 = node_deg[node_deg > 0]
        fit = lc.fit_power_law(d0, min_tail=adaptive_min_tail(d0.size))
        ks_before = fit.ks
        sampler = SamplerConfig(lam=1.0, mode="directional", seed=derive_seed(777, seed, "samp"))
        train, val, _ = sample_edges(split.train, split.val, split.calib, node_deg, fit, sampler)
        kept = np.concatenate([train, val])
        sampled = sub.with_edges(kept[kept[:, 2] == 1, :2])
        d1 = lc.degree_sequence(sampled, drop_isolated=True)
        ks_after = lc.fit_power_law(d1, min_tail=adaptive_min_tail(d1.size)).ks
        reduced += ks_after < ks_before
        pairs.append((round(ks_before, 4), round(ks_after, 4)))
    _report(8, reduced >= 4, f"directional sampler reduced fitted KS in {reduced}/5 seeds: {pairs}")


@pytest.mark.slow
def test_criterion_9_efficiency_improvement():
    cfg = RunConfig(
        alpha=0.1, seed=555, n_splits=5, n_reps=2,
        synth_nodes=2000, synth_beta=2.5, synth_d_min=1,
        clique_m=25, clique_n=5, feature_dim=32,
        model=STRONG_MODEL, quantile=STRONG_QNET,
        sampler_lambda=2.4, sampler_mode="literal", sampler_agg="sum",
    )
    report = run_pipeline(cfg)
    arms = report.summary["arms"]
    cqr_len = arms["cqr"]["mean_length"]
    sampled_len = arms["sampled"]["mean_length"]
    sampled_cov = arms["sampled"]["mean_coverage"]
    improvement = report.summary["improvement_pct"]
    ok = sampled_len <= cqr_len and sampled_cov >= 0.88 and arms["sampled"]["n_trials"] >= 5
    _report(9, ok, f"mean length plain {cqr_len:.4f} vs sampled {sampled_len:.4f} "
                   f"({improvement:+.1f}%), sampled-arm coverage {sampled_cov:.4f} "
                   f"over {arms['sampled']['n_trials']} trials")


def test_criterion_10_lambda_monotonicity():
    g = lc.generate_powerlaw_graph(2000, 2.5, 1, seed=10)
    g = lc.inject_cliques(g, 25, 5, seed=11)
    pos = g.edge_array()
    neg = lc.negative_sample(g, len(pos), seed=12)
    split = lc.split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=13)
    sub = lc.training_subgraph(g, split)
    node_deg = lc.degree_sequence(sub)
    from linkconformal.powerlaw import adaptive_min_tail
    d0 = node_deg[node_deg > 0]
    fit = lc.fit_power_law(d0, min_tail=adaptive_min_tail(d0.size))
    totals = []
    for lam in (0.45, 0.30, 0.15):
        sampler = SamplerConfig(lam=lam, mode="literal", seed=14)
        edges = np.concatenate([split.train, split.val, split.calib])
        totals.append(float(keep_probabilities(edges, node_deg, fit, sampler).sum()))
    ok = totals[0] >= totals[1] >= totals[2]
    _report(10, ok, f"expected retained edges over lambda 0.45/0.30/0.15: "
                    f"{[round(t, 2) for t in totals]} (non-increasing)")
