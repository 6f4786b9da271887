"""Split-conformal exactness of the plain arm, checked by re-partitioning.

Hold one trial's fitted quantile band fixed and draw many random partitions
of its calibration and test edges into sets of the trial's sizes. Over
those draws the calibration and test scores are exchangeable, so the mean
test coverage is exactly k/(K+1), k = ceil((K+1)(1 - alpha)), when scores
do not tie, and at least that when they do. It lies in
[1 - alpha, 1 - alpha + 1/(K+1)]. No model is retrained, so thousands of
draws take well under a second.

Per draw, with distinct scores, the covered count X of the T test edges is
the number of test scores below the k-th smallest of the K calibration
scores: the failures before the k-th success when K successes and T
failures are shuffled. X is negative hypergeometric, with
Var X = k·T·(N+1)·(K+1−k) / ((K+1)²·(K+2)), N = K + T.
"""

import math

import numpy as np
import pytest

from linkconformal.conformal import conformalize, evaluate, nonconformity
from linkconformal.pipeline import _trials
from linkconformal.quantile import fit_quantile_functions
from linkconformal.seeding import derive_rng, derive_seed

from test_pipeline import tiny_config

DRAWS = 2000


def _plain_band(base):
    """The plain arm's quantile model, fitted on the same rows and seed as ``_TrialBase._calibrate``."""
    config, split = base.config, base.split
    fit_rows = np.concatenate([split.train, split.val])
    seed = derive_seed(config.seed, base.split_idx, base.rep_idx, "quantile-cqr")
    return fit_quantile_functions(base.node_embeddings, fit_rows[:, 2].astype(np.float64), config.alpha,
                                  config.quantile, seed=seed, endpoints=fit_rows[:, :2])


def _repartition_coverages(base, qmodel, draws: int) -> np.ndarray:
    """Test coverage of ``qmodel``'s calibrated band on each of ``draws`` random
    re-partitions of calib ∪ test into sets of the trial's calibration and test sizes."""
    alpha, split = base.config.alpha, base.split
    z, y = base.embed(np.concatenate([split.calib, split.test]))
    k_calib = len(split.calib)
    rng = derive_rng(base.config.seed, base.split_idx, base.rep_idx, "repartition")
    coverages = np.empty(draws)
    for r in range(draws):
        order = rng.permutation(len(y))
        calib, test = order[:k_calib], order[k_calib:]
        intervals, _ = conformalize(qmodel, z[calib], y[calib], z[test], alpha)
        coverages[r] = evaluate(intervals, y[test]).empirical_coverage
    return coverages


@pytest.fixture(scope="module")
def harness():
    """One ``tiny_config()`` trial, its plain-arm band, and the band's coverage on each re-partition."""
    base = next(_trials(tiny_config(), None))
    qmodel = _plain_band(base)
    return base, qmodel, _repartition_coverages(base, qmodel, DRAWS)


def _quantile_rank(alpha: float, k_calib: int) -> int:
    """k = ceil((K+1)(1 - alpha)): q_hat is the k-th smallest of K calibration scores."""
    return math.ceil((k_calib + 1) * (1.0 - alpha) - 1e-9)


def test_plain_arm_mean_coverage_is_exact_over_repartitions(harness):
    base, qmodel, coverages = harness
    # The harness's band is the trial's: the trial's own partition gives its recorded coverage.
    z_calib, y_calib = base.embed(base.split.calib)
    z_test, y_test = base.test_embedded
    intervals, q_hat = conformalize(qmodel, z_calib, y_calib, z_test, base.config.alpha)
    record = base.run_arm("cqr")
    assert (evaluate(intervals, y_test).empirical_coverage, q_hat) == (record.coverage, record.q_hat)

    alpha, k_calib = base.config.alpha, len(base.split.calib)
    exact = _quantile_rank(alpha, k_calib) / (k_calib + 1)
    mean = coverages.mean()
    error = 4.0 * coverages.std(ddof=1) / math.sqrt(DRAWS)
    assert abs(mean - exact) <= error, (mean, exact, error)
    assert 1.0 - alpha - error <= mean <= 1.0 - alpha + 1.0 / (k_calib + 1) + error, (mean, error)


def test_per_draw_coverage_variance_follows_the_negative_hypergeometric_law(harness):
    base, qmodel, coverages = harness
    split = base.split
    z, y = base.embed(np.concatenate([split.calib, split.test]))
    bands = qmodel.quantiles(z)
    scores = nonconformity(bands[:, 0], bands[:, 1], y)
    assert np.unique(scores).size == scores.size  # distinct: the law is exact, not a bound
    k_calib, t = len(split.calib), len(split.test)
    k = _quantile_rank(base.config.alpha, k_calib)
    var_x = k * t * (k_calib + t + 1) * (k_calib + 1 - k) / ((k_calib + 1) ** 2 * (k_calib + 2))
    exact = var_x / t**2
    # The sample variance's standard error, from the sample's fourth central moment.
    var = coverages.var(ddof=1)
    m4 = np.mean((coverages - coverages.mean()) ** 4)
    error = 4.0 * math.sqrt((m4 - var**2 * (DRAWS - 3) / (DRAWS - 1)) / DRAWS)
    assert abs(var - exact) <= error, (var, exact, error)
