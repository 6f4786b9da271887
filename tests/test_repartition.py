"""Split-conformal exactness of the plain arm, checked by re-partitioning.

Hold one trial's fitted quantile band fixed and draw many random partitions
of its calibration and test edges into sets of the trial's sizes. Over
those draws the calibration and test scores are exchangeable, so the mean
test coverage is exactly k/(K+1), k = ceil((K+1)(1 - alpha)), when scores
do not tie, and at least that when they do. It lies in
[1 - alpha, 1 - alpha + 1/(K+1)]. No model is retrained, so thousands of
draws take well under a second.
"""

import math

import numpy as np

from linkconformal.conformal import conformalize, evaluate
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


def test_plain_arm_mean_coverage_is_exact_over_repartitions():
    base = next(_trials(tiny_config(), None))
    qmodel = _plain_band(base)
    # The harness's band is the trial's: the trial's own partition gives its recorded coverage.
    z_calib, y_calib = base.embed(base.split.calib)
    z_test, y_test = base.test_embedded
    intervals, q_hat = conformalize(qmodel, z_calib, y_calib, z_test, base.config.alpha)
    record = base.run_arm("cqr")
    assert (evaluate(intervals, y_test).empirical_coverage, q_hat) == (record.coverage, record.q_hat)

    coverages = _repartition_coverages(base, qmodel, DRAWS)
    alpha, k_calib = base.config.alpha, len(base.split.calib)
    k = math.ceil((k_calib + 1) * (1.0 - alpha) - 1e-9)
    exact = k / (k_calib + 1)
    mean = coverages.mean()
    error = 4.0 * coverages.std(ddof=1) / math.sqrt(DRAWS)
    assert abs(mean - exact) <= error, (mean, exact, error)
    assert 1.0 - alpha - error <= mean <= 1.0 - alpha + 1.0 / (k_calib + 1) + error, (mean, error)
