"""Split-conformal exactness of the plain arm, checked by re-partitioning.

Hold one trial's fitted quantile band fixed (``_TrialBase.arm("cqr")``) and
draw many random partitions of its calibration and test edges into sets of
the trial's sizes, under two laws. No model is retrained.

Unstratified: a uniform permutation of calib ∪ test. Over those draws the
calibration and test scores are exchangeable, so the mean test coverage is
exactly k/(K+1), k = ceil((K+1)(1 - alpha)), when scores do not tie, and at
least that when they do. It lies in [1 - alpha, 1 - alpha + 1/(K+1)].
Per draw, with distinct scores, the covered count X of the T test edges is
the number of test scores below the k-th smallest of the K calibration
scores: the failures before the k-th success when K successes and T
failures are shuffled. X is negative hypergeometric, with
Var X = k·T·(N+1)·(K+1−k) / ((K+1)²·(K+2)), N = K + T.

Stratified, the law of ``split_edges``: the edges of each label y in
calib ∪ test are permuted apart, and calib and test keep their per-label
quotas K_y and T_y. Scores are then exchangeable within a label but not
across labels. With one q_hat per label, the k_y-th smallest of the label's
K_y calibration scores, each label's mean coverage is exactly
k_y/(K_y+1). The pooled q_hat the pipeline uses has no exact mean under
this law; it is checked only to reach 1 - alpha. These draws work on the
calib ∪ test scores computed once, so one draw is an ``np.partition`` of
K scores and 200,000 draws take about two seconds.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from linkconformal.conformal import conformalize, evaluate, nonconformity
from linkconformal.pipeline import _trials
from linkconformal.seeding import derive_rng

from test_pipeline import tiny_config

DRAWS = 2000
STRATIFIED_DRAWS = 200_000
CHUNK = 5000  # stratified draws per (CHUNK, K + T) score matrix


def _quantile_rank(alpha: float, k_calib: int) -> int:
    """k = ceil((K+1)(1 - alpha)): q_hat is the k-th smallest of K calibration scores."""
    return math.ceil((k_calib + 1) * (1.0 - alpha) - 1e-9)


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


def _stratified_coverages(base, scores, labels, draws: int):
    """Per draw of ``split_edges``' law on calib ∪ test: the test coverage of the
    pooled q_hat, (draws,), and of each label's own q_hat on its test edges, (draws, 2)."""
    alpha = base.config.alpha
    calib_labels = base.split.calib[:, 2]
    pools = [(scores[labels == y], int(np.count_nonzero(calib_labels == y))) for y in (0, 1)]
    k = _quantile_rank(alpha, len(calib_labels))
    rng = derive_rng(base.config.seed, base.split_idx, base.rep_idx, "stratified-repartition")
    pooled, by_label = np.empty(draws), np.empty((draws, 2))
    for start in range(0, draws, CHUNK):
        n = min(CHUNK, draws - start)
        calibs, tests = [], []
        for y, (pool, k_y) in enumerate(pools):
            shuffled = rng.permuted(np.broadcast_to(pool, (n, pool.size)), axis=1)
            calib, test = shuffled[:, :k_y], shuffled[:, k_y:]
            rank = _quantile_rank(alpha, k_y)
            q_y = np.partition(calib, rank - 1, axis=1)[:, rank - 1]
            by_label[start : start + n, y] = np.mean(test <= q_y[:, None], axis=1)
            calibs.append(calib)
            tests.append(test)
        q_hat = np.partition(np.concatenate(calibs, axis=1), k - 1, axis=1)[:, k - 1]
        covered = sum(np.count_nonzero(test <= q_hat[:, None], axis=1) for test in tests)
        pooled[start : start + n] = covered / sum(test.shape[1] for test in tests)
    return pooled, by_label


@pytest.fixture(scope="module")
def harness():
    """One ``tiny_config()`` trial, its plain arm, the arm band's scores of
    calib ∪ test (calib first), and the band's coverage on each unstratified draw."""
    base = next(_trials(tiny_config(), None))
    outcome = base.arm("cqr")
    z, labels = base.embed(np.concatenate([base.split.calib, base.split.test]))
    bands = outcome.qmodel.quantiles(z)
    return SimpleNamespace(base=base, outcome=outcome, labels=labels,
                           scores=nonconformity(bands[:, 0], bands[:, 1], labels),
                           coverages=_repartition_coverages(base, outcome.qmodel, DRAWS))


@pytest.fixture(scope="module")
def stratified(harness):
    return _stratified_coverages(harness.base, harness.scores, harness.labels, STRATIFIED_DRAWS)


def _mean_and_error(coverages: np.ndarray):
    """The mean of per-draw coverages and four of its standard errors."""
    return coverages.mean(), 4.0 * coverages.std(ddof=1) / math.sqrt(coverages.size)


def test_plain_arm_mean_coverage_is_exact_over_repartitions(harness):
    base, outcome, coverages = harness.base, harness.outcome, harness.coverages
    alpha, k_calib = base.config.alpha, len(base.split.calib)
    k = _quantile_rank(alpha, k_calib)
    # The harness's scores are the arm's: on the trial's own partition, the k-th
    # calibration score is q_hat and a test edge is covered when its score is at most q_hat.
    calib_scores, test_scores = harness.scores[:k_calib], harness.scores[k_calib:]
    assert np.partition(calib_scores, k - 1)[k - 1] == outcome.q_hat
    assert np.mean(test_scores <= outcome.q_hat) == outcome.coverage

    exact = k / (k_calib + 1)
    mean, error = _mean_and_error(coverages)
    assert abs(mean - exact) <= error, (mean, exact, error)
    assert 1.0 - alpha - error <= mean <= 1.0 - alpha + 1.0 / (k_calib + 1) + error, (mean, error)


def test_per_draw_coverage_variance_follows_the_negative_hypergeometric_law(harness):
    base, scores, coverages = harness.base, harness.scores, harness.coverages
    assert np.unique(scores).size == scores.size  # distinct: the law is exact, not a bound
    k_calib, t = len(base.split.calib), len(base.split.test)
    k = _quantile_rank(base.config.alpha, k_calib)
    var_x = k * t * (k_calib + t + 1) * (k_calib + 1 - k) / ((k_calib + 1) ** 2 * (k_calib + 2))
    exact = var_x / t**2
    # The sample variance's standard error, from the sample's fourth central moment.
    var = coverages.var(ddof=1)
    m4 = np.mean((coverages - coverages.mean()) ** 4)
    error = 4.0 * math.sqrt((m4 - var**2 * (DRAWS - 3) / (DRAWS - 1)) / DRAWS)
    assert abs(var - exact) <= error, (var, exact, error)


def test_stratified_mean_coverage_reaches_the_nominal_level(harness, stratified):
    # Only the lower side is checked. At tiny_config() the mean sits about 9
    # standard errors above k/(K+1) (0.90137 against 0.90071); at seeds 1 and 2
    # it passes 1 - alpha + 1/(K+1) by about one standard error.
    pooled, _ = stratified
    mean, error = _mean_and_error(pooled)
    assert mean >= 1.0 - harness.base.config.alpha - error, (mean, error)


def test_label_conditional_coverage_is_exact_under_stratified_draws(harness, stratified):
    _, by_label = stratified
    calib_labels = harness.base.split.calib[:, 2]
    assert np.unique(harness.scores).size == harness.scores.size
    for y in (0, 1):
        k_y = int(np.count_nonzero(calib_labels == y))
        exact = _quantile_rank(harness.base.config.alpha, k_y) / (k_y + 1)
        mean, error = _mean_and_error(by_label[:, y])
        assert abs(mean - exact) <= error, (y, mean, exact, error)
