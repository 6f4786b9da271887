import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from linkconformal.conformal import (
    conformal_quantile,
    conformalize,
    evaluate,
    nonconformity,
    prediction_interval,
)
from linkconformal.quantile import QuantileConfig, fit_quantile_functions


def brute_force_quantile(scores, alpha):
    # sort-and-index oracle: k-th smallest with k = ceil((K+1)(1-alpha))
    ordered = sorted(scores)
    k = math.ceil((len(ordered) + 1) * (1.0 - alpha) - 1e-9)
    if k > len(ordered):
        return math.inf
    return ordered[k - 1]


@dataclass(frozen=True)
class PredictionInterval:
    # the per-row interval type the array layer replaced, kept as the oracle
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"inverted interval [{self.lower}, {self.upper}]")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def covers(self, y: float) -> bool:
        return self.lower <= y <= self.upper


def reference_prediction_interval(lower: float, upper: float, q_hat: float) -> PredictionInterval:
    if lower > upper:
        raise ValueError(f"lower={lower} exceeds upper={upper}")
    lo, hi = lower - q_hat, upper + q_hat
    if lo > hi:
        mid = (lower + upper) / 2.0
        return PredictionInterval(mid, mid)
    return PredictionInterval(lo, hi)


def reference_evaluate(intervals, labels):
    # (coverage, average length) by the per-row loop evaluate used to run
    labels = np.asarray(labels, dtype=np.float64)
    covered = sum(iv.covers(y) for iv, y in zip(intervals, labels))
    lengths = np.array([iv.length for iv in intervals])
    return covered / labels.size, float(np.mean(lengths))


def intervals_of(lower, upper):
    """Record array of the given intervals (q_hat = 0 keeps them as they are)."""
    return prediction_interval(lower, upper, 0.0)


class TestNonconformity:
    def test_interior_point(self):
        assert nonconformity(0.0, 1.0, 0.5) == -0.5

    def test_boundary(self):
        assert nonconformity(0.2, 0.8, 0.8) == pytest.approx(0.0)

    def test_outside(self):
        assert nonconformity(0.2, 0.8, 0.9) == pytest.approx(0.1)

    def test_sign_characterizes_interior(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lo, hi = sorted(rng.normal(size=2))
            y = rng.normal()
            score = nonconformity(lo, hi, y)
            assert (score < 0) == (lo < y < hi)

    def test_inverted_band(self):
        with pytest.raises(ValueError):
            nonconformity(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            nonconformity([0.0, 1.0], [1.0, 0.0], [0.5, 0.5])

    @pytest.mark.parametrize("lower, upper, y, message", [
        ([0.0, 0.0], [1.0, 1.0], [0.5, math.nan], "label at row 1 is NaN"),
        (0.0, 1.0, math.nan, "label at row 0 is NaN"),
        ([0.0, math.nan], [1.0, 1.0], [0.5, 0.5], "NaN in band [nan, 1.0] at row 1"),
    ])
    def test_nan_rejected(self, lower, upper, y, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nonconformity(lower, upper, y)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        bands = np.sort(rng.normal(size=(200, 2)), axis=1)
        y = rng.normal(size=200)
        scores = nonconformity(bands[:, 0], bands[:, 1], y)
        assert scores.tolist() == [nonconformity(lo, hi, v) for (lo, hi), v in zip(bands, y)]


class TestConformalQuantile:
    def test_nine_scores(self):
        assert conformal_quantile(list(range(1, 10)), 0.1) == 9.0

    def test_single_score(self):
        assert conformal_quantile([3.3], 0.5) == 3.3

    def test_small_set_infinite(self):
        assert conformal_quantile([1, 2, 3, 4], 0.1) == math.inf

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            k = int(rng.integers(1, 201))
            alpha = float(rng.choice([0.05, 0.1, 0.2]))
            scores = rng.normal(size=k)
            assert conformal_quantile(scores, alpha) == brute_force_quantile(scores.tolist(), alpha)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=37)
        alphas = np.linspace(0.02, 0.9, 25)
        values = [conformal_quantile(scores, a) for a in alphas]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_adding_inf_never_decreases(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.normal(size=int(rng.integers(2, 60))).tolist()
            base = conformal_quantile(scores, 0.1)
            assert conformal_quantile(scores + [math.inf], 0.1) >= base

    def test_validation(self):
        with pytest.raises(ValueError):
            conformal_quantile([], 0.1)
        with pytest.raises(ValueError):
            conformal_quantile([1.0], 0.0)

    @pytest.mark.parametrize("scores, row", [([math.nan, 0.1, 0.2] * 10, 0), ([0.1, -math.inf, math.nan], 2)])
    def test_nan_rejected(self, scores, row):
        with pytest.raises(ValueError, match=f"^calibration score at row {row} is NaN$"):
            conformal_quantile(scores, 0.1)


class TestPredictionInterval:
    def test_widen(self):
        iv = prediction_interval([0.2], [0.8], 0.05)[0]
        assert (iv.lower, iv.upper) == (pytest.approx(0.15), pytest.approx(0.85))

    def test_identity(self):
        iv = prediction_interval([0.2], [0.8], 0.0)[0]
        assert (iv.lower, iv.upper) == (0.2, 0.8)

    def test_degenerate_midpoint(self):
        iv = prediction_interval([0.4], [0.6], -0.2)[0]
        assert (iv.lower, iv.upper) == (pytest.approx(0.5), pytest.approx(0.5))
        assert iv.upper - iv.lower == 0.0

    def test_infinite(self):
        iv = prediction_interval([0.0], [1.0], math.inf)[0]
        assert iv.lower == -math.inf and iv.upper == math.inf

    def test_record_array(self):
        ivs = prediction_interval([0.1, 0.2, 0.3], [0.4, 0.5, 0.6], 0.1)
        assert isinstance(ivs, np.recarray) and ivs.shape == (3,)
        assert ivs.dtype.names == ("lower", "upper")
        assert ivs.lower.dtype == ivs.upper.dtype == np.float64

    def test_type_invariant(self):
        with pytest.raises(ValueError):
            prediction_interval([1.0], [0.0], 0.0)
        with pytest.raises(ValueError):
            prediction_interval([0.0, 0.4, 1.0], [1.0, 0.6, 0.0], 0.1)

    @pytest.mark.parametrize("lower, upper, q_hat, message", [
        pytest.param([0.0], [1.0], math.nan, "q_hat must lie in [-inf, inf], got nan",
                     id="lower0-upper0-nan-q_hat is NaN"),
        ([0.0, 0.0], [1.0, math.nan], 0.1, "NaN in band [0.0, nan] at row 1"),
    ])
    def test_nan_rejected(self, lower, upper, q_hat, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            prediction_interval(lower, upper, q_hat)


class TestArrayLayerMatchesPerRowOracle:
    """The array functions against the per-row code they replaced, exactly."""

    @staticmethod
    def random_bands(rng, n):
        bands = np.sort(rng.normal(scale=0.5, size=(n, 2)), axis=1)
        kind = rng.integers(0, 6, size=n)
        bands[kind == 1, 0] = -math.inf
        bands[kind == 2, 1] = math.inf
        bands[kind == 3] = (-math.inf, math.inf)
        bands[kind == 4, 1] = bands[kind == 4, 0]  # zero-width band
        return bands

    @staticmethod
    def labels_for(rng, intervals):
        # a mix of free labels, binary labels and labels exactly on an endpoint
        labels = rng.normal(size=len(intervals))
        kind = rng.integers(0, 4, size=len(intervals))
        labels[kind == 1] = (rng.random(np.count_nonzero(kind == 1)) < 0.5).astype(float)
        labels[kind == 2] = intervals.lower[kind == 2]
        labels[kind == 3] = intervals.upper[kind == 3]
        return np.where(np.isfinite(labels), labels, 0.0)

    @pytest.mark.parametrize("q_hat", [-0.4, -0.05, 0.0, 0.2, math.inf])
    def test_intervals_coverage_and_length(self, q_hat):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(1, 80))
            bands = self.random_bands(rng, n)
            got = prediction_interval(bands[:, 0], bands[:, 1], q_hat)
            want = [reference_prediction_interval(lo, hi, q_hat) for lo, hi in bands]
            assert got.lower.tolist() == [iv.lower for iv in want]
            assert got.upper.tolist() == [iv.upper for iv in want]
            labels = self.labels_for(rng, got)
            report = evaluate(got, labels)
            coverage, length = reference_evaluate(want, labels)
            assert report.empirical_coverage == coverage
            assert report.avg_interval_length == length

    def test_midpoint_repair_happens(self):
        rng = np.random.default_rng(7)
        bands = self.random_bands(rng, 200)
        got = prediction_interval(bands[:, 0], bands[:, 1], -0.4)
        finite = np.isfinite(bands).all(axis=1)
        narrow = finite & (bands[:, 1] - bands[:, 0] < 0.8)
        assert narrow.any()
        np.testing.assert_array_equal(got.lower[narrow], got.upper[narrow])
        np.testing.assert_array_equal(got.lower[narrow], (bands[narrow, 0] + bands[narrow, 1]) / 2.0)


class TestEvaluate:
    def test_full_coverage(self):
        ivs = intervals_of([0.0] * 4, [1.0] * 4)
        rep = evaluate(ivs, [0, 1, 1, 0])
        assert rep.empirical_coverage == 1.0
        assert rep.avg_interval_length == 1.0

    def test_counts(self):
        ivs = intervals_of([0.0, 0.5], [0.5, 1.0])
        rep = evaluate(ivs, [0.75, 0.75])
        assert rep.empirical_coverage == 0.5

    def test_closed_endpoints(self):
        rep = evaluate(intervals_of([0.0], [1.0]), [1.0])
        assert rep.empirical_coverage == 1.0

    def test_inf_propagates(self):
        ivs = intervals_of([-math.inf, 0.0], [math.inf, 1.0])
        rep = evaluate(ivs, [5.0, 0.5])
        assert rep.avg_interval_length == math.inf
        assert rep.empirical_coverage == 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        bands = np.sort(rng.normal(size=(30, 2)), axis=1)
        ivs = intervals_of(bands[:, 0], bands[:, 1])
        labels = rng.normal(size=30)
        base = evaluate(ivs, labels)
        perm = rng.permutation(30)
        shuffled = evaluate(ivs[perm], labels[perm])
        assert shuffled.empirical_coverage == base.empirical_coverage
        assert shuffled.avg_interval_length == pytest.approx(base.avg_interval_length)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(intervals_of([0.0], [1.0]), [0.5, 0.5])

    def test_inverted_interval(self):
        ivs = np.rec.fromarrays([[0.0, 1.0], [1.0, 0.0]], names="lower,upper")
        with pytest.raises(ValueError):
            evaluate(ivs, [0.5, 0.5])

    @pytest.mark.parametrize("lower, labels, message", [
        ([0.0, 0.0], [0.5, math.nan], "label at row 1 is NaN"),
        ([math.nan, 0.0], [0.5, 0.5], "NaN in interval [nan, 1.0] at row 0"),
    ])
    def test_nan_rejected(self, lower, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(np.rec.fromarrays([lower, [1.0, 1.0]], names="lower,upper"), labels)


class TestConformalize:
    @staticmethod
    def small_model():
        rng = np.random.default_rng(11)
        z = rng.standard_normal((120, 4))
        y = (rng.random(120) < 0.5).astype(float)
        cfg = QuantileConfig(epochs=30, learning_rate=5e-3, batch_size=32, hidden_dim=8)
        return fit_quantile_functions(z, y, 0.1, cfg, seed=0), rng

    def test_zero_scores_keep_raw_band(self):
        qm, rng = self.small_model()
        z = rng.standard_normal((100, 4))
        bands = qm.quantiles(z)
        # labels exactly on the upper band edge give scores of 0
        intervals, q_hat = conformalize(qm, z, bands[:, 1], rng.standard_normal((5, 4)), 0.1)
        assert q_hat == pytest.approx(0.0)

    def test_calibration_order_invariance(self):
        qm, rng = self.small_model()
        z = rng.standard_normal((80, 4))
        y = (rng.random(80) < 0.5).astype(float)
        z_test = rng.standard_normal((20, 4))
        ivs_a, q_a = conformalize(qm, z, y, z_test, 0.1)
        perm = rng.permutation(80)
        ivs_b, q_b = conformalize(qm, z[perm], y[perm], z_test, 0.1)
        assert q_a == q_b
        assert [(i.lower, i.upper) for i in ivs_a] == [(i.lower, i.upper) for i in ivs_b]

    def test_empty_calibration(self):
        qm, rng = self.small_model()
        with pytest.raises(ValueError):
            conformalize(qm, np.empty((0, 4)), [], rng.standard_normal((3, 4)), 0.1)


class TestMarginalCoverage:
    def test_monte_carlo_oracle(self):
        # i.i.d. continuous scores: P(test score <= q_hat) is exactly
        # ceil((K+1)(1-alpha))/(K+1); estimate it over 10^4 resamples.
        rng = np.random.default_rng(2024)
        k_calib, alpha, resamples = 19, 0.1, 10**4
        expected = math.ceil((k_calib + 1) * (1 - alpha)) / (k_calib + 1)
        hits = 0
        for _ in range(resamples):
            scores = rng.standard_normal(k_calib)
            q_hat = conformal_quantile(scores, alpha)
            hits += rng.standard_normal() <= q_hat
        mc = hits / resamples
        se = math.sqrt(expected * (1 - expected) / resamples)
        assert abs(mc - expected) < 3 * se
        assert 1 - alpha <= expected <= 1 - alpha + 1 / (k_calib + 1)
