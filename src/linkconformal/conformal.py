"""Split-conformal calibration for quantile-band link predictions.

The non-conformity score of a labeled point against a band [lower, upper]
is max(lower - y, y - upper): negative when y sits strictly inside the
band, positive when it falls outside. Calibration takes the k-th smallest
of K scores with k = ceil((K+1)(1-alpha)); when k exceeds K the quantile
is +inf and intervals become unbounded (maximally conservative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Absolute slack when ceiling (K+1)(1-alpha); guards against float
# representation error at exact integer boundaries (e.g. 10 * 0.9).
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class ConformalReport:
    empirical_coverage: float
    avg_interval_length: float
    q_hat: float
    alpha: float
    calib_size: int
    test_size: int


def _check_ordered(lower: np.ndarray, upper: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row where lower > upper."""
    inverted = np.flatnonzero(lower > upper)
    if inverted.size:
        i = inverted[0]
        lo, hi = np.broadcast_arrays(lower, upper)
        raise ValueError(f"inverted {what} [{lo.flat[i]}, {hi.flat[i]}] at row {i}")


def nonconformity(lower, upper, y):
    """Scores max(lower - y, y - upper) of labels y against bands [lower, upper]."""
    lower, upper, y = (np.asarray(a, dtype=np.float64) for a in (lower, upper, y))
    _check_ordered(lower, upper, "band")
    scores = np.maximum(lower - y, y - upper)
    return float(scores) if scores.ndim == 0 else scores


def conformal_quantile(scores, alpha: float) -> float:
    """k-th smallest calibration score, k = ceil((K+1)(1-alpha)).

    Returns +inf when k > K, which happens for small calibration sets.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("calibration scores must be non-empty")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    k = math.ceil((scores.size + 1) * (1.0 - alpha) - _CEIL_EPS)
    k = max(k, 1)
    if k > scores.size:
        return math.inf
    return float(np.partition(scores, k - 1)[k - 1])


def prediction_interval(lower, upper, q_hat: float) -> np.recarray:
    """Widen the bands [lower, upper] by q_hat on both sides.

    Returns an (n,) record array with float64 fields ``lower`` and
    ``upper``. A negative q_hat can empty an interval; such a row becomes
    the degenerate point interval at its band midpoint.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    _check_ordered(lower, upper, "band")
    lo, hi = lower - q_hat, upper + q_hat
    empty = lo > hi
    mid = (lower[empty] + upper[empty]) / 2.0
    lo[empty] = mid
    hi[empty] = mid
    return np.rec.fromarrays([lo, hi], names="lower,upper")


def evaluate(
    intervals: np.recarray,
    labels,
    q_hat: float = math.nan,
    alpha: float = math.nan,
    calib_size: int = 0,
) -> ConformalReport:
    """Empirical coverage (closed endpoints) and average interval length."""
    labels = np.asarray(labels, dtype=np.float64)
    if len(intervals) != labels.size:
        raise ValueError(f"{len(intervals)} intervals vs {labels.size} labels")
    if labels.size == 0:
        raise ValueError("nothing to evaluate")
    lower, upper = intervals.lower, intervals.upper
    _check_ordered(lower, upper, "interval")
    covered = int(np.count_nonzero((lower <= labels) & (labels <= upper)))
    return ConformalReport(
        empirical_coverage=covered / labels.size,
        avg_interval_length=float(np.mean(upper - lower)),
        q_hat=q_hat,
        alpha=alpha,
        calib_size=calib_size,
        test_size=int(labels.size),
    )


def conformalize(
    qmodel,
    calib_embeddings,
    calib_labels,
    test_embeddings,
    alpha: float,
) -> Tuple[np.recarray, float]:
    """Calibrate the quantile band and construct test intervals.

    ``qmodel`` must expose ``quantiles(Z) -> (n, 2)`` sorted bands.
    Returns (the ``prediction_interval`` record array of the test rows, q_hat).
    """
    calib_embeddings = np.asarray(calib_embeddings, dtype=np.float64)
    if calib_embeddings.shape[0] == 0:
        raise ValueError("calibration set must be non-empty")
    bands = qmodel.quantiles(calib_embeddings)
    q_hat = conformal_quantile(nonconformity(bands[:, 0], bands[:, 1], calib_labels), alpha)
    test_bands = qmodel.quantiles(np.asarray(test_embeddings, dtype=np.float64))
    return prediction_interval(test_bands[:, 0], test_bands[:, 1], q_hat), q_hat
