"""Output checks that recompute each layer's result apart from the program.

Every check raises CheckFailed with a message on a wrong output. Inputs are
plain arrays, so each check can also be fed known-bad data by the tests.
Edges are compared as integer keys (u, v, label) with u < v.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import zeta


class CheckFailed(AssertionError):
    pass


def _fail(message: str):
    raise CheckFailed(message)


# --- edge helpers ------------------------------------------------------------


def labeled_array(subset) -> np.ndarray:
    """(E, 3) int64 array of (u, v, label) rows from a subset of labeled edges."""
    return np.asarray(subset, dtype=np.int64).reshape(-1, 3)


def pair_array(pairs) -> np.ndarray:
    """(E, 2) int64 array of unordered pairs, each as (min, max)."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.sort(arr, axis=1)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per (u, v, label) row, with the pair taken unordered."""
    ends = np.sort(rows[:, :2], axis=1)
    return (ends[:, 0] << 32) | (ends[:, 1] << 1) | rows[:, 2]


def _pair_keys(pairs, label: int) -> np.ndarray:
    ends = pair_array(pairs)
    return _keys(np.hstack([ends, np.full((ends.shape[0], 1), label, dtype=np.int64)]))


# --- (c) graph layer -----------------------------------------------------------


def check_negatives(graph_edges, num_nodes: int, negatives, count: int) -> None:
    """Negatives are ``count`` distinct in-range non-edges without self-loops."""
    neg = pair_array(negatives)
    if neg.shape[0] != count:
        _fail(f"negative_sample returned {neg.shape[0]} pairs, {count} requested")
    if np.any(neg[:, 0] == neg[:, 1]):
        _fail("a negative is a self-loop")
    if neg.size and (neg.min() < 0 or neg.max() >= num_nodes):
        _fail("a negative references a node out of range")
    keys = _pair_keys(neg, 0)
    if np.unique(keys).size != keys.size:
        _fail("negatives repeat a pair")
    if np.isin(keys, _pair_keys(graph_edges, 0)).any():
        _fail("a negative is an edge of the graph")


def check_split(positives, negatives, subsets) -> None:
    """The four subsets are disjoint, class-balanced and cover the edge pool.

    ``subsets`` maps subset name to an (E, 3) labeled array.
    """
    pool = np.concatenate([_pair_keys(positives, 1), _pair_keys(negatives, 0)])
    parts = []
    for name, rows in subsets.items():
        if rows.size and not np.isin(rows[:, 2], (0, 1)).all():
            _fail(f"{name} holds a label other than 0 and 1")
        n_pos = int(rows[:, 2].sum())
        if 2 * n_pos != rows.shape[0]:
            _fail(f"{name} is not class-balanced: {n_pos} positives of {rows.shape[0]}")
        parts.append(_keys(rows))
    union = np.concatenate(parts)
    if np.unique(union).size != union.size:
        _fail("split subsets overlap")
    if union.size != pool.size or not np.array_equal(np.sort(union), np.sort(pool)):
        _fail("split subsets do not make up the edge pool")


def check_training_subgraph(subgraph_edges, train_rows, val_rows) -> None:
    """The training subgraph holds exactly the train and val positives."""
    rows = np.concatenate([train_rows, val_rows])
    expected = np.unique(_keys(rows[rows[:, 2] == 1]))
    got = _pair_keys(subgraph_edges, 1)
    if got.size != expected.size or not np.array_equal(np.sort(got), expected):
        _fail("training subgraph differs from the train and val positives")


# --- (d) sampling layer --------------------------------------------------------


def check_sampled(inputs, outputs) -> None:
    """Each kept subset is a class-balanced subset of its input."""
    for name, before, after in zip(("train", "val", "calib"), inputs, outputs):
        n_pos = int(after[:, 2].sum())
        if 2 * n_pos != after.shape[0]:
            _fail(f"sampled {name} is not class-balanced: {n_pos} positives of {after.shape[0]}")
        kept = _keys(after)
        if np.unique(kept).size != kept.size:
            _fail(f"sampled {name} repeats an edge")
        if not np.isin(kept, _keys(before)).all():
            _fail(f"sampled {name} holds an edge that was not offered")


# --- (e) power-law layer -------------------------------------------------------


def check_power_law_fit(degrees, beta_hat: float, d_min: int, ks: float, tol: float = 1e-8) -> None:
    """Exponent and KS distance, recomputed with scipy's Hurwitz zeta."""
    degrees = np.asarray(degrees, dtype=np.int64)
    tail = degrees[degrees >= d_min]
    if tail.size == 0:
        _fail(f"no degree reaches the fitted d_min={d_min}")
    beta = 1.0 + tail.size / np.sum(np.log(tail / (d_min - 0.5)))
    if abs(beta - beta_hat) > tol * max(1.0, abs(beta)):
        _fail(f"beta_hat {beta_hat!r} differs from the tail MLE {beta!r}")
    uniq, counts = np.unique(tail, return_counts=True)
    empirical = np.cumsum(counts) / tail.size
    model = 1.0 - zeta(beta_hat, uniq + 1.0) / zeta(beta_hat, float(d_min))
    expected = float(np.abs(empirical - model).max())
    if abs(expected - ks) > tol:
        _fail(f"KS {ks!r} differs from the recomputed {expected!r}")


# --- (a), (b) conformal layer --------------------------------------------------


def conformal_rank(calib_size: int, alpha: float) -> int:
    """k = ceil((K+1)(1-alpha)) in exact rational arithmetic."""
    return math.ceil((calib_size + 1) * (1 - Fraction(repr(float(alpha)))))


def expected_intervals(calib_bands, calib_labels, test_bands, alpha: float):
    """(lower, upper, q_hat) of split-conformal CQR, from the model's bands.

    Scores are max(lo - y, y - hi); q_hat is the k-th smallest score
    (+inf when k > K); each test band is widened by q_hat on both sides,
    and a band that would invert collapses to its midpoint.
    """
    calib_bands = np.asarray(calib_bands, dtype=np.float64)
    y = np.asarray(calib_labels, dtype=np.float64)
    scores = np.maximum(calib_bands[:, 0] - y, y - calib_bands[:, 1])
    k = conformal_rank(scores.size, alpha)
    q_hat = math.inf if k > scores.size else float(np.sort(scores)[k - 1])
    test_bands = np.asarray(test_bands, dtype=np.float64)
    lower, upper = test_bands[:, 0] - q_hat, test_bands[:, 1] + q_hat
    inverted = lower > upper
    mid = (test_bands[:, 0] + test_bands[:, 1]) / 2.0
    return np.where(inverted, mid, lower), np.where(inverted, mid, upper), q_hat


def interval_bounds(intervals):
    """(lower, upper) arrays from the program's intervals."""
    return (np.array([iv.lower for iv in intervals], dtype=np.float64),
            np.array([iv.upper for iv in intervals], dtype=np.float64))


def _close(a, b, tol=1e-9) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    same_inf = np.isinf(a) & (a == b)
    return bool(np.all(same_inf | (np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))))


def check_conformalize(expected, got_lower, got_upper, got_q_hat) -> None:
    """The program's q_hat and intervals equal the recomputed ones."""
    lower, upper, q_hat = expected
    if not _close(got_q_hat, q_hat):
        _fail(f"q_hat {got_q_hat!r} differs from the recomputed {q_hat!r}")
    if got_lower.shape != lower.shape or not (_close(got_lower, lower) and _close(got_upper, upper)):
        _fail("intervals differ from the recomputed band widened by q_hat")


def check_record(expected, test_labels, coverage: float, avg_length: float) -> None:
    """Coverage and mean length of the recomputed intervals equal the record's."""
    lower, upper, _ = expected
    y = np.asarray(test_labels, dtype=np.float64)
    covered = int(np.count_nonzero((lower <= y) & (y <= upper)))
    if covered / y.size != coverage:
        _fail(f"record coverage {coverage!r} differs from the recomputed {covered / y.size!r}")
    length = float(np.mean(upper - lower))
    if not _close(avg_length, length):
        _fail(f"record mean length {avg_length!r} differs from the recomputed {length!r}")


def check_plain_coverage(mean_coverage: float, alpha: float, calib_size: int, test_size: int,
                         n_trials: int, z: float = 4.0) -> None:
    """Plain-arm mean coverage lies within a binomial tolerance of the CQR band.

    Split conformal gives 1 - alpha <= P(cover) <= 1 - alpha + 1/(K+1). The
    tolerance adds z standard deviations of the trial mean: one
    Beta(k, K+1-k) draw of the conditional coverage per trial, observed on
    ``test_size`` test edges.
    """
    var = alpha * (1 - alpha) * (1.0 / test_size + 1.0 / (calib_size + 2)) / n_trials
    tol = z * math.sqrt(var)
    low, high = 1 - alpha - tol, 1 - alpha + 1.0 / (calib_size + 1) + tol
    if not low <= mean_coverage <= high:
        _fail(f"plain-arm mean coverage {mean_coverage:.4f} outside [{low:.4f}, {high:.4f}]")


def quota_sizes(n: int, ratios) -> list:
    """Per-subset counts of an n-pair ratio split: floors, leftovers to the front."""
    sizes = [math.floor(Fraction(repr(float(r))) * n) for r in ratios]
    for i in range(n - sum(sizes)):
        sizes[i % len(sizes)] += 1
    return sizes


# --- (f) reproducibility -------------------------------------------------------


def check_identical(payloads) -> None:
    """Every serialized result of one seed is byte-identical to the first."""
    first = payloads[0]
    for i, other in enumerate(payloads[1:], start=1):
        if other != first:
            _fail(f"round {i} result differs from round 0")
