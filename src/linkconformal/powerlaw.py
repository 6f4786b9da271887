"""Discrete power-law fitting for degree sequences.

Implements the zeta-normalized discrete power law Pr(d) = d^-beta / zeta(beta, d_min),
the continuous-approximation maximum-likelihood exponent estimate, and threshold
selection by Kolmogorov-Smirnov minimization over candidate d_min values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_int, check_real

# Truncation point of the zeta series; the analytic tail below pushes the
# absolute error far under 1e-10 for beta >= 1.05.
_ZETA_TERMS = 10_000
# A table of direct-sum terms holds at most the terms of _ZETA_BLOCK
# offsets: 1.3 MB.
_ZETA_BLOCK = 16


@dataclass(frozen=True)
class PowerLawFit:
    """Best-fitting discrete power law for a degree sequence.

    Attributes
    ----------
    beta_hat : float
        Estimated scaling exponent, > 1.
    d_min : int
        Lower cutoff of the fitted tail, >= 1.
    ks : float
        Kolmogorov-Smirnov distance between the tail's empirical CDF and
        the fitted model CDF, in [0, 1].
    tail_size : int
        Number of degrees >= d_min.
    """

    beta_hat: float
    d_min: int
    ks: float
    tail_size: int

    def __post_init__(self):
        check_real(self.beta_hat, "beta_hat", 1, np.inf)
        check_int(self.d_min, "d_min", 1)
        check_real(self.ks, "ks", 0, 1, "[]")
        check_int(self.tail_size, "tail_size", 1)


def hurwitz_zeta(beta: float, a):
    """Evaluate sum_{i>=0} (i + a)^-beta for beta > 1 and a > 0.

    Parameters
    ----------
    beta : float
        Finite exponent; the series diverges for beta <= 1.
    a : float or ndarray
        Offset(s), each > 0 (not NaN).

    Returns
    -------
    float or ndarray
        Series value(s), absolute error below 1e-10.

    Notes
    -----
    Sums the first 10^4 terms directly, then closes the tail with an
    Euler-Maclaurin expansion: integral term x0^(1-beta)/(beta-1) plus the
    half-term and the first two Bernoulli corrections at x0 = a + 10^4.
    Whole-number offsets close together share their terms (``_direct_sums``);
    no offset's value depends on which other offsets share the call.
    """
    check_real(beta, "beta", 1, np.inf)
    a_arr = np.asarray(a, dtype=np.float64)
    if not np.all(a_arr > 0.0):
        raise ValueError("offset a must be positive")
    flat = np.atleast_1d(a_arr).ravel()
    partial = _direct_sums(beta, flat)
    x0 = flat + float(_ZETA_TERMS)
    tail = (
        x0 ** (1.0 - beta) / (beta - 1.0)
        + 0.5 * x0 ** (-beta)
        + beta / 12.0 * x0 ** (-beta - 1.0)
        - beta * (beta + 1.0) * (beta + 2.0) / 720.0 * x0 ** (-beta - 3.0)
    )
    out = (partial + tail).reshape(a_arr.shape)
    return float(out) if np.ndim(a) == 0 else out


def _direct_sums(beta: float, flat: np.ndarray) -> np.ndarray:
    """sum_{i<10^4} (i + a)^-beta for each offset a in ``flat``.

    Offsets are taken in ascending order. A whole-number offset lo starts a
    table of (lo + k)^-beta, formed as arange + lo and then the power, and
    the whole-number offsets that follow it at gaps below 10^4 share it,
    while the table stays within one block of _ZETA_BLOCK offsets' terms.
    Every other offset gets a table of its own 10^4 terms. Each offset's
    sum is np.sum over its 10^4-entry window: the same pairwise sum of the
    same doubles, whichever offsets share its table. An infinite offset's
    terms are all 0.
    """
    partial = np.zeros(flat.shape)
    order = np.argsort(flat, kind="stable")
    values = flat[order]
    whole = values == np.floor(values)
    finite = int(np.searchsorted(values, np.inf))
    start = 0
    while start < finite:
        lo, stop = values[start], start + 1
        while (stop < finite and whole[start] and whole[stop] and values[stop] - values[stop - 1] < _ZETA_TERMS
               and values[stop] - lo < (_ZETA_BLOCK - 1) * _ZETA_TERMS):
            stop += 1
        table = np.arange(int(values[stop - 1] - lo) + _ZETA_TERMS, dtype=np.float64)
        table += lo
        table **= -beta
        for j in range(start, stop):
            k = int(values[j] - lo)
            partial[order[j]] = np.sum(table[k : k + _ZETA_TERMS])
        start = stop
    return partial


def powerlaw_cdf(d, beta: float, d_min: int):
    """Model CDF Pr(D <= d | D >= d_min) = 1 - zeta(beta, d+1)/zeta(beta, d_min)."""
    check_int(d_min, "d_min", 1)
    d_arr = np.asarray(d, dtype=np.float64)
    if np.any(d_arr < d_min):
        raise ValueError(f"degree below cutoff: CDF is defined for d >= {d_min}")
    # One call for both zeta terms, so that d_min shares the degrees' table.
    zetas = hurwitz_zeta(beta, np.append(d_arr.ravel() + 1.0, float(d_min)))
    out = 1.0 - zetas[:-1].reshape(d_arr.shape) / zetas[-1]
    return float(out) if np.ndim(d) == 0 else out


def estimate_beta(degrees, d_min: int) -> float:
    """Continuous-approximation MLE of the scaling exponent over the tail.

    beta_hat = 1 + n * [ sum_i log(d_i / (d_min - 1/2)) ]^-1, where the sum
    runs over the n degrees >= d_min.

    Parameters
    ----------
    degrees : array-like of int
        Degree sequence; entries below d_min are ignored.
    d_min : int
        Lower cutoff, >= 1.

    Returns
    -------
    float
        Estimated exponent (always > 1, since log(d/(d_min - 1/2)) > 0 on
        the tail).
    """
    check_int(d_min, "d_min", 1)
    degrees = np.asarray(degrees, dtype=np.float64)
    tail = degrees[degrees >= d_min]
    if tail.size == 0:
        raise ValueError(f"no degrees >= d_min={d_min}")
    log_sum = np.sum(np.log(tail / (d_min - 0.5)))
    return 1.0 + tail.size / log_sum


def ks_statistic(degrees, beta: float, d_min: int) -> float:
    """Max absolute gap between tail empirical CDF and the model CDF.

    Both distributions are conditioned on d >= d_min; the maximum is taken
    over the distinct observed tail degrees.
    """
    check_int(d_min, "d_min", 1)
    degrees = np.asarray(degrees)
    tail = degrees[degrees >= d_min]
    if tail.size == 0:
        raise ValueError(f"no degrees >= d_min={d_min}")
    uniq, counts = np.unique(tail, return_counts=True)
    return _ks_distance(uniq, counts, tail.size, beta, d_min)


def _ks_distance(uniq: np.ndarray, counts: np.ndarray, tail_size: int, beta: float, d_min: int) -> float:
    """``ks_statistic`` from the tail's distinct degrees ``uniq``, their ``counts`` and their total."""
    ecdf = np.cumsum(counts) / tail_size
    model = powerlaw_cdf(uniq.astype(np.float64), beta, d_min)
    return float(np.abs(ecdf - model).max())


def adaptive_min_tail(num_degrees: int) -> int:
    """Tail-size floor that scales with the sequence: max(10, n // 10).

    With the fixed floor of 10, the threshold search on a small graph can
    climb into any local bump (an injected clique's degrees, say) and
    describe it as a clean power-law tail, hiding the distortion. Keeping
    a tenth of the sequence in the tail pins the fit to the bulk.
    """
    check_int(num_degrees, "num_degrees", 0)
    return max(10, num_degrees // 10)


def fit_power_law(degrees, min_tail: int = 10) -> PowerLawFit:
    """Fit (beta_hat, d_min) to a degree sequence by KS minimization.

    Every distinct observed degree whose tail holds at least ``min_tail``
    samples is tried as d_min; for each candidate the exponent is estimated
    on the tail and the KS distance recorded. The candidate with the
    smallest KS wins, ties broken by the smaller d_min. If no candidate
    reaches ``min_tail``, the smallest positive degree is used alone.

    Degree-0 nodes are excluded: the model is defined for d >= d_min >= 1.
    A degree that is negative or not a whole number raises ValueError.
    """
    check_int(min_tail, "min_tail", 1)
    degrees = np.ravel(degrees)
    if degrees.dtype.kind not in "iu" or degrees.min(initial=0) < 0:
        bad = np.flatnonzero(~(np.isfinite(degrees) & (degrees >= 0) & (degrees == np.floor(degrees))))
        if bad.size:
            raise ValueError(f"degree {degrees[bad[0]]} at index {bad[0]} is not a non-negative whole number")
    degrees = degrees[degrees >= 1].astype(np.int64, copy=False)
    if degrees.size == 0:
        raise ValueError("degree sequence has no positive entries")
    uniq, counts = np.unique(degrees, return_counts=True)
    # tails[k]: how many degrees are >= uniq[k]; it falls as k rises.
    tails = np.cumsum(counts[::-1])[::-1]
    eligible = int(np.sum(tails >= min_tail)) or 1
    as_float = degrees.astype(np.float64)
    best = None
    for k in range(eligible):
        cand, tail_size = int(uniq[k]), int(tails[k])
        beta_hat = estimate_beta(as_float, cand)
        ks = _ks_distance(uniq[k:], counts[k:], tail_size, beta_hat, cand)
        key = (ks, cand)
        if best is None or key < best[0]:
            best = (key, PowerLawFit(beta_hat, cand, ks, tail_size))
    return best[1]
