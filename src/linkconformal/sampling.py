"""Degree-guided edge resampling toward a fitted power law.

``keep_probabilities`` gives each edge a keep probability from its endpoint
degrees d: gap(d) = graph CDF(d) - ideal CDF(d), where the ideal is a Pareto
degree sequence drawn from the caller's power-law fit. Two modes are shipped:

* ``literal``    - the keep probability is min(lambda * S(|gap_u|, |gap_v|), 1),
  with the graph CDF over the full degree sequence; edges whose endpoint
  degrees deviate more are more likely to be retained.
* ``directional`` (default) - min(lambda * S(o_u, o_v), 1) is a removal
  probability, where o(d) = max(0, -gap(d)) is the over-representation of
  degrees >= d relative to the ideal. Both CDFs are conditioned on the
  fitted tail (d >= d_min): the ideal sequence starts at the fitted d_min,
  so against the full degree sequence it would flag nothing. On the shared
  tail support, excess high-degree mass (for example injected cliques)
  shows up as o > 0 exactly there, and a well-fitted graph is left untouched.

S is the sum or the max of the two endpoint terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCalibrationError, check_int, check_real
from .graph import _check_endpoints, as_edge_rows, as_labeled_rows, row_keys
from .powerlaw import PowerLawFit
from .seeding import derive_rng, derive_seed, edge_uniforms
# bench/tracing.py wraps degree_sequence and fit_power_law here; the sampler calls neither.
from .graph import degree_sequence  # noqa: F401
from .powerlaw import fit_power_law  # noqa: F401


MODES = ("literal", "directional")
AGGREGATIONS = ("sum", "max")


@dataclass(frozen=True)
class SamplerConfig:
    lam: float = 0.3
    agg: str = "sum"  # aggregation over the two endpoint deviations
    mode: str = "directional"
    seed: int = 0

    def __post_init__(self):
        check_real(self.lam, "lambda", 0, np.inf, "[)")
        if self.agg not in AGGREGATIONS:
            raise ValueError(f"agg must be one of {AGGREGATIONS}, got {self.agg!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_int(self.seed, "seed", 0)


def pareto_sequence(x_m: float, beta_hat: float, count: int, seed: int) -> np.ndarray:
    """Ideal integer degree sequence from the Pareto(x_m, beta_hat) law.

    Draws ``count`` values by inverse-CDF sampling, x = x_m * (1 - u)^(-1/beta_hat)
    for u uniform in [0, 1), and discretizes each to max(1, round(x)) with
    round-half-up. Its survival function is (x_m / x)^beta_hat: the survival
    exponent is beta_hat and the pdf exponent beta_hat + 1, so a power-law
    fit of the sequence finds about beta_hat + 1, not beta_hat.
    """
    check_int(count, "count", 1)
    check_real(x_m, "x_m", 0, np.inf)
    check_real(beta_hat, "beta_hat", 0, np.inf)
    x = x_m * (1.0 - derive_rng(seed, "pareto").random(count)) ** (-1.0 / beta_hat)
    return np.maximum(1, np.floor(x + 0.5)).astype(np.int64)


def _cdf(sample: np.ndarray, d) -> np.ndarray:
    """Right-continuous empirical CDF of a non-empty ``sample``, evaluated at ``d``.

    Both hold non-negative integers. The counts of sample entries <= d come
    from one ``bincount``; entries above max(d) are counted at max(d) + 1,
    so that a far Pareto draw cannot size the count array.
    """
    d = np.asarray(d)
    at_most = np.cumsum(np.bincount(np.minimum(sample, d.max(initial=0) + 1)))
    return at_most[np.minimum(d, at_most.size - 1)] / sample.size


def _keep_rule(gap_u, gap_v, cfg: SamplerConfig):
    """Keep probability from the endpoints' CDF gaps, by the rule of ``cfg.mode``."""
    if cfg.mode == "literal":
        dev_u, dev_v = np.abs(gap_u), np.abs(gap_v)
    else:
        dev_u, dev_v = np.maximum(0.0, -gap_u), np.maximum(0.0, -gap_v)
    p = np.minimum(cfg.lam * (dev_u + dev_v if cfg.agg == "sum" else np.maximum(dev_u, dev_v)), 1.0)
    return p if cfg.mode == "literal" else 1.0 - p


def keep_probabilities(edges, node_degrees, fit: PowerLawFit, cfg: SamplerConfig) -> np.ndarray:
    """Keep probability p(u, v) in [0, 1] of each (u, v[, label]) edge in ``edges``.

    ``node_degrees`` are per-node degrees and ``fit`` their power-law fit.
    The ideal sequence has one entry per non-isolated node, drawn from
    Pareto(x_m = fitted d_min, shape = fitted beta). In directional mode
    the graph's degrees are conditioned on the fitted tail so both CDFs
    share the support [d_min, inf); a fit whose d_min exceeds every degree
    raises ValueError, and an endpoint outside [0, len(node_degrees))
    raises IndexError.
    """
    node_degrees = np.asarray(node_degrees)
    ends = as_edge_rows(edges)[:, :2]
    _check_endpoints(ends, len(node_degrees), "edge")
    degrees = node_degrees[node_degrees > 0]
    ideal = pareto_sequence(
        float(fit.d_min), fit.beta_hat, degrees.size, derive_seed(cfg.seed, "ideal-sequence")
    )
    if cfg.mode == "directional":
        degrees = degrees[degrees >= fit.d_min]
        if degrees.size == 0:
            raise ValueError(f"no node degree reaches the fitted d_min={fit.d_min}")
    gap = _cdf(degrees, node_degrees) - _cdf(ideal, node_degrees)  # per node
    return _keep_rule(gap[ends[:, 0]], gap[ends[:, 1]], cfg)


def _rebalance(kept: np.ndarray, rng) -> np.ndarray:
    # canonical (u, v, label) order first, so the trim does not depend on
    # input order
    kept = kept[np.argsort(row_keys(kept))]
    pos, neg = kept[kept[:, 2] == 1], kept[kept[:, 2] == 0]
    size = min(len(pos), len(neg))
    if len(pos) > size:
        pos = pos[np.sort(rng.choice(len(pos), size=size, replace=False))]
    if len(neg) > size:
        neg = neg[np.sort(rng.choice(len(neg), size=size, replace=False))]
    out = np.concatenate([pos, neg])
    out.flags.writeable = False
    return out


def sample_edges(train, val, calib, node_degrees: np.ndarray, fit: PowerLawFit, cfg: SamplerConfig):
    """Independently retain train/val/calib edges by their keep probability.

    ``node_degrees`` are the training subgraph's per-node degrees before any
    removal and ``fit`` their power-law fit. Each edge uses one uniform draw
    indexed by (seed, u, v, label), so the outcome is a pure function of the
    inputs and the seed. Class balance is restored within each subset by
    down-sampling the majority label; the test set is never touched.
    Each subset is given as (k, 3) rows of (u, v, label) and returned as a
    read-only (k', 3) int64 array.

    Raises DegenerateCalibrationError when no calibration edge survives.
    """
    parts = [as_labeled_rows(subset) for subset in (train, val, calib)]
    rows = np.concatenate(parts)
    draws = edge_uniforms(derive_seed(cfg.seed, "edge-draws"), rows[:, :2], rows[:, 2])
    keep = draws <= keep_probabilities(rows, node_degrees, fit, cfg)
    kept = np.split(keep, np.cumsum([len(part) for part in parts[:2]]))
    out = [
        _rebalance(part[k], derive_rng(cfg.seed, "balance", name))
        for name, part, k in zip(("train", "val", "calib"), parts, kept)
    ]
    if len(calib) and not len(out[2]):
        raise DegenerateCalibrationError(
            f"sampling with lambda={cfg.lam} removed every calibration edge"
        )
    return tuple(out)
