"""Degree-guided edge resampling toward a fitted power law.

Builds an ideal Pareto degree sequence from the fitted exponent, measures
per-degree deviations between the graph's empirical degree CDF and the
ideal one, and keeps or removes edges according to those deviations.

Two modes are shipped:

* ``literal``    - the keep probability is min(lambda * S(dvia_u, dvia_v), 1),
  applied directly, with dvia measured between the full degree sequence
  and the ideal sequence; edges whose endpoint degrees deviate more are
  more likely to be retained.
* ``directional`` (default) - min(lambda * S(o_u, o_v), 1) is a removal
  probability, where o(d) = max(0, ideal_cdf(d) - graph_cdf(d)) is the
  over-representation of degrees >= d relative to the ideal. Both CDFs are
  conditioned on the fitted tail (d >= d_min): the ideal Pareto sequence
  starts at the fitted d_min, so comparing it against the full degree
  sequence would flag nothing (the ideal is stochastically larger
  everywhere). On the shared tail support, excess high-degree mass (for
  example injected cliques) shows up as o > 0 exactly there, and a
  well-fitted graph is left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegenerateCalibrationError
from .graph import Graph, as_edge_rows, degree_sequence, row_keys
from .powerlaw import adaptive_min_tail, fit_power_law
from .seeding import derive_rng, derive_seed, edge_uniforms


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical CDF of a non-empty sample."""

    support: np.ndarray  # sorted unique values
    cumfrac: np.ndarray  # fraction of the sample <= support[i]

    def __call__(self, d):
        idx = np.searchsorted(self.support, d, side="right")
        padded = np.concatenate([[0.0], self.cumfrac])
        out = padded[idx]
        return float(out) if np.ndim(d) == 0 else out


@dataclass(frozen=True)
class SamplerConfig:
    lam: float = 0.3
    agg: str = "sum"  # aggregation over the two endpoint deviations
    mode: str = "directional"
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.agg not in ("sum", "max"):
            raise ValueError(f"agg must be 'sum' or 'max', got {self.agg!r}")
        if self.mode not in ("literal", "directional"):
            raise ValueError(f"mode must be 'literal' or 'directional', got {self.mode!r}")


def ecdf(values) -> Ecdf:
    """Empirical CDF of a degree sequence."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot build an eCDF from an empty sequence")
    support, counts = np.unique(values, return_counts=True)
    return Ecdf(support, np.cumsum(counts) / values.size)


def pareto_inverse_cdf(u, x_m: float, beta_hat: float):
    """Pareto quantile function x = x_m * (1 - u)^(-1/beta_hat), u in [0, 1)."""
    if x_m <= 0:
        raise ValueError(f"x_m must be positive, got {x_m}")
    if beta_hat <= 0:
        raise ValueError(f"beta_hat must be positive, got {beta_hat}")
    u = np.asarray(u, dtype=np.float64)
    return x_m * (1.0 - u) ** (-1.0 / beta_hat)


def pareto_sequence(x_m: float, beta_hat: float, count: int, seed: int) -> np.ndarray:
    """Ideal integer degree sequence from the Pareto(x_m, beta_hat) law.

    Draws ``count`` values by inverse-CDF sampling and discretizes each to
    max(1, round(x)) with round-half-up.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = derive_rng(seed, "pareto")
    x = pareto_inverse_cdf(rng.random(count), x_m, beta_hat)
    return np.maximum(1, np.floor(x + 0.5)).astype(np.int64)


def deviation(d, ecdf_orig: Ecdf, ecdf_ideal: Ecdf):
    """Absolute gap |eCDF_orig(d) - eCDF_ideal(d)| at degree d."""
    return np.abs(signed_deviation(d, ecdf_orig, ecdf_ideal))


def signed_deviation(d, ecdf_orig: Ecdf, ecdf_ideal: Ecdf):
    """Signed gap eCDF_orig(d) - eCDF_ideal(d) used by directional mode."""
    return ecdf_orig(d) - ecdf_ideal(d)


def _aggregate(a, b, agg: str):
    return a + b if agg == "sum" else np.maximum(a, b)


def edge_keep_probability(d_u, d_v, cfg: SamplerConfig, ecdf_orig: Ecdf, ecdf_ideal: Ecdf):
    """Per-edge retention probability from the endpoint degrees.

    Vectorized over d_u, d_v. Always in [0, 1].
    """
    if cfg.mode == "literal":
        dev_u = deviation(d_u, ecdf_orig, ecdf_ideal)
        dev_v = deviation(d_v, ecdf_orig, ecdf_ideal)
        return np.minimum(cfg.lam * _aggregate(dev_u, dev_v, cfg.agg), 1.0)
    over_u = np.maximum(0.0, -signed_deviation(d_u, ecdf_orig, ecdf_ideal))
    over_v = np.maximum(0.0, -signed_deviation(d_v, ecdf_orig, ecdf_ideal))
    removal = np.minimum(cfg.lam * _aggregate(over_u, over_v, cfg.agg), 1.0)
    return 1.0 - removal


def fitted_ecdfs(degree_source: Graph, cfg: SamplerConfig) -> Tuple[Ecdf, Ecdf]:
    """Fit the degree source and return (graph eCDF, ideal-sequence eCDF).

    The ideal sequence has one entry per non-isolated node, drawn from
    Pareto(x_m = fitted d_min, shape = fitted beta). In directional mode
    the graph eCDF is conditioned on the fitted tail so both distributions
    share the support [d_min, inf).
    """
    degrees = degree_sequence(degree_source, drop_isolated=True)
    fit = fit_power_law(degrees, min_tail=adaptive_min_tail(degrees.size))
    ideal = pareto_sequence(
        float(fit.d_min), fit.beta_hat, degrees.size, derive_seed(cfg.seed, "ideal-sequence")
    )
    if cfg.mode == "directional":
        return ecdf(degrees[degrees >= fit.d_min]), ecdf(ideal)
    return ecdf(degrees), ecdf(ideal)


def keep_probabilities(edges, node_degrees, cfg: SamplerConfig, ecdf_orig: Ecdf, ecdf_ideal: Ecdf) -> np.ndarray:
    """Keep probability for each (u, v[, label]) edge in ``edges``."""
    arr = as_edge_rows(edges)
    if arr.size == 0:
        return np.zeros(0)
    node_degrees = np.asarray(node_degrees)
    return edge_keep_probability(
        node_degrees[arr[:, 0]], node_degrees[arr[:, 1]], cfg, ecdf_orig, ecdf_ideal
    )


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


def sample_edges(train, val, calib, degree_source: Graph, cfg: SamplerConfig):
    """Independently retain train/val/calib edges by their keep probability.

    Degrees are read once from ``degree_source`` (the training subgraph)
    before any removal; each edge uses one uniform draw indexed by
    (seed, u, v, label), so the outcome is a pure function of the inputs
    and the seed. Class balance is restored within each subset by
    down-sampling the majority label. The test set is never touched.
    Each subset is given as (k, 3) rows of (u, v, label) and returned as a
    read-only (k', 3) int64 array.

    Raises DegenerateCalibrationError when no calibration edge survives.
    """
    node_degrees = degree_sequence(degree_source)
    ecdf_orig, ecdf_ideal = fitted_ecdfs(degree_source, cfg)
    edge_seed = derive_seed(cfg.seed, "edge-draws")
    out = []
    for name, subset in (("train", train), ("val", val), ("calib", calib)):
        rows = as_edge_rows(subset, 3)
        probs = keep_probabilities(rows, node_degrees, cfg, ecdf_orig, ecdf_ideal)
        kept = rows[edge_uniforms(edge_seed, rows[:, :2], rows[:, 2]) <= probs]
        out.append(_rebalance(kept, derive_rng(cfg.seed, "balance", name)))
    if len(calib) and not len(out[2]):
        raise DegenerateCalibrationError(
            f"sampling with lambda={cfg.lam} removed every calibration edge"
        )
    return tuple(out)
