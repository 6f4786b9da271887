"""Conditional quantile regression over edge embeddings with pinball loss.

A single trunk of three fully connected layers (ReLU between them) ends in
a 2-wide head producing the lower and upper conditional quantiles jointly;
the two pinball losses are summed. Quantile crossing is repaired at
prediction time by sorting the two outputs.

The fit can stream its rows: given node embeddings and node pairs, each
mini-batch forms its pairs' edge embeddings, the product that
``model.edge_embeddings`` forms, into a per-fit workspace, so no matrix of
all fit rows is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._nn import check_training_settings, flat_views, init_weight, max_relative_gradient_error, momentum_step
from .graph import _finite_rows, as_edge_rows
from .model import _check_endpoints, _edge_product
from .seeding import derive_rng


@dataclass(frozen=True)
class QuantileConfig:
    epochs: int = 200
    learning_rate: float = 5e-4
    batch_size: int = 64
    hidden_dim: int = 64
    momentum: float = 0.9

    def __post_init__(self):
        check_training_settings(self)


@dataclass
class QuantileModel:
    """Weights of the two-headed quantile network. Treat as immutable."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray  # (hidden, 2)
    b3: np.ndarray  # (2,)
    levels: Tuple[float, float]

    def __post_init__(self):
        lo, hi = self.levels
        if not (0.0 < lo < hi < 1.0):
            raise ValueError(f"levels must satisfy 0 < lower < upper < 1, got {self.levels}")
        for arr in self.param_arrays():
            if not np.all(np.isfinite(arr)):
                raise ValueError("quantile model weights must be finite")

    def param_arrays(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def raw(self, z: np.ndarray) -> np.ndarray:
        """Head outputs (n, 2) without crossing repair."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[1] != self.w1.shape[0]:
            raise ValueError(f"embedding dim {z.shape[1]} does not match model dim {self.w1.shape[0]}")
        # Each layer adds its bias and applies ReLU in place, so that a layer
        # holds one (n, hidden) array, not three.
        h = z
        for w, b in ((self.w1, self.b1), (self.w2, self.b2)):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        out = h @ self.w3
        out += self.b3
        return out

    def quantiles(self, z: np.ndarray) -> np.ndarray:
        """(n, 2) bands with lower <= upper in every row."""
        bands = self.raw(z)
        bands.sort(axis=1)
        return bands


def pinball_loss(prediction, target, gamma: float):
    """Quantile loss: gamma*(t - p) when t >= p, else (1 - gamma)*(p - t)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = target - prediction
    out = np.where(diff >= 0, gamma * diff, (gamma - 1.0) * diff)
    return float(out) if out.ndim == 0 else out


def _workspace(rows, dim, hidden):
    """Buffers for ``_loss_and_grads`` on up to ``rows`` rows.

    ``z`` and ``y`` hold a batch. A streamed batch gathers its endpoints
    into ``u`` and ``v`` and the rows of ``v`` into ``spare``. ``a1`` holds
    the first layer's pre-activation, ReLU'd in place, then d_pre1; ``m1``
    is its mask > 0; ``a2`` and ``m2`` do the same for the second layer.
    ``out`` holds the head outputs, then d_out, and ``ge`` is the mask
    y >= out. One workspace per fit keeps its steps from allocating arrays
    of the batch's size.
    """
    return (np.empty((rows, dim)), np.empty(rows), np.empty(rows, dtype=np.int64), np.empty(rows, dtype=np.int64),
            np.empty((rows, dim)), np.empty((rows, hidden)), np.empty((rows, hidden), dtype=bool),
            np.empty((rows, hidden)), np.empty((rows, hidden), dtype=bool), np.empty((rows, 2)),
            np.empty((rows, 2), dtype=bool))


def _loss_and_grads(arrays, z, y, levels, want_grads=True, work=None, grads=None):
    # Returns (loss, None) when not want_grads, else (None, grads): arrays shaped like
    # ``arrays`` that the call overwrites (fresh when not given). ``work`` is a
    # ``_workspace`` for at least y.size rows (fresh when not given), sliced only when
    # longer: views made per step slow a fit. ``z`` and ``y`` may be its batch buffers.
    w1, b1, w2, b2, w3, b3 = arrays
    rows = y.size
    work = work or _workspace(rows, *w1.shape)
    a1, m1, a2, m2, out, ge = work[5:] if len(work[0]) == rows else [buf[:rows] for buf in work[5:]]
    np.matmul(z, w1, out=a1)
    a1 += b1
    np.greater(a1, 0, out=m1)
    np.maximum(a1, 0.0, out=a1)
    np.matmul(a1, w2, out=a2)
    a2 += b2
    np.greater(a2, 0, out=m2)
    np.maximum(a2, 0.0, out=a2)
    np.matmul(a2, w3, out=out)
    out += b3
    lo, hi = levels
    if not want_grads:
        return float(np.mean(pinball_loss(out[:, 0], y, lo) + pinball_loss(out[:, 1], y, hi))), None
    if grads is None:
        _, grads = flat_views(arrays)
    d_w1, d_b1, d_w2, d_b2, d_w3, d_b3 = grads
    # d loss / d prediction per head: -gamma / rows where y >= out (the kink
    # at y == out takes the gamma branch), (1 - gamma) / rows elsewhere.
    np.greater_equal(y[:, None], out, out=ge)
    d_out = out
    d_out[...] = (1.0 - lo) / rows, (1.0 - hi) / rows
    np.copyto(d_out, (-lo / rows, -hi / rows), where=ge)
    # np.add.reduce is the ufunc that np.sum calls, without its Python-level dispatch.
    np.matmul(a2.T, d_out, out=d_w3)
    np.add.reduce(d_out, axis=0, out=d_b3)
    d_pre2 = np.matmul(d_out, w3.T, out=a2)
    d_pre2 *= m2
    np.matmul(a1.T, d_pre2, out=d_w2)
    np.add.reduce(d_pre2, axis=0, out=d_b2)
    d_pre1 = np.matmul(d_pre2, w2.T, out=a1)
    d_pre1 *= m1
    np.matmul(z.T, d_pre1, out=d_w1)
    np.add.reduce(d_pre1, axis=0, out=d_b1)
    return None, grads


def _check_finite(matrix: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first row of ``matrix`` with a non-finite entry."""
    finite = _finite_rows(matrix)
    if not finite.all():
        raise ValueError(f"{name} row {np.argmin(finite)} is not finite")


def fit_quantile_functions(
    embeddings,
    labels,
    alpha: float,
    config: Optional[QuantileConfig] = None,
    seed: int = 0,
    *,
    endpoints=None,
) -> QuantileModel:
    """Jointly minimize the summed pinball losses at levels alpha/2, 1 - alpha/2.

    The fit rows are ``embeddings``, one per label. With ``endpoints``, an
    (m, 2) array of node pairs, ``embeddings`` are node embeddings instead,
    and the fit rows are the pairs' edge embeddings: each mini-batch forms
    its own rows, so the (m, d) matrix of fit rows is never built. Runs a
    fixed number of epochs of mini-batch momentum descent; deterministic
    given (inputs, config, seed). Before any step, a non-finite embedding or
    label raises ValueError naming its row, and an endpoint outside
    [0, len(embeddings)) raises IndexError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    config = config or QuantileConfig()
    # Contiguous, like the endpoint columns below: np.take copies a strided source whole per call.
    z = np.ascontiguousarray(np.atleast_2d(embeddings), dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if endpoints is None:
        n, rows_name = len(z), "embeddings"
    else:
        endpoints = as_edge_rows(endpoints, 2)
        _check_endpoints(endpoints, len(z), "fit")
        n, rows_name = len(endpoints), "endpoint pairs"
    if n == 0:
        raise ValueError("cannot fit quantile functions on empty data")
    if n != y.size:
        raise ValueError(f"{n} {rows_name} vs {y.size} labels")
    _check_finite(z, "embeddings")
    _check_finite(y[:, None], "labels")
    levels = (alpha / 2.0, 1.0 - alpha / 2.0)
    rng = derive_rng(seed, "fit-quantiles")
    dim, k = z.shape[1], config.hidden_dim
    # Weights, gradients and velocity share one flat layout.
    params, arrays = flat_views([
        init_weight(rng, dim, (dim, k)),
        np.zeros(k),
        init_weight(rng, k, (k, k)),
        np.zeros(k),
        init_weight(rng, k, (k, 2)),
        np.zeros(2),
    ])
    grad, grads = flat_views(arrays)
    velocity = np.zeros_like(params)
    batch_size = config.batch_size
    work = _workspace(min(batch_size, n), dim, k)
    if endpoints is not None:
        u, v = np.ascontiguousarray(endpoints.T)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            step = work if batch.size == len(work[0]) else [buf[: batch.size] for buf in work]
            rows_z, rows_y, rows_u, rows_v, spare = step[:5]
            # "wrap" skips the copy that "raise" makes; a permutation is in range.
            if endpoints is None:
                np.take(z, batch, axis=0, out=rows_z, mode="wrap")
            else:
                np.take(u, batch, out=rows_u, mode="wrap")
                np.take(v, batch, out=rows_v, mode="wrap")
                _edge_product(z, rows_u, rows_v, rows_z, spare)
            np.take(y, batch, out=rows_y, mode="wrap")
            _loss_and_grads(arrays, rows_z, rows_y, levels, work=step, grads=grads)
            momentum_step(params, velocity, grad, config.learning_rate, config.momentum)
    for a in arrays:
        a.flags.writeable = False
    return QuantileModel(*arrays, levels=levels)


def quantile_gradient_check(
    model: QuantileModel,
    embeddings,
    labels,
    step: float,
    n_coords: int = 100,
    seed: int = 0,
) -> float:
    """Max relative error of the analytic pinball gradients vs central differences.

    Meaningful away from the loss kinks: keep |prediction - target| and the
    hidden pre-activations clear of ~step for every sample.
    """
    z = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    return max_relative_gradient_error(
        model.param_arrays(), lambda arrays, want_grads: _loss_and_grads(arrays, z, y, model.levels, want_grads),
        step, n_coords, derive_rng(seed, "quantile-gradient-check"),
    )
