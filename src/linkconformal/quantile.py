"""Conditional quantile regression over edge embeddings with pinball loss.

A single trunk of three fully connected layers (ReLU between them) ends in
a 2-wide head producing the lower and upper conditional quantiles jointly;
the two pinball losses are summed. Quantile crossing is repaired at
prediction time by sorting the two outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._nn import MomentumSGD, init_weight, load_dump, max_relative_gradient_error, relu, save_dump
from .seeding import derive_rng


@dataclass(frozen=True)
class QuantileConfig:
    epochs: int = 200
    learning_rate: float = 5e-4
    batch_size: int = 64
    hidden_dim: int = 64
    momentum: float = 0.9

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.hidden_dim < 1:
            raise ValueError("batch_size and hidden_dim must be >= 1")


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
        h1 = relu(z @ self.w1 + self.b1)
        h2 = relu(h1 @ self.w2 + self.b2)
        return h2 @ self.w3 + self.b3

    def quantiles(self, z: np.ndarray) -> np.ndarray:
        """(n, 2) bands with lower <= upper in every row."""
        return np.sort(self.raw(z), axis=1)

    def save(self, path) -> None:
        save_dump(path, "quantile-regressor", {
            "levels": list(self.levels),
            "arrays": {name: arr.tolist() for name, arr in zip("w1 b1 w2 b2 w3 b3".split(), self.param_arrays())},
        })

    @classmethod
    def load(cls, path) -> "QuantileModel":
        payload = load_dump(path, "quantile-regressor")
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in payload["arrays"].items()}
        return cls(
            arrays["w1"], arrays["b1"], arrays["w2"], arrays["b2"],
            arrays["w3"], arrays["b3"], tuple(payload["levels"]),
        )


def pinball_loss(prediction, target, gamma: float):
    """Quantile loss: gamma*(t - p) when t >= p, else (1 - gamma)*(p - t)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = target - prediction
    out = np.where(diff >= 0, gamma * diff, (gamma - 1.0) * diff)
    return float(out) if out.ndim == 0 else out


def _loss_and_grads(arrays, z, y, levels, want_grads=True):
    # Returns (loss, None) when not want_grads, else (None, gradients).
    w1, b1, w2, b2, w3, b3 = arrays
    pre1 = z @ w1 + b1
    h1 = relu(pre1)
    pre2 = h1 @ w2 + b2
    h2 = relu(pre2)
    out = h2 @ w3 + b3
    lo, hi = levels
    if not want_grads:
        return float(np.mean(pinball_loss(out[:, 0], y, lo) + pinball_loss(out[:, 1], y, hi))), None
    # d loss / d prediction per head; the kink at t == p takes the gamma branch.
    d_out = np.where(y[:, None] >= out, (-lo, -hi), (1.0 - lo, 1.0 - hi)) / y.size
    d_w3 = h2.T @ d_out
    d_b3 = d_out.sum(axis=0)
    d_pre2 = d_out @ w3.T
    d_pre2 *= pre2 > 0
    d_w2 = h1.T @ d_pre2
    d_b2 = d_pre2.sum(axis=0)
    d_pre1 = d_pre2 @ w2.T
    d_pre1 *= pre1 > 0
    d_w1 = z.T @ d_pre1
    d_b1 = d_pre1.sum(axis=0)
    return None, [d_w1, d_b1, d_w2, d_b2, d_w3, d_b3]


def fit_quantile_functions(
    embeddings,
    labels,
    alpha: float,
    config: Optional[QuantileConfig] = None,
    seed: int = 0,
) -> QuantileModel:
    """Jointly minimize the summed pinball losses at levels alpha/2, 1 - alpha/2.

    Runs a fixed number of epochs of mini-batch momentum descent;
    deterministic given (inputs, config, seed).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    config = config or QuantileConfig()
    z = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    if z.shape[0] == 0:
        raise ValueError("cannot fit quantile functions on empty data")
    if z.shape[0] != y.size:
        raise ValueError(f"{z.shape[0]} embeddings vs {y.size} labels")
    levels = (alpha / 2.0, 1.0 - alpha / 2.0)
    rng = derive_rng(seed, "fit-quantiles")
    dim, k = z.shape[1], config.hidden_dim
    arrays = [
        init_weight(rng, dim, (dim, k)),
        np.zeros(k),
        init_weight(rng, k, (k, k)),
        np.zeros(k),
        init_weight(rng, k, (k, 2)),
        np.zeros(2),
    ]
    optimizer = MomentumSGD(arrays, config.learning_rate, config.momentum)
    for _ in range(config.epochs):
        order = rng.permutation(y.size)
        z_epoch, y_epoch = z[order], y[order]
        for start in range(0, y.size, config.batch_size):
            stop = start + config.batch_size
            _, grads = _loss_and_grads(arrays, z_epoch[start:stop], y_epoch[start:stop], levels)
            optimizer.step(arrays, grads)
    for a in arrays:
        a.flags.writeable = False
    return QuantileModel(*arrays, levels=levels)


def predict_quantiles(model: QuantileModel, z) -> Tuple[float, float]:
    """(lower, upper) band for one embedding, crossing repaired by sorting."""
    band = model.quantiles(np.asarray(z, dtype=np.float64).reshape(1, -1))[0]
    return float(band[0]), float(band[1])


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
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    z = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    arrays = [a.copy() for a in model.param_arrays()]
    _, grads = _loss_and_grads(arrays, z, y, model.levels)

    def loss_fn():
        return _loss_and_grads(arrays, z, y, model.levels, want_grads=False)[0]

    rng = derive_rng(seed, "quantile-gradient-check")
    return max_relative_gradient_error(arrays, loss_fn, grads, step, n_coords, rng)
