"""Internal helpers shared by the trained networks: init, parameter layout, dense layers, optimizer, checks."""

from __future__ import annotations

import numpy as np

from .errors import check_int, check_real

# Gradients smaller than this are treated as zero-scale in relative-error
# comparisons, so degenerate (flat) points do not inflate the check.
_GRAD_FLOOR = 1e-6


def check_training_settings(config) -> None:
    """The type and range checks that ModelConfig and QuantileConfig share."""
    for name, low in (("hidden_dim", 1), ("batch_size", 1), ("epochs", 0)):
        check_int(getattr(config, name), name, low)
    check_real(config.learning_rate, "learning_rate", 0, np.inf, "[)")
    check_real(config.momentum, "momentum", 0, 1, "[)")


def init_weight(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def flat_views(arrays, flat=None):
    """``flat`` and its consecutive views shaped like ``arrays``, one per array.

    Without ``flat``, a fresh float64 vector that holds ``arrays`` end to end.
    A network's weights, gradients and velocity laid out alike take one
    ``momentum_step`` per step.
    """
    if flat is None:
        flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    views, start = [], 0
    for a in arrays:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


def dense_forward(weights, x, outs=None):
    """Rows ``x`` through the dense layers ``weights`` = (w_0, b_0, w_1, b_1, ...).

    Layer l writes x_l @ w_l + b_l into ``outs[l]`` (a fresh array when
    ``outs`` is not given), and every layer but the last is ReLU'd in place.
    Returns the last layer's output.
    """
    last = len(weights) // 2 - 1
    for l in range(last + 1):
        x = np.matmul(x, weights[2 * l], out=None if outs is None else outs[l])
        x += weights[2 * l + 1]
        if l < last:
            np.maximum(x, 0.0, out=x)
    return x


def dense_backward(weights, x, outs, masks, d, grads):
    """The backward pass of ``dense_forward(weights, x, outs)``, from d = d loss / d (last output).

    Writes each layer's weight and bias gradients into ``grads``, laid out
    like ``weights``. Each hidden output ``outs[l]`` is overwritten with its
    own gradient and ``masks[l]`` with its ReLU sign. Returns d loss / d
    (first layer's pre-activation).
    """
    for l in range(len(weights) // 2 - 1, -1, -1):
        h = outs[l - 1] if l else x
        np.matmul(h.T, d, out=grads[2 * l])
        # np.add.reduce is the ufunc that np.sum calls, without its Python-level dispatch.
        np.add.reduce(d, axis=0, out=grads[2 * l + 1])
        if l:
            np.greater(h, 0, out=masks[l - 1])
            d = np.matmul(d, weights[2 * l].T, out=h)
            d *= masks[l - 1]
    return d


def momentum_step(params, velocity, grad, learning_rate: float, momentum: float) -> None:
    """Plain momentum descent, in place: v <- mu*v - lr*g; w <- w + v."""
    velocity *= momentum
    velocity -= learning_rate * grad
    params += velocity


def max_relative_gradient_error(arrays, loss_and_grads, step: float, n_coords: int, rng: np.random.Generator) -> float:
    """Compare analytic gradients to central finite differences.

    ``loss_and_grads(arrays, want_grads)`` returns (loss, None) or (None,
    gradients shaped like ``arrays``). On a flat copy of ``arrays``, perturbs
    up to ``n_coords`` randomly chosen coordinates one at a time and returns
    the largest |g_analytic - g_numeric| / max(|g_analytic|, |g_numeric|, floor).
    """
    check_real(step, "step", 0, np.inf)
    check_int(n_coords, "n_coords", 1)
    flat, arrays = flat_views(arrays)
    analytic = np.concatenate([np.ravel(g) for g in loss_and_grads(arrays, True)[1]])
    worst = 0.0
    for i in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
        original = flat[i]
        flat[i] = original + step
        loss_plus = loss_and_grads(arrays, False)[0]
        flat[i] = original - step
        loss_minus = loss_and_grads(arrays, False)[0]
        flat[i] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        denom = max(abs(analytic[i]), abs(numeric), _GRAD_FLOOR)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
