"""Internal helpers shared by the trained networks: init, optimizer, checks, dumps."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graph import _write_text

# Gradients smaller than this are treated as zero-scale in relative-error
# comparisons, so degenerate (flat) points do not inflate the check.
_GRAD_FLOOR = 1e-6

_DUMP_FORMAT = "linkconformal-params"
_DUMP_VERSION = 1


def save_dump(path, kind: str, body: dict) -> None:
    """Write a JSON parameter dump: the format/version/kind header, then ``body``."""
    payload = {"format": _DUMP_FORMAT, "version": _DUMP_VERSION, "kind": kind, **body}
    _write_text(path, json.dumps(payload), "parameter dump")


def load_dump(path, kind: str) -> dict:
    """Read a dump that ``save_dump`` wrote with the same ``kind``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != _DUMP_FORMAT or payload.get("version") != _DUMP_VERSION:
        raise ValueError(f"unsupported parameter dump header in {path}")
    if payload.get("kind") != kind:
        raise ValueError(f"{path} holds a {payload.get('kind')!r} dump, not a {kind!r} dump")
    return payload


def init_weight(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class MomentumSGD:
    """Plain momentum descent: v <- mu*v - lr*g; w <- w + v."""

    def __init__(self, arrays, learning_rate: float, momentum: float):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = [np.zeros_like(a) for a in arrays]

    def step(self, arrays, grads):
        for a, g, v in zip(arrays, grads, self.velocity):
            v *= self.momentum
            v -= self.learning_rate * g
            a += v


def max_relative_gradient_error(
    arrays,
    loss_fn,
    analytic_grads,
    step: float,
    n_coords: int,
    rng: np.random.Generator,
) -> float:
    """Compare analytic gradients to central finite differences.

    Perturbs up to ``n_coords`` randomly chosen coordinates of ``arrays``
    in place (restoring each afterwards) and returns the largest
    |g_analytic - g_numeric| / max(|g_analytic|, |g_numeric|, floor).
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    sizes = [a.size for a in arrays]
    total = sum(sizes)
    chosen = rng.choice(total, size=min(n_coords, total), replace=False)
    offsets = np.cumsum([0] + sizes)
    worst = 0.0
    for flat in chosen:
        k = int(np.searchsorted(offsets, flat, side="right")) - 1
        idx = np.unravel_index(int(flat) - offsets[k], arrays[k].shape)
        original = arrays[k][idx]
        arrays[k][idx] = original + step
        loss_plus = loss_fn()
        arrays[k][idx] = original - step
        loss_minus = loss_fn()
        arrays[k][idx] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = analytic_grads[k][idx]
        denom = max(abs(analytic), abs(numeric), _GRAD_FLOOR)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
