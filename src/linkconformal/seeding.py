"""Seed derivation and counter-based per-edge randomness.

Every randomized operation in the package draws from a generator derived
from (master seed, path), where the path mixes trial indices and short
purpose tags.  Distinct paths give statistically independent streams, so
no stream is ever reused across purposes.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import check_int

_U64 = np.uint64


def _seed_sequence(master_seed, path) -> np.random.SeedSequence:
    """The SeedSequence of (master_seed, path), with ``master_seed`` checked as the caller's ``seed``."""
    spawn_key = tuple(zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else check_int(p, "seed path item", 0)
                      for p in path)
    return np.random.SeedSequence(check_int(master_seed, "seed", 0), spawn_key=spawn_key)


def derive_rng(master_seed: int, *path) -> np.random.Generator:
    """Return a Generator for (master_seed, path); strings are tag names."""
    return np.random.default_rng(_seed_sequence(master_seed, path))


def derive_seed(master_seed: int, *path) -> int:
    """Collapse (master_seed, path) to a single 63-bit integer seed."""
    state = _seed_sequence(master_seed, path).generate_state(2)
    return int((_U64(state[0]) << _U64(31)) ^ _U64(state[1])) & (2**63 - 1)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + _U64(0x9E3779B97F4A7C15)) & _U64(0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def edge_uniforms(seed: int, endpoints: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One uniform draw in [0, 1) per edge, indexed by (seed, u, v, label).

    The draw is a pure function of its arguments, so per-edge decisions do
    not depend on the order edges are presented in and may be evaluated
    concurrently.
    """
    endpoints = np.asarray(endpoints, dtype=np.uint64)
    labels = np.asarray(labels, dtype=np.uint64)
    with np.errstate(over="ignore"):
        edge_id = (endpoints[:, 0] << _U64(33)) | (endpoints[:, 1] << _U64(1)) | labels
        h = _splitmix64(edge_id ^ _splitmix64(np.full_like(edge_id, _U64(seed & 0xFFFFFFFFFFFFFFFF))))
    return (h >> _U64(11)).astype(np.float64) * 2.0**-53
