"""The base link predictor: graph encoder, edge embedder, and edge scorer.

The encoder stacks linear message-passing layers over a normalized
adjacency (symmetric GCN normalization or row-stochastic mean over the
closed neighborhood), ReLU between layers, linear final layer, no biases.
Edge embeddings are the elementwise product of the two endpoint
embeddings, which keeps the score symmetric in the endpoints and hands a
vector (not a scalar) to downstream quantile regression. The scorer is a
one-hidden-layer ReLU network with a sigmoid output, trained with binary
cross-entropy by mini-batch momentum descent; every gradient is analytic
and checkable against finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ._nn import MomentumSGD, init_weight, max_relative_gradient_error, relu
from .graph import Graph, as_edge_rows
from .seeding import derive_rng

AGGREGATIONS = ("gcn-normalized", "mean-neighbor")

_DUMP_FORMAT = "linkconformal-params"
_DUMP_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 128
    num_layers: int = 3
    aggregation: str = "gcn-normalized"
    epochs: int = 500
    learning_rate: float = 1e-2
    batch_size: int = 2048
    momentum: float = 0.9
    scorer_hidden_dim: Optional[int] = None

    def __post_init__(self):
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def scorer_hidden(self) -> int:
        return self.scorer_hidden_dim if self.scorer_hidden_dim is not None else self.hidden_dim


@dataclass
class ModelParams:
    """Trained weights of the link predictor. Treat as immutable."""

    encoder_weights: List[np.ndarray]
    scorer_w1: np.ndarray  # (hidden_dim, scorer_hidden)
    scorer_b1: np.ndarray  # (scorer_hidden,)
    scorer_w2: np.ndarray  # (scorer_hidden,)
    scorer_b2: np.ndarray  # (1,)
    config: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        for arr in self.param_arrays():
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")
        dims = [w.shape for w in self.encoder_weights]
        for (prev, nxt) in zip(dims, dims[1:]):
            if prev[1] != nxt[0]:
                raise ValueError(f"encoder layer shapes do not chain: {dims}")
        if self.scorer_w1.shape[0] != dims[-1][1]:
            raise ValueError("scorer input does not match encoder output dim")

    def param_arrays(self) -> List[np.ndarray]:
        return list(self.encoder_weights) + [
            self.scorer_w1,
            self.scorer_b1,
            self.scorer_w2,
            self.scorer_b2,
        ]

    def copy(self) -> "ModelParams":
        return ModelParams(
            [w.copy() for w in self.encoder_weights],
            self.scorer_w1.copy(),
            self.scorer_b1.copy(),
            self.scorer_w2.copy(),
            self.scorer_b2.copy(),
            self.config,
        )

    def save(self, path) -> None:
        payload = {
            "format": _DUMP_FORMAT,
            "version": _DUMP_VERSION,
            "kind": "link-predictor",
            "config": {
                "hidden_dim": self.config.hidden_dim,
                "num_layers": self.config.num_layers,
                "aggregation": self.config.aggregation,
                "epochs": self.config.epochs,
                "learning_rate": self.config.learning_rate,
                "batch_size": self.config.batch_size,
                "momentum": self.config.momentum,
                "scorer_hidden_dim": self.config.scorer_hidden_dim,
            },
            "encoder_weights": [w.tolist() for w in self.encoder_weights],
            "scorer": {
                "w1": self.scorer_w1.tolist(),
                "b1": self.scorer_b1.tolist(),
                "w2": self.scorer_w2.tolist(),
                "b2": self.scorer_b2.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "ModelParams":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != _DUMP_FORMAT or payload.get("version") != _DUMP_VERSION:
            raise ValueError(f"unsupported parameter dump header in {path}")
        config = ModelConfig(**payload["config"])
        scorer = payload["scorer"]
        return cls(
            [np.asarray(w, dtype=np.float64) for w in payload["encoder_weights"]],
            np.asarray(scorer["w1"], dtype=np.float64),
            np.asarray(scorer["b1"], dtype=np.float64),
            np.asarray(scorer["w2"], dtype=np.float64),
            np.asarray(scorer["b2"], dtype=np.float64),
            config,
        )


def normalized_adjacency(graph: Graph, aggregation: str) -> sp.csr_matrix:
    """Propagation operator over A + I.

    gcn-normalized: D^-1/2 (A + I) D^-1/2; mean-neighbor: D^-1 (A + I),
    where D are the degrees of A + I (never zero).
    """
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    n = graph.num_nodes
    edges = graph.edge_array()
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    data = np.ones(rows.size)
    adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if aggregation == "gcn-normalized":
        scale = 1.0 / np.sqrt(degrees)
        return sp.diags(scale) @ adj @ sp.diags(scale)
    return sp.diags(1.0 / degrees) @ adj


def structural_features(graph: Graph, dim: int, seed: int, rounds: int = 2) -> np.ndarray:
    """Node features correlated with the graph's structure.

    Seeded standard-normal vectors smoothed ``rounds`` times over the mean
    closed-neighborhood operator, then row-normalized. Nodes close in the
    graph get similar features, which makes the graph's own edges
    feature-predictable; edges added between random nodes afterwards (for
    example injected cliques) are not. Useful for building semi-synthetic
    datasets whose features behave like a real dataset's.
    """
    rng = derive_rng(seed, "structural-features")
    x = rng.standard_normal((graph.num_nodes, dim))
    a_hat = normalized_adjacency(graph, "mean-neighbor")
    for _ in range(rounds):
        x = a_hat @ x
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def _encoder_forward(a_hat, features, weights):
    # Returns (propagated inputs S_l, pre-activations Z_l, activations A_l).
    activations = [features]
    propagated = []
    preacts = []
    h = features
    last = len(weights) - 1
    for l, w in enumerate(weights):
        s = a_hat @ h
        z = s @ w
        h = z if l == last else relu(z)
        propagated.append(s)
        preacts.append(z)
        activations.append(h)
    return propagated, preacts, activations


def encode_nodes(params: ModelParams, graph: Graph) -> np.ndarray:
    """Node embedding matrix H (num_nodes, hidden_dim)."""
    if graph.features is None:
        raise ValueError("graph has no features; call ensure_features first")
    if graph.features.shape[1] != params.encoder_weights[0].shape[0]:
        raise ValueError(
            f"feature dim {graph.features.shape[1]} does not match "
            f"encoder input dim {params.encoder_weights[0].shape[0]}"
        )
    a_hat = normalized_adjacency(graph, params.config.aggregation)
    return _encoder_forward(a_hat, graph.features, params.encoder_weights)[2][-1]


def edge_embedding(h_u: np.ndarray, h_v: np.ndarray) -> np.ndarray:
    """Symmetric edge embedding: elementwise product of the endpoints."""
    h_u = np.asarray(h_u, dtype=np.float64)
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_u.shape != h_v.shape:
        raise ValueError(f"endpoint dims differ: {h_u.shape} vs {h_v.shape}")
    return h_u * h_v


def edge_embeddings(node_embeddings: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """Batch edge embeddings for an (E, 2) endpoint array."""
    endpoints = np.asarray(endpoints, dtype=np.int64)
    return node_embeddings[endpoints[:, 0]] * node_embeddings[endpoints[:, 1]]


def _scorer_logits(params_arrays, z):
    w1, b1, w2, b2 = params_arrays
    pre = z @ w1 + b1
    hidden = relu(pre)
    return hidden @ w2 + b2[0], pre, hidden


def edge_score(params: ModelParams, z: np.ndarray) -> float:
    """Scorer output for one edge embedding, strictly inside (0, 1)."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("edge embedding must be finite")
    logit, _, _ = _scorer_logits(
        (params.scorer_w1, params.scorer_b1, params.scorer_w2, params.scorer_b2),
        z.reshape(1, -1),
    )
    s = 1.0 / (1.0 + np.exp(-logit[0]))
    return float(np.clip(s, 1e-15, 1.0 - 1e-15))


def _bce_loss_and_grads(arrays, a_hat, features, endpoints, labels, want_grads=True):
    n_enc = len(arrays) - 4
    enc_weights = arrays[:n_enc]
    scorer = arrays[n_enc:]
    propagated, preacts, activations = _encoder_forward(a_hat, features, enc_weights)
    h = activations[-1]
    zu, zv = h[endpoints[:, 0]], h[endpoints[:, 1]]
    z = zu * zv
    logits, pre, hidden = _scorer_logits(scorer, z)
    # BCE from logits: softplus(logit) - y * logit, numerically stable.
    loss = float(np.mean(np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits))) - labels * logits))
    if not want_grads:
        return loss, None
    batch = labels.size
    s = 1.0 / (1.0 + np.exp(-logits))
    dlogit = (s - labels) / batch
    w1, b1, w2, b2 = scorer
    d_b2 = np.array([dlogit.sum()])
    d_w2 = hidden.T @ dlogit
    d_hidden = np.outer(dlogit, w2)
    d_pre = d_hidden * (pre > 0)
    d_w1 = z.T @ d_pre
    d_b1 = d_pre.sum(axis=0)
    d_z = d_pre @ w1.T
    d_h = np.zeros_like(h)
    np.add.at(d_h, endpoints[:, 0], d_z * zv)
    np.add.at(d_h, endpoints[:, 1], d_z * zu)
    enc_grads = [None] * n_enc
    d_act = d_h
    for l in range(n_enc - 1, -1, -1):
        d_pre_l = d_act if l == n_enc - 1 else d_act * (preacts[l] > 0)
        enc_grads[l] = propagated[l].T @ d_pre_l
        if l > 0:
            d_act = a_hat.T @ (d_pre_l @ enc_weights[l].T)
    return loss, enc_grads + [d_w1, d_b1, d_w2, d_b2]


def _init_params(rng, feature_dim, config: ModelConfig) -> ModelParams:
    dims = [feature_dim] + [config.hidden_dim] * config.num_layers
    enc = [init_weight(rng, dims[l], (dims[l], dims[l + 1])) for l in range(config.num_layers)]
    k = config.scorer_hidden
    return ModelParams(
        enc,
        init_weight(rng, config.hidden_dim, (config.hidden_dim, k)),
        np.zeros(k),
        init_weight(rng, k, (k,)),
        np.zeros(1),
        config,
    )


def _as_endpoint_arrays(edges):
    rows = as_edge_rows(edges, 3)
    return rows[:, :2], rows[:, 2].astype(np.float64)


def train_link_predictor(
    subgraph: Graph,
    train,
    val,
    config: Optional[ModelConfig] = None,
    seed: int = 0,
) -> ModelParams:
    """Fit the encoder and scorer on labeled train edges by mini-batch BCE.

    Validation loss is evaluated after every epoch and the best-validation
    snapshot is returned (final parameters when ``val`` is empty).
    Deterministic given (inputs, config, seed).
    """
    config = config or ModelConfig()
    if subgraph.features is None:
        raise ValueError("subgraph has no features; call ensure_features first")
    train_endpoints, train_labels = _as_endpoint_arrays(train)
    if train_labels.size == 0:
        raise ValueError("training set is empty")
    if len(np.unique(train_labels)) < 2:
        raise ValueError("training set must contain both labels")
    a_hat = normalized_adjacency(subgraph, config.aggregation)
    features = subgraph.features
    rng = derive_rng(seed, "train-link-predictor")
    params = _init_params(rng, features.shape[1], config)
    arrays = params.param_arrays()
    optimizer = MomentumSGD(arrays, config.learning_rate, config.momentum)
    val_endpoints, val_labels = _as_endpoint_arrays(val) if len(val) else (None, None)
    best_loss = np.inf
    best = None
    for _ in range(config.epochs):
        order = rng.permutation(train_labels.size)
        for start in range(0, train_labels.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grads = _bce_loss_and_grads(
                arrays, a_hat, features, train_endpoints[batch], train_labels[batch]
            )
            optimizer.step(arrays, grads)
        if val_labels is not None:
            val_loss, _ = _bce_loss_and_grads(
                arrays, a_hat, features, val_endpoints, val_labels, want_grads=False
            )
            if val_loss < best_loss:
                best_loss = val_loss
                best = [a.copy() for a in arrays]
    if best is None:
        best = [a.copy() for a in arrays]
    n_enc = config.num_layers
    for a in best:
        a.flags.writeable = False
    return ModelParams(best[:n_enc], best[n_enc], best[n_enc + 1], best[n_enc + 2], best[n_enc + 3], config)


def gradient_check(
    params: ModelParams,
    batch,
    graph: Graph,
    step: float,
    n_coords: int = 100,
    seed: int = 0,
) -> float:
    """Max relative error between analytic BCE gradients and central differences."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if graph.features is None:
        raise ValueError("graph has no features; call ensure_features first")
    endpoints, labels = _as_endpoint_arrays(batch)
    a_hat = normalized_adjacency(graph, params.config.aggregation)
    arrays = [a.copy() for a in params.param_arrays()]
    _, grads = _bce_loss_and_grads(arrays, a_hat, graph.features, endpoints, labels)

    def loss_fn():
        return _bce_loss_and_grads(
            arrays, a_hat, graph.features, endpoints, labels, want_grads=False
        )[0]

    rng = derive_rng(seed, "gradient-check")
    return max_relative_gradient_error(arrays, loss_fn, grads, step, n_coords, rng)
