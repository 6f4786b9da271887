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

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ._nn import check_training_settings, flat_views, init_weight, max_relative_gradient_error, momentum_step
from .graph import Graph, as_labeled_rows
from .seeding import derive_rng

AGGREGATIONS = ("gcn-normalized", "mean-neighbor")


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
        check_training_settings(self)
        if self.scorer_hidden_dim is not None and self.scorer_hidden_dim < 1:
            raise ValueError(f"scorer_hidden_dim must be >= 1, got {self.scorer_hidden_dim}")

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


def normalized_adjacency(graph: Graph, aggregation: str) -> sp.csr_matrix:
    """Propagation operator over A + I.

    gcn-normalized: D^-1/2 (A + I) D^-1/2; mean-neighbor: D^-1 (A + I),
    where D are the degrees of A + I (never zero). Each row's entries are
    in ascending column order for gcn-normalized and descending for
    mean-neighbor: the orders in which the diagonal products
    ``diags(s) @ (A + I) @ diags(s)`` and ``diags(1/d) @ (A + I)`` leave
    them, so that products with the operator sum in the same order.
    """
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    n = graph.num_nodes
    edges = graph.edge_array()
    nodes = np.arange(n)
    # Below the diagonal, on it, then above it, each part in lexicographic
    # order: COO -> CSR keeps each row's entries in input order, so every
    # row comes out with ascending columns and no sort runs.
    rows = np.concatenate([edges[:, 1], nodes, edges[:, 0]])
    cols = np.concatenate([edges[:, 0], nodes, edges[:, 1]])
    adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    indptr, indices = adj.indptr, adj.indices
    degrees = np.diff(indptr)
    row = np.repeat(nodes, degrees)
    if aggregation == "gcn-normalized":
        scale = 1.0 / np.sqrt(degrees)
        data = scale[row] * scale[indices]
    else:
        data = (1.0 / degrees)[row]
        # Each row's entries reversed: entry p of the row [a, b) moves to a + b - 1 - p.
        indices = indices[(indptr[:-1] + indptr[1:] - 1)[row] - np.arange(row.size)]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


# Smoothing rounds of ``structural_features``.
_STRUCTURAL_ROUNDS = 2


def structural_features(graph: Graph, dim: int, seed: int) -> np.ndarray:
    """Node features correlated with the graph's structure.

    Seeded standard-normal vectors smoothed twice over the mean
    closed-neighborhood operator, then row-normalized. Nodes close in the
    graph get similar features, which makes the graph's own edges
    feature-predictable; edges added between random nodes afterwards (for
    example injected cliques) are not. Useful for building semi-synthetic
    datasets whose features behave like a real dataset's.
    """
    rng = derive_rng(seed, "structural-features")
    x = rng.standard_normal((graph.num_nodes, dim))
    a_hat = normalized_adjacency(graph, "mean-neighbor")
    for _ in range(_STRUCTURAL_ROUNDS):
        x = a_hat @ x
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def _encoder_forward(a_hat, features, weights, carry=None):
    # Returns the list [layer inputs S_l, one boolean mask Z_l > 0 per hidden
    # layer, output H of the last layer]; the caller owns it, and a gradient
    # step of ``_bce_loss_and_grads`` consumes it. S_0 = a_hat @ features does
    # not depend on the weights: the pass drops it once Z_0 = S_0 @ W_0 exists
    # (its slot holds None) and the gradient step re-forms it for W_0's
    # gradient. ``carry`` is a list that may hold that re-formed S_0; the
    # pass takes it out, so that no caller keeps it alive beside Z_0 and S_1.
    # Each hidden layer's pre-activation Z_l is ReLU'd in place and freed once
    # S_{l+1} = a_hat @ relu(Z_l) is formed, so that it never coexists with
    # the next layer's output; the backward pass needs only its sign, which
    # the mask keeps at one byte per entry.
    propagated = [carry.pop() if carry else a_hat @ features]
    masks = []
    last = len(weights) - 1
    for l, w in enumerate(weights):
        z = propagated[l] @ w
        if l == 0:
            propagated[0] = None
        if l == last:
            return [propagated, masks, z]
        masks.append(z > 0)
        propagated.append(a_hat @ np.maximum(z, 0.0, out=z))
        del z


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
    return _encoder_forward(a_hat, graph.features, params.encoder_weights)[2]


# Rows per block of ``edge_embeddings``: its temporaries are one block's
# size, not the output's.
_EMBED_BLOCK_ROWS = 8192


def _edge_product(node_embeddings, u, v, out, spare):
    """``out`` = node_embeddings[u] * node_embeddings[v] row by row, with ``spare``
    a buffer of out's shape; the callers range-check u and v, so that the
    gathers take "wrap" mode, which skips the copy that "raise" makes."""
    np.take(node_embeddings, u, axis=0, out=out, mode="wrap")
    np.take(node_embeddings, v, axis=0, out=spare, mode="wrap")
    return np.multiply(out, spare, out=out)


def edge_embeddings(node_embeddings: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """Batch edge embeddings for an (E, 2) endpoint array.

    An endpoint outside [0, len(node_embeddings)) raises IndexError.
    """
    endpoints = np.asarray(endpoints, dtype=np.int64)
    node_embeddings = np.ascontiguousarray(node_embeddings)  # np.take copies a strided source per call
    _check_endpoints(endpoints, len(node_embeddings), "edge")
    out = np.empty((len(endpoints), node_embeddings.shape[1]), dtype=node_embeddings.dtype)
    spare = np.empty((min(len(endpoints), _EMBED_BLOCK_ROWS), node_embeddings.shape[1]), dtype=out.dtype)
    for start in range(0, len(endpoints), _EMBED_BLOCK_ROWS):
        rows = endpoints[start : start + _EMBED_BLOCK_ROWS]
        _edge_product(node_embeddings, rows[:, 0], rows[:, 1], out[start : start + _EMBED_BLOCK_ROWS],
                      spare[: len(rows)])
    return out


def _scorer_logits(params_arrays, z, pre=None, hidden=None):
    w1, b1, w2, b2 = params_arrays
    pre = np.matmul(z, w1, out=pre)
    pre += b1
    hidden = np.maximum(pre, 0.0, out=hidden)
    return hidden @ w2 + b2[0], pre, hidden


def _scatter_rows(num_rows, index, values):
    """``out[i]`` = sum of the rows ``values[k]`` with ``index[k] == i``.

    One product with a (num_rows, k) 0/1 incidence matrix. CSR keeps each
    row's entries in input order and its product adds them to 0 in that
    order, so each sum is bit-identical to a loop that adds ``values[k]``
    to ``out[index[k]]`` for k = 0, 1, ...
    """
    k = index.size
    incidence = sp.coo_matrix((np.ones(k), (index, np.arange(k))), shape=(num_rows, k)).tocsr()
    return incidence @ values


def _workspace(rows, width, hidden):
    """Buffers for ``_bce_loss_and_grads`` on up to ``rows`` rows.

    ``scatter`` (2 rows x width) first holds the gathered endpoint rows zv
    and zu, then the scatter values d_z * zv and d_z * zu, written over them
    in place. ``z`` holds the edge embeddings, then d_z. ``hidden`` holds the
    scorer's pre-activation, ReLU'd in place, then d_pre. ``positive`` is the
    mask hidden > 0. One workspace per training run keeps its steps from
    allocating arrays of the batch's size, which glibc maps and faults in
    afresh each step whenever its dynamic mmap threshold sits below them.
    """
    return (np.empty((2 * rows, width)), np.empty((rows, width)), np.empty((rows, hidden)),
            np.empty((rows, hidden), dtype=bool))


def _bce_loss_and_grads(arrays, a_hat, features, endpoints, labels, want_grads=True, forward=None, work=None,
                        carry=None, grads=None):
    # Returns (loss, None) when not want_grads, else (None, grads): arrays shaped like
    # ``arrays`` that the call overwrites (fresh when not given). ``work`` is a
    # ``_workspace`` for labels.size rows (fresh when not given); no gradient is
    # written into it. ``forward`` is the encoder pass at ``arrays`` when the caller has it.
    # A loss-only call leaves it intact for a later step. A gradient step consumes
    # it: it empties the list, drops H after the endpoint gathers and each S_l
    # (l >= 1) after that layer's weight gradient, so that the backward pass's
    # node-sized temporaries never coexist with them. It re-forms S_0 last, once
    # only d is left, and appends it to the list ``carry`` when given, for the
    # next encoder pass.
    n_enc = len(arrays) - 4
    enc_weights = arrays[:n_enc]
    scorer = arrays[n_enc:]
    w1, b1, w2, b2 = scorer
    if forward is None:
        forward = _encoder_forward(a_hat, features, enc_weights)
    propagated, masks, h = forward
    if want_grads:
        forward.clear()
    rows = labels.size
    work = work or _workspace(rows, h.shape[1], w1.shape[1])
    scatter = work[0][: 2 * rows]
    z, hidden, positive = (buf[:rows] for buf in work[1:])
    # zv fills the first half of scatter and zu the second, so that the
    # scatter values d_z * zv (for index[:rows]) and d_z * zu form in place.
    # "wrap" skips the copy that "raise" makes; callers range-check endpoints.
    index = endpoints.T.ravel()
    zv, zu = scatter[:rows], scatter[rows:]
    np.take(h, index[rows:], axis=0, out=zv, mode="wrap")
    np.take(h, index[:rows], axis=0, out=zu, mode="wrap")
    del h
    np.multiply(zu, zv, out=z)
    logits = _scorer_logits(scorer, z, hidden, hidden)[0]
    if not want_grads:
        # BCE from logits: softplus(logit) - y * logit, numerically stable.
        return float(np.mean(np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits))) - labels * logits)), None
    if grads is None:
        _, grads = flat_views(arrays)
    enc_grads, (d_w1, d_b1, d_w2, d_b2) = grads[:n_enc], grads[n_enc:]
    s = 1.0 / (1.0 + np.exp(-logits))
    dlogit = (s - labels) / rows
    # np.add.reduce is the ufunc that np.sum calls, without its Python-level dispatch.
    np.add.reduce(dlogit, keepdims=True, out=d_b2)
    np.matmul(hidden.T, dlogit, out=d_w2)
    np.greater(hidden, 0, out=positive)
    d_pre = np.multiply(dlogit[:, None], w2, out=hidden)
    d_pre *= positive
    np.matmul(z.T, d_pre, out=d_w1)
    np.add.reduce(d_pre, axis=0, out=d_b1)
    d_z = np.matmul(d_pre, w1.T, out=z)
    zv *= d_z
    zu *= d_z
    d = _scatter_rows(a_hat.shape[0], index, scatter)
    for l in range(n_enc - 1, 0, -1):
        np.matmul(propagated[l].T, d, out=enc_grads[l])
        propagated[l] = None
        # One product per statement, so that each node-sized temporary
        # is freed before the next one is allocated.
        d = d @ enc_weights[l].T
        d = a_hat.T @ d
        d *= masks[l - 1]
    s0 = a_hat @ features
    np.matmul(s0.T, d, out=enc_grads[0])
    if carry is not None:
        carry.append(s0)
    return None, grads


def _check_endpoints(endpoints, num_nodes, name):
    """Raise IndexError unless every endpoint lies in [0, num_nodes)."""
    bad = endpoints[(endpoints < 0) | (endpoints >= num_nodes)]
    if bad.size:
        raise IndexError(f"{name} endpoint {bad[0]} is out of range for num_nodes={num_nodes}")


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
    rows = as_labeled_rows(edges)
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
    Deterministic given (inputs, config, seed). An endpoint outside
    [0, num_nodes) raises IndexError before any training step.
    """
    config = config or ModelConfig()
    if subgraph.features is None:
        raise ValueError("subgraph has no features; call ensure_features first")
    train_endpoints, train_labels = _as_endpoint_arrays(train)
    if train_labels.size == 0:
        raise ValueError("training set is empty")
    if len(np.unique(train_labels)) < 2:
        raise ValueError("training set must contain both labels")
    val_endpoints, val_labels = _as_endpoint_arrays(val) if len(val) else (None, None)
    _check_endpoints(train_endpoints, subgraph.num_nodes, "train")
    if val_endpoints is not None:
        _check_endpoints(val_endpoints, subgraph.num_nodes, "val")
    a_hat = normalized_adjacency(subgraph, config.aggregation)
    features = subgraph.features
    rng = derive_rng(seed, "train-link-predictor")
    # Weights, gradients and velocity share one flat layout.
    params, arrays = flat_views(_init_params(rng, features.shape[1], config).param_arrays())
    grad, grads = flat_views(arrays)
    velocity = np.zeros_like(params)
    enc_weights = arrays[: config.num_layers]
    rows = max(min(config.batch_size, train_labels.size), len(val))
    work = _workspace(rows, config.hidden_dim, config.scorer_hidden)
    best_loss = np.inf
    best = None
    # The encoder pass at the current weights, when one was made since the
    # last step: the validation pass after an epoch is the forward pass of
    # the next epoch's first step, which consumes it. ``carry`` hands the S_0
    # that each step re-forms to the next pass, so that a_hat @ features is
    # formed once per step and held only while it is used.
    forward = None
    carry = []
    for _ in range(config.epochs):
        order = rng.permutation(train_labels.size)
        for start in range(0, train_labels.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            if forward is None:
                forward = _encoder_forward(a_hat, features, enc_weights, carry)
            _bce_loss_and_grads(
                arrays, a_hat, features, train_endpoints[batch], train_labels[batch], forward=forward, work=work,
                carry=carry, grads=grads,
            )
            momentum_step(params, velocity, grad, config.learning_rate, config.momentum)
            forward = None
        if val_labels is not None:
            forward = _encoder_forward(a_hat, features, enc_weights, carry)
            val_loss, _ = _bce_loss_and_grads(
                arrays, a_hat, features, val_endpoints, val_labels, want_grads=False, forward=forward, work=work
            )
            if val_loss < best_loss:
                best_loss = val_loss
                best = params.copy()
    best = params if best is None else best
    best.flags.writeable = False  # and so are its views
    _, weights = flat_views(arrays, best)
    n_enc = config.num_layers
    return ModelParams(weights[:n_enc], *weights[n_enc:], config)


def gradient_check(
    params: ModelParams,
    batch,
    graph: Graph,
    step: float,
    n_coords: int = 100,
    seed: int = 0,
) -> float:
    """Max relative error between analytic BCE gradients and central differences."""
    if graph.features is None:
        raise ValueError("graph has no features; call ensure_features first")
    endpoints, labels = _as_endpoint_arrays(batch)
    _check_endpoints(endpoints, graph.num_nodes, "batch")
    a_hat = normalized_adjacency(graph, params.config.aggregation)
    return max_relative_gradient_error(
        params.param_arrays(),
        lambda arrays, want_grads: _bce_loss_and_grads(arrays, a_hat, graph.features, endpoints, labels, want_grads),
        step, n_coords, derive_rng(seed, "gradient-check"),
    )
