from dataclasses import replace

import numpy as np
import pytest

from linkconformal.graph import Graph, ensure_features, generate_powerlaw_graph, negative_sample, split_edges, training_subgraph
from linkconformal.model import (
    ModelConfig,
    ModelParams,
    _workspace,
    edge_embeddings,
    encode_nodes,
    gradient_check,
    normalized_adjacency,
    structural_features,
    train_link_predictor,
)

SMALL = ModelConfig(hidden_dim=12, num_layers=2, epochs=30, learning_rate=0.05,
                    batch_size=256, scorer_hidden_dim=10)


def toy_setup(seed=0, n=120):
    g = generate_powerlaw_graph(n, 2.5, 1, seed=seed)
    g = ensure_features(g, 6, seed=seed + 1)
    pos = g.edge_array()
    neg = negative_sample(g, len(pos), seed=seed + 2)
    split = split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=seed + 3)
    return training_subgraph(g, split), split


def random_params(rng, feature_dim=6, config=SMALL):
    from linkconformal.model import _init_params
    return _init_params(rng, feature_dim, config)


class TestEncodeNodes:
    def test_edgeless_rows_depend_on_own_features(self):
        rng = np.random.default_rng(0)
        params = random_params(rng)
        feats = rng.standard_normal((5, 6))
        g = Graph(5, frozenset(), features=feats)
        h = encode_nodes(params, g)
        # zeroing one node's features only changes that node's row
        feats2 = feats.copy()
        feats2[2] = 0.0
        h2 = encode_nodes(params, Graph(5, frozenset(), features=feats2))
        assert np.allclose(np.delete(h, 2, axis=0), np.delete(h2, 2, axis=0))
        assert not np.allclose(h[2], h2[2])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        params = random_params(rng)
        g, _ = toy_setup(seed=5)
        perm = rng.permutation(g.num_nodes)
        permuted = Graph(g.num_nodes, perm[g.edge_array()], features=g.features[np.argsort(perm)])
        h = encode_nodes(params, g)
        hp = encode_nodes(params, permuted)
        assert np.allclose(hp[perm], h, atol=1e-9)

    def test_zero_features_zero_embeddings(self):
        rng = np.random.default_rng(2)
        params = random_params(rng)
        g = Graph(4, frozenset({(0, 1), (2, 3)}), features=np.zeros((4, 6)))
        assert np.allclose(encode_nodes(params, g), 0.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        params = random_params(rng)
        g = Graph(3, frozenset({(0, 1)}), features=np.ones((3, 9)))
        with pytest.raises(ValueError):
            encode_nodes(params, g)

    def test_requires_features(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            encode_nodes(random_params(rng), Graph(3, frozenset({(0, 1)})))


class TestNormalizedAdjacency:
    def test_mean_rows_sum_to_one(self):
        g = Graph(4, frozenset({(0, 1), (1, 2)}))
        a = normalized_adjacency(g, "mean-neighbor")
        assert np.allclose(np.asarray(a.sum(axis=1)).ravel(), 1.0)

    def test_gcn_symmetric(self):
        g = Graph(5, frozenset({(0, 1), (1, 2), (3, 4)}))
        a = normalized_adjacency(g, "gcn-normalized").toarray()
        assert np.allclose(a, a.T)


def reference_normalized_adjacency(graph, aggregation):
    # The diagonal-product build the one-pass build replaced, kept verbatim.
    import scipy.sparse as sp

    n = graph.num_nodes
    edges = graph.edge_array()
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if aggregation == "gcn-normalized":
        scale = 1.0 / np.sqrt(degrees)
        return sp.diags(scale) @ adj @ sp.diags(scale)
    return sp.diags(1.0 / degrees) @ adj


ORACLE_GRAPHS = {
    **{f"powerlaw-{seed}": (lambda seed=seed: generate_powerlaw_graph(500, 2.3, 1, seed)) for seed in range(5)},
    "isolated-nodes": lambda: Graph(9, [(0, 1), (2, 5), (5, 7), (1, 5)]),
    "edgeless": lambda: Graph(4),
}


class TestNormalizedAdjacencyMatchesOracle:
    @pytest.mark.parametrize("aggregation", ["gcn-normalized", "mean-neighbor"])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_same_arrays_and_products(self, name, aggregation):
        graph = ORACLE_GRAPHS[name]()
        got = normalized_adjacency(graph, aggregation)
        want = reference_normalized_adjacency(graph, aggregation)
        assert type(got) is type(want)
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        x = np.random.default_rng(75).standard_normal((graph.num_nodes, 7))
        assert (got @ x).tobytes() == (want @ x).tobytes()
        assert (got.T @ x).tobytes() == (want.T @ x).tobytes()


class TestEdgeEmbedding:
    def test_out_of_range_endpoint_rejected(self):
        for bad in (-1, 2):
            with pytest.raises(IndexError, match=f"^edge endpoint {bad} is out of range for num_nodes=2$"):
                edge_embeddings(np.ones((2, 4)), [[0, 1], [1, bad]])

    def test_ones(self):
        assert np.allclose(edge_embeddings(np.ones((2, 4)), [[0, 1]]), 1.0)

    def test_zero(self):
        h = np.stack([np.zeros(4), np.ones(4)])
        assert np.allclose(edge_embeddings(h, [[0, 1]]), 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        z = edge_embeddings(rng.standard_normal((2, 8)), [[0, 1], [1, 0]])
        assert np.array_equal(z[0], z[1])


# The scorer's forward pass as it was before the scorer ran through the
# shared dense stack, kept verbatim: the oracles below do not call the code
# they check.
def _scorer_logits(params_arrays, z, pre=None, hidden=None):
    w1, b1, w2, b2 = params_arrays
    pre = np.matmul(z, w1, out=pre)
    pre += b1
    hidden = np.maximum(pre, 0.0, out=hidden)
    return hidden @ w2 + b2[0], pre, hidden


def edge_scores(params, z):
    """Sigmoid of the scorer's logits, one score per row of ``z``."""
    scorer = (params.scorer_w1, params.scorer_b1, params.scorer_w2, params.scorer_b2)
    logits = _scorer_logits(scorer, np.atleast_2d(z))[0]
    return 1.0 / (1.0 + np.exp(-logits))


class TestEdgeScore:
    def test_zero_weights_give_half(self):
        rng = np.random.default_rng(6)
        params = random_params(rng)
        params.scorer_w1[:] = 0.0
        params.scorer_w2[:] = 0.0
        assert edge_scores(params, np.ones(12))[0] == pytest.approx(0.5)

    def test_monotone_in_logit(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        z = rng.standard_normal(12)
        base = edge_scores(params, z)[0]
        bumped = replace(params, scorer_b2=params.scorer_b2 + 1.0)
        assert edge_scores(bumped, z)[0] > base

    def test_endpoint_order_invariance(self):
        rng = np.random.default_rng(9)
        params = random_params(rng)
        h = rng.standard_normal((2, 12))
        forward = edge_scores(params, edge_embeddings(h, [[0, 1]]))
        backward = edge_scores(params, edge_embeddings(h, [[1, 0]]))
        assert forward[0] == backward[0]


class TestTraining:
    def test_loss_decreases(self):
        sub, split = toy_setup(seed=11, n=200)
        from linkconformal.model import _as_endpoint_arrays, _bce_loss_and_grads, _init_params
        from linkconformal.seeding import derive_rng
        cfg = ModelConfig(hidden_dim=12, num_layers=2, epochs=50, learning_rate=0.05,
                          batch_size=512, scorer_hidden_dim=10)
        endpoints, labels = _as_endpoint_arrays(split.train)
        a_hat = normalized_adjacency(sub, cfg.aggregation)
        init = _init_params(derive_rng(3, "train-link-predictor"), 6, cfg)
        loss0, _ = _bce_loss_and_grads(init.param_arrays(), a_hat, sub.features, endpoints, labels, want_grads=False)
        params = train_link_predictor(sub, split.train, split.val, cfg, seed=3)
        loss1, _ = _bce_loss_and_grads(params.param_arrays(), a_hat, sub.features, endpoints, labels, want_grads=False)
        assert loss1 < loss0

    def test_zero_learning_rate_keeps_init(self):
        sub, split = toy_setup(seed=12)
        frozen = ModelConfig(hidden_dim=12, num_layers=2, epochs=5, learning_rate=0.0,
                             batch_size=256, scorer_hidden_dim=10)
        init_only = ModelConfig(hidden_dim=12, num_layers=2, epochs=0, learning_rate=0.5,
                                batch_size=256, scorer_hidden_dim=10)
        a = train_link_predictor(sub, split.train, split.val, frozen, seed=4)
        b = train_link_predictor(sub, split.train, split.val, init_only, seed=4)
        for x, y in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(x, y)

    def test_bitwise_determinism(self):
        sub, split = toy_setup(seed=13)
        a = train_link_predictor(sub, split.train, split.val, SMALL, seed=5)
        b = train_link_predictor(sub, split.train, split.val, SMALL, seed=5)
        for x, y in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(x, y)

    def test_single_label_rejected(self):
        sub, split = toy_setup(seed=14)
        only_pos = split.train[split.train[:, 2] == 1]
        with pytest.raises(ValueError):
            train_link_predictor(sub, only_pos, split.val, SMALL, seed=0)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_zero_one_rejected(self, bad):
        sub, split = toy_setup(seed=16)
        train = split.train.copy()
        train[3, 2] = bad
        with pytest.raises(ValueError, match=f"^label must be 0 or 1, got {bad}$"):
            train_link_predictor(sub, train, split.val, SMALL, seed=0)
        with pytest.raises(ValueError, match=f"^label must be 0 or 1, got {bad}$"):
            gradient_check(random_params(np.random.default_rng(17)), train, sub, step=1e-6)

    def test_empty_train_rejected(self):
        sub, _ = toy_setup(seed=15)
        with pytest.raises(ValueError):
            train_link_predictor(sub, (), (), SMALL, seed=0)


class TestGradientCheck:
    def test_small_error(self):
        sub, split = toy_setup(seed=16)
        params = train_link_predictor(sub, split.train, split.val, SMALL, seed=6)
        err = gradient_check(params, split.train[:48], sub, step=1e-6, n_coords=80, seed=0)
        assert err < 1e-4

    def test_zero_gradient_guarded(self):
        # all-zero scorer output weights make most gradients vanish; the
        # absolute floor keeps the relative error finite
        sub, split = toy_setup(seed=17)
        trained = train_link_predictor(sub, split.train, split.val, SMALL, seed=7)
        zeros = [np.zeros_like(arr) for arr in trained.param_arrays()]
        params = ModelParams(zeros[:SMALL.num_layers], *zeros[SMALL.num_layers:], SMALL)
        err = gradient_check(params, split.train[:16], sub, step=1e-6, n_coords=40, seed=1)
        assert np.isfinite(err)

    def test_step_validation(self):
        sub, split = toy_setup(seed=18)
        params = train_link_predictor(sub, split.train, split.val, SMALL, seed=8)
        with pytest.raises(ValueError):
            gradient_check(params, split.train[:8], sub, step=0.0)


def test_structural_features_correlate_with_structure():
    g = generate_powerlaw_graph(300, 2.5, 2, seed=30)
    feats = structural_features(g, 16, seed=31)
    assert feats.shape == (300, 16)
    edge_arr = g.edge_array()
    cos_edges = np.mean(np.sum(feats[edge_arr[:, 0]] * feats[edge_arr[:, 1]], axis=1))
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 300, size=(3000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    cos_rand = np.mean(np.sum(feats[pairs[:, 0]] * feats[pairs[:, 1]], axis=1))
    assert cos_edges > cos_rand


def test_mean_neighbor_variant_trains():
    g = generate_powerlaw_graph(120, 2.5, 1, seed=40)
    g = ensure_features(g, 6, seed=41)
    pos = g.edge_array()
    neg = negative_sample(g, len(pos), seed=42)
    split = split_edges(pos, neg, (0.5, 0.1, 0.2, 0.2), seed=43)
    sub = training_subgraph(g, split)
    cfg = ModelConfig(hidden_dim=8, num_layers=2, aggregation="mean-neighbor", epochs=10,
                      learning_rate=0.05, batch_size=256, scorer_hidden_dim=8)
    params = train_link_predictor(sub, split.train, split.val, cfg, seed=44)
    h = encode_nodes(params, sub)
    assert np.all(np.isfinite(h))


# --- exact-equality oracles for the training kernels -------------------------
# The encoder pass, BCE loss/gradients and training loop as they were before
# the scatter became a sparse product and the validation pass started feeding
# the next step, and the per-array optimizer and gradient-check loop as they
# were before parameters became views of one flat vector, kept verbatim. The
# kernels now must match them bit for bit.

from linkconformal._nn import _GRAD_FLOOR
from linkconformal.model import _as_endpoint_arrays, _bce_loss_and_grads, _init_params
from linkconformal.seeding import derive_rng


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


def reference_max_relative_gradient_error(arrays, loss_fn, analytic_grads, step, n_coords, rng):
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


def reference_encoder_forward(a_hat, features, weights):
    # Returns (propagated inputs S_l, pre-activations Z_l, activations A_l).
    activations = [features]
    propagated = []
    preacts = []
    h = features
    last = len(weights) - 1
    for l, w in enumerate(weights):
        s = a_hat @ h
        z = s @ w
        h = z if l == last else np.maximum(z, 0.0)
        propagated.append(s)
        preacts.append(z)
        activations.append(h)
    return propagated, preacts, activations


def reference_bce_loss_and_grads(arrays, a_hat, features, endpoints, labels, want_grads=True):
    n_enc = len(arrays) - 4
    enc_weights = arrays[:n_enc]
    scorer = arrays[n_enc:]
    propagated, preacts, activations = reference_encoder_forward(a_hat, features, enc_weights)
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


def reference_train_arrays(subgraph, train, val, config, seed):
    train_endpoints, train_labels = _as_endpoint_arrays(train)
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
            _, grads = reference_bce_loss_and_grads(
                arrays, a_hat, features, train_endpoints[batch], train_labels[batch]
            )
            optimizer.step(arrays, grads)
        if val_labels is not None:
            val_loss, _ = reference_bce_loss_and_grads(
                arrays, a_hat, features, val_endpoints, val_labels, want_grads=False
            )
            if val_loss < best_loss:
                best_loss = val_loss
                best = [a.copy() for a in arrays]
    if best is None:
        best = [a.copy() for a in arrays]
    return best


class TestKernelsMatchOracle:
    @pytest.mark.parametrize("aggregation", ["gcn-normalized", "mean-neighbor"])
    def test_gradients_with_repeated_endpoints(self, aggregation):
        sub, split = toy_setup(seed=50)
        config = ModelConfig(hidden_dim=12, num_layers=3, aggregation=aggregation, scorer_hidden_dim=10)
        arrays = _init_params(np.random.default_rng(51), 6, config).param_arrays()
        a_hat = normalized_adjacency(sub, aggregation)
        endpoints, labels = _as_endpoint_arrays(split.train)
        # every row twice, a node on both ends of one row, and a hub on many rows
        endpoints = np.concatenate([endpoints, endpoints, [[3, 3]], np.column_stack([np.zeros(20, int), np.arange(20)])])
        labels = np.concatenate([labels, labels, [1.0], np.tile([0.0, 1.0], 10)])
        assert np.bincount(endpoints.ravel()).max() > 20
        _, grads = _bce_loss_and_grads(arrays, a_hat, sub.features, endpoints, labels)
        _, expected = reference_bce_loss_and_grads(arrays, a_hat, sub.features, endpoints, labels)
        assert len(grads) == len(expected)
        for g, e in zip(grads, expected):
            assert np.array_equal(g, e)
        loss, none = _bce_loss_and_grads(arrays, a_hat, sub.features, endpoints, labels, want_grads=False)
        assert none is None
        assert loss == reference_bce_loss_and_grads(arrays, a_hat, sub.features, endpoints, labels, False)[0]

    @pytest.mark.parametrize("batch_size, aggregation, with_val, num_layers", [
        # one batch per epoch
        pytest.param(4096, "gcn-normalized", True, 2, id="4096-gcn-normalized-True"),
        # several batches, a ragged last one
        pytest.param(16, "gcn-normalized", True, 2, id="16-gcn-normalized-True"),
        pytest.param(16, "mean-neighbor", True, 2, id="16-mean-neighbor-True"),
        # empty val: final parameters
        pytest.param(16, "gcn-normalized", False, 2, id="16-gcn-normalized-False"),
        # two hidden encoder layers: two ReLU masks in the backward pass
        pytest.param(16, "mean-neighbor", True, 3, id="16-mean-neighbor-True-3-layers"),
    ])
    def test_trained_parameters(self, batch_size, aggregation, with_val, num_layers):
        sub, split = toy_setup(seed=52)
        config = ModelConfig(hidden_dim=12, num_layers=num_layers, aggregation=aggregation, epochs=12,
                             learning_rate=0.05, batch_size=batch_size, scorer_hidden_dim=10)
        val = split.val if with_val else split.val[:0]
        assert split.train.shape[0] % 16 != 0
        params = train_link_predictor(sub, split.train, val, config, seed=53)
        expected = reference_train_arrays(sub, split.train, val, config, seed=53)
        for got, want in zip(params.param_arrays(), expected):
            assert np.array_equal(got, want)


class TestGradientCheckMatchesOracle:
    # 40 of the 357 coordinates, then every one of them.
    @pytest.mark.parametrize("n_coords", [40, 1000])
    def test_same_error_as_the_per_array_check(self, n_coords):
        sub, split = toy_setup(seed=75)
        params = random_params(np.random.default_rng(76))
        batch = split.train[:24]
        endpoints, labels = _as_endpoint_arrays(batch)
        a_hat = normalized_adjacency(sub, params.config.aggregation)
        arrays = [a.copy() for a in params.param_arrays()]
        _, grads = _bce_loss_and_grads(arrays, a_hat, sub.features, endpoints, labels)

        def loss_fn():
            return _bce_loss_and_grads(arrays, a_hat, sub.features, endpoints, labels, want_grads=False)[0]

        expected = reference_max_relative_gradient_error(arrays, loss_fn, grads, 1e-6, n_coords,
                                                         derive_rng(3, "gradient-check"))
        assert sum(a.size for a in arrays) == 357
        assert expected > 0
        assert gradient_check(params, batch, sub, step=1e-6, n_coords=n_coords, seed=3) == expected


class TestWorkspace:
    def test_gradients_do_not_alias_the_workspace(self):
        sub, split = toy_setup(seed=54)
        config = ModelConfig(hidden_dim=12, num_layers=2, scorer_hidden_dim=10)
        arrays = _init_params(np.random.default_rng(55), 6, config).param_arrays()
        a_hat = normalized_adjacency(sub, config.aggregation)
        endpoints, labels = _as_endpoint_arrays(split.train)
        work = _workspace(labels.size, 12, 10)
        _, grads = _bce_loss_and_grads(arrays, a_hat, sub.features, endpoints, labels, work=work)
        assert not any(np.shares_memory(g, buf) for g in grads for buf in work)
        kept = [g.copy() for g in grads]
        # a smaller, ragged batch reuses the same buffers
        rows = labels.size // 3 + 1
        _, again = _bce_loss_and_grads(arrays, a_hat, sub.features, endpoints[:rows], labels[:rows], work=work)
        _, fresh = _bce_loss_and_grads(arrays, a_hat, sub.features, endpoints[:rows], labels[:rows])
        for g, k in zip(grads, kept):
            assert np.array_equal(g, k)
        for g, f in zip(again, fresh):
            assert np.array_equal(g, f)

    def test_step_allocates_no_batch_sized_array(self, traced_peak):
        # One step's transient traced peak stays below half of one (batch,
        # hidden) float64 array: about 0.42 of one here. Fresh per-row
        # temporaries took about eleven, and np.take's default "raise" mode,
        # which copies through a buffer of its output's size, took 1.1.
        rng = np.random.default_rng(56)
        graph = ensure_features(generate_powerlaw_graph(50, 2.5, 1, seed=57), 6, seed=58)
        config = ModelConfig(hidden_dim=32, num_layers=2)
        arrays = _init_params(rng, 6, config).param_arrays()
        a_hat = normalized_adjacency(graph, config.aggregation)
        rows = 4000
        endpoints = rng.integers(0, 50, size=(rows, 2))
        labels = (rng.random(rows) < 0.5).astype(np.float64)
        work = _workspace(rows, 32, 32)
        _, peak = traced_peak(lambda: _bce_loss_and_grads(arrays, a_hat, graph.features, endpoints, labels, work=work))
        assert peak < rows * 32 * 8 // 2


class TestTrainingMemory:
    def test_one_epoch_transient_peak(self, traced_peak):
        # One epoch of 1,024-row batches on a 3,000-node graph. Training
        # holds a workspace of four row-sized arrays and a mask. A step adds
        # the forward pass (one mask per hidden layer, the last layer's input
        # until its weight gradient and its output until the endpoint
        # gathers) and at most two node-sized arrays in the backward pass;
        # it re-forms the propagated features a_hat @ X last, and the next
        # forward pass drops them once its first layer's output exists. Its
        # traced peak here is 2.7 node-sized plus 4.6 row-sized float64
        # arrays. Holding a_hat @ X for the whole call peaks at 3.7
        # node-sized ones, a step that holds its forward pass through the
        # backward pass at 5.6, and a kernel that keeps float
        # pre-activations, nine row buffers and np.take's copies at 7.5
        # node-sized plus 9.6 row-sized.
        g = ensure_features(generate_powerlaw_graph(3000, 2.5, 1, seed=60), 16, seed=61)
        pos = g.edge_array()
        split = split_edges(pos, negative_sample(g, len(pos), seed=62), (0.5, 0.1, 0.2, 0.2), seed=63)
        sub = training_subgraph(g, split)
        config = ModelConfig(hidden_dim=16, num_layers=2, epochs=1, learning_rate=0.1,
                             batch_size=1024, scorer_hidden_dim=16)
        train_link_predictor(sub, split.train, split.val, config, seed=64)
        _, peak = traced_peak(lambda: train_link_predictor(sub, split.train, split.val, config, seed=64))
        assert split.train.shape[0] > 2 * 1024
        node_array, row_array = 3000 * 16 * 8, 1024 * 16 * 8
        assert peak < 3 * node_array + 6 * row_array

    def test_edge_embeddings_peak_is_one_output(self):
        # One gather-and-multiply over all rows gives each row's product exactly.
        rng = np.random.default_rng(65)
        h = rng.standard_normal((500, 16))
        endpoints = rng.integers(0, 500, size=(49_229, 2))
        z = edge_embeddings(h, endpoints)
        assert np.array_equal(z, h[endpoints[:, 0]] * h[endpoints[:, 1]])


@pytest.fixture
def kernel_calls(monkeypatch):
    """The calls made to the training step's kernel while a test runs."""
    import linkconformal.model as model

    calls = []
    kernel = model._bce_loss_and_grads

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(model, "_bce_loss_and_grads", counted)
    return calls


class TestEndpointRange:
    # -1 goes into a u column, num_nodes into a v column.
    @pytest.mark.parametrize("which", ["train", "val"])
    @pytest.mark.parametrize("too_low", [True, False], ids=["minus-one", "num-nodes"])
    def test_training_rejects_before_any_step(self, which, too_low, kernel_calls):
        sub, split = toy_setup(seed=70)
        node, column = (-1, 0) if too_low else (sub.num_nodes, 1)
        rows = {"train": split.train.copy(), "val": split.val.copy()}
        rows[which][-1, column] = node
        message = f"^{which} endpoint {node} is out of range for num_nodes={sub.num_nodes}$"
        with pytest.raises(IndexError, match=message):
            train_link_predictor(sub, rows["train"], rows["val"], SMALL, seed=0)
        assert kernel_calls == []

    @pytest.mark.parametrize("too_low", [True, False], ids=["minus-one", "num-nodes"])
    def test_gradient_check_rejects_its_batch(self, too_low, kernel_calls):
        sub, split = toy_setup(seed=71)
        params = random_params(np.random.default_rng(72))
        node, column = (-1, 0) if too_low else (sub.num_nodes, 1)
        batch = split.train[:8].copy()
        batch[3, column] = node
        message = f"^batch endpoint {node} is out of range for num_nodes={sub.num_nodes}$"
        with pytest.raises(IndexError, match=message):
            gradient_check(params, batch, sub, step=1e-6)
        assert kernel_calls == []

    def test_in_range_endpoints_reach_the_kernel(self, kernel_calls):
        sub, split = toy_setup(seed=73)
        params = random_params(np.random.default_rng(74))
        gradient_check(params, split.train[:8], sub, step=1e-6, n_coords=2)
        assert len(kernel_calls) == 5
