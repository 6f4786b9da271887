import numpy as np
import pytest

from linkconformal.graph import Graph, ensure_features, generate_powerlaw_graph, negative_sample, split_edges, training_subgraph
from linkconformal.model import (
    ModelConfig,
    ModelParams,
    edge_embedding,
    edge_score,
    encode_nodes,
    gradient_check,
    normalized_adjacency,
    structural_features,
    train_link_predictor,
)
from linkconformal.quantile import QuantileConfig, QuantileModel, fit_quantile_functions

SMALL = ModelConfig(hidden_dim=12, num_layers=2, epochs=30, learning_rate=0.05,
                    batch_size=256, scorer_hidden_dim=10)


def toy_setup(seed=0, n=120):
    g = generate_powerlaw_graph(n, 2.5, 1, seed=seed)
    g = ensure_features(g, 6, seed=seed + 1)
    pos = sorted(g.edges)
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
        remapped_edges = frozenset((int(perm[u]), int(perm[v])) for u, v in g.edges)
        permuted = Graph(g.num_nodes, remapped_edges, features=g.features[np.argsort(perm)])
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


class TestEdgeEmbedding:
    def test_ones(self):
        assert np.allclose(edge_embedding(np.ones(4), np.ones(4)), 1.0)

    def test_zero(self):
        assert np.allclose(edge_embedding(np.zeros(4), np.ones(4)), 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 8))
        assert np.array_equal(edge_embedding(a, b), edge_embedding(b, a))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            edge_embedding(np.ones(3), np.ones(4))


class TestEdgeScore:
    def test_zero_weights_give_half(self):
        rng = np.random.default_rng(6)
        params = random_params(rng)
        params.scorer_w1[:] = 0.0
        params.scorer_w2[:] = 0.0
        assert edge_score(params, np.ones(12)) == pytest.approx(0.5)

    def test_monotone_in_logit(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        z = rng.standard_normal(12)
        base = edge_score(params, z)
        bumped = params.copy()
        bumped.scorer_b2[0] += 1.0
        assert edge_score(bumped, z) > base

    def test_open_interval(self):
        rng = np.random.default_rng(8)
        params = random_params(rng)
        params.scorer_b2[0] = 1e6
        s = edge_score(params, rng.standard_normal(12))
        assert 0.0 < s < 1.0

    def test_endpoint_order_invariance(self):
        rng = np.random.default_rng(9)
        params = random_params(rng)
        hu, hv = rng.standard_normal((2, 12))
        assert edge_score(params, edge_embedding(hu, hv)) == edge_score(params, edge_embedding(hv, hu))


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
        params = train_link_predictor(sub, split.train, split.val, SMALL, seed=7).copy()
        for arr in params.param_arrays():
            arr.flags.writeable = True
            arr[:] = 0.0
        err = gradient_check(params, split.train[:16], sub, step=1e-6, n_coords=40, seed=1)
        assert np.isfinite(err)

    def test_step_validation(self):
        sub, split = toy_setup(seed=18)
        params = train_link_predictor(sub, split.train, split.val, SMALL, seed=8)
        with pytest.raises(ValueError):
            gradient_check(params, split.train[:8], sub, step=0.0)


class TestParamsIO:
    def test_round_trip(self, tmp_path):
        sub, split = toy_setup(seed=19)
        params = train_link_predictor(sub, split.train, split.val, SMALL, seed=9)
        path = tmp_path / "params.json"
        params.save(path)
        loaded = ModelParams.load(path)
        for a, b in zip(params.param_arrays(), loaded.param_arrays()):
            assert np.array_equal(a, b)
        assert loaded.config == params.config

    def test_version_header_required(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 9}')
        with pytest.raises(ValueError):
            ModelParams.load(path)
        with pytest.raises(ValueError):
            QuantileModel.load(path)
        # a dump of the other network kind is a ValueError, not a KeyError
        rng = np.random.default_rng(20)
        link_path, quantile_path = tmp_path / "link.json", tmp_path / "quantile.json"
        random_params(rng).save(link_path)
        fit_quantile_functions(rng.standard_normal((40, 3)), (rng.random(40) < 0.5).astype(float), 0.1,
                               QuantileConfig(epochs=1, batch_size=16, hidden_dim=4), seed=0).save(quantile_path)
        with pytest.raises(ValueError, match="quantile-regressor"):
            ModelParams.load(quantile_path)
        with pytest.raises(ValueError, match="link-predictor"):
            QuantileModel.load(link_path)


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
    pos = sorted(g.edges)
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
# the next step, kept verbatim. The kernels now must match them bit for bit.

from linkconformal._nn import MomentumSGD, relu
from linkconformal.model import _as_endpoint_arrays, _bce_loss_and_grads, _init_params, _scorer_logits
from linkconformal.seeding import derive_rng


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
        h = z if l == last else relu(z)
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

    @pytest.mark.parametrize("batch_size, aggregation, with_val", [
        (4096, "gcn-normalized", True),  # one batch per epoch
        (16, "gcn-normalized", True),  # several batches, a ragged last one
        (16, "mean-neighbor", True),
        (16, "gcn-normalized", False),  # empty val: final parameters
    ])
    def test_trained_parameters(self, batch_size, aggregation, with_val):
        sub, split = toy_setup(seed=52)
        config = ModelConfig(hidden_dim=12, num_layers=2, aggregation=aggregation, epochs=12,
                             learning_rate=0.05, batch_size=batch_size, scorer_hidden_dim=10)
        val = split.val if with_val else split.val[:0]
        assert split.train.shape[0] % 16 != 0
        params = train_link_predictor(sub, split.train, val, config, seed=53)
        expected = reference_train_arrays(sub, split.train, val, config, seed=53)
        for got, want in zip(params.param_arrays(), expected):
            assert np.array_equal(got, want)
