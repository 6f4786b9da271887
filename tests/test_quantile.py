import numpy as np
import pytest

from linkconformal.quantile import (
    QuantileConfig,
    QuantileModel,
    fit_quantile_functions,
    pinball_loss,
    predict_quantiles,
    quantile_gradient_check,
)

FAST = QuantileConfig(epochs=60, learning_rate=5e-3, batch_size=32, hidden_dim=12)


class TestPinballLoss:
    def test_exact_fit(self):
        assert pinball_loss(0.7, 0.7, 0.3) == 0.0

    def test_under_prediction(self):
        assert pinball_loss(0.0, 1.0, 0.9) == pytest.approx(0.9)

    def test_over_prediction(self):
        assert pinball_loss(1.0, 0.0, 0.9) == pytest.approx(0.1)

    def test_non_negative_and_zero_iff_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p, t = rng.normal(size=2)
            gamma = float(rng.uniform(0.01, 0.99))
            loss = pinball_loss(p, t, gamma)
            assert loss >= 0.0
            assert (loss == 0.0) == (p == t)

    def test_vectorized(self):
        out = pinball_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.9)
        assert out == pytest.approx([0.9, 0.1])

    def test_gamma_validation(self):
        for gamma in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                pinball_loss(0.5, 0.5, gamma)


class TestPredictQuantiles:
    @staticmethod
    def zero_model(dim=4):
        k = 3
        return QuantileModel(
            w1=np.zeros((dim, k)), b1=np.zeros(k),
            w2=np.zeros((k, k)), b2=np.zeros(k),
            w3=np.zeros((k, 2)), b3=np.array([0.7, 0.3]),
            levels=(0.05, 0.95),
        )

    def test_crossing_repaired(self):
        lower, upper = predict_quantiles(self.zero_model(), np.ones(4))
        assert (lower, upper) == (0.3, 0.7)

    def test_no_crossing_untouched(self):
        model = self.zero_model()
        model.b3[:] = [0.2, 0.8]
        assert predict_quantiles(model, np.zeros(4)) == (0.2, 0.8)

    def test_zero_network(self):
        model = self.zero_model()
        model.b3[:] = 0.0
        assert predict_quantiles(model, np.ones(4)) == (0.0, 0.0)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((64, 5))
        y = rng.random(64)
        model = fit_quantile_functions(z, y, 0.2, FAST, seed=2)
        bands = model.quantiles(z)
        assert np.all(bands[:, 0] <= bands[:, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_quantiles(self.zero_model(dim=4), np.ones(7))


class TestFit:
    def test_constant_target(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((400, 6))
        y = np.ones(400)
        cfg = QuantileConfig(epochs=600, learning_rate=2e-2, batch_size=64, hidden_dim=16)
        model = fit_quantile_functions(z, y, 0.1, cfg, seed=4)
        bands = model.quantiles(z)
        assert np.abs(bands - 1.0).max() < 0.05

    def test_unconditional_bernoulli_quantiles(self):
        # labels independent of features: the 0.1/0.9 quantiles of a fair
        # coin are 0 and 1
        rng = np.random.default_rng(5)
        z = rng.standard_normal((600, 6))
        y = (rng.random(600) < 0.5).astype(float)
        cfg = QuantileConfig(epochs=250, learning_rate=5e-3, batch_size=64, hidden_dim=16)
        model = fit_quantile_functions(z, y, 0.2, cfg, seed=6)
        bands = model.quantiles(z)
        assert np.abs(bands[:, 0]).mean() < 0.1
        assert np.abs(bands[:, 1] - 1.0).mean() < 0.1

    def test_training_fraction_below_lower_head(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((800, 4))
        y = z[:, 0] + 0.1 * rng.standard_normal(800)
        cfg = QuantileConfig(epochs=300, learning_rate=1e-2, batch_size=64, hidden_dim=16)
        model = fit_quantile_functions(z, y, 0.2, cfg, seed=8)
        bands = model.quantiles(z)
        below = float(np.mean(y < bands[:, 0]))
        assert abs(below - 0.1) < 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((100, 4))
        y = rng.random(100)
        a = fit_quantile_functions(z, y, 0.1, FAST, seed=10)
        b = fit_quantile_functions(z, y, 0.1, FAST, seed=10)
        for x, w in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(x, w)

    def test_validations(self):
        with pytest.raises(ValueError):
            fit_quantile_functions(np.empty((0, 3)), [], 0.1, FAST, seed=0)
        with pytest.raises(ValueError):
            fit_quantile_functions(np.ones((4, 3)), [1, 0, 1, 0], 1.2, FAST, seed=0)


class TestGradientCheck:
    def test_small_error_away_from_kinks(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((200, 6))
        y = (rng.random(200) < 0.5).astype(float)
        model = fit_quantile_functions(z, y, 0.2, FAST, seed=12)
        margin = np.abs(model.raw(z) - y[:, None]).min()
        assert margin > 1e-5  # clear of the pinball kink at this seed
        err = quantile_gradient_check(model, z, y, step=1e-6, n_coords=80, seed=0)
        assert err < 1e-4

    def test_step_validation(self):
        model = TestPredictQuantiles.zero_model()
        with pytest.raises(ValueError):
            quantile_gradient_check(model, np.ones((2, 4)), [0.0, 1.0], step=-1.0)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((50, 3))
        y = rng.random(50)
        model = fit_quantile_functions(z, y, 0.1, FAST, seed=14)
        path = tmp_path / "quantile.json"
        model.save(path)
        loaded = QuantileModel.load(path)
        assert loaded.levels == model.levels
        assert np.array_equal(loaded.quantiles(z), model.quantiles(z))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            QuantileModel(
                w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros((2, 2)), b2=np.zeros(2),
                w3=np.zeros((2, 2)), b3=np.zeros(2), levels=(0.9, 0.1),
            )


# --- exact-equality oracle for the quantile fit ------------------------------
# The step and loop as they were before the discarded loss was dropped from
# the gradient path and batches were sliced from one gather per epoch, kept
# verbatim. The fit now must match them bit for bit.

from linkconformal._nn import MomentumSGD, init_weight, relu
from linkconformal.quantile import _loss_and_grads
from linkconformal.seeding import derive_rng


def _pinball_slope(prediction, target, gamma):
    # d loss / d prediction; the kink at t == p takes the gamma branch.
    return np.where(target >= prediction, -gamma, 1.0 - gamma)


def reference_loss_and_grads(arrays, z, y, levels, want_grads=True):
    w1, b1, w2, b2, w3, b3 = arrays
    pre1 = z @ w1 + b1
    h1 = relu(pre1)
    pre2 = h1 @ w2 + b2
    h2 = relu(pre2)
    out = h2 @ w3 + b3
    lo, hi = levels
    loss = float(np.mean(pinball_loss(out[:, 0], y, lo) + pinball_loss(out[:, 1], y, hi)))
    if not want_grads:
        return loss, None
    batch = y.size
    d_out = np.stack(
        [_pinball_slope(out[:, 0], y, lo), _pinball_slope(out[:, 1], y, hi)], axis=1
    ) / batch
    d_w3 = h2.T @ d_out
    d_b3 = d_out.sum(axis=0)
    d_h2 = d_out @ w3.T
    d_pre2 = d_h2 * (pre2 > 0)
    d_w2 = h1.T @ d_pre2
    d_b2 = d_pre2.sum(axis=0)
    d_h1 = d_pre2 @ w2.T
    d_pre1 = d_h1 * (pre1 > 0)
    d_w1 = z.T @ d_pre1
    d_b1 = d_pre1.sum(axis=0)
    return loss, [d_w1, d_b1, d_w2, d_b2, d_w3, d_b3]


def reference_fit_arrays(z, y, alpha, config, seed):
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
        for start in range(0, y.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grads = reference_loss_and_grads(arrays, z[batch], y[batch], levels)
            optimizer.step(arrays, grads)
    return arrays


class TestFitMatchesOracle:
    def test_fitted_weights_with_ragged_last_batch(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((203, 5))
        y = (rng.random(203) < 0.5).astype(float)
        cfg = QuantileConfig(epochs=40, learning_rate=2e-2, batch_size=32, hidden_dim=9)
        assert y.size % cfg.batch_size != 0
        model = fit_quantile_functions(z, y, 0.1, cfg, seed=16)
        expected = reference_fit_arrays(z, y, 0.1, cfg, seed=16)
        for got, want in zip(model.param_arrays(), expected):
            assert np.array_equal(got, want)

    def test_step_matches_and_loss_path_is_loss_only(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((50, 4))
        y = rng.random(50)
        model = fit_quantile_functions(z, y, 0.2, FAST, seed=18)
        arrays = model.param_arrays()
        loss, grads = _loss_and_grads(arrays, z, y, model.levels, want_grads=False)
        assert grads is None
        assert loss == reference_loss_and_grads(arrays, z, y, model.levels, want_grads=False)[0]
        _, grads = _loss_and_grads(arrays, z, y, model.levels)
        _, expected = reference_loss_and_grads(arrays, z, y, model.levels)
        for g, e in zip(grads, expected):
            assert np.array_equal(g, e)
        assert quantile_gradient_check(model, z, y, step=1e-6, n_coords=60, seed=1) < 1e-4
