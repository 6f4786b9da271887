import numpy as np
import pytest

import linkconformal.quantile as quantile_mod
from linkconformal._nn import flat_views
from linkconformal.quantile import (
    QuantileConfig,
    QuantileModel,
    fit_quantile_functions,
    pinball_loss,
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

    @staticmethod
    def band(model, z):
        return model.quantiles(z[None])[0].tolist()

    def test_crossing_repaired(self):
        assert self.band(self.zero_model(), np.ones(4)) == [0.3, 0.7]

    def test_no_crossing_untouched(self):
        model = self.zero_model()
        model.b3[:] = [0.2, 0.8]
        assert self.band(model, np.zeros(4)) == [0.2, 0.8]

    def test_zero_network(self):
        model = self.zero_model()
        model.b3[:] = 0.0
        assert self.band(model, np.ones(4)) == [0.0, 0.0]

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((64, 5))
        y = rng.random(64)
        model = fit_quantile_functions(z, y, 0.2, FAST, seed=2)
        bands = model.quantiles(z)
        assert np.all(bands[:, 0] <= bands[:, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.band(self.zero_model(dim=4), np.ones(7))

    def test_bands_peak_at_two_hidden_layers(self, traced_peak):
        # Each layer adds its bias and applies ReLU in place, so the two
        # hidden layers' outputs are the only (n, hidden) arrays alive at
        # once; a fresh array per bias and per ReLU peaked at three.
        rng = np.random.default_rng(3)
        n, dim, k = 20_000, 16, 32
        shapes = [(dim, k), (k,), (k, k), (k,), (k, 2), (2,)]
        model = QuantileModel(*(rng.standard_normal(s) for s in shapes), levels=(0.05, 0.95))
        z = rng.standard_normal((n, dim))
        bands, peak = traced_peak(lambda: model.quantiles(z))
        assert np.all(bands[:, 0] <= bands[:, 1])
        assert peak < 2.5 * n * k * 8


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

    def test_two_epoch_peak_below_input(self, traced_peak):
        # Each mini-batch gathers its own rows; a copy of the permuted input
        # per epoch peaks at more than twice the input.
        rng = np.random.default_rng(19)
        z = rng.standard_normal((20_000, 8))
        y = (rng.random(20_000) < 0.5).astype(float)
        cfg = QuantileConfig(epochs=2, learning_rate=2e-2, batch_size=256, hidden_dim=16)
        _, peak = traced_peak(lambda: fit_quantile_functions(z, y, 0.1, cfg, seed=20))
        assert peak < z.nbytes

    def test_streamed_fit_peak_below_one_fit_row_matrix(self, traced_peak):
        # Each mini-batch forms its own edge embeddings from the node embeddings.
        rng = np.random.default_rng(21)
        h = rng.standard_normal((2_000, 8))
        rows = rng.integers(0, 2_000, size=(20_000, 2))
        y = (rng.random(20_000) < 0.5).astype(float)
        cfg = QuantileConfig(epochs=2, learning_rate=2e-2, batch_size=256, hidden_dim=16)
        _, peak = traced_peak(lambda: fit_quantile_functions(h, y, 0.1, cfg, seed=22, endpoints=rows))
        assert peak < len(rows) * h.shape[1] * h.itemsize

    def test_step_allocates_no_batch_sized_array(self, traced_peak):
        # A short last batch slices the fit's one workspace and writes the
        # fit's own gradients: one step's traced peak stays below half of one
        # (rows, hidden) float64 array.
        rng = np.random.default_rng(25)
        rows, dim, hidden = 3_000, 8, 32
        shapes = ((dim, hidden), hidden, (hidden, hidden), hidden, (hidden, 2), 2)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        _, grads = flat_views(arrays)
        work = [buf[:rows] for buf in quantile_mod._workspace(4_096, dim, hidden)]
        z, y = work[0], work[1]
        z[...] = rng.standard_normal((rows, dim))
        y[...] = rng.random(rows) < 0.5
        _, peak = traced_peak(lambda: quantile_mod._loss_and_grads(arrays, z, y, (0.05, 0.95), work=work, grads=grads))
        assert peak < rows * hidden * 8 // 2

    def test_validations(self):
        with pytest.raises(ValueError):
            fit_quantile_functions(np.empty((0, 3)), [], 0.1, FAST, seed=0)
        with pytest.raises(ValueError):
            fit_quantile_functions(np.ones((4, 3)), [1, 0, 1, 0], 1.2, FAST, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_before_any_step(self, bad, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(quantile_mod, "_loss_and_grads", no_step)
        rng = np.random.default_rng(23)
        z = rng.standard_normal((30, 4))
        y = rng.random(30)
        rows = rng.integers(0, 30, size=(30, 2))
        z_bad = z.copy()
        z_bad[3, 1] = bad
        z_bad[5, 0] = np.nan
        y_bad = y.copy()
        y_bad[4] = bad
        for args, kwargs, row in (
            ((z_bad, y), {}, "embeddings row 3"),
            ((z_bad, y), {"endpoints": rows}, "embeddings row 3"),
            ((z, y_bad), {}, "labels row 4"),
            ((z, y_bad), {"endpoints": rows}, "labels row 4"),
        ):
            with pytest.raises(ValueError, match=f"^{row} is not finite$"):
                fit_quantile_functions(*args, 0.1, FAST, seed=24, **kwargs)

    def test_endpoint_errors(self):
        h, y = np.ones((5, 3)), np.zeros(4)
        with pytest.raises(ValueError, match="^3 endpoint pairs vs 4 labels$"):
            fit_quantile_functions(h, y, 0.1, FAST, endpoints=[[0, 1]] * 3)
        with pytest.raises(ValueError, match="width 2"):
            fit_quantile_functions(h, y, 0.1, FAST, endpoints=np.zeros((4, 3), dtype=np.int64))
        for bad in (5, -1):
            with pytest.raises(IndexError, match=f"^fit endpoint {bad} is out of range for num_nodes=5$"):
                fit_quantile_functions(h, y, 0.1, FAST, endpoints=[[0, 1], [2, bad], [1, 1], [0, 0]])


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

    @pytest.mark.parametrize("step", [np.nan, np.inf])
    def test_non_finite_step_rejected(self, step):
        # A NaN step once made every finite difference NaN, and the check
        # returned 0.0, a pass.
        model = TestPredictQuantiles.zero_model()
        with pytest.raises(ValueError, match=rf"^step must lie in \(0, inf\), got {step}$"):
            quantile_gradient_check(model, np.ones((2, 4)), [0.0, 1.0], step=step)


class TestModelIO:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            QuantileModel(
                w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros((2, 2)), b2=np.zeros(2),
                w3=np.zeros((2, 2)), b3=np.zeros(2), levels=(0.9, 0.1),
            )


# --- exact-equality oracle for the quantile fit ------------------------------
# The step and loop as they were before the discarded loss was dropped from
# the gradient path, kept verbatim, and test_model's per-array optimizer as it
# was before parameters became views of one flat vector. The fit now must
# match them bit for bit.

from linkconformal._nn import init_weight
from linkconformal.model import edge_embeddings
from linkconformal.quantile import _loss_and_grads
from linkconformal.seeding import derive_rng

from test_model import MomentumSGD, reference_max_relative_gradient_error


def _pinball_slope(prediction, target, gamma):
    # d loss / d prediction; the kink at t == p takes the gamma branch.
    return np.where(target >= prediction, -gamma, 1.0 - gamma)


def reference_loss_and_grads(arrays, z, y, levels, want_grads=True):
    w1, b1, w2, b2, w3, b3 = arrays
    pre1 = z @ w1 + b1
    h1 = np.maximum(pre1, 0.0)
    pre2 = h1 @ w2 + b2
    h2 = np.maximum(pre2, 0.0)
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

    def test_streamed_fit_with_ragged_last_batch_and_repeated_endpoints(self):
        rng = np.random.default_rng(25)
        h = rng.standard_normal((40, 5))
        rows = rng.integers(0, 40, size=(203, 2))
        rows[7] = rows[3]
        y = (rng.random(203) < 0.5).astype(float)
        cfg = QuantileConfig(epochs=40, learning_rate=2e-2, batch_size=32, hidden_dim=9)
        assert y.size % cfg.batch_size != 0
        assert len(np.unique(rows, axis=0)) < len(rows)
        streamed = fit_quantile_functions(h, y, 0.1, cfg, seed=26, endpoints=rows)
        z = edge_embeddings(h, rows)
        on_rows = fit_quantile_functions(z, y, 0.1, cfg, seed=26)
        expected = reference_fit_arrays(z, y, 0.1, cfg, seed=26)
        for got, fitted, want in zip(streamed.param_arrays(), on_rows.param_arrays(), expected):
            assert got.tobytes() == fitted.tobytes() == want.tobytes()

    @pytest.mark.parametrize("streamed", [False, True], ids=["prebuilt", "streamed"])
    def test_strided_embeddings_fit_the_same_weights(self, streamed):
        # A sliced or Fortran-ordered matrix is made contiguous once per call.
        rng = np.random.default_rng(27)
        base = rng.standard_normal((203, 10))
        contiguous = np.ascontiguousarray(base[:, :5])
        rows = rng.integers(0, 203, size=(150, 2)) if streamed else None
        y = (rng.random(203 if rows is None else 150) < 0.5).astype(float)
        cfg = QuantileConfig(epochs=5, learning_rate=2e-2, batch_size=32, hidden_dim=9)

        def weights(z):
            model = fit_quantile_functions(z, y, 0.1, cfg, seed=28, endpoints=rows)
            return [a.tobytes() for a in model.param_arrays()]

        expected = weights(contiguous)
        for strided in (base[:, :5], np.asfortranarray(contiguous)):
            assert not strided.flags.c_contiguous
            assert weights(strided) == expected
            if streamed:
                assert edge_embeddings(strided, rows).tobytes() == edge_embeddings(contiguous, rows).tobytes()

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

    # 30 of the 107 coordinates, then every one of them.
    @pytest.mark.parametrize("n_coords", [30, 1000])
    def test_gradient_check_matches_the_per_array_check(self, n_coords):
        rng = np.random.default_rng(29)
        z = rng.standard_normal((60, 4))
        y = rng.random(60)
        model = fit_quantile_functions(z, y, 0.2, QuantileConfig(epochs=3, hidden_dim=7), seed=30)
        arrays = [a.copy() for a in model.param_arrays()]
        _, grads = _loss_and_grads(arrays, z, y, model.levels)

        def loss_fn():
            return _loss_and_grads(arrays, z, y, model.levels, want_grads=False)[0]

        expected = reference_max_relative_gradient_error(arrays, loss_fn, grads, 1e-6, n_coords,
                                                         derive_rng(2, "quantile-gradient-check"))
        assert sum(a.size for a in arrays) == 107
        assert expected > 0
        assert quantile_gradient_check(model, z, y, step=1e-6, n_coords=n_coords, seed=2) == expected


def reference_raw(model, z):
    # QuantileModel.raw's per-layer loop as it was before the quantile net ran
    # through the shared dense stack, kept verbatim.
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    h = z
    for w, b in ((model.w1, model.b1), (model.w2, model.b2)):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
    out = h @ model.w3
    out += model.b3
    return out


class TestRawMatchesOracle:
    # One row is given 1-D, as a single edge embedding.
    @pytest.mark.parametrize("rows", [1, 300])
    def test_raw_matches_the_per_layer_loop(self, rows):
        rng = np.random.default_rng(31)
        model = fit_quantile_functions(rng.standard_normal((300, 6)), rng.random(300), 0.1, FAST, seed=32)
        z = rng.standard_normal((rows, 6))
        z = z[0] if rows == 1 else z
        assert model.raw(z).tobytes() == reference_raw(model, z).tobytes()
