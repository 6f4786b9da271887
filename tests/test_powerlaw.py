import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from linkconformal.powerlaw import (
    PowerLawFit,
    adaptive_min_tail,
    estimate_beta,
    fit_power_law,
    hurwitz_zeta,
    ks_statistic,
    powerlaw_cdf,
)

PI2_6 = np.pi**2 / 6.0
APERY = 1.2020569032


def discrete_powerlaw_sample(beta, d_min, n, seed):
    # independent inverse-CDF oracle built on scipy's zeta
    rng = np.random.default_rng(seed)
    support = np.arange(d_min, 10**6)
    cdf = np.cumsum(support.astype(float) ** (-beta) / scipy_zeta(beta, d_min))
    u = rng.random(n)
    return support[np.minimum(np.searchsorted(cdf, u, side="left"), support.size - 1)]


class TestHurwitzZeta:
    def test_basel(self):
        assert abs(hurwitz_zeta(2.0, 1) - PI2_6) < 1e-8

    def test_apery(self):
        assert abs(hurwitz_zeta(3.0, 1) - APERY) < 1e-8

    def test_shifted_basel(self):
        assert abs(hurwitz_zeta(2.0, 2) - (PI2_6 - 1.0)) < 1e-8

    def test_shift_identity_grid(self):
        # zeta(b, a+1) = zeta(b, a) - a^-b
        for beta in (1.5, 2.0, 3.0):
            for a in range(1, 11):
                lhs = hurwitz_zeta(beta, a + 1)
                rhs = hurwitz_zeta(beta, a) - a ** (-beta)
                assert abs(lhs - rhs) < 1e-9, (beta, a)

    def test_matches_scipy(self):
        for beta in (1.05, 1.5, 2.2, 4.0, 8.0):
            for a in (1.0, 2.0, 3.5, 17.0, 250.0):
                assert abs(hurwitz_zeta(beta, a) - float(scipy_zeta(beta, a))) < 1e-10

    def test_array_offsets(self):
        a = np.array([1.0, 2.0, 5.0])
        out = hurwitz_zeta(2.0, a)
        assert out.shape == (3,)
        assert abs(out[0] - PI2_6) < 1e-8

    def test_many_offsets_peak_at_one_small_block(self, traced_peak):
        # The direct sums form their terms 16 offsets at a time in one
        # 1.28 MB buffer; blocks of 256 offsets with two temporaries each
        # peaked at 41 MB here. Each offset's sum does not depend on its block.
        a = np.linspace(1.0, 500.0, 1000)
        out, peak = traced_peak(lambda: hurwitz_zeta(2.5, a))
        assert peak < 2 * 16 * 10_000 * 8
        picked = [0, 15, 16, 999]
        assert out[picked].tolist() == [hurwitz_zeta(2.5, x) for x in a[picked]]

    def test_divergence(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 1)
        with pytest.raises(ValueError):
            hurwitz_zeta(0.5, 1)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match=rf"^beta must lie in \(1, inf\), got {beta}$"):
            hurwitz_zeta(beta, 1.0)

    def test_nan_offset_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            hurwitz_zeta(2.0, np.array([1.0, np.nan]))


def reference_hurwitz_zeta(beta, a):
    # The 16-offset block sum that the shared power table replaced, kept verbatim.
    a_arr = np.asarray(a, dtype=np.float64)
    i = np.arange(10_000, dtype=np.float64)
    flat = np.atleast_1d(a_arr).ravel()
    partial = np.empty(flat.shape)
    terms = np.empty((min(flat.size, 16), 10_000))
    for start in range(0, flat.size, 16):
        block = flat[start : start + 16]
        rows = np.add(i, block[:, None], out=terms[: block.size])
        rows **= -beta
        np.sum(rows, axis=1, out=partial[start : start + 16])
    x0 = flat + 10_000.0
    tail = (
        x0 ** (1.0 - beta) / (beta - 1.0)
        + 0.5 * x0 ** (-beta)
        + beta / 12.0 * x0 ** (-beta - 1.0)
        - beta * (beta + 1.0) * (beta + 2.0) / 720.0 * x0 ** (-beta - 3.0)
    )
    out = (partial + tail).reshape(a_arr.shape)
    return float(out) if np.ndim(a) == 0 else out


_OFFSETS = np.random.default_rng(30)
ZETA_OFFSETS = {
    "integer-run": np.arange(1.0, 300.0),
    "unsorted-integers": _OFFSETS.integers(1, 5_000, size=200).astype(np.float64),
    "repeated": np.array([3.0, 3.0, 1.0, 3.0, 12_000.0, 1.0]),
    "non-integer": _OFFSETS.random(40) * 100.0 + 0.5,
    "mixed": np.concatenate([_OFFSETS.integers(1, 100, size=30), _OFFSETS.random(30) * 9.0 + 1.0]),
    "gaps": np.array([1.0, 9_999.0, 10_000.0, 19_999.0, 40_000.0, 1e7, 1e15, 1e15 + 2.0]),
    "matrix": np.arange(1.0, 13.0).reshape(3, 4),
    "infinite": np.array([np.inf, 2.0, np.inf, 2.5]),
}


class TestHurwitzZetaMatchesBlockSum:
    @pytest.mark.parametrize("beta", [1.05, 1.37, 2.12, 2.5, 3.9])
    @pytest.mark.parametrize("name", sorted(ZETA_OFFSETS))
    def test_same_bytes(self, name, beta):
        a = ZETA_OFFSETS[name]
        got = hurwitz_zeta(beta, a)
        assert got.shape == a.shape
        assert got.tobytes() == reference_hurwitz_zeta(beta, a).tobytes()

    @pytest.mark.parametrize("a", [3, 3.0, 2.5, np.float64(7.0), np.array(4.0), np.array(4.5)])
    def test_scalar_and_zero_d(self, a):
        got, want = hurwitz_zeta(2.12, a), reference_hurwitz_zeta(2.12, a)
        assert type(got) is float and got == want

    @pytest.mark.parametrize("far", [1e7, 50_001.0])
    def test_far_offsets_keep_small_tables(self, traced_peak, far):
        # Offsets 1 and 10^7 in one table would be 10^7 terms (80 MB), and
        # 1 and 50,001 would be 60,001 terms; each offset gets its own
        # 10^4-term table, as on the block path.
        a = np.array([1.0, far])
        out, peak = traced_peak(lambda: hurwitz_zeta(2.5, a))
        assert peak < 2 * a.size * 10_000 * 8
        assert out.tobytes() == reference_hurwitz_zeta(2.5, a).tobytes()

    def test_close_offsets_share_at_most_one_block_of_terms(self, traced_peak):
        # 60 offsets 9,000 apart never leave a 10^4 gap; one table for all of
        # them would hold 541,000 terms (4.3 MB).
        a = 1.0 + 9_000.0 * np.arange(60)
        out, peak = traced_peak(lambda: hurwitz_zeta(2.5, a))
        assert peak < 2 * 16 * 10_000 * 8
        assert out.tobytes() == reference_hurwitz_zeta(2.5, a).tobytes()


class TestPmf:
    # At d_min = 1 the CDF at 1 is the pmf at 1, and differences of the
    # CDF give the pmf at larger degrees.
    def test_basel_ratio(self):
        assert abs(powerlaw_cdf(1, 2.0, 1) - 6.0 / np.pi**2) < 1e-8

    def test_normalization(self):
        # the pmf d^-beta / zeta(beta, 1) summed directly, plus the
        # analytic tail 1 - CDF, is 1
        d = np.arange(1, 200_000)
        total = np.sum(d ** -2.5) / hurwitz_zeta(2.5, 1.0)
        tail = 1.0 - powerlaw_cdf(199_999, 2.5, 1)
        assert abs(total + tail - 1.0) < 1e-8

    def test_monotone_decreasing(self):
        pmf = np.diff(powerlaw_cdf(np.arange(1, 50), 2.5, 1), prepend=0.0)
        assert np.all(np.diff(pmf) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            powerlaw_cdf(1, 2.5, 2)


class TestEstimateBeta:
    def test_all_ones(self):
        # n cancels: 1 + 1/log(2)
        expected = 1.0 + 1.0 / np.log(2.0)
        assert abs(estimate_beta([1, 1, 1, 1], 1) - expected) < 1e-12
        assert abs(estimate_beta([1], 1) - expected) < 1e-12

    def test_twos_at_dmin_two(self):
        expected = 1.0 + 1.0 / np.log(2.0 / 1.5)
        assert abs(estimate_beta([2, 2], 2) - expected) < 1e-12

    def test_duplication_invariance(self):
        degs = [1, 1, 2, 3, 5, 9]
        assert abs(estimate_beta(degs, 1) - estimate_beta(degs * 2, 1)) < 1e-12

    def test_tail_restriction(self):
        # entries below d_min are ignored
        assert estimate_beta([1, 1, 2, 2], 2) == estimate_beta([2, 2], 2)

    def test_empty_tail(self):
        with pytest.raises(ValueError):
            estimate_beta([1, 2], 5)

    def test_known_bias_at_dmin_one(self):
        # The continuous-approximation estimator is bounded above by
        # 1 + 1/log(2) at d_min = 1 and lands near 2.02 on ideal
        # beta = 2.5 samples; the full fit (threshold scan) is what
        # recovers the exponent.
        degs = discrete_powerlaw_sample(2.5, 1, 10**4, seed=5)
        b1 = estimate_beta(degs, 1)
        assert 1.95 < b1 < 2.1
        assert b1 < 1.0 + 1.0 / np.log(2.0)


class TestKsStatistic:
    def test_single_atom(self):
        # eCDF at the single observed degree is 1
        expected = 1.0 - powerlaw_cdf(1, 2.5, 1)
        assert abs(ks_statistic([1, 1, 1, 1], 2.5, 1) - expected) < 1e-12

    def test_true_parameters_small(self):
        degs = discrete_powerlaw_sample(2.5, 1, 10**4, seed=5)
        assert ks_statistic(degs, 2.5, 1) < 0.03

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            degs = rng.integers(1, 30, size=50)
            ks = ks_statistic(degs, 2.2, 1)
            assert 0.0 <= ks <= 1.0

    def test_empty_tail(self):
        with pytest.raises(ValueError):
            ks_statistic([1, 1], 2.5, 3)


class TestFitPowerLaw:
    def test_recovery(self):
        degs = discrete_powerlaw_sample(2.5, 1, 10**4, seed=5)
        fit = fit_power_law(degs)
        assert 2.3 <= fit.beta_hat <= 2.7
        assert fit.ks < 0.03
        assert fit.d_min <= 8

    def test_all_identical(self):
        fit = fit_power_law([4, 4, 4, 4])
        assert fit.d_min == 4
        assert fit.tail_size == 4

    def test_deterministic(self):
        degs = discrete_powerlaw_sample(2.2, 1, 2000, seed=9)
        assert fit_power_law(degs) == fit_power_law(degs)

    def test_drops_zeros(self):
        degs = np.array([0, 0, 1, 1, 2, 3])
        fit = fit_power_law(degs)
        assert fit.tail_size <= 4

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            fit_power_law([0, 0, 0])

    @pytest.mark.parametrize("degrees, bad, index", [
        ([1, 2, 2.5], "2.5", 2), ([3, -1, 2], "-1", 1), ([1.0, np.nan], "nan", 1), ([2.0, np.inf], "inf", 1),
    ])
    def test_rejects_negative_or_fractional_degrees(self, degrees, bad, index):
        # Before, 2.5 was cut to 2 and a negative degree dropped like a zero.
        with pytest.raises(ValueError, match=f"^degree {bad} at index {index} is not a non-negative whole number$"):
            fit_power_law(degrees)

    def test_whole_float_degrees_fit_as_integers(self):
        degs = discrete_powerlaw_sample(2.2, 1, 2000, seed=9)
        assert fit_power_law(degs.astype(np.float64)) == fit_power_law(degs)

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            PowerLawFit(beta_hat=0.9, d_min=1, ks=0.1, tail_size=5)
        with pytest.raises(ValueError):
            PowerLawFit(beta_hat=2.0, d_min=1, ks=1.5, tail_size=5)


def reference_fit_power_law(degrees, min_tail):
    # The per-candidate scan that the one-sort tail counts replaced, kept
    # verbatim, with the KS statistic and model CDF it called inlined.
    degrees = np.asarray(degrees, dtype=np.int64)
    degrees = degrees[degrees >= 1]
    uniq = np.unique(degrees)
    candidates = [int(c) for c in uniq if np.sum(degrees >= c) >= min_tail]
    if not candidates:
        candidates = [int(uniq[0])]
    best = None
    for cand in candidates:
        beta_hat = estimate_beta(degrees, cand)
        tail = degrees[degrees >= cand]
        values, counts = np.unique(tail, return_counts=True)
        ecdf = np.cumsum(counts) / tail.size
        d = values.astype(np.float64)
        model = 1.0 - hurwitz_zeta(beta_hat, d + 1.0) / hurwitz_zeta(beta_hat, float(cand))
        ks = float(np.abs(ecdf - model).max())
        key = (ks, cand)
        if best is None or key < best[0]:
            best = (key, PowerLawFit(beta_hat, cand, ks, int(np.sum(degrees >= cand))))
    return best[1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=300).filter(any), st.integers(1, 40))
def test_fit_matches_per_candidate_scan(degrees, min_tail):
    got = fit_power_law(degrees, min_tail)
    want = reference_fit_power_law(degrees, min_tail)
    assert (got.d_min, got.tail_size) == (want.d_min, want.tail_size)
    assert np.float64(got.beta_hat).tobytes() == np.float64(want.beta_hat).tobytes()
    assert np.float64(got.ks).tobytes() == np.float64(want.ks).tobytes()


def test_adaptive_min_tail():
    assert adaptive_min_tail(50) == 10
    assert adaptive_min_tail(2000) == 200
