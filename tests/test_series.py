import functools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import textfract as tf
import textfract.mfdfa as mfdfa
from textfract.series import (
    Series,
    _line_fit,
    _reject_amplitude,
    cascade_alpha_width,
    cascade_generalized_hurst,
)


class TestProfile:
    def test_two_points(self):
        p = tf.profile([1.0, 3.0])  # the mean, 2.0, is removed
        assert isinstance(p, tf.Series)
        np.testing.assert_array_equal(p.values, [-1.0, 0.0])

    def test_constant_series_is_flat(self):
        p = tf.profile(np.full(50, 7.0))
        np.testing.assert_allclose(p.values, 0.0, atol=1e-12)

    def test_matches_brute_force_cumsum(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=200)
        p = tf.profile(x)
        mean = x.mean()
        expected = [sum(x[k] - mean for k in range(j + 1)) for j in range(len(x))]
        np.testing.assert_allclose(p.values, expected, atol=1e-9)

    def test_terminal_value_near_zero(self):
        x = np.random.default_rng(1).integers(1, 50, size=5000).astype(float)
        p = tf.profile(x)
        assert abs(p.values[-1]) < 1e-7 * len(x) * np.abs(x).max()

    def test_too_short(self):
        with pytest.raises(ValueError):
            tf.profile([1.0])


class TestShuffleSurrogate:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
           st.integers(0, 2**32))
    def test_multiset_preserved(self, values, seed):
        out = tf.shuffle_surrogate(values, seed)
        np.testing.assert_array_equal(np.sort(out.values), np.sort(values))

    def test_deterministic(self):
        x = np.arange(100.0)
        a = tf.shuffle_surrogate(x, 7).values
        b = tf.shuffle_surrogate(x, 7).values
        np.testing.assert_array_equal(a, b)

    def test_length_one_identity(self):
        assert tf.shuffle_surrogate([3.0], 0).values.tolist() == [3.0]

    def test_profile_terminal_value_matches(self):
        x = np.random.default_rng(2).normal(size=500)
        orig_end = tf.profile(x).values[-1]
        shuf_end = tf.profile(tf.shuffle_surrogate(x, 3)).values[-1]
        assert abs(orig_end - shuf_end) < 1e-9


def assert_amplitudes_match(got, x):
    """Every |rfft| bin, DC included, to rounding relative to the largest."""
    want = np.abs(np.fft.rfft(x))
    np.testing.assert_allclose(
        np.abs(np.fft.rfft(got)), want, rtol=1e-9, atol=1e-12 * want.max()
    )


class TestPhaseRandomizedSurrogate:
    def test_amplitudes_preserved_every_bin(self):
        x = np.random.default_rng(3).normal(size=1024)
        surr = tf.phase_randomized_surrogate(x, 5)
        assert_amplitudes_match(surr.values, x)

    def test_odd_length(self):
        x = np.random.default_rng(4).normal(size=1023)
        surr = tf.phase_randomized_surrogate(x, 5)
        assert_amplitudes_match(surr.values, x)

    @settings(max_examples=25)
    @given(n=st.integers(4, 4096), loc=st.floats(-100, 100), centred=st.booleans(),
           data_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16))
    def test_amplitudes_preserved_property(self, n, loc, centred, data_seed, seed):
        x = np.random.default_rng(data_seed).normal(loc=loc, size=n)
        if centred:  # the DC amplitude is then rounding noise
            x -= x.mean()
        assert_amplitudes_match(tf.phase_randomized_surrogate(x, seed).values, x)

    def test_mean_preserved(self):
        x = np.random.default_rng(5).normal(loc=12.0, size=512)
        surr = tf.phase_randomized_surrogate(x, 6)
        assert abs(surr.values.mean() - x.mean()) < 1e-9

    def test_autocorrelation_preserved_on_ar1(self):
        # AR(1) fixture; linear correlations must survive the surrogate
        rng = np.random.default_rng(6)
        n, phi = 2**14, 0.6
        x = np.empty(n)
        x[0] = rng.normal()
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.normal()

        def autocorr(v, lag):
            v = v - v.mean()
            return float(np.dot(v[:-lag], v[lag:]) / np.dot(v, v))

        surr = tf.phase_randomized_surrogate(x, 7).values
        for lag in range(1, 11):
            assert abs(autocorr(surr, lag) - autocorr(x, lag)) < 5.0 / np.sqrt(n)

    def test_too_short(self):
        with pytest.raises(ValueError):
            tf.phase_randomized_surrogate([1.0, 2.0, 3.0], 0)


def oracle_phase_surrogate(x, seed):
    """The phase surrogate as it was written before fGn and the surrogate
    shared one random-phase synthesis."""
    n = len(x)
    spec = np.fft.rfft(x)
    rng = np.random.default_rng(seed)
    amplitudes = np.abs(spec)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(spec))
    phases[0] = 0.0 if spec[0].real >= 0 else np.pi
    if n % 2 == 0:
        phases[-1] = 0.0 if spec[-1].real >= 0 else np.pi
    return np.fft.irfft(amplitudes * np.exp(1j * phases), n=n)


class TestPhaseSurrogateOracle:
    @pytest.mark.parametrize("n", [4, 5, 64, 65, 4096, 4097])
    def test_matches_oracle(self, n):
        x = np.random.default_rng(n).normal(loc=3.0, size=n)
        for seed in (0, 1, 99):
            got = tf.phase_randomized_surrogate(x, seed).values
            assert np.array_equal(got, oracle_phase_surrogate(x, seed))

    @pytest.mark.parametrize("n", [64, 65])
    def test_negative_dc_bin(self, n):
        x = np.random.default_rng(8).normal(loc=-5.0, size=n)
        assert np.fft.rfft(x)[0].real < 0
        got = tf.phase_randomized_surrogate(x, 4).values
        assert np.array_equal(got, oracle_phase_surrogate(x, 4))

    def test_negative_nyquist_bin(self):
        k = np.arange(256)
        x = 2.0 - (-1.0) ** k + np.random.default_rng(9).normal(scale=0.1, size=256)
        spec = np.fft.rfft(x)
        assert spec[0].real > 0 and spec[-1].real < 0
        got = tf.phase_randomized_surrogate(x, 4).values
        assert np.array_equal(got, oracle_phase_surrogate(x, 4))

    @pytest.mark.parametrize("n", [4096, 4097])
    def test_fgn_input(self, n):
        x = tf.generate_fgn(0.75, n, 5).values
        got = tf.phase_randomized_surrogate(x, 6).values
        assert np.array_equal(got, oracle_phase_surrogate(x, 6))


class TestBinomialCascade:
    def test_sum_is_one(self):
        for levels in (1, 5, 12):
            c = tf.generate_binomial_cascade(0.3, levels)
            assert abs(c.values.sum() - 1.0) < 1e-12

    def test_degenerate_p_half_is_uniform(self):
        c = tf.generate_binomial_cascade(0.5, 8)
        np.testing.assert_allclose(c.values, 0.5**8)
        np.testing.assert_allclose(cascade_generalized_hurst([-4, 0, 2, 4], 0.5), 1.0)

    def test_value_multiset_is_binomial(self):
        levels, p = 6, 0.3
        c = tf.generate_binomial_cascade(p, levels)
        values, counts = np.unique(np.round(np.log(c.values), 9), return_counts=True)
        from math import comb

        assert counts.tolist() == [comb(levels, i) for i in range(levels, -1, -1)]

    def test_analytic_width(self):
        assert abs(cascade_alpha_width(0.3) - np.log2(7 / 3)) < 1e-12

    @pytest.mark.parametrize("p,levels", [(0.0, 4), (0.6, 4), (0.3, 0), (0.3, 25)])
    def test_rejects_bad_params(self, p, levels):
        with pytest.raises(ValueError):
            tf.generate_binomial_cascade(p, levels)


class TestFgn:
    def test_white_limit_uncorrelated(self):
        n = 2**14
        x = tf.generate_fgn(0.5, n, 0).values
        x0 = x - x.mean()
        lag1 = np.dot(x0[:-1], x0[1:]) / np.dot(x0, x0)
        assert abs(lag1) < 3.0 / np.sqrt(n)

    def test_standardized(self):
        x = tf.generate_fgn(0.7, 2**12, 1).values
        assert abs(x.mean()) < 1e-9
        assert abs(x.std() - 1.0) < 1e-9

    def test_estimator_round_trip(self):
        import textfract.mfdfa as M

        x = tf.generate_fgn(0.8, 2**16, 2)
        _, gh, _ = M.mfdfa(x)
        assert abs(M.hurst_exponent(gh) - 0.8) < 0.05

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            tf.generate_fgn(1.2, 1024, 0)
        with pytest.raises(ValueError):
            tf.generate_fgn(0.5, 32, 0)


class TestWhiteNoise:
    def test_deterministic(self):
        a = tf.generate_white_noise(1000, 9).values
        b = tf.generate_white_noise(1000, 9).values
        np.testing.assert_array_equal(a, b)

    def test_beta_near_zero(self):
        x = tf.generate_white_noise(2**16, 11)
        fit = tf.fit_beta(tf.power_spectrum(x))
        assert abs(fit.beta) < 0.05

    def test_h2_near_half(self):
        import textfract.mfdfa as M

        _, gh, _ = M.mfdfa(tf.generate_white_noise(2**16, 12))
        assert abs(M.hurst_exponent(gh) - 0.5) < 0.03


class TestSeriesType:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Series(np.array([1.0, np.nan]))

    def test_provenance_carried(self):
        s = tf.generate_white_noise(100, 4)
        assert s.provenance["seed"] == 4


# every library function that takes a series, as a call on the series alone
SERIES_FUNCTIONS = {
    "power_spectrum": tf.power_spectrum,
    "fluctuation_surface": tf.fluctuation_surface,
    "mfdfa": mfdfa.mfdfa,
    "wavelet_map": tf.wavelet_map,
    "profile": tf.profile,
    "ccdf": tf.ccdf,
    "shuffle_surrogate": functools.partial(tf.shuffle_surrogate, seed=3),
    "phase_randomized_surrogate": functools.partial(tf.phase_randomized_surrogate, seed=3),
}


def result_arrays(result):
    """Every array and number a result holds, in field order, for an
    exact comparison; a tuple of results is flattened."""
    if isinstance(result, tuple):
        return [a for r in result for a in result_arrays(r)]
    return [np.asarray(v) for v in vars(result).values() if not isinstance(v, dict)]


class TestLibraryBoundary:
    """Every function takes one 1-D finite series: a Series, an array or
    a sequence, checked by the one rule of ``Series``."""

    values = np.random.default_rng(8).normal(size=256)

    @pytest.mark.parametrize("fn", SERIES_FUNCTIONS.values(), ids=SERIES_FUNCTIONS)
    def test_non_finite_value_raises(self, fn):
        x = self.values.copy()
        x[100] = np.nan
        with pytest.raises(ValueError, match="series contains non-finite values"):
            fn(x)

    @pytest.mark.parametrize("fn", SERIES_FUNCTIONS.values(), ids=SERIES_FUNCTIONS)
    def test_two_dimensional_array_raises(self, fn):
        with pytest.raises(ValueError, match="series must be one-dimensional"):
            fn(self.values.reshape(2, -1))

    @pytest.mark.parametrize("fn", SERIES_FUNCTIONS.values(), ids=SERIES_FUNCTIONS)
    def test_list_is_the_array(self, fn):
        got = result_arrays(fn(self.values.tolist()))
        want = result_arrays(fn(self.values))
        assert len(got) == len(want) >= 1
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestAmplitudeRule:
    """One rule for the amplitudes float64 carries: lo = tiny^(1/d) / eps and
    hi = (max / (2 m^3))^(1/d), at degree d and longest transform m."""

    @pytest.mark.parametrize("degree, n, length", [(2, 8192, None), (1, 8192, None),
                                                   (1, 600, 2048), (2, 8, None)])
    def test_bounds_are_inclusive_and_exact(self, degree, n, length):
        fi = np.finfo(float)
        lo = fi.tiny ** (1 / degree) / fi.eps
        hi = (fi.max / (2.0 * (length or n) ** 3)) ** (1 / degree)
        for amp in (lo, hi):
            _reject_amplitude(np.full(n, -amp), degree, length)
        for amp in (np.nextafter(lo, 0), np.nextafter(hi, np.inf)):
            with pytest.raises(ValueError, match=re.escape(
                    f"max|x| = {amp:.4g} is outside [{lo:.4g}, {hi:.4g}] at n = {n}; ")):
                _reject_amplitude(np.full(n, amp), degree, length)

    def test_zeros_pass(self):
        _reject_amplitude(np.zeros(64), 2)
        _reject_amplitude(np.zeros(64), 1)

    # each stage that computes on a series, with its degree in x
    STAGES = {"power_spectrum": (tf.power_spectrum, 2),
              "fluctuation_surface": (tf.fluctuation_surface, 2),
              "wavelet_map": (lambda x: tf.wavelet_map(x).coefficients, 1),
              "phase_surrogate": (lambda x: tf.phase_randomized_surrogate(x, 0).values, 1)}

    @pytest.mark.parametrize("k", [-1070, -520, 504, 1010])
    @pytest.mark.parametrize("name", STAGES)
    def test_every_stage_applies_it(self, name, k):
        stage, degree = self.STAGES[name]
        x = tf.generate_fgn(0.75, 2048, 5).values
        if degree == 1 and abs(k) < 1000:  # in range, and linear: the output scales
            np.testing.assert_array_equal(stage(x * 2.0**k), stage(x) * 2.0**k)
        else:
            with pytest.raises(ValueError, match=r"series amplitude max\|x\| = .* is "
                                                 r"outside .*; the exponents do not depend"):
                stage(x * 2.0**k)


def exact_line_fit(x, y, w):
    """Weighted least-squares slope and its standard error on n - 2
    degrees of freedom, in exact rational arithmetic on the given floats."""
    x, y, w = ([Fraction(float(v)) for v in a] for a in (x, y, w))
    sw = sum(w)
    x_bar = sum(wi * xi for wi, xi in zip(w, x)) / sw
    y_bar = sum(wi * yi for wi, yi in zip(w, y)) / sw
    sxx = sum(wi * (xi - x_bar) ** 2 for wi, xi in zip(w, x))
    slope = sum(wi * (xi - x_bar) * (yi - y_bar) for wi, xi, yi in zip(w, x, y)) / sxx
    intercept = y_bar - slope * x_bar
    ssr = sum(wi * (yi - slope * xi - intercept) ** 2 for wi, xi, yi in zip(w, x, y))
    return float(slope), float(ssr / ((len(x) - 2) * sxx)) ** 0.5


class TestLineFit:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exact_ols(self, weighted, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        x = np.sort(rng.uniform(-3.0, 2.0, n))
        slopes = np.array([-1.7, 0.0, 0.5, 3.25])
        y = slopes[:, None] * x + rng.normal(0.3, 0.2, (len(slopes), n))
        w = rng.integers(1, 50, n).astype(float) if weighted else None
        slope, _, stderr, resid = _line_fit(x, y, w)
        assert slope.shape == stderr.shape == (len(slopes),) and resid.shape == y.shape
        for i in range(len(slopes)):
            exact = exact_line_fit(x, y[i], np.ones(n) if w is None else w)
            one = _line_fit(x, y[i], w)  # a 1-D y is the same fit as its row
            for got in (slope[i], one[0]):
                assert got == pytest.approx(exact[0], rel=1e-14)
            for got in (stderr[i], one[2]):
                assert got == pytest.approx(exact[1], rel=1e-13)

    def test_residuals_about_the_line(self):
        x = np.log(np.arange(2.0, 12.0))
        y = 0.5 * x + 2.0 + np.random.default_rng(3).normal(0, 0.1, len(x))
        slope, intercept, _, resid = _line_fit(x, y)
        np.testing.assert_allclose(resid, y - (slope * x + intercept), atol=1e-15)

    @pytest.mark.parametrize("x", [
        np.zeros(5),
        np.full(7, 3.5),
        np.log(1e15 + np.arange(20.0)),  # a few ulps apart
        np.array([1.0, 1.0 + 2**-52, 1.0, 1.0 + 2**-51]),
    ], ids=["zeros", "constant", "logs_of_close_lengths", "ulp_steps"])
    def test_x_varying_only_by_rounding_is_rejected(self, x):
        y = np.arange(len(x), dtype=float)
        with pytest.raises(ValueError, match="x does not vary beyond rounding"):
            _line_fit(x, y)
        with pytest.raises(ValueError, match="x does not vary beyond rounding"):
            _line_fit(x, np.vstack([y, -y]), np.ones(len(x)))

    def test_x_varying_beyond_rounding_is_fitted(self):
        # lengths 1e6 apart at 1e15: their logs differ by 1e-9, far past rounding
        x = np.log(1e15 + 1e6 * np.arange(20.0))
        slope, _, _, _ = _line_fit(x, 2.0 * x)
        assert slope == pytest.approx(2.0, rel=1e-3)
