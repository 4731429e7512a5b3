import numpy as np
import pytest

import textfract as tf
from textfract.wavelet import SUPPORT_HALF_WIDTH, default_scales, mother_wavelet


def direct_map(x, scales):
    """T(s, k) at every position by direct time-domain convolution."""
    rows = []
    for s in scales:
        offset = int(np.ceil(SUPPORT_HALF_WIDTH * s))
        kernel = mother_wavelet(np.arange(-offset, offset + 1, dtype=float) / s)
        full = np.convolve(x, kernel[::-1], mode="full")
        rows.append(full[offset : offset + len(x)] / np.sqrt(s))
    return np.array(rows)


def brute_force_coefficient(x, s, k):
    """Direct evaluation of T(s, k) from the defining sum."""
    j = np.arange(1, len(x) + 1, dtype=float)
    return float(np.sum(x * mother_wavelet((j - k) / s)) / np.sqrt(s))


class TestMotherWavelet:
    def test_odd_symmetry(self):
        x = np.linspace(-6, 6, 201)
        np.testing.assert_allclose(mother_wavelet(-x), -mother_wavelet(x),
                                   atol=1e-15)

    def test_zero_at_origin(self):
        assert mother_wavelet(0.0) == 0.0

    def test_known_point(self):
        # psi(1) = (3 - 1) e^{-1/2}
        assert mother_wavelet(1.0) == pytest.approx(2.0 * np.exp(-0.5))

    def test_vanishing_moments(self):
        # moments 0..2 vanish: blind to constant, linear, quadratic input
        x = np.linspace(-30, 30, 60001)
        dx = x[1] - x[0]
        psi = mother_wavelet(x)
        for m in range(3):
            assert abs(np.sum(x**m * psi) * dx) < 1e-8
        assert abs(np.sum(x**3 * psi) * dx) > 1.0

    def test_negligible_outside_support(self):
        assert abs(mother_wavelet(SUPPORT_HALF_WIDTH)) < 1e-10
        assert abs(mother_wavelet(-SUPPORT_HALF_WIDTH)) < 1e-10


class TestWaveletMap:
    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=300)
        wm = tf.wavelet_map(x, scales=[4.0, 9.5])
        for i, s in enumerate(wm.scales):
            for k in [1, 57, 150, 300]:
                assert wm.coefficients[i, k - 1] == pytest.approx(
                    brute_force_coefficient(x, s, k), rel=1e-9, abs=1e-12)

    def test_quadratic_trend_invisible_in_interior(self):
        n = 1000
        j = np.arange(1, n + 1, dtype=float)
        trend = 0.002 * j**2 - 0.3 * j + 5.0
        x = np.random.default_rng(12).normal(size=n)
        a = tf.wavelet_map(x, scales=[10.0])
        b = tf.wavelet_map(x + trend, scales=[10.0])
        interior = ~a.boundary[0]
        np.testing.assert_allclose(a.coefficients[0, interior],
                                   b.coefficients[0, interior],
                                   atol=1e-6 * np.abs(trend).max())

    def test_boundary_flags(self):
        n = 500
        wm = tf.wavelet_map(np.ones(n), scales=[10.0])
        half = SUPPORT_HALF_WIDTH * 10.0
        flagged = np.nonzero(wm.boundary[0])[0]
        # 0-based indices within half a support of either edge
        expected = [i for i in range(n) if i < half or i > n - 1 - half]
        assert flagged.tolist() == expected

    def test_constant_series_interior_zero(self):
        wm = tf.wavelet_map(np.full(600, 4.2), scales=[8.0])
        interior = ~wm.boundary[0]
        assert np.abs(wm.coefficients[0, interior]).max() < 1e-9

    def test_default_grids(self):
        x = np.random.default_rng(13).normal(size=2000)
        wm = tf.wavelet_map(x)
        assert wm.coefficients.shape == (50, 2000)
        assert wm.scales[0] == pytest.approx(4.0)
        assert wm.scales[-1] == pytest.approx(200.0)
        np.testing.assert_array_equal(wm.positions, np.arange(1, 2001))
        np.testing.assert_array_equal(default_scales(2000), wm.scales)

    def test_cascade_large_scale_dominates(self):
        # cascade mass concentrates at dyadic blocks; mean |T| should
        # grow with scale in the interior
        c = tf.generate_binomial_cascade(0.3, 12)
        wm = tf.wavelet_map(c, scales=[8.0, 64.0])
        mags = [np.abs(wm.coefficients[i][~wm.boundary[i]]).mean()
                for i in range(2)]
        assert mags[1] > mags[0]

    def test_kernel_longer_than_series_matches_brute_force(self):
        # at s = 40 the kernel spans 641 samples, more than the 300 given
        x = np.random.default_rng(14).normal(size=300)
        wm = tf.wavelet_map(x, scales=[40.0])
        for k in [1, 75, 150, 226, 300]:
            assert wm.coefficients[0, k - 1] == pytest.approx(
                brute_force_coefficient(x, 40.0, k), rel=1e-9, abs=1e-12)

    def test_matches_direct_convolution_at_default_scales(self):
        x = np.random.default_rng(15).normal(size=2000)
        wm = tf.wavelet_map(x)
        expected = direct_map(x, wm.scales)
        np.testing.assert_allclose(wm.coefficients, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

    def test_default_scales_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="n_scales"):
            default_scales(2000, 0)

    def test_rejections(self):
        x = np.ones(100)
        with pytest.raises(ValueError):
            tf.wavelet_map(x, scales=[-1.0])
        with pytest.raises(ValueError):
            tf.wavelet_map(x, scales=[50.0])

    @pytest.mark.parametrize("x", [np.ones(600), (-1.0) ** np.arange(600),
                                   np.random.default_rng(16).normal(size=600)],
                             ids=["ones", "alternating", "noise"])
    def test_every_accepted_amplitude_gives_the_scaled_map(self, x):
        # the largest 2^k the amplitude bound lets in: its map is finite and
        # exactly 2^k times the unscaled one (overflow would warn, which fails)
        lo, hi = 0, 1000
        with pytest.raises(ValueError, match=r"series amplitude max\|x\| = .* is outside"):
            tf.wavelet_map(x * 2.0**hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                tf.wavelet_map(x * 2.0**mid)
                lo = mid
            except ValueError:
                hi = mid
        assert lo > 950
        want = tf.wavelet_map(x).coefficients * 2.0**lo
        np.testing.assert_array_equal(tf.wavelet_map(x * 2.0**lo).coefficients, want)
