import numpy as np
import pytest

import textfract as tf
from textfract.spectral import PowerSpectrum, _log_bin


def exact_power_law_spectrum(beta, n=4096, c=1.0):
    k = np.arange(1, n // 2 + 1)
    freqs = k / n
    return PowerSpectrum(freqs=freqs, power=c * freqs**-beta)


def all_bins_power(x, ps):
    """Sum of |X_k|^2 over all N bins of the DFT of ``x``: the DC bin
    (sum x)^2 from the input, each reported bin and its mirror, and the
    Nyquist bin of an even N, which has no mirror, once."""
    total = np.sum(x) ** 2 + 2.0 * ps.power.sum()
    return total - ps.power[-1] if len(x) % 2 == 0 else total


class TestPowerSpectrum:
    def test_constant_series_all_dc(self):
        # all its power is DC, so it has no 1/f^beta to fit
        with pytest.raises(ValueError, match="^series does not vary beyond rounding: "
                                             r"max\|x - mean\| = 0 <= "):
            tf.power_spectrum(np.full(64, 5.0))

    @pytest.mark.parametrize("x", [
        # a one-ulp step at the midpoint: without the rule, fit_beta gives
        # beta = 1.98 at r^2 = 0.9999
        np.where(np.arange(1024) < 512, 3.0, np.nextafter(3.0, 4.0)),
        # 0-3 ulps up at random: without the rule, beta = -0.16
        3.0 + np.spacing(3.0) * np.random.default_rng(5).integers(0, 4, 1024),
    ], ids=["ulp_step", "random_ulps"])
    def test_series_flat_to_rounding_rejected(self, x):
        with pytest.raises(ValueError, match="series does not vary beyond rounding"):
            tf.fit_beta(tf.power_spectrum(x))

    def test_sinusoid_single_bin(self):
        n = 64
        j = np.arange(1, n + 1)
        ps = tf.power_spectrum(np.sin(2 * np.pi * j / 8))
        assert ps.freqs[np.argmax(ps.power)] == pytest.approx(0.125)
        others = np.delete(ps.power, np.argmax(ps.power))
        assert others.max() < 1e-20 * ps.power.max()

    @pytest.mark.parametrize("n", [64, 65, 1000, 1001])
    def test_parseval(self, n):
        x = np.random.default_rng(n).normal(size=n)
        ps = tf.power_spectrum(x)
        assert all_bins_power(x, ps) == pytest.approx(n * np.sum(x**2), rel=1e-10)

    def test_frequency_grid(self):
        ps = tf.power_spectrum(np.random.default_rng(0).normal(size=100))
        assert ps.freqs[0] == pytest.approx(1 / 100)
        assert ps.freqs[-1] == pytest.approx(0.5)
        assert np.all(np.diff(ps.freqs) > 0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            tf.power_spectrum(np.ones(4))


def loop_log_bin(freqs, power, bins_per_decade):
    """Reference: the log bins one at a time, each mean over its own mask."""
    keep = power > 0
    lf, lp = np.log10(freqs[keep]), np.log10(power[keep])
    n_bins = max(1, int(np.ceil((lf.max() - lf.min()) * bins_per_decade)))
    edges = np.linspace(lf.min(), lf.max(), n_bins + 1)
    idx = np.clip(np.digitize(lf, edges) - 1, 0, n_bins - 1)
    rows = [(lf[idx == b].mean(), lp[idx == b].mean(), (idx == b).sum())
            for b in range(n_bins) if (idx == b).any()]
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


class TestLogBin:
    @pytest.mark.parametrize("bins_per_decade", [1, 20, 2000])
    @pytest.mark.parametrize("n", [64, 4096, 2**15])
    def test_matches_per_bin_loop(self, bins_per_decade, n):
        ps = tf.power_spectrum(tf.generate_fgn(0.75, n, 4))
        power = ps.power.copy()
        power[::7] = 0.0  # zero power leaves the bins
        got = _log_bin(ps.freqs, power, bins_per_decade)
        want = loop_log_bin(ps.freqs, power, bins_per_decade)
        np.testing.assert_array_equal(got[2], want[2])
        np.testing.assert_allclose(got[0], want[0], rtol=1e-13)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-13)

    def test_leaves_out_empty_bins(self):
        ps = tf.power_spectrum(tf.generate_fgn(0.75, 4096, 4))
        lf, _, counts = _log_bin(ps.freqs, ps.power, 2000)
        n_bins = int(np.ceil(np.log10(ps.freqs[-1] / ps.freqs[0]) * 2000))
        assert len(lf) < n_bins and counts.min() >= 1 and np.all(np.diff(lf) > 0)


class TestFitBeta:
    @pytest.mark.parametrize("bins_per_decade", [5, 20, 50])
    def test_exact_power_law_recovered(self, bins_per_decade):
        ps = exact_power_law_spectrum(0.5)
        fit = tf.fit_beta(ps, fit_range=(ps.freqs[0], ps.freqs[-1]),
                          bins_per_decade=bins_per_decade)
        assert abs(fit.beta - 0.5) < 1e-6

    def test_white_noise_flat(self):
        fit = tf.fit_beta(tf.power_spectrum(tf.generate_white_noise(2**16, 21)))
        assert abs(fit.beta) < 0.05

    def test_fgn_beta_matches_two_h_minus_one(self):
        x = tf.generate_fgn(0.75, 2**16, 22)
        fit = tf.fit_beta(tf.power_spectrum(x))
        assert fit.beta == pytest.approx(0.5, abs=0.1)

    def test_scale_invariance(self):
        x = np.random.default_rng(23).normal(size=2048)
        f1 = tf.fit_beta(tf.power_spectrum(x))
        f2 = tf.fit_beta(tf.power_spectrum(3.7 * x))
        assert f1.beta == pytest.approx(f2.beta, abs=1e-12)
        assert f2.intercept != pytest.approx(f1.intercept, abs=1e-6)

    def test_phase_surrogate_fit_identical(self):
        x = np.random.default_rng(24).normal(size=4096)
        surr = tf.phase_randomized_surrogate(x, 25)
        f1 = tf.fit_beta(tf.power_spectrum(x))
        f2 = tf.fit_beta(tf.power_spectrum(surr))
        assert f1.beta == pytest.approx(f2.beta, rel=1e-9)

    def test_shuffle_preserves_parseval_sum(self):
        x = np.random.default_rng(26).normal(size=1024)
        y = tf.shuffle_surrogate(x, 1).values
        p1 = all_bins_power(x, tf.power_spectrum(x))
        p2 = all_bins_power(y, tf.power_spectrum(y))
        assert p1 == pytest.approx(p2, rel=1e-10)

    def test_insufficient_points(self):
        ps = exact_power_law_spectrum(0.5, n=64)
        with pytest.raises(ValueError):
            tf.fit_beta(ps, fit_range=(0.4, 0.5))

    def test_reports_range_and_binning(self):
        fit = tf.fit_beta(exact_power_law_spectrum(0.3))
        assert fit.fit_range[0] < fit.fit_range[1]
        assert "bins/decade" in fit.binning


class TestAverageSpectrum:
    def test_self_average_idempotent(self):
        ps = exact_power_law_spectrum(0.5)
        avg = tf.average_spectrum([ps, ps])
        norm = ps.power / ps.power.sum()
        expected = 10 ** np.interp(
            np.log10(avg.freqs), np.log10(ps.freqs), np.log10(norm)
        )
        np.testing.assert_allclose(avg.power, expected, rtol=1e-9)

    def test_mean_of_power_laws(self):
        a = exact_power_law_spectrum(0.25)
        b = exact_power_law_spectrum(0.75)
        avg = tf.average_spectrum([a, b])
        fit = tf.fit_beta(avg, fit_range=(avg.freqs[0], avg.freqs[-1]))
        assert fit.beta == pytest.approx(0.5, abs=0.02)

    def test_variance_reduction_over_members(self):
        spectra = [
            tf.power_spectrum(tf.generate_white_noise(2**12, 100 + i))
            for i in range(10)
        ]
        avg = tf.average_spectrum(spectra)

        def resid(ps):
            fit = tf.fit_beta(ps, fit_range=(ps.freqs[0], ps.freqs[-1]))
            return fit.sigma_beta

        assert resid(avg) < min(resid(ps) for ps in spectra)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            tf.average_spectrum([exact_power_law_spectrum(0.5)])
