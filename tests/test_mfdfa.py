import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import textfract as tf
import textfract.mfdfa as M
from textfract.series import cascade_generalized_hurst


def brute_force_lsq_variance(segment, m):
    """Independent oracle: solve the polynomial normal equations
    directly and return the mean squared residual."""
    s = len(segment)
    k = np.arange(1, s + 1, dtype=float)
    X = np.column_stack([k**i for i in range(m + 1)])
    coef = np.linalg.solve(X.T @ X, X.T @ segment)
    resid = segment - X @ coef
    return float(np.mean(resid**2))


class TestDetrendedVariance:
    def test_quadratic_segment_annihilated(self):
        # profile whose first segment is exactly quadratic
        k = np.arange(1, 101, dtype=float)
        prof = tf.profile(np.random.default_rng(0).normal(size=100))
        quad = M.Profile(values=0.5 * k**2 - 3 * k + 1, mean_removed=0.0)
        assert M.detrended_variance(quad, 1, 50, m=2) < 1e-16 * 1e4
        assert prof is not None

    def test_order_zero_is_plain_variance(self):
        seg = np.zeros(10)
        seg[1] = 1.0
        prof = M.Profile(values=seg, mean_removed=0.0)
        expected = np.mean((seg - seg.mean()) ** 2)
        assert M.detrended_variance(prof, 1, 10, m=0) == pytest.approx(expected)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        prof = tf.profile(rng.normal(size=400))
        for nu, s, m in [(1, 50, 2), (3, 50, 2), (2, 100, 1), (5, 40, 3)]:
            got = M.detrended_variance(prof, nu, s, m)
            ms = len(prof.values) // s
            if nu <= ms:
                seg = prof.values[(nu - 1) * s : nu * s]
            else:
                j = nu - ms
                seg = prof.values[len(prof.values) - j * s :][:s]
            assert got == pytest.approx(brute_force_lsq_variance(seg, m), rel=1e-10)

    def test_backward_segments_count_from_end(self):
        prof = tf.profile(np.arange(10.0) ** 1.5)
        n, s = len(prof.values), 3
        ms = n // s
        # last backward segment must cover the final s points
        got = M.detrended_variance(prof, ms + 1, s, m=0)
        seg = prof.values[n - s :]
        assert got == pytest.approx(np.mean((seg - seg.mean()) ** 2))

    def test_degenerate_scale_rejected(self):
        prof = tf.profile(np.random.default_rng(1).normal(size=50))
        with pytest.raises(ValueError):
            M.detrended_variance(prof, 1, 3, m=2)


class TestFluctuationSurface:
    def test_q2_is_classic_dfa(self):
        x = np.random.default_rng(2).normal(size=2000)
        surf = M.fluctuation_surface(x, q_values=[2.0], scales=[20, 50, 100])
        prof = tf.profile(x)
        for j, s in enumerate(surf.scales):
            f2 = M.segment_variances(prof, int(s), m=2)
            assert surf.F[0, j] == pytest.approx(np.sqrt(f2.mean()), rel=1e-9)

    def test_monotone_in_q_at_fixed_scale(self):
        x = np.random.default_rng(3).normal(size=4000)
        surf = M.fluctuation_surface(x, scales=[20, 40, 80])
        assert np.all(np.diff(surf.F, axis=0) >= -1e-12 * surf.F[:-1])

    def test_scaling_invariance_under_affine_transform(self):
        x = np.random.default_rng(4).normal(size=2000)
        scales = [20, 50, 100]
        base = M.fluctuation_surface(x, scales=scales)
        scaled = M.fluctuation_surface(2.5 * x, scales=scales)
        shifted = M.fluctuation_surface(x + 100.0, scales=scales)
        np.testing.assert_allclose(scaled.F, 2.5 * base.F, rtol=1e-9)
        np.testing.assert_allclose(shifted.F, base.F, rtol=1e-9)

    def test_reversal_symmetry(self):
        # approximate: reversing the series shifts the profile's segment
        # boundaries by one sample, so only statistical closeness holds
        x = np.random.default_rng(5).normal(size=2048)
        a = M.fluctuation_surface(x, scales=[20, 64, 128])
        b = M.fluctuation_surface(x[::-1], scales=[20, 64, 128])
        np.testing.assert_allclose(a.F, b.F, rtol=0.05)

    def test_monofractal_fgn_slopes_agree_across_q(self):
        x = tf.generate_fgn(0.7, 2**15, 6)
        _, gh, _ = M.mfdfa(x, fit_range=(20, 2**15 // 40))
        assert gh.h.max() - gh.h.min() < 0.1

    def test_cascade_multifractal_ordering(self):
        c = tf.generate_binomial_cascade(0.3, 13)
        surf = M.fluctuation_surface(c, q_values=[-4.0, 4.0])
        gh = M.fit_generalized_hurst(surf)
        assert gh.h[0] > gh.h[1]  # h(-4) > h(4)

    def test_zero_variance_segment_rejected_for_negative_q(self):
        with pytest.raises(ValueError, match="scale"):
            M.fluctuation_surface(np.zeros(2000), q_values=[-2.0], scales=[20, 40, 80])

    def test_series_too_short_for_scales(self):
        with pytest.raises(ValueError):
            M.fluctuation_surface(np.random.default_rng(0).normal(size=100),
                                  scales=[20, 50])

    def test_negative_order_rejected(self):
        # order -1 would fit a polynomial with no terms and detrend nothing
        prof = tf.profile(np.random.default_rng(0).normal(size=400))
        with pytest.raises(ValueError, match="order -1"):
            M.segment_variances(prof, 20, m=-1)
        with pytest.raises(ValueError, match="order -1"):
            M.fluctuation_surface(np.random.default_rng(0).normal(size=400),
                                  scales=[20, 40], m=-1)


class TestGeneralizedHurst:
    def test_exact_power_law_surface(self):
        scales = np.array([20, 40, 80, 160, 320, 640])
        q = M.default_q_values()
        F = np.tile(scales**0.6, (len(q), 1))
        surf = M.FluctuationSurface(q_values=q, scales=scales, F=F,
                                    n_segments=np.full(len(scales), 10))
        gh = M.fit_generalized_hurst(surf)
        np.testing.assert_allclose(gh.h, 0.6, atol=1e-12)

    def test_cascade_analytic_oracle(self):
        c = tf.generate_binomial_cascade(0.3, 16)
        n = len(c.values)
        _, gh, _ = M.mfdfa(c, fit_range=(20, n // 40))
        err = np.abs(gh.h - cascade_generalized_hurst(gh.q_values, 0.3))
        assert err[np.abs(gh.q_values) <= 2].max() < 0.05
        assert err.max() < 0.1

    def test_fgn_round_trip(self):
        x = tf.generate_fgn(0.8, 2**16, 8)
        _, gh, _ = M.mfdfa(x)
        assert M.hurst_exponent(gh) == pytest.approx(0.8, abs=0.05)

    def test_insufficient_scales(self):
        x = np.random.default_rng(9).normal(size=4000)
        surf = M.fluctuation_surface(x, scales=[20, 40, 80, 160])
        with pytest.raises(ValueError):
            M.fit_generalized_hurst(surf)


    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), log_a=st.floats(-3, 3), negate=st.booleans(),
           b=st.floats(-1e3, 1e3))
    def test_h_invariant_under_affine_map(self, seed, log_a, negate, b):
        # F_q scales by |a| and the profile drops b: every slope stays put
        x = tf.generate_fgn(0.75, 2048, seed).values
        a = -(10**log_a) if negate else 10**log_a
        h = M.mfdfa(x)[1].h
        np.testing.assert_allclose(M.mfdfa(a * x + b)[1].h, h, rtol=0, atol=1e-9)


class TestSingularitySpectrum:
    def test_constant_h_collapses_to_point(self):
        q = M.default_q_values()
        gh = M.GeneralizedHurst(q_values=q, h=np.full(len(q), 0.72),
                                h_stderr=np.zeros(len(q)),
                                fit_scale_range=(20, 1000))
        spec = M.singularity_spectrum(gh)
        assert spec.delta_alpha < 1e-12
        np.testing.assert_allclose(spec.alphas, 0.72)
        np.testing.assert_allclose(spec.f_values, 1.0)

    def test_f_at_q_zero_is_one(self):
        c = tf.generate_binomial_cascade(0.3, 12)
        _, _, spec = M.mfdfa(c)
        i0 = int(np.nonzero(spec.q_values == 0)[0][0])
        assert spec.f_values[i0] == pytest.approx(1.0, abs=1e-9)

    def test_cascade_width_near_analytic(self):
        c = tf.generate_binomial_cascade(0.3, 16)
        _, _, spec = M.mfdfa(c, fit_range=(20, len(c.values) // 40))
        assert abs(spec.delta_alpha - np.log2(0.7 / 0.3)) < 0.1

    def test_nonuniform_grid_rejected(self):
        gh = M.GeneralizedHurst(q_values=np.array([-2.0, -1.0, 0.0, 1.5, 2.0]),
                                h=np.linspace(1, 0.5, 5),
                                h_stderr=np.zeros(5), fit_scale_range=(20, 100))
        with pytest.raises(ValueError):
            M.singularity_spectrum(gh)


class TestSurrogateEffects:
    def test_phase_randomization_shrinks_cascade_spectrum(self):
        c = tf.generate_binomial_cascade(0.3, 14)
        fr = (20, len(c.values) // 40)
        _, _, spec = M.mfdfa(c, fit_range=fr)
        surr = tf.phase_randomized_surrogate(c, 31)
        _, _, spec_s = M.mfdfa(surr, fit_range=fr)
        assert spec_s.delta_alpha < spec.delta_alpha / 2

    def test_shuffling_destroys_persistence(self):
        x = tf.generate_fgn(0.8, 2**15, 32)
        surr = tf.shuffle_surrogate(x, 33)
        _, gh, _ = M.mfdfa(surr)
        assert 0.45 <= M.hurst_exponent(gh) <= 0.55


class TestHelpers:
    def test_hurst_exponent_reads_q2(self):
        q = M.default_q_values()
        h = np.linspace(1.0, 0.4, len(q))
        gh = M.GeneralizedHurst(q_values=q, h=h, h_stderr=np.zeros(len(q)),
                                fit_scale_range=(20, 100))
        i2 = int(np.nonzero(np.isclose(q, 2.0))[0][0])
        assert M.hurst_exponent(gh) == h[i2]

    def test_hurst_exponent_requires_q2(self):
        gh = M.GeneralizedHurst(q_values=np.array([-1.0, 0.0, 1.0, 3.0, 4.0]),
                                h=np.ones(5), h_stderr=np.zeros(5),
                                fit_scale_range=(20, 100))
        with pytest.raises(ValueError):
            M.hurst_exponent(gh)

    @pytest.mark.parametrize("H,beta", [(0.5, 0.0), (0.75, 0.5), (0.25, -0.5)])
    def test_beta_from_hurst(self, H, beta):
        assert M.beta_from_hurst(H) == pytest.approx(beta)

    def test_default_q_grid_contains_zero_and_two(self):
        q = M.default_q_values()
        assert 0.0 in q and 2.0 in q
        assert q[0] == -4.0 and q[-1] == 4.0
