import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import textfract as tf
import textfract.mfdfa as M
from textfract import spectral, wavelet
from _novel import sentence_lengths
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


def detrended_variance(p, nu, s, m=2):
    """Reference: the scalar kernel, one np.polyfit per segment. The mean
    squared residual of segment ``nu`` (1-based) at scale ``s`` about its
    least-squares polynomial of order ``m``; segments 1..M_s count from
    the start of the profile, M_s+1..2*M_s from the end."""
    L = p.values
    n = len(L)
    ms = n // s
    assert m + 1 < s and 1 <= nu <= 2 * ms
    if nu <= ms:
        seg = L[(nu - 1) * s : nu * s]
    else:
        j = nu - ms
        seg = L[n - j * s : n - (j - 1) * s]
    k = np.arange(1, s + 1, dtype=float)
    resid = seg - np.polyval(np.polyfit(k, seg, m), k)
    return float(np.mean(resid**2))


class TestDetrendedVariance:
    def test_quadratic_segment_annihilated(self):
        # profile whose first segment is exactly quadratic
        k = np.arange(1, 101, dtype=float)
        quad = tf.Series(0.5 * k**2 - 3 * k + 1)
        assert detrended_variance(quad, 1, 50, m=2) < 1e-16 * 1e4
        assert M.segment_variances(quad, 50, m=2)[0] < 1e-16 * 1e4

    def test_order_zero_is_plain_variance(self):
        seg = np.zeros(10)
        seg[1] = 1.0
        prof = tf.Series(seg)
        expected = np.mean((seg - seg.mean()) ** 2)
        assert detrended_variance(prof, 1, 10, m=0) == pytest.approx(expected)
        assert M.segment_variances(prof, 10, m=0)[0] == pytest.approx(expected)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        prof = tf.profile(rng.normal(size=400))
        for nu, s, m in [(1, 50, 2), (3, 50, 2), (2, 100, 1), (5, 40, 3)]:
            ms = len(prof.values) // s
            if nu <= ms:
                seg = prof.values[(nu - 1) * s : nu * s]
            else:
                j = nu - ms
                seg = prof.values[len(prof.values) - j * s :][:s]
            want = brute_force_lsq_variance(seg, m)
            assert detrended_variance(prof, nu, s, m) == pytest.approx(want, rel=1e-10)
            assert M.segment_variances(prof, s, m)[nu - 1] == pytest.approx(want, rel=1e-10)

    def test_backward_segments_count_from_end(self):
        prof = tf.profile(np.arange(10.0) ** 1.5)
        n, s = len(prof.values), 3
        ms = n // s
        # last backward segment must cover the final s points
        seg = prof.values[n - s :]
        want = np.mean((seg - seg.mean()) ** 2)
        assert detrended_variance(prof, ms + 1, s, m=0) == pytest.approx(want)
        assert M.segment_variances(prof, s, m=0)[ms] == pytest.approx(want)

    def test_degenerate_scale_rejected(self):
        prof = tf.profile(np.random.default_rng(1).normal(size=50))
        with pytest.raises(ValueError, match="scale 3 too small for polynomial order 2"):
            M.segment_variances(prof, 3, m=2)


ORACLE_N = 2**14


def oracle_series(name):
    """fGn, the binomial cascade, and a trend on a large offset: the
    trend leaves a profile quadratic of about 3e5 that a kernel fitting
    uncentred segments cancels against their values."""
    if name == "fgn":
        return tf.generate_fgn(0.75, ORACLE_N, 11).values
    if name == "cascade":
        return tf.generate_binomial_cascade(0.3, 14).values
    k = np.arange(ORACLE_N)
    return 1e6 + 0.01 * k + np.random.default_rng(12).normal(size=ORACLE_N)


class TestSegmentVariances:
    @pytest.mark.parametrize("name", ["fgn", "cascade", "trended"])
    def test_matches_scalar_oracle_in_order(self, name):
        # element nu - 1 is segment nu, the backward ones counted from the end
        prof = tf.profile(oracle_series(name))
        for s in M.default_scales(ORACLE_N)[::4]:
            for m in range(4):
                got = M.segment_variances(prof, int(s), m)
                want = [detrended_variance(prof, nu, int(s), m)
                        for nu in range(1, len(got) + 1)]
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0,
                                           err_msg=f"s={s}, m={m}")


def per_call_qr_segment_variances(p, s, m):
    """Reference: the kernel as it was before the basis was cached, with
    a fresh QR of the design matrix on every call."""
    L = p.values
    n = len(L)
    ms = n // s
    k = np.arange(1, s + 1, dtype=float)
    q_mat, _ = np.linalg.qr(np.vander(k, m + 1))
    f2 = np.empty(2 * ms)
    blocks = (L[: ms * s].reshape(ms, s), L[n - ms * s :].reshape(ms, s)[::-1])
    for out, block in zip((f2[:ms], f2[ms:]), blocks):
        resid = block - block.mean(axis=1, keepdims=True)
        resid -= (resid @ q_mat) @ q_mat.T
        np.einsum("ij,ij->i", resid, resid, out=out)
    f2 /= s
    return f2


def row_max_surface(x, q_values, scales, m=2):
    """Reference: F_q(s) as it was before the q moments were taken in
    place, with each row's max by ``a.max(axis=1)`` and new arrays for
    ``a - amax`` and its exp."""
    prof = tf.profile(x)
    q_values = np.asarray(q_values, dtype=float)
    F = np.empty((len(q_values), len(scales)))
    is_zero = q_values == 0
    q_nonzero = q_values[~is_zero]
    for j, s in enumerate(scales):
        f2 = per_call_qr_segment_variances(prof, int(s), m)
        log_f2 = np.log(np.maximum(f2, np.finfo(float).tiny))
        F[is_zero, j] = np.exp(0.5 * log_f2.mean())
        a = np.multiply.outer(q_nonzero / 2.0, log_f2)
        amax = a.max(axis=1)
        log_mean = amax + np.log(np.mean(np.exp(a - amax[:, None]), axis=1))
        F[~is_zero, j] = np.exp(log_mean / q_nonzero)
    return F


class TestCachedKernel:
    """The cached trend basis and the in-place q moments give the same
    bits as the kernel they replaced."""

    SCALES = [12, 20, 37, 100, 513, 1600]

    def test_segment_variances_match_per_call_qr(self):
        prof = tf.profile(oracle_series("fgn"))
        for m in range(M.MAX_DETREND_ORDER + 1):
            for s in self.SCALES:
                assert np.array_equal(M.segment_variances(prof, s, m),
                                      per_call_qr_segment_variances(prof, s, m)), (s, m)

    def test_segment_variances_match_after_eviction(self):
        prof = tf.profile(oracle_series("trended"))
        first = M.default_scales(ORACLE_N)
        second = first + 1  # as many scales again, none of them in the first grid
        assert len(second) == M._N_SCALES and not set(first) & set(second)
        M._trend_basis.cache_clear()
        for grid in (first, second, first):
            misses = M._trend_basis.cache_info().misses
            for s in grid:
                assert np.array_equal(M.segment_variances(prof, int(s), 3),
                                      per_call_qr_segment_variances(prof, int(s), 3)), s
            assert M._trend_basis.cache_info().misses == misses + len(grid)

    @pytest.mark.parametrize("q", [
        M.default_q_values(),
        M.default_q_values(0.5, 4.0, 0.5),
        M.default_q_values(-6.0, -0.5, 0.5),
        [-40.0, 0.0, 2.0],
        [-40.0, -3.0, 5.0],
    ], ids=["default", "positive", "negative", "large_negative_with_zero", "no_zero"])
    @pytest.mark.parametrize("scale", [1.0, 1e-100], ids=["fgn", "tiny_variance"])
    def test_surface_matches_row_max_loop(self, q, scale):
        x = scale * tf.generate_fgn(0.75, 2048, 14).values
        scales = M.default_scales(len(x))
        for m in (1, 2, 4):
            got = M.fluctuation_surface(x, q_values=q, scales=scales, m=m).F
            assert np.array_equal(got, row_max_surface(x, q, scales, m)), m

    def test_basis_cache_is_bounded_and_read_only(self):
        assert M._trend_basis.cache_info().maxsize == M._N_SCALES
        basis = M._trend_basis(40, 2)
        assert basis.shape == (40, 3) and not basis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 0.0


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

    def test_matches_scalar_definition_per_q(self):
        x = tf.generate_fgn(0.75, 4096, 13).values
        q = M.default_q_values()
        scales = [20, 45, 100, 220]
        surf = M.fluctuation_surface(x, q_values=q, scales=scales)
        prof = tf.profile(x)
        for j, s in enumerate(scales):
            f2 = M.segment_variances(prof, s)
            for i, qi in enumerate(q):
                want = (np.exp(0.5 * np.mean(np.log(f2))) if qi == 0
                        else np.mean(f2 ** (qi / 2)) ** (1 / qi))
                assert surf.F[i, j] == pytest.approx(want, rel=1e-12, abs=0), (qi, s)

    def test_large_negative_q_finite_on_tiny_variances(self):
        # F^2 near 1e-200 puts (F^2)^(q/2) at 1e4000 for q = -40; the
        # log-sum-exp keeps F finite, and F scales with the series
        x = tf.generate_fgn(0.75, 2048, 14).values
        q, scales = [-40.0, 0.0, 2.0], [20, 50, 100]
        tiny = M.fluctuation_surface(1e-100 * x, q_values=q, scales=scales)
        base = M.fluctuation_surface(x, q_values=q, scales=scales)
        assert np.isfinite(tiny.F).all() and (tiny.F > 0).all()
        np.testing.assert_allclose(tiny.F, 1e-100 * base.F, rtol=1e-9)

    def test_zero_variance_segment_rejected_for_negative_q(self):
        # mean exactly 0, so the profile is exactly 0 over the leading zeros
        x = np.zeros(2000)
        x[-200:] = np.tile([1.0, -1.0], 100)
        with pytest.raises(ValueError, match="segment 1 at scale 20 is exactly detrended"):
            M.fluctuation_surface(x, q_values=[-2.0], scales=[20, 40, 80])

    def test_subnormal_variance_rejected(self):
        # values down to 2^-86 of the largest: max|x| is in range at 2^-458,
        # but the smallest F^2 are subnormal, which put h(q) off by 0.94
        x = np.ldexp(tf.generate_binomial_cascade(0.01, 13).values, -458)
        with pytest.raises(ValueError, match=r"F\^2 at scale \d+ is below the smallest "
                                             "normal float; the exponents do not depend"):
            M.fluctuation_surface(x)

    def test_q_within_float64_bound(self):
        # past the bound q/2 * (ln F^2 - its extreme) can overflow; at it,
        # every F is finite
        x = tf.generate_fgn(0.75, 2000, 3).values
        q = [-M.MAX_ABS_Q, 2.0, M.MAX_ABS_Q]
        assert np.isfinite(M.fluctuation_surface(x, q_values=q).F).all()
        with pytest.raises(ValueError, match=r"^\|q\| up to 2\.535e\+305 overflows float64; "
                                             r"at most 1\.268e\+305$"):
            M.fluctuation_surface(x, q_values=[2.0, 2 * M.MAX_ABS_Q])

    @pytest.mark.parametrize("run", [M.fluctuation_surface, M.mfdfa])
    @pytest.mark.parametrize("x", [
        np.zeros(5000),
        np.full(5000, 3.0),
        # 3.0 and the next float up in turn: F^2 is rounding noise, which
        # a fit would read as H = 0.0008
        np.where(np.arange(5000) % 2, np.nextafter(3.0, 4.0), 3.0),
    ], ids=["zeros", "constant", "ulp_steps"])
    def test_series_flat_to_rounding_rejected(self, run, x):
        with pytest.raises(ValueError, match="series does not vary beyond rounding"):
            run(x)

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

    @pytest.mark.parametrize("call, message", [
        (lambda x: M.default_q_values(-4, 4, 0),
         "-4 to 4 in steps of 0: the bounds must be finite and the q step in (0, 6.704e+153]"),
        (lambda x: M.default_q_values(-4, 4, np.nan), "in steps of nan: the bounds must be"),
        (lambda x: M.default_q_values(-4, 4, -0.25), "in steps of -0.25: the bounds must"),
        (lambda x: M.default_q_values(-4, np.inf, 0.25), "to inf in steps of 0.25: the"),
        (lambda x: M.default_scales(1000, 0), "s_min must be >= 1, got 0"),
        (lambda x: M.fluctuation_surface(x, scales=[0, 20, 40]),
         "scale 0 too small for polynomial order 2"),
        (lambda x: M.fluctuation_surface(x, scales=[-5, 20]),
         "scale -5 too small for polynomial order 2"),
        (lambda x: M.fluctuation_surface(x, scales=[20, 40, 1]),
         "scale 1 too small for polynomial order 2"),
        (lambda x: M.fluctuation_surface(x, scales=[]), "non-empty 1-D grid"),
        (lambda x: M.fluctuation_surface(x, q_values=[]), "non-empty 1-D grid"),
        (lambda x: M.fluctuation_surface(x, q_values=[-2.0, np.nan, 2.0]), "|q| up to nan"),
        (lambda x: M.fluctuation_surface(x, q_values=[[-2.0, 2.0], [1.0, 3.0]]),
         "non-empty 1-D grid"),
        (lambda x: M.fluctuation_surface(x, scales=[[20, 40], [60, 80]]),
         "non-empty 1-D grid"),
    ], ids=["q_step_zero", "q_step_nan", "q_step_negative", "q_max_inf", "s_min_zero",
            "scale_zero", "scale_negative", "scale_last", "no_scales", "no_q", "q_nan",
            "q_2d", "scales_2d"])
    def test_bad_grid_raises_by_name(self, call, message, monkeypatch):
        x = tf.generate_fgn(0.75, 2000, 3).values
        tried = []
        monkeypatch.setattr(M, "segment_variances", lambda *args, **kw: tried.append(args))
        with pytest.raises(ValueError, match=re.escape(message)):
            call(x)
        assert tried == []  # once per call, before any scale is tried

    def test_scale_zero_rejected_before_dividing(self):
        with pytest.raises(ValueError, match="scale 0 too small for polynomial order 2"):
            M.segment_variances(tf.profile(np.arange(100.0)), 0)

    def test_order_above_most_rejected(self):
        # the monomial basis loses F^2's digits above MAX_DETREND_ORDER = 10
        prof = tf.profile(np.random.default_rng(0).normal(size=400))
        assert M.MAX_DETREND_ORDER == 10
        assert M.segment_variances(prof, 20, m=10)[0] == pytest.approx(
            detrended_variance(prof, 1, 20, m=10), rel=1e-6)
        with pytest.raises(ValueError, match="order 11 not in 0..10"):
            M.segment_variances(prof, 20, m=11)


def polyfit_generalized_hurst(surf):
    """Reference: one np.polyfit(cov=True) per q over the full scale grid."""
    log_s = np.log(surf.scales.astype(float))
    h, stderr = np.empty(len(surf.q_values)), np.empty(len(surf.q_values))
    for i in range(len(surf.q_values)):
        (h[i], _), cov = np.polyfit(log_s, np.log(surf.F[i]), 1, cov=True)
        stderr[i] = np.sqrt(cov[0, 0])
    return h, stderr


class TestGeneralizedHurst:
    @pytest.mark.parametrize("series", [
        lambda: tf.generate_fgn(0.75, 2**14, 3),
        lambda: tf.generate_binomial_cascade(0.3, 14),
        lambda: sentence_lengths(),
    ], ids=["fgn", "cascade", "novel"])
    def test_matches_polyfit_per_q(self, series):
        surf = M.fluctuation_surface(series())
        gh = M.fit_generalized_hurst(surf)
        h, stderr = polyfit_generalized_hurst(surf)
        np.testing.assert_allclose(gh.h, h, rtol=1e-12)
        np.testing.assert_allclose(gh.h_stderr, stderr, rtol=1e-12)

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


    @settings(max_examples=25)
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

    def test_step_within_float64_bound(self):
        # np.gradient multiplies two steps of q: past the bound it overflowed
        # with numpy warnings and gave f = 1 at every q
        def spectrum(step):
            q = 2.0 + step * np.arange(5)
            return M.singularity_spectrum(M.GeneralizedHurst(
                q_values=q, h=np.linspace(1, 0.5, 5), h_stderr=np.zeros(5),
                fit_scale_range=(20, 100)))

        spec = spectrum(M.MAX_Q_STEP)
        assert np.isfinite(spec.alphas).all() and np.isfinite(spec.f_values).all()
        with pytest.raises(ValueError, match=r"^q step 1\.341e\+154 overflows float64; "
                                             r"at most 6\.704e\+153$"):
            spectrum(2 * M.MAX_Q_STEP)

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

    @pytest.mark.parametrize("n, s_min, s_max", [
        (n, 20, None) for n in (128, 256, 1000, 16384, 2**17)
    ] + [
        (0, s_min, s_max) for s_min, s_max in
        [(10, 40), (20, 30), (20, 21), (4, 12), (1, 2), (5, 5000), (10, 200)]
    ])
    def test_scale_grid_matches_unique(self, n, s_min, s_max):
        # the grid drops duplicates as np.unique does; narrow grids round
        # several of their points to one scale
        points = np.logspace(np.log10(s_min), np.log10(s_max or n // 5), M._N_SCALES)
        want = np.unique(np.round(points).astype(int))
        got = M.default_scales(n, s_min, s_max)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_narrow_scale_grid_has_duplicates_to_drop(self):
        assert len(M.default_scales(0, 10, 40)) == 25 < M._N_SCALES


@pytest.mark.parametrize("call, message", [
    (lambda x: M.default_q_values(-1e308, 1e308, 1e-320),
     "-1e+308 to 1e+308 in steps of 1e-320 gives inf points; a q grid holds 5 to 401"),
    (lambda x: M.default_q_values(-1e308, 1e308, 1e300),
     "in steps of 1e+300: the bounds must be finite and the q step in (0, 6.704e+153]"),
    (lambda x: M.default_q_values(-4, 4, 1e-3), "gives 8001 points; a q grid holds 5 to 401"),
    (lambda x: M.default_q_values(0.5, 2, 0.5), "gives 4 points; a q grid holds 5 to 401"),
    (lambda x: M.default_q_values(2, 2 + 4 * M.MAX_Q_STEP,
                                  np.nextafter(M.MAX_Q_STEP, np.inf)),
     "the bounds must be finite and the q step in (0, 6.704e+153]"),
    (lambda x: M.default_scales(1000, 20, np.inf), "s_max must be below 2**53, got inf"),
    (lambda x: M.default_scales(1000, 20, np.nan), "s_max must be below 2**53, got nan"),
    (lambda x: M.default_scales(1000, 20, 1e300), "s_max must be below 2**53, got 1e+300"),
    (lambda x: M.fluctuation_surface(x, scales=[20.7, 40.2, 60, 80, 100, 120]),
     "scale 20.7 is not a whole number"),
    (lambda x: M.fluctuation_surface(x, q_values=np.linspace(-4, 4, M.MAX_Q_POINTS + 1)),
     "q_values holds 402 points; a q grid holds at most 401"),
    (lambda x: tf.wavelet_map(x, scales=[10, np.inf]), "scale inf is not positive and finite"),
    (lambda x: tf.wavelet_map(x, scales=[np.nan, 10]), "scale nan is not positive and finite"),
    (lambda x: tf.wavelet_map(x, scales=[]), "scales must be a non-empty 1-D grid"),
    (lambda x: tf.wavelet_map(x, scales=[[4.0, 8.0]]), "scales must be a non-empty 1-D grid"),
    (lambda x: wavelet.default_scales(2000, wavelet.MAX_SCALES + 1),
     "n_scales 1001 not in 1..1000"),
    (lambda x: tf.fit_beta(tf.power_spectrum(x),
                           bins_per_decade=spectral.MAX_BINS_PER_DECADE + 1),
     "bins_per_decade 100001 not in 1..100000"),
], ids=["q_step_uncountable", "q_step_huge", "q_grid_8001_points", "q_grid_4_points",
        "q_step_one_float_past_most", "s_max_inf", "s_max_nan", "s_max_past_int64",
        "scales_not_whole", "q_values_402_points",
        "wavelet_scale_inf", "wavelet_scale_nan", "wavelet_no_scales", "wavelet_scales_2d",
        "wavelet_n_scales_past_most", "bins_per_decade_past_most"])
def test_grid_builder_rejects_bad_input_by_name(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tf.generate_fgn(0.75, 2000, 3).values)


def test_whole_float_scales_run_as_ints():
    x = tf.generate_fgn(0.75, 2000, 3).values
    whole = M.fluctuation_surface(x, scales=[20.0, 40.0, 60.0, 80.0, 100.0, 120.0])
    ints = M.fluctuation_surface(x, scales=[20, 40, 60, 80, 100, 120])
    assert whole.scales.dtype == ints.scales.dtype and np.array_equal(whole.scales, ints.scales)
    assert np.array_equal(whole.F, ints.F)
