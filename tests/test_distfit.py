import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import textfract as tf
from textfract.distfit import CCDF


def sample_stretched_exponential(mu, b, size, rng):
    """Inverse-transform sampling oracle for F(l) = exp(-mu l^b):
    l = (-ln U / mu)^(1/b) with U uniform on (0, 1)."""
    u = rng.uniform(size=size)
    return (-np.log(u) / mu) ** (1.0 / b)


class TestCcdf:
    def test_tiny_sample_by_hand(self):
        c = tf.ccdf(np.array([3.0, 1.0, 3.0, 7.0]))
        np.testing.assert_array_equal(c.lengths, [1.0, 3.0, 7.0])
        np.testing.assert_allclose(c.F, [1.0, 0.75, 0.25])
        assert c.n_samples == 4

    def test_first_value_is_one(self):
        c = tf.ccdf(np.random.default_rng(0).integers(1, 40, 500).astype(float))
        assert c.F[0] == 1.0
        assert np.all(np.diff(c.F) < 0)
        assert c.F[-1] > 0

    def test_pooling_equals_concatenation(self):
        rng = np.random.default_rng(1)
        a = rng.integers(1, 30, 200).astype(float)
        b = rng.integers(1, 30, 300).astype(float)
        pooled = tf.ccdf([a, b])
        merged = tf.ccdf(np.concatenate([a, b]))
        np.testing.assert_array_equal(pooled.lengths, merged.lengths)
        np.testing.assert_array_equal(pooled.F, merged.F)
        assert pooled.n_samples == 500

    def test_duplicates_do_not_change_shape(self):
        x = np.array([2.0, 5.0, 9.0])
        c1 = tf.ccdf(x)
        c2 = tf.ccdf(np.repeat(x, 4))
        np.testing.assert_array_equal(c1.lengths, c2.lengths)
        np.testing.assert_allclose(c1.F, c2.F)

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(1, 300) | st.floats(-1e6, 1e6),
                           min_size=1, max_size=500),
           seed=st.integers(0, 2**16))
    def test_shuffle_leaves_ccdf_unchanged(self, values, seed):
        c = tf.ccdf(np.array(values, dtype=float))
        s = tf.ccdf(tf.shuffle_surrogate(values, seed))
        np.testing.assert_array_equal(s.lengths, c.lengths)
        np.testing.assert_array_equal(s.F, c.F)
        assert s.n_samples == c.n_samples

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tf.ccdf(np.array([]))


class TestStretchedExponentialFit:
    def test_exact_curve_recovered(self):
        lengths = np.linspace(101, 800, 60)
        mu, b = 0.02, 0.7
        F = np.exp(-mu * lengths**b)
        c = CCDF(lengths=lengths, F=F, n_samples=10**6)
        fit = tf.fit_stretched_exponential(c, tail_start=100)
        assert abs(fit.b - b) < 1e-9
        assert abs(fit.mu - mu) < 1e-9
        assert fit.residual < 1e-9
        assert fit.n_points == 60

    def test_sampling_oracle_round_trip(self):
        rng = np.random.default_rng(2)
        mu, b = 0.05, 0.7
        x = sample_stretched_exponential(mu, b, 200_000, rng)
        fit = tf.fit_stretched_exponential(tf.ccdf(x), tail_start=100)
        assert fit.b == pytest.approx(b, abs=0.05)
        assert fit.mu == pytest.approx(mu, rel=0.2)

    def test_pure_exponential_has_b_one(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(scale=120.0, size=200_000)
        fit = tf.fit_stretched_exponential(tf.ccdf(x), tail_start=100)
        assert fit.b == pytest.approx(1.0, abs=0.05)

    def test_stable_under_subsampling(self):
        rng = np.random.default_rng(4)
        x = sample_stretched_exponential(0.05, 0.7, 400_000, rng)
        full = tf.fit_stretched_exponential(tf.ccdf(x), tail_start=100)
        half = tf.fit_stretched_exponential(tf.ccdf(x[::2]), tail_start=100)
        assert half.b == pytest.approx(full.b, abs=0.05)

    def test_tail_start_respected(self):
        rng = np.random.default_rng(5)
        x = sample_stretched_exponential(0.05, 0.7, 100_000, rng)
        fit = tf.fit_stretched_exponential(tf.ccdf(x), tail_start=150)
        assert fit.fit_range[0] == 150.0
        assert fit.fit_range[1] <= x.max()

    def test_non_positive_lengths_left_out(self, capfd):
        # ln l is undefined at l <= 0, so a negative tail_start fits what 0 does
        c = tf.ccdf(np.random.default_rng(6).normal(size=2000))
        below = tf.fit_stretched_exponential(c, tail_start=-1)
        at_zero = tf.fit_stretched_exponential(c, tail_start=0)
        assert ((below.mu, below.b, below.n_points)
                == (at_zero.mu, at_zero.b, at_zero.n_points))
        out, err = capfd.readouterr()
        assert "DLASCL" not in out + err

    def test_too_few_tail_points(self):
        c = tf.ccdf(np.arange(1.0, 50.0))
        with pytest.raises(ValueError, match="tail points"):
            tf.fit_stretched_exponential(c, tail_start=100)
