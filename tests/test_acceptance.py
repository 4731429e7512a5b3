"""Acceptance gate: one test per release criterion, run with -v to get
one pass/fail line each. Tolerances are pinned here on purpose; loosen
nothing without revisiting the analytic oracles they rest on."""

import time

import numpy as np
import pytest

import textfract as tf
import textfract.mfdfa as M
from textfract import cli
from textfract.series import cascade_generalized_hurst

from seg_fixtures import CASES


def test_criterion_1_cascade_oracle():
    """Binomial cascade p=0.3, levels=16: h(q) within 0.05 (|q|<=2) and
    0.1 (up to |q|=4) of the analytic values; delta_alpha within 0.1 of
    log2(7/3); under 30 s."""
    start = time.monotonic()
    c = tf.generate_binomial_cascade(0.3, 16)
    n = len(c.values)
    _, gh, spec = M.mfdfa(c, fit_range=(20, n // 40))
    elapsed = time.monotonic() - start

    err = np.abs(gh.h - cascade_generalized_hurst(gh.q_values, 0.3))
    assert err[np.abs(gh.q_values) <= 2].max() < 0.05
    assert err.max() < 0.1
    assert abs(spec.delta_alpha - np.log2(0.7 / 0.3)) < 0.1
    assert elapsed < 30.0
    print(f"criterion 1 PASS: max h(q) error {err.max():.3f}, "
          f"delta_alpha {spec.delta_alpha:.3f}, {elapsed:.1f}s")


def test_criterion_2_monofractal_oracle():
    """fGn H=0.8 -> h(2)=0.8+-0.05 with a narrow spectrum; white noise
    -> h(2)=0.5+-0.03 and a flat fitted spectrum."""
    start = time.monotonic()
    x = tf.generate_fgn(0.8, 2**16, 101)
    _, gh, spec = M.mfdfa(x)
    h2 = M.hurst_exponent(gh)
    assert h2 == pytest.approx(0.8, abs=0.05)
    assert spec.delta_alpha < 0.15

    w = tf.generate_white_noise(2**16, 102)
    _, gh_w, _ = M.mfdfa(w)
    h2_w = M.hurst_exponent(gh_w)
    assert h2_w == pytest.approx(0.5, abs=0.03)
    beta_w = tf.fit_beta(tf.power_spectrum(w)).beta
    assert beta_w == pytest.approx(0.0, abs=0.05)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0  # < 30 s per oracle
    print(f"criterion 2 PASS: fGn h2 {h2:.3f}, white h2 {h2_w:.3f}, "
          f"white beta {beta_w:+.3f}")


@pytest.mark.parametrize("H", [0.55, 0.65, 0.75])
def test_criterion_3_beta_equals_two_h_minus_one(H):
    """Spectral and DFA exponents agree: |beta_fit - (2 h(2)_fit - 1)|
    <= 0.1 across fGn targets."""
    x = tf.generate_fgn(H, 2**16, int(H * 1000))
    beta_fit = tf.fit_beta(tf.power_spectrum(x)).beta
    _, gh, _ = M.mfdfa(x)
    h_fit = M.hurst_exponent(gh)
    gap = abs(beta_fit - (2 * h_fit - 1))
    assert gap <= 0.1
    print(f"criterion 3 PASS (H={H}): beta {beta_fit:.3f} vs "
          f"2h-1 {2 * h_fit - 1:.3f}")


def test_criterion_4_surrogate_behavior():
    """Phase randomization collapses the cascade's singularity spectrum
    to less than half its width; shuffling pulls fGn(0.8) to h(2)~0.5."""
    c = tf.generate_binomial_cascade(0.3, 14)
    fr = (20, len(c.values) // 40)
    _, _, spec = M.mfdfa(c, fit_range=fr)
    _, _, spec_pr = M.mfdfa(tf.phase_randomized_surrogate(c, 103), fit_range=fr)
    assert spec_pr.delta_alpha < spec.delta_alpha / 2

    x = tf.generate_fgn(0.8, 2**15, 104)
    _, gh_sh, _ = M.mfdfa(tf.shuffle_surrogate(x, 105))
    h2_sh = M.hurst_exponent(gh_sh)
    assert 0.45 <= h2_sh <= 0.55
    print(f"criterion 4 PASS: delta_alpha {spec.delta_alpha:.3f} -> "
          f"{spec_pr.delta_alpha:.3f}; shuffled h2 {h2_sh:.3f}")


def test_criterion_5_spectral_estimator_exactness():
    """An exactly sampled f^-1/2 spectrum fits to beta=0.5 within 1e-6;
    Parseval holds to 1e-8 relative."""
    from textfract.spectral import PowerSpectrum

    n = 4096
    freqs = np.arange(1, n // 2 + 1) / n
    ps = PowerSpectrum(freqs=freqs, power=freqs**-0.5)
    fit = tf.fit_beta(ps, fit_range=(freqs[0], freqs[-1]))
    assert abs(fit.beta - 0.5) < 1e-6

    for size in (1000, 1001, 2**13):
        x = np.random.default_rng(size).normal(size=size)
        power = tf.power_spectrum(x).power
        # |X_k|^2 over all bins: DC from the input, each reported bin and
        # its mirror, the Nyquist bin of an even size once
        total = np.sum(x) ** 2 + 2.0 * power.sum() - (power[-1] if size % 2 == 0 else 0.0)
        assert total == pytest.approx(size * np.sum(x**2), rel=1e-8)
    print(f"criterion 5 PASS: beta error {abs(fit.beta - 0.5):.2e}")


def test_criterion_6_segmentation_and_zipf(novel):
    """All hand-labeled snippets segment exactly; the novel yields at
    least 5000 sentences and a mid-rank Zipf slope of -1.0+-0.15 with
    the pooled-terminator pseudo-word inside the fitted band."""
    for text, expected in CASES:
        sents, _ = tf.segment_sentences(tf.tokenize(text))
        assert sents.words.tolist() == expected
    assert len(CASES) >= 30

    text, _ = novel
    doc = tf.tokenize(text, title="novel")
    sents, report = tf.segment_sentences(doc)
    assert report.n_sentences >= 5000

    table = tf.rank_frequency(doc, include_terminators=True)
    counts = table.counts.astype(float)
    ranks = np.arange(1.0, len(counts) + 1)
    sel = (ranks >= 10) & (ranks <= 1000)
    slope, intercept = np.polyfit(np.log10(ranks[sel]), np.log10(counts[sel]), 1)
    assert slope == pytest.approx(-1.0, abs=0.15)

    i_dot = table.surfaces.index("⟨.⟩")
    predicted = 10 ** (slope * np.log10(ranks[i_dot]) + intercept)
    ratio = counts[i_dot] / predicted
    assert 1 / 3 <= ratio <= 3  # inside the Zipf band, qualitatively
    print(f"criterion 6 PASS: {report.n_sentences} sentences, slope "
          f"{slope:.3f}, pseudo-word ratio {ratio:.2f}")


def test_criterion_7_word_recurrence_contrast(novel):
    """Directional check on the novel: the recurrence series of 'the'
    is less multifractal and less correlated than the sentence-length
    series (delta_alpha and beta both smaller)."""
    text, _ = novel
    doc = tf.tokenize(text, title="novel")
    slv = tf.sentence_length_series(tf.segment_sentences(doc)[0])
    values = slv.values.astype(float)
    beta_s = tf.fit_beta(tf.power_spectrum(values)).beta
    _, _, spec_s = M.mfdfa(values)

    rec = tf.word_recurrence_series(doc, "the")
    gaps = rec.values.astype(float)
    beta_w = tf.fit_beta(tf.power_spectrum(gaps)).beta
    _, _, spec_w = M.mfdfa(gaps)

    assert spec_w.delta_alpha < spec_s.delta_alpha
    assert beta_w <= beta_s
    print(f"criterion 7 PASS: delta_alpha {spec_s.delta_alpha:.3f} vs "
          f"{spec_w.delta_alpha:.3f}, beta {beta_s:.3f} vs {beta_w:.3f}")


def test_criterion_8_stretched_exponential_fit():
    """Inverse-transform samples from F = exp(-0.1 l^0.7), n=1e5,
    recover b = 0.7 +- 0.05 on the l > 100 tail."""
    rng = np.random.default_rng(106)
    u = rng.uniform(size=100_000)
    samples = (-np.log(u) / 0.1) ** (1.0 / 0.7)
    fit = tf.fit_stretched_exponential(tf.ccdf(samples), tail_start=100)
    assert fit.b == pytest.approx(0.7, abs=0.05)
    print(f"criterion 8 PASS: b {fit.b:.3f}, mu {fit.mu:.3f}")


def test_criterion_9_batch_determinism(novel_path, tmp_path):
    """Two identical batch runs emit byte-identical JSON/CSV/SVG."""
    outs = []
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        rc = cli.main(["analyze", str(novel_path), "--out", str(out),
                       "--surrogates", "1", "--seed", "17"])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert names  # something was written
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"criterion 9 PASS: {len(names)} files byte-identical")
