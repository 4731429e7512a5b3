"""Numeric series container, surrogates, and synthetic generators.

All randomness goes through ``numpy.random.Generator`` seeded with PCG64,
so every surrogate and generator is a deterministic function of
``(params, seed)`` on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Series",
    "as_values",
    "profile",
    "shuffle_surrogate",
    "phase_randomized_surrogate",
    "generate_binomial_cascade",
    "generate_fgn",
    "generate_white_noise",
    "cascade_generalized_hurst",
    "cascade_alpha_width",
]


@dataclass(frozen=True)
class Series:
    """An ordered real-valued series: sentence lengths, recurrence gaps,
    a surrogate or synthetic data. ``provenance`` records where the values
    came from (e.g. ``{"kind": "shuffled", "seed": 7}``) and is carried
    through serialization, so every output traces back to its inputs.
    """

    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("series must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("series contains non-finite values")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)


def as_values(s) -> np.ndarray:
    """The values of a Series, or of an array or sequence made into one,
    so that every series entering the library meets ``Series``'s rule:
    one-dimensional and finite, else ValueError."""
    return (s if isinstance(s, Series) else Series(s)).values


def _reject_flat(values):
    """Raise for a series that does not vary beyond rounding,
    max|x - mean| <= n * eps * max|x| (the rule ``_line_fit`` applies to
    x): its power away from DC and its detrended variances are rounding
    noise, and a fit through them would read as a confident exponent.
    The series has passed ``_reject_amplitude``, so its mean is finite."""
    spread = float(np.abs(values - values.mean()).max())
    bound = len(values) * np.finfo(float).eps * float(np.abs(values).max())
    if not spread > bound:
        raise ValueError(f"series does not vary beyond rounding: max|x - mean| = "
                         f"{spread:.4g} <= n * eps * max|x| = {bound:.4g}")


def _reject_amplitude(values, degree: int, length=None):
    """Raise for a series whose amplitude a = max|x| float64 cannot carry
    through a stage of degree d in x (2: spectrum, F^2; 1: wavelet map,
    phase surrogate) whose longest transform has length m (default n).
    Such a stage's sums stay below 2 m^3 a^d: |X_k|^2 <= (n a)^2; the
    profile is at most n a, a residual 2 n a, a sum of s <= n/4 squares
    n^3 a^2; an inverse FFT sums m products of |rfft(x)| <= n a with a
    phase, or with the wavelet kernel's |rfft| <= m max|psi| = 1.38 m. So
    hi = (finfo.max / (2 m^3))^(1/d). A series that varies beyond rounding
    differs from its mean by eps * a or more, whose d-th power is normal
    for a >= lo = finfo.tiny^(1/d) / eps. An all-zero series passes: every
    stage is exact on it."""
    fi, amp = np.finfo(float), float(np.abs(values).max())
    lo = fi.tiny ** (1 / degree) / fi.eps
    hi = (fi.max / (2.0 * (length or len(values)) ** 3)) ** (1 / degree)
    if amp and not lo <= amp <= hi:
        raise ValueError(f"series amplitude max|x| = {amp:.4g} is outside [{lo:.4g}, "
                         f"{hi:.4g}] at n = {len(values)}; the exponents do not depend "
                         "on scale, so rescale the series")


def _line_fit(x, y, w=None):
    """Least-squares line y = slope * x + intercept, weighted by ``w``
    (default equal), one fit per row of a 2-D ``y``. Returns the slope, the
    intercept, the slope's standard error on len(x) - 2 dof and the residuals."""
    if not np.isfinite(y).all():
        raise ValueError("cannot fit a line through non-finite values")
    n = len(x)
    w = np.full(n, 1.0 / n) if w is None else w / w.sum()
    x_bar = (w * x).sum()
    y_bar = (w * y).sum(axis=-1)
    dx = x - x_bar
    sxx = (w * dx**2).sum()
    # the rounding in x_bar and dx is about n * eps * max|x|
    if not sxx > (n * np.finfo(float).eps * np.abs(x).max()) ** 2:
        raise ValueError("cannot fit a line: x does not vary beyond rounding")
    slope = (w * dx * (y - y_bar[..., None])).sum(axis=-1) / sxx
    intercept = y_bar - slope * x_bar
    resid = y - (slope[..., None] * x + intercept[..., None])
    sigma2 = (w * resid**2).sum(axis=-1) * n / (n - 2)
    return slope, intercept, np.sqrt(sigma2 / (sxx * n)), resid


def _random_phases(spec, n: int, seed: int) -> np.ndarray:
    """The real length-n series whose rfft has the amplitudes ``|spec|``
    and uniform random phases. DC and, for even n, the Nyquist bin must
    stay real: each keeps the sign of its real part in ``spec``."""
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=len(spec))
    real_bins = [0, -1] if n % 2 == 0 else [0]
    phases[real_bins] = np.where(np.real(spec[real_bins]) >= 0, 0.0, np.pi)
    return np.fft.irfft(np.abs(spec) * np.exp(1j * phases), n=n)


def profile(s) -> Series:
    """Cumulative demeaned sum L(j) of the series, the input to detrended
    fluctuation analysis. The terminal value is zero up to accumulated
    rounding.
    """
    x = as_values(s)
    if len(x) < 2:
        raise ValueError("series too short for a profile (need >= 2 points)")
    return Series(np.cumsum(x - x.mean()))


def shuffle_surrogate(s, seed: int) -> Series:
    """Random permutation of the series: destroys all temporal
    correlations while keeping the value distribution exactly."""
    x = as_values(s)
    rng = np.random.default_rng(seed)
    return Series(rng.permutation(x), provenance={"kind": "shuffled", "seed": int(seed)})


def phase_randomized_surrogate(s, seed: int) -> Series:
    """Fourier-phase randomized surrogate.

    Keeps every spectral amplitude (so all linear correlations survive)
    and replaces the phases of the positive frequencies with uniform
    draws; DC and, for even length, the Nyquist bin stay real so the
    inverse transform is a real series.

    Every amplitude of ``rfft(output)`` equals the same amplitude of
    ``rfft(input)`` to within floating-point rounding relative to the
    largest amplitude. The amplitudes are exact in the spectrum built
    here; ``irfft`` and a new ``rfft`` add that rounding. A bin that is
    itself rounding noise can therefore change by more than its own size.
    When the input sums to zero, the DC amplitude that ``rfft`` reports
    is the FFT's own rounding noise: ``generate_fgn(0.75, 4096, 5)`` sums
    to exactly ``0.0``, yet its ``rfft`` DC bin is -7.1e-15.
    """
    x = as_values(s)
    n = len(x)
    if n < 4:
        raise ValueError("series too short for phase randomization (need >= 4 points)")
    _reject_amplitude(x, 1)
    return Series(_random_phases(np.fft.rfft(x), n, seed),
                  provenance={"kind": "phase_randomized", "seed": int(seed)})


def generate_binomial_cascade(p: float, levels: int) -> Series:
    """Deterministic binomial multiplicative cascade of length 2**levels.

    Value at index k (1-based) is p**n * (1-p)**(levels-n) with n the
    number of ones in the binary expansion of k-1. The values sum to 1
    exactly, and the generalized Hurst exponent is known in closed form
    (see :func:`cascade_generalized_hurst`), which makes this the main
    correctness oracle for the multifractal estimator.
    """
    if not (0.0 < p <= 0.5):
        raise ValueError(f"p must be in (0, 0.5], got {p}")
    if not (1 <= levels <= 24):
        raise ValueError(f"levels must be in [1, 24], got {levels}")
    k = np.arange(2**levels, dtype=np.uint32)
    ones = np.zeros_like(k)
    for bit in range(levels):
        ones += (k >> bit) & 1
    values = p ** ones.astype(float) * (1.0 - p) ** (levels - ones).astype(float)
    return Series(
        values,
        provenance={"kind": "binomial_cascade", "p": p, "levels": levels},
    )


def cascade_generalized_hurst(q, p: float):
    """Closed-form h(q) of the binomial cascade: 1/q - log2(p^q + (1-p)^q)/q,
    with the analytic q -> 0 limit filled in."""
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    nz = q != 0
    out[nz] = 1.0 / q[nz] - np.log2(p ** q[nz] + (1 - p) ** q[nz]) / q[nz]
    out[~nz] = -0.5 * (np.log2(p) + np.log2(1 - p))
    return out if out.ndim else float(out)


def cascade_alpha_width(p: float) -> float:
    """Full singularity-spectrum width of the binomial cascade,
    alpha_max - alpha_min = log2((1-p)/p)."""
    return float(np.log2((1.0 - p) / p))


def generate_fgn(H: float, n: int, seed: int) -> Series:
    """Fractional Gaussian noise by spectral synthesis.

    Amplitudes are shaped to the target spectral density f**-(2H-1),
    phases are uniform, and the result is standardized to zero mean and
    unit variance. Bias at extreme H is acceptable at the tolerances the
    estimator round-trip tests use.
    """
    if not (0.0 < H < 1.0):
        raise ValueError(f"H must be in (0, 1), got {H}")
    if n < 64:
        raise ValueError(f"n must be >= 64, got {n}")
    freqs = np.fft.rfftfreq(n)
    amplitudes = np.zeros(len(freqs))
    amplitudes[1:] = freqs[1:] ** (-(2.0 * H - 1.0) / 2.0)
    x = _random_phases(amplitudes, n, seed)
    x = (x - x.mean()) / x.std()
    return Series(x, provenance={"kind": "fgn", "H": H, "n": n, "seed": int(seed)})


def generate_white_noise(n: int, seed: int) -> Series:
    """Independent standard Gaussian draws."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    x = np.random.default_rng(seed).standard_normal(n)
    return Series(x, provenance={"kind": "white_noise", "n": n, "seed": int(seed)})
