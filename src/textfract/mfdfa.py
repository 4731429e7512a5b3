"""Multifractal Detrended Fluctuation Analysis.

Pipeline: series -> profile -> detrended segment variances F^2(nu, s)
-> q-th order fluctuation functions F_q(s) -> generalized Hurst
exponents h(q) -> singularity spectrum (alpha, f(alpha)).

Conventions fixed here and reported with every result:
  * segments of length s are taken from both ends of the profile
    (2*M_s segments per scale), so no points are silently discarded;
  * detrending polynomial order m defaults to 2;
  * q = 0 uses the logarithmic-average limit of F_q;
  * F^2 is the mean of *squared* residuals (the standard MFDFA
    definition), so F_2(s) is the classic DFA fluctuation function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .series import Series, _line_fit, _reject_amplitude, _reject_flat, as_values, profile

__all__ = [
    "FluctuationSurface",
    "GeneralizedHurst",
    "SingularitySpectrum",
    "default_q_values",
    "default_scales",
    "segment_variances",
    "fluctuation_surface",
    "fit_generalized_hurst",
    "singularity_spectrum",
    "hurst_exponent",
    "beta_from_hurst",
    "mfdfa",
]

_N_SCALES = 30  # log-spaced points of the default scale grid
MIN_FIT_SCALES = 6  # fewest scales an h(q) fit accepts
# the monomial basis on k = 1..s loses F^2's digits as the order grows:
# relative errors of 9e-11 at order 10, 3e-7 at 15 and 2e-3 at 20 on fGn
MAX_DETREND_ORDER = 10
# The q grid's float64 range, with a factor of 2 to spare for rounding.
# fluctuation_surface weighs q/2 * (ln F^2 - its extreme), and ln F^2 of a
# normal F^2 spans at most ln(max / tiny) = 1417, so |q| <= MAX_ABS_Q;
# singularity_spectrum's np.gradient(h, q) multiplies two steps of q,
# about 2 step^2, so the step <= MAX_Q_STEP.
_FI = np.finfo(float)
MAX_ABS_Q = float(_FI.max / (np.log(_FI.max) - np.log(_FI.tiny)))
MAX_Q_STEP = float(np.sqrt(_FI.max) / 2)
# MFDFA holds n_q x 2*M_s floats per scale: at most a step of 0.02 over [-4, 4]
MAX_Q_POINTS = 401


@dataclass(frozen=True)
class FluctuationSurface:
    q_values: np.ndarray
    scales: np.ndarray
    F: np.ndarray  # shape (len(q_values), len(scales)), strictly positive
    n_segments: np.ndarray  # 2*M_s per scale


@dataclass(frozen=True)
class GeneralizedHurst:
    q_values: np.ndarray
    h: np.ndarray
    h_stderr: np.ndarray
    fit_scale_range: tuple[int, int]


@dataclass(frozen=True)
class SingularitySpectrum:
    q_values: np.ndarray
    alphas: np.ndarray
    f_values: np.ndarray

    @property
    def delta_alpha(self) -> float:
        return float(self.alphas.max() - self.alphas.min())

    @property
    def alpha_at_peak(self) -> float:
        return float(self.alphas[np.argmax(self.f_values)])


def default_q_values(q_min: float = -4.0, q_max: float = 4.0, q_step: float = 0.25):
    """Uniform q grid ``q_min + q_step * k``, k = 0..round((q_max - q_min) / q_step),
    of 5 to ``MAX_Q_POINTS`` points; a q within 1e-12 of 0 is 0."""
    grid = f"{q_min} to {q_max} in steps of {q_step}"
    if not (np.isfinite([q_min, q_max]).all() and 0 < q_step <= MAX_Q_STEP):
        raise ValueError(f"{grid}: the bounds must be finite and the q step in "
                         f"(0, {MAX_Q_STEP:.4g}]")
    span = (float(q_max) - float(q_min)) / float(q_step)  # a numpy scalar would warn on overflow
    n_q = round(span) + 1 if np.isfinite(span) else span
    if not 5 <= n_q <= MAX_Q_POINTS:
        raise ValueError(f"{grid} gives {max(n_q, 0)} points; a q grid holds 5 to {MAX_Q_POINTS}")
    q = q_min + q_step * np.arange(n_q)
    return np.where(np.abs(q) < 1e-12, 0.0, q)


def default_scales(n: int, s_min: int = 20, s_max: int | None = None) -> np.ndarray:
    """About ``_N_SCALES`` log-spaced integer scales in [s_min, n/5]."""
    if not s_min >= 1:
        raise ValueError(f"s_min must be >= 1, got {s_min}")
    if s_max is None:
        s_max = n // 5
    if not s_max < 2**53:  # NaN and inf too; whole in float64, and 4 * s_max fits int64
        raise ValueError(f"s_max must be below 2**53, got {s_max}")
    if s_max <= s_min:
        raise ValueError(f"series of length {n} leaves no room for scales >= {s_min}")
    scales = np.round(np.logspace(np.log10(s_min), np.log10(s_max), _N_SCALES)).astype(int)
    # the grid is sorted, so a duplicate sits next to its twin; np.unique
    # would import numpy.ma to do the same
    return scales[np.r_[True, scales[1:] != scales[:-1]]]


@functools.lru_cache(maxsize=_N_SCALES)
def _trend_basis(s: int, m: int) -> np.ndarray:
    """Orthonormal basis (s, m + 1) of the order-``m`` polynomials on
    k = 1..s. Every MFDFA pass over one scale grid shares it, so it is
    read-only; the cache holds one default grid."""
    k = np.arange(1, s + 1, dtype=float)
    q_mat, _ = np.linalg.qr(np.vander(k, m + 1))
    q_mat.flags.writeable = False
    return q_mat


def segment_variances(p: Series, s: int, m: int = 2) -> np.ndarray:
    """F^2(nu, s) for all 2*M_s segments at one scale, vectorized, in
    ``nu`` order: element ``nu - 1`` is the mean squared residual of
    segment ``nu`` about its least-squares polynomial of order ``m``.
    Segments 1..M_s count from the start of the profile, M_s+1..2*M_s
    from the end.

    Each segment is centred on its own mean before its fit is subtracted
    in place. The mean lies in the span of the trend polynomial, so the
    residuals are unchanged; centring first keeps the profile's offset
    out of the projection, where it would cancel to the last digits. The
    orthonormal basis of the design matrix is cached per (s, m) across
    passes.
    """
    L = p.values
    n = len(L)
    if not 0 <= m <= MAX_DETREND_ORDER:
        raise ValueError(f"polynomial order {m} not in 0..{MAX_DETREND_ORDER}")
    if s <= m + 1:
        raise ValueError(f"scale {s} too small for polynomial order {m}")
    ms = n // s
    if ms < 1:
        raise ValueError(f"scale {s} exceeds series length {n}")
    q_mat = _trend_basis(s, m)
    f2 = np.empty(2 * ms)
    # the backward rows reversed, so row j - 1 is the j-th from the end
    blocks = (L[: ms * s].reshape(ms, s), L[n - ms * s :].reshape(ms, s)[::-1])
    for out, block in zip((f2[:ms], f2[ms:]), blocks):
        resid = block - block.mean(axis=1, keepdims=True)
        resid -= (resid @ q_mat) @ q_mat.T
        np.einsum("ij,ij->i", resid, resid, out=out)
    f2 /= s
    return f2


def fluctuation_surface(s_series, q_values=None, scales=None, m: int = 2) -> FluctuationSurface:
    """F_q(s) over a (q, scale) grid.

    For q != 0, F_q(s) = { mean over segments of [F^2]^(q/2) }^(1/q);
    q = 0 takes the logarithmic limit exp{ mean(ln F^2) / 2 }.
    Negative q diverges on any exactly-detrended segment, so a zero
    variance then raises, as does any subnormal one and, before any scale
    is tried, an empty or 2-D grid, more than ``MAX_Q_POINTS`` q values,
    a scale that is not a whole number or is <= m + 1, and a series out
    of amplitude range or flat to rounding.
    """
    x = as_values(s_series)
    q_values = np.asarray(default_q_values() if q_values is None else q_values, dtype=float)
    scales = np.asarray(default_scales(len(x)) if scales is None else scales)
    if not (q_values.ndim == scales.ndim == 1 and len(q_values) and len(scales)):
        raise ValueError("q_values and scales must each be a non-empty 1-D grid")
    if len(q_values) > MAX_Q_POINTS:
        raise ValueError(f"q_values holds {len(q_values)} points; a q grid holds at most "
                         f"{MAX_Q_POINTS}")
    if (off := scales[np.round(scales) != scales]).size:  # NaN too
        raise ValueError(f"scale {off[0]} is not a whole number")
    if scales.min() <= m + 1:
        raise ValueError(f"scale {scales.min()} too small for polynomial order {m}")
    if len(x) < 4 * scales.max():
        raise ValueError(f"series length {len(x)} < 4 * max scale {scales.max()}; "
                         "shrink the scale grid")
    scales = scales.astype(int)  # whole and finite by now
    if not np.abs(q_values).max() <= MAX_ABS_Q:  # NaN too
        raise ValueError(f"|q| up to {np.abs(q_values).max():.4g} overflows float64; "
                         f"at most {MAX_ABS_Q:.4g}")
    _reject_amplitude(x, 2)
    _reject_flat(x)
    prof = profile(x)
    F = np.empty((len(q_values), len(scales)))
    n_segments = np.empty(len(scales), dtype=int)
    has_negative_q = bool((q_values < 0).any())
    is_zero = q_values == 0
    q_nonzero = q_values[~is_zero]
    half_q = q_nonzero / 2.0
    tiny = np.finfo(float).tiny
    for j, s in enumerate(scales):
        f2 = segment_variances(prof, int(s), m)
        n_segments[j] = len(f2)
        if has_negative_q and (f2 == 0).any():
            nu = int(np.nonzero(f2 == 0)[0][0]) + 1
            raise ValueError(f"segment {nu} at scale {s} is exactly detrended (F^2 = 0); "
                             "negative q moments diverge")
        if ((0 < f2) & (f2 < tiny)).any():  # below what the amplitude rule foresees
            raise ValueError(f"F^2 at scale {s} is below the smallest normal float; "
                             "the exponents do not depend on scale, so rescale the series")
        log_f2 = np.log(np.maximum(f2, tiny))
        F[is_zero, j] = np.exp(0.5 * log_f2.mean())
        # log-sum-exp keeps large negative q finite on tiny variances;
        # rounding q/2 * x is monotone in x, so amax is each row's max
        a = np.multiply.outer(half_q, log_f2)
        amax = half_q * np.where(half_q > 0, log_f2.max(), log_f2.min())
        a -= amax[:, None]
        np.exp(a, out=a)
        F[~is_zero, j] = np.exp((amax + np.log(a.mean(axis=1))) / q_nonzero)
    return FluctuationSurface(q_values=q_values, scales=scales, F=F, n_segments=n_segments)


def fit_generalized_hurst(surf: FluctuationSurface, fit_range=None) -> GeneralizedHurst:
    """Per-q OLS slope of log F_q(s) against log s over ``fit_range``
    (inclusive scale bounds; default = the full scale grid)."""
    if fit_range is None:
        fit_range = (int(surf.scales[0]), int(surf.scales[-1]))
    s_lo, s_hi = fit_range
    sel = (surf.scales >= s_lo) & (surf.scales <= s_hi)
    if sel.sum() < MIN_FIT_SCALES:
        raise ValueError(f"only {sel.sum()} scales in fit range; need >= {MIN_FIT_SCALES}")
    h, _, stderr, _ = _line_fit(np.log(surf.scales[sel].astype(float)),
                                np.log(surf.F[:, sel]))
    return GeneralizedHurst(
        q_values=surf.q_values, h=h, h_stderr=stderr,
        fit_scale_range=(int(s_lo), int(s_hi)),
    )


def singularity_spectrum(gh: GeneralizedHurst) -> SingularitySpectrum:
    """Legendre-transform the h(q) curve: alpha = h + q h',
    f(alpha) = q (alpha - h) + 1, with h' by central differences."""
    q = gh.q_values
    if len(q) < 5:
        raise ValueError("need >= 5 q points for finite differences")
    dq = np.diff(q)
    if not np.allclose(dq, dq[0]):
        raise ValueError("q grid must be uniform")
    if abs(dq[0]) > MAX_Q_STEP:
        raise ValueError(f"q step {abs(dq[0]):.4g} overflows float64; at most {MAX_Q_STEP:.4g}")
    h_prime = np.gradient(gh.h, q)
    alphas = gh.h + q * h_prime
    f_values = q * (alphas - gh.h) + 1.0
    return SingularitySpectrum(q_values=q, alphas=alphas, f_values=f_values)


def hurst_exponent(gh: GeneralizedHurst) -> float:
    """h(2), the classical Hurst exponent."""
    idx = np.nonzero(np.isclose(gh.q_values, 2.0))[0]
    if len(idx) == 0:
        raise ValueError("q = 2 is not on the grid")
    return float(gh.h[idx[0]])


def beta_from_hurst(H: float) -> float:
    """Spectral exponent implied by a Hurst exponent: beta = 2H - 1."""
    return 2.0 * H - 1.0


def mfdfa(s_series, q_values=None, scales=None, m: int = 2, fit_range=None):
    """Convenience wrapper running the full chain; returns
    (FluctuationSurface, GeneralizedHurst, SingularitySpectrum)."""
    surf = fluctuation_surface(s_series, q_values=q_values, scales=scales, m=m)
    gh = fit_generalized_hurst(surf, fit_range=fit_range)
    return surf, gh, singularity_spectrum(gh)
