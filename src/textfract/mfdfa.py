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

from dataclasses import dataclass

import numpy as np

from .series import Profile, as_values, profile

__all__ = [
    "FluctuationSurface",
    "GeneralizedHurst",
    "SingularitySpectrum",
    "default_q_values",
    "default_scales",
    "detrended_variance",
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
    """Uniform q grid including 0 and 2."""
    n = int(round((q_max - q_min) / q_step))
    q = q_min + q_step * np.arange(n + 1)
    return np.where(np.abs(q) < 1e-12, 0.0, q)


def default_scales(n: int, s_min: int = 20, s_max: int | None = None) -> np.ndarray:
    """About ``_N_SCALES`` log-spaced integer scales in [s_min, n/5]."""
    if s_max is None:
        s_max = n // 5
    if s_max <= s_min:
        raise ValueError(f"series of length {n} leaves no room for scales >= {s_min}")
    return np.unique(
        np.round(np.logspace(np.log10(s_min), np.log10(s_max), _N_SCALES)).astype(int)
    )


def detrended_variance(p: Profile, nu: int, s: int, m: int = 2) -> float:
    """Mean squared residual of segment ``nu`` (1-based) at scale ``s``
    about its least-squares polynomial of order ``m``.

    Segments 1..M_s count from the start of the profile, M_s+1..2*M_s
    from the end.
    """
    L = p.values
    n = len(L)
    ms = n // s
    if s <= m + 1:
        raise ValueError(f"scale {s} too small for polynomial order {m}")
    if not (1 <= nu <= 2 * ms):
        raise ValueError(f"segment index {nu} out of range 1..{2 * ms} at scale {s}")
    if nu <= ms:
        seg = L[(nu - 1) * s : nu * s]
    else:
        j = nu - ms
        seg = L[n - j * s : n - (j - 1) * s]
    k = np.arange(1, s + 1, dtype=float)
    coeffs = np.polyfit(k, seg, m)
    resid = seg - np.polyval(coeffs, k)
    return float(np.mean(resid**2))


def segment_variances(p: Profile, s: int, m: int = 2) -> np.ndarray:
    """F^2(nu, s) for all 2*M_s segments at one scale, vectorized.

    The design matrix is shared by every segment of a given length, so
    the residual projector is built once per scale.
    """
    L = p.values
    n = len(L)
    ms = n // s
    if ms < 1:
        raise ValueError(f"scale {s} exceeds series length {n}")
    if m < 0:
        raise ValueError(f"polynomial order {m} < 0")
    if s <= m + 1:
        raise ValueError(f"scale {s} too small for polynomial order {m}")
    fwd = L[: ms * s].reshape(ms, s)
    bwd = L[n - ms * s :].reshape(ms, s)
    segs = np.vstack([fwd, bwd])
    k = np.arange(1, s + 1, dtype=float)
    design = np.vander(k, m + 1)
    q_mat, _ = np.linalg.qr(design)
    fitted = (segs @ q_mat) @ q_mat.T
    return np.mean((segs - fitted) ** 2, axis=1)


def fluctuation_surface(s_series, q_values=None, scales=None, m: int = 2) -> FluctuationSurface:
    """F_q(s) over a (q, scale) grid.

    For q != 0, F_q(s) = { mean over segments of [F^2]^(q/2) }^(1/q);
    q = 0 takes the logarithmic limit exp{ mean(ln F^2) / 2 }.
    Negative q diverges on any exactly-detrended segment, so a zero
    variance raises rather than returning infinities.
    """
    x = as_values(s_series)
    if q_values is None:
        q_values = default_q_values()
    q_values = np.asarray(q_values, dtype=float)
    if scales is None:
        scales = default_scales(len(x))
    scales = np.asarray(scales, dtype=int)
    if len(x) < 4 * scales.max():
        raise ValueError(
            f"series length {len(x)} < 4 * max scale {scales.max()}; shrink the scale grid"
        )
    prof = profile(x)
    F = np.empty((len(q_values), len(scales)))
    n_segments = np.empty(len(scales), dtype=int)
    has_negative_q = bool((q_values < 0).any())
    for j, s in enumerate(scales):
        f2 = segment_variances(prof, int(s), m)
        n_segments[j] = len(f2)
        if has_negative_q and (f2 == 0).any():
            nu = int(np.nonzero(f2 == 0)[0][0]) + 1
            raise ValueError(
                f"segment {nu} at scale {s} is exactly detrended (F^2 = 0); "
                "negative q moments diverge"
            )
        log_f2 = np.log(np.maximum(f2, np.finfo(float).tiny))
        for i, q in enumerate(q_values):
            if q == 0:
                F[i, j] = np.exp(0.5 * log_f2.mean())
            else:
                # log-sum-exp keeps large negative q finite on tiny variances
                a = log_f2 * (q / 2.0)
                amax = a.max()
                log_mean = amax + np.log(np.mean(np.exp(a - amax)))
                F[i, j] = np.exp(log_mean / q)
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
    log_s = np.log(surf.scales[sel].astype(float))
    h = np.empty(len(surf.q_values))
    stderr = np.empty(len(surf.q_values))
    for i in range(len(surf.q_values)):
        (slope, _), cov = np.polyfit(log_s, np.log(surf.F[i, sel]), 1, cov=True)
        h[i] = slope
        stderr[i] = np.sqrt(cov[0, 0])
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
