"""Power spectra and 1/f^beta scaling fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import _line_fit, _reject_amplitude, _reject_flat, as_values

__all__ = [
    "PowerSpectrum",
    "SpectrumFit",
    "power_spectrum",
    "fit_beta",
    "average_spectrum",
]

_GRID_BINS = 200  # points of the corpus-average spectrum's log grid
MAX_BINS_PER_DECADE = 100_000  # _log_bin holds ~20 B per bin, empty or not


@dataclass(frozen=True)
class PowerSpectrum:
    """Power ``power[k]`` at frequency ``freqs[k]``: a periodogram at
    f_k = k/N, k = 1..N//2, or a corpus average on a log grid."""

    freqs: np.ndarray
    power: np.ndarray


@dataclass(frozen=True)
class SpectrumFit:
    beta: float
    sigma_beta: float
    fit_range: tuple[float, float]
    binning: str
    r_squared: float
    intercept: float


def power_spectrum(s) -> PowerSpectrum:
    """Fourier-transform modulus squared of the series at the positive
    frequencies. A series flat to rounding raises ValueError: its power
    away from DC is rounding noise, which a fit would read as a beta."""
    x = as_values(s)
    n = len(x)
    if n < 8:
        raise ValueError(f"series too short for a spectrum (need >= 8, got {n})")
    _reject_amplitude(x, 2)
    _reject_flat(x)
    power = np.abs(np.fft.rfft(x)) ** 2
    return PowerSpectrum(freqs=np.arange(1, n // 2 + 1) / n, power=power[1 : n // 2 + 1])


def _log_bin(freqs, power, bins_per_decade: int):
    """Geometric-mean binning of (f, S) into logarithmic frequency bins.

    Bins with zero power are dropped (log undefined); returns bin-center
    log-frequency, log-power, and per-bin point counts.
    """
    keep = power > 0
    f, p = freqs[keep], power[keep]
    if len(f) == 0:
        raise ValueError("no positive-power points to bin")
    lf, lp = np.log10(f), np.log10(p)
    lo, hi = lf.min(), lf.max()
    n_bins = max(1, int(np.ceil((hi - lo) * bins_per_decade)))
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.digitize(lf, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    full = counts > 0
    n = counts[full].astype(float)
    return (np.bincount(idx, weights=lf, minlength=n_bins)[full] / n,
            np.bincount(idx, weights=lp, minlength=n_bins)[full] / n, n)


def fit_beta(ps: PowerSpectrum, fit_range=None, bins_per_decade: int = 20) -> SpectrumFit:
    """Fit S(f) = c / f^beta by OLS of log S on log f after log-binning.

    ``fit_range`` is (f_lo, f_hi); the default keeps the full positive
    support except the top half-decade, where text spectra tend to
    flatten.
    """
    if not 1 <= bins_per_decade <= MAX_BINS_PER_DECADE:
        raise ValueError(f"bins_per_decade {bins_per_decade} not in 1..{MAX_BINS_PER_DECADE}")
    if fit_range is None:
        f_hi = ps.freqs[-1] / 10**0.5
        fit_range = (float(ps.freqs[0]), float(f_hi))
    f_lo, f_hi = fit_range
    if not f_lo < f_hi:
        raise ValueError(f"invalid fit range [{f_lo}, {f_hi}]")
    sel = (ps.freqs >= f_lo) & (ps.freqs <= f_hi)
    if sel.sum() < 8:
        raise ValueError(f"only {int(sel.sum())} spectrum points in fit range; need >= 8")
    lf, lp, counts = _log_bin(ps.freqs[sel], ps.power[sel], bins_per_decade)
    if len(lf) < 3:
        raise ValueError("fewer than 3 log bins; widen the range or reduce binning")
    # Bins are weighted by their point counts: the variance of a bin's
    # geometric mean scales as 1/count, and equal weights would let the
    # sparse low-frequency bins dominate the slope error.
    slope, intercept, stderr, resid = _line_fit(lf, lp, counts)
    w = counts / counts.sum()
    ss_tot = float((w * (lp - (w * lp).sum()) ** 2).sum())
    r2 = 1.0 - float((w * resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return SpectrumFit(
        beta=-float(slope),
        sigma_beta=float(stderr),
        fit_range=(float(f_lo), float(f_hi)),
        binning=f"log, {bins_per_decade} bins/decade, geometric mean, count-weighted",
        r_squared=r2,
        intercept=float(intercept),
    )


def average_spectrum(spectra) -> PowerSpectrum:
    """Corpus-average spectrum.

    Each spectrum is normalized to unit total power, interpolated
    log-log onto a common logarithmic grid spanning the intersection of
    the frequency supports, and geometrically averaged per grid point.
    """
    spectra = list(spectra)
    if len(spectra) < 2:
        raise ValueError("need at least 2 spectra to average")
    f_lo = max(ps.freqs[0] for ps in spectra)
    f_hi = min(ps.freqs[-1] for ps in spectra)
    if not f_lo < f_hi:
        raise ValueError("frequency supports do not overlap")
    grid = np.logspace(np.log10(f_lo), np.log10(f_hi), _GRID_BINS)
    log_grid = np.log10(grid)
    acc = np.zeros(_GRID_BINS)
    for ps in spectra:
        keep = ps.power > 0
        norm = ps.power[keep] / ps.power[keep].sum()
        acc += np.interp(log_grid, np.log10(ps.freqs[keep]), np.log10(norm))
    mean_log = acc / len(spectra)
    return PowerSpectrum(freqs=grid, power=10.0**mean_log)
