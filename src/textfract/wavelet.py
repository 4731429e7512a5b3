"""Continuous wavelet coefficient maps with a Gaussian third-derivative
mother wavelet, for visualizing cascade structure in a series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import _reject_amplitude, as_values

__all__ = ["WaveletMap", "mother_wavelet", "wavelet_map", "SUPPORT_HALF_WIDTH"]

# |psi(x)| < 1e-12 beyond this, so the discrete sum is truncated there.
SUPPORT_HALF_WIDTH = 8.0
MAX_SCALES = 1_000  # on 16,384 points a scale holds 147 kB of map and 0.72 MB of CSV


@dataclass(frozen=True)
class WaveletMap:
    scales: np.ndarray
    positions: np.ndarray
    coefficients: np.ndarray  # shape (len(scales), len(positions))
    boundary: np.ndarray  # bool, True where the wavelet support exits the series


def mother_wavelet(x):
    """Third derivative of the unnormalized Gaussian exp(-x^2/2):
    psi(x) = (3x - x^3) exp(-x^2/2). Odd, with vanishing moments 0..2,
    so the transform is blind to quadratic trends."""
    x = np.asarray(x, dtype=float)
    return (3.0 * x - x**3) * np.exp(-(x**2) / 2.0)


def default_scales(n: int, n_scales: int = 50) -> np.ndarray:
    """Log-spaced scales in [4, n/10]."""
    if not 1 <= n_scales <= MAX_SCALES:
        raise ValueError(f"n_scales {n_scales} not in 1..{MAX_SCALES}")
    s_max = max(n / 10.0, 8.0)
    return np.logspace(np.log10(4.0), np.log10(s_max), n_scales)


def _padding(n: int, s: float):
    """The kernel's half-length at scale ``s`` and the FFT length of its
    correlation with n points: the next power of two >= n + len(kernel)
    - 1, so that nothing wraps."""
    offset = int(np.ceil(SUPPORT_HALF_WIDTH * s))
    return offset, 1 << (n + 2 * offset - 1).bit_length()


def wavelet_map(s_series, scales=None) -> WaveletMap:
    """T(s, k) = (1/sqrt(s)) * sum_j l(j) psi((j - k)/s) for every
    scale and every position k = 1..n, each scale's row computed as one
    FFT correlation of the series with the sampled wavelet.

    The series is not extended past its ends (the FFT's zero padding
    only keeps the correlation from wrapping); coefficients whose
    truncated support (|x| <= 8) crosses a series edge are flagged in
    ``boundary`` so plots can mask the cone of influence.

    A series whose amplitude float64 cannot carry through the correlation
    raises ValueError. The map is linear in the series, so a rescaled
    series gives the rescaled map.
    """
    x = as_values(s_series)
    n = len(x)
    scales = np.asarray(default_scales(n) if scales is None else scales, dtype=float)
    if scales.ndim != 1 or not scales.size:
        raise ValueError("scales must be a non-empty 1-D grid")
    if (off := scales[~((0 < scales) & (scales < np.inf))]).size:  # NaN too
        raise ValueError(f"scale {off[0]} is not positive and finite")
    if n < 4 * scales.min():
        raise ValueError(f"series length {n} < 4 * min scale {scales.min()}")
    _reject_amplitude(x, 1, _padding(n, scales.max())[1])

    k = np.arange(n)  # 0-based positions
    coeffs = np.empty((len(scales), n))
    boundary = np.empty((len(scales), n), dtype=bool)
    x_spectra = {}  # rfft of the series, once per padded length
    for i, s in enumerate(scales):
        half = SUPPORT_HALF_WIDTH * s
        offset, nfft = _padding(n, s)
        d = np.arange(-offset, offset + 1, dtype=float)
        kernel = mother_wavelet(d / s)
        # full correlation with the sampled wavelet by FFT
        if nfft not in x_spectra:
            x_spectra[nfft] = np.fft.rfft(x, nfft)
        # a call, not `*`: numpy may write a `*` product into the rfft's
        # temporary, which moves the map's last bits from n = 16,384 up
        full = np.fft.irfft(
            np.multiply(x_spectra[nfft], np.fft.rfft(kernel[::-1], nfft)), nfft)
        coeffs[i] = full[offset : offset + n] / np.sqrt(s)
        boundary[i] = (k < half) | (k > n - 1 - half)
    return WaveletMap(scales=scales, positions=k + 1, coefficients=coeffs,
                      boundary=boundary)
