"""Continuous wavelet coefficient maps with a Gaussian third-derivative
mother wavelet, for visualizing cascade structure in a series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import as_values

__all__ = ["WaveletMap", "mother_wavelet", "wavelet_map", "SUPPORT_HALF_WIDTH"]

# |psi(x)| < 1e-12 beyond this, so the discrete sum is truncated there.
SUPPORT_HALF_WIDTH = 8.0


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
    if n_scales < 1:
        raise ValueError(f"n_scales must be >= 1, got {n_scales}")
    s_max = max(n / 10.0, 8.0)
    return np.logspace(np.log10(4.0), np.log10(s_max), n_scales)


def wavelet_map(s_series, scales=None, positions=None) -> WaveletMap:
    """T(s, k) = (1/sqrt(s)) * sum_j l(j) psi((j - k)/s) for every
    requested scale and position, each scale's row computed as one FFT
    correlation of the series with the sampled wavelet.

    The series is not extended past its ends (the FFT's zero padding
    only keeps the correlation from wrapping); coefficients whose
    truncated support (|x| <= 8) crosses a series edge are flagged in
    ``boundary`` so plots can mask the cone of influence.
    """
    x = as_values(s_series)
    n = len(x)
    if scales is None:
        scales = default_scales(n)
    scales = np.asarray(scales, dtype=float)
    if np.any(scales <= 0):
        raise ValueError("scales must be positive")
    if n < 4 * scales.min():
        raise ValueError(f"series length {n} < 4 * min scale {scales.min()}")
    if positions is None:
        positions = np.arange(1, n + 1)
    positions = np.asarray(positions, dtype=int)
    if positions.min() < 1 or positions.max() > n:
        raise ValueError("positions must lie within the series (1-based)")

    coeffs = np.empty((len(scales), len(positions)))
    boundary = np.empty((len(scales), len(positions)), dtype=bool)
    x_spectra = {}  # rfft of the series, once per padded length
    for i, s in enumerate(scales):
        half = SUPPORT_HALF_WIDTH * s
        offset = int(np.ceil(half))
        d = np.arange(-offset, offset + 1, dtype=float)
        kernel = mother_wavelet(d / s)
        # full correlation with the sampled wavelet by FFT, zero-padded to
        # the next power of two >= n + len(kernel) - 1 so nothing wraps;
        # then pick positions.
        nfft = 1 << (n + len(kernel) - 2).bit_length()
        if nfft not in x_spectra:
            x_spectra[nfft] = np.fft.rfft(x, nfft)
        # a call, not `*`: numpy may write a `*` product into the rfft's
        # temporary, which moves the map's last bits from n = 16,384 up
        full = np.fft.irfft(
            np.multiply(x_spectra[nfft], np.fft.rfft(kernel[::-1], nfft)), nfft)
        row = full[offset : offset + n] / np.sqrt(s)
        coeffs[i] = row[positions - 1]
        boundary[i] = (positions - 1 < half) | (positions - 1 > n - 1 - half)
    return WaveletMap(
        scales=scales, positions=positions, coefficients=coeffs, boundary=boundary
    )
