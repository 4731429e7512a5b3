"""Complementary cumulative distributions and stretched-exponential
tail fits for sentence-length samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import _line_fit, as_values

__all__ = ["CCDF", "TailFit", "ccdf", "fit_stretched_exponential"]


@dataclass(frozen=True)
class CCDF:
    """Empirical survival function F(l) = Pr(length >= l) at the
    distinct sample values, ascending."""

    lengths: np.ndarray
    F: np.ndarray
    n_samples: int


@dataclass(frozen=True)
class TailFit:
    mu: float
    b: float
    fit_range: tuple[float, float]
    residual: float  # RMS residual of ln(-ln F) about the fitted line
    n_points: int


def ccdf(s) -> CCDF:
    """Survival function of one series; pool several by concatenating
    their values first."""
    values = np.sort(as_values(s))
    if len(values) == 0:
        raise ValueError("no samples")
    n = len(values)
    lengths, first_idx = np.unique(values, return_index=True)
    # Pr(l >= length) = fraction of samples at or after the first occurrence
    F = (n - first_idx) / n
    return CCDF(lengths=lengths, F=F, n_samples=n)


def fit_stretched_exponential(c: CCDF, tail_start: float = 100.0) -> TailFit:
    """Fit F(l) = exp(-mu * l^b) over l > max(tail_start, 0).

    OLS on the linearization ln(-ln F) = ln mu + b ln l, evaluated at
    the distinct lengths (not per sample) so the dense head of the
    distribution cannot dominate. Points with l <= 0 or F = 1 are
    excluded (the logs are undefined there).
    """
    sel = (c.lengths > max(tail_start, 0)) & (c.F < 1.0) & (c.F > 0.0)
    if sel.sum() < 10:
        raise ValueError(
            f"only {int(sel.sum())} usable tail points above {tail_start}; need >= 10"
        )
    slope, intercept, _, resid = _line_fit(np.log(c.lengths[sel]),
                                           np.log(-np.log(c.F[sel])))
    return TailFit(
        mu=float(np.exp(intercept)),
        b=float(slope),
        fit_range=(float(tail_start), float(c.lengths[sel].max())),
        residual=float(np.sqrt(np.mean(resid**2))),
        n_points=int(sel.sum()),
    )
