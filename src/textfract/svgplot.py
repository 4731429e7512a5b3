"""Minimal hand-rolled SVG emitters (log-log lines, scatter, heatmap).

Deliberately dependency-free and byte-deterministic; CSV is always
written alongside, so anything fancier can be replotted externally.
"""

from __future__ import annotations

import numpy as np

from .serialize import _BLOCK

__all__ = ["log_log_plot", "scatter_plot", "heatmap"]

_W, _H = 640, 440
_MARGIN = 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _frame(xlabel, ylabel) -> list:
    return [
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_H // 2})">{ylabel}</text>',
    ]


class _Axes:
    """Maps data coordinates (possibly log-transformed) to pixels."""

    def __init__(self, xs, ys, log: bool):
        self.log = log
        if log:
            xs, ys = np.log10(xs), np.log10(ys)
        self.x0, self.x1 = float(np.min(xs)), float(np.max(xs))
        self.y0, self.y1 = float(np.min(ys)), float(np.max(ys))
        if self.x1 == self.x0:
            self.x1 += 1.0
        if self.y1 == self.y0:
            self.y1 += 1.0

    def px(self, x):
        if self.log:
            x = np.log10(x)
        return _MARGIN + (x - self.x0) / (self.x1 - self.x0) * (_W - 2 * _MARGIN)

    def py(self, y):
        if self.log:
            y = np.log10(y)
        return (_H - _MARGIN) - (y - self.y0) / (self.y1 - self.y0) * (_H - 2 * _MARGIN)


def _polyline(ax, xs, ys, color, dashed=False):
    px, py = ax.px(xs), ax.py(ys)
    pts = " ".join(
        " ".join(map("{:.2f},{:.2f}".format, px[i:i + _BLOCK].tolist(),
                     py[i:i + _BLOCK].tolist()))
        for i in range(0, len(px), _BLOCK))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}"{dash}/>'


def log_log_plot(curves, title="", xlabel="x", ylabel="y", fit_lines=()) -> str:
    """``curves``: list of (xs, ys, label); ``fit_lines``: list of
    (slope, intercept, label) drawn as dashed log-log straight lines."""
    all_x = np.concatenate([np.asarray(c[0], dtype=float) for c in curves])
    all_y = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    keep = (all_x > 0) & (all_y > 0)
    ax = _Axes(all_x[keep], all_y[keep], log=True)
    parts = _header(title) + _frame(xlabel, ylabel)
    for i, (xs, ys, label) in enumerate(curves):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        m = (xs > 0) & (ys > 0)
        color = _COLORS[i % len(_COLORS)]
        parts.append(_polyline(ax, xs[m], ys[m], color))
        if label:
            parts.append(
                f'<text x="{_W - _MARGIN - 5}" y="{_MARGIN + 16 + 16 * i}" '
                f'text-anchor="end" font-family="sans-serif" font-size="11" '
                f'fill="{color}">{label}</text>'
            )
    for i, (slope, intercept, label) in enumerate(fit_lines):
        lx = np.array([10**ax.x0, 10**ax.x1])
        ly = 10**intercept * lx**slope
        parts.append(_polyline(ax, lx, ly, "#333333", dashed=True))
        if label:
            parts.append(
                f'<text x="{_MARGIN + 5}" y="{_MARGIN + 16 + 16 * i}" '
                f'font-family="sans-serif" font-size="11">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_plot(xs, ys, title="", xlabel="x", ylabel="y", labels=None,
                 hband=None) -> str:
    """Plain linear scatter; ``hband`` = (lo, hi) draws a shaded
    horizontal band (used for the surrogate uncertainty region)."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    ax = _Axes(xs, ys, log=False)
    parts = _header(title)
    if hband is not None:
        y_hi, y_lo = ax.py(np.asarray(hband, dtype=float)).tolist()
        parts.append(
            f'<rect x="{_MARGIN}" y="{y_lo:.2f}" width="{_W - 2 * _MARGIN}" '
            f'height="{y_hi - y_lo:.2f}" fill="#cccccc" opacity="0.5"/>'
        )
    parts += _frame(xlabel, ylabel)
    for i, (x, y) in enumerate(zip(ax.px(xs).tolist(), ax.py(ys).tolist())):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{_COLORS[0]}"/>')
        if labels is not None:
            parts.append(
                f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" '
                f'font-family="sans-serif" font-size="10">{labels[i]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap(matrix, title="", xlabel="position", ylabel="scale") -> str:
    """|value| heatmap on a blue-to-red scale, min to max over the drawn
    cells. The plot is ``_W - 2 * _MARGIN`` = 540 pixels wide, so a
    matrix with more columns is drawn from every ceil(cols / 540)-th
    column, starting at the first; one with 540 or fewer is drawn whole.
    Every row is drawn."""
    m = np.abs(np.asarray(matrix, dtype=float))
    step = -(-m.shape[1] // (_W - 2 * _MARGIN))
    m = m[:, ::step]
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo if hi > lo else 1.0
    rows, cols = m.shape
    cw = (_W - 2 * _MARGIN) / cols
    ch = (_H - 2 * _MARGIN) / rows
    t = (m - lo) / span
    r = (255 * t).astype(int).tolist()
    g = (64 * (1 - np.abs(2 * t - 1))).astype(int).tolist()
    b = (255 * (1 - t)).astype(int).tolist()
    xs = [f"{x:.2f}" for x in (_MARGIN + np.arange(cols) * cw).tolist()]
    parts = _header(title)
    for i in range(rows):
        # row 0 = smallest scale, drawn at the bottom
        y = _H - _MARGIN - (i + 1) * ch
        cell = (f'<rect x="{{}}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                f'height="{ch + 0.5:.2f}" fill="rgb({{}},{{}},{{}})"/>')
        parts += map(cell.format, xs, r[i], g[i], b[i])
    parts += _frame(xlabel, ylabel) + ["</svg>"]
    return "\n".join(parts) + "\n"
