"""Minimal hand-rolled SVG emitters (log-log lines, scatter, heatmap).

Deliberately dependency-free and byte-deterministic; CSV is always
written alongside, so anything fancier can be replotted externally.
"""

from __future__ import annotations

import base64
import struct
import zlib
from html import escape  # xml.sax.saxutils would import urllib.request and ssl

import numpy as np

__all__ = ["log_log_plot", "scatter_plot", "heatmap"]

_W, _H = 640, 440
_MARGIN = 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]


def _text(x, y, size, text, anchor="", extra="") -> str:
    """A <text> element with ``text`` escaped; ``extra`` attributes follow the font."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{escape(text, quote=False)}</text>')


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _text(_W // 2, 20, 14, title, "middle"),
    ]


def _frame(xlabel, ylabel) -> list:
    return [
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
        _text(_W // 2, _H - 12, 12, xlabel, "middle"),
        _text(14, _H // 2, 12, ylabel, "middle", f' transform="rotate(-90 14 {_H // 2})"'),
    ]


class _Axes:
    """Maps plot coordinates to pixels; a log axis passes its log10 values."""

    def __init__(self, xs, ys):
        self.x0, self.x1 = float(np.min(xs)), float(np.max(xs))
        self.y0, self.y1 = float(np.min(ys)), float(np.max(ys))
        if self.x1 == self.x0:
            self.x1 += 1.0
        if self.y1 == self.y0:
            self.y1 += 1.0

    def px(self, x):
        return _MARGIN + (x - self.x0) / (self.x1 - self.x0) * (_W - 2 * _MARGIN)

    def py(self, y):
        return (_H - _MARGIN) - (y - self.y0) / (self.y1 - self.y0) * (_H - 2 * _MARGIN)


def _column_extremes(px, py):
    """Indices, in curve order, of the points a curve needs at plot
    resolution. Consecutive points in one pixel column, ``floor(px)``,
    form a run; a run keeps its first and last points and its lowest and
    highest (the first of any tie), so a run of one or two keeps all."""
    col = np.floor(px)
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    run = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(px)]))
    keep = np.zeros(len(px), dtype=bool)
    keep[starts] = True
    keep[np.r_[starts[1:] - 1, len(px) - 1]] = True
    for extreme in (np.minimum, np.maximum):
        hit = np.flatnonzero(py == extreme.reduceat(py, starts)[run])
        keep[hit[np.unique(run[hit], return_index=True)[1]]] = True
    return np.flatnonzero(keep)


def _polyline(ax, xs, ys, color, dashed=False):
    px, py = ax.px(xs), ax.py(ys)
    if len(px):
        keep = _column_extremes(px, py)
        px, py = px[keep], py[keep]
    pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}"{dash}/>'


def log_log_plot(curves, title="", xlabel="x", ylabel="y", fit_lines=()) -> str:
    """``curves``: list of (xs, ys, label); ``fit_lines``: list of
    (slope, intercept, label) drawn as dashed log-log straight lines.

    Each line is drawn at plot resolution. Of every run of consecutive
    points that fall in one pixel column, ``floor(px)``, it keeps the
    first, the last, the lowest and the highest (the first of any tie),
    in curve order: the M4 rule of Jugel et al. (VLDB 2014). So a
    column keeps its vertical extent and the points where the line
    enters and leaves it, and a curve with at most two points in every
    column is drawn from all of them. A curve whose x never falls has
    one run per column, so it is drawn from at most 4 × 541 points
    however long it is; the CSV written beside it keeps them all."""
    all_x = np.concatenate([np.asarray(c[0], dtype=float) for c in curves])
    all_y = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    keep = (all_x > 0) & (all_y > 0)
    if not keep.any():
        raise ValueError(f"{title}: no point with x > 0 and y > 0 to plot on log axes")
    ax = _Axes(np.log10(all_x[keep]), np.log10(all_y[keep]))
    parts = _header(title) + _frame(xlabel, ylabel)
    for i, (xs, ys, label) in enumerate(curves):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        m = (xs > 0) & (ys > 0)
        color = _COLORS[i % len(_COLORS)]
        parts.append(_polyline(ax, np.log10(xs[m]), np.log10(ys[m]), color))
        if label:
            parts.append(_text(_W - _MARGIN - 5, _MARGIN + 16 + 16 * i, 11, label, "end",
                               f' fill="{color}"'))
    for i, (slope, intercept, label) in enumerate(fit_lines):
        # the ends go through 10** and back, which keeps each pixel's bits
        lx = np.array([10**ax.x0, 10**ax.x1])
        ly = 10**intercept * lx**slope
        parts.append(_polyline(ax, np.log10(lx), np.log10(ly), "#333333", dashed=True))
        if label:
            parts.append(_text(_MARGIN + 5, _MARGIN + 16 + 16 * i, 11, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_plot(xs, ys, title="", xlabel="x", ylabel="y", labels=None,
                 hband=None) -> str:
    """Plain linear scatter; ``hband`` = (lo, hi) draws a shaded
    horizontal band (used for the surrogate uncertainty region)."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    ax = _Axes(xs, ys)
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
            parts.append(_text(f"{x + 6:.2f}", f"{y - 6:.2f}", 10, labels[i]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _png(rgb) -> bytes:
    """The bytes of an 8-bit RGB PNG of a (rows, cols, 3) uint8 array:
    filter 0 on every row, one IDAT at zlib level 9, and no time, gamma
    or text chunk, so equal pixels give equal bytes."""
    rows, cols, _ = rgb.shape
    raw = np.zeros((rows, 1 + 3 * cols), dtype=np.uint8)  # a 0 filter byte leads each row
    raw[:, 1:] = rgb.reshape(rows, 3 * cols)

    def chunk(kind, data):
        return (struct.pack(">I", len(data)) + kind + data
                + struct.pack(">I", zlib.crc32(kind + data)))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", cols, rows, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw.tobytes(), 9)) + chunk(b"IEND", b""))


def heatmap(matrix, title="", xlabel="position", ylabel="scale") -> str:
    """|value| heatmap on a blue-to-red scale, min to max over the drawn
    cells. The plot is ``_W - 2 * _MARGIN`` = 540 pixels wide, so a
    matrix with more columns is drawn from every ceil(cols / 540)-th
    column, starting at the first; one with 540 or fewer is drawn whole.
    Every row is drawn. The cells are one pixel each of an embedded PNG,
    stretched over the plot area; its top row is the matrix's last, so
    row 0 (the smallest scale) is at the bottom. A non-finite value
    raises ValueError, since it has no colour."""
    m = np.abs(np.asarray(matrix, dtype=float))
    if not np.isfinite(m).all():
        raise ValueError("cannot draw a heatmap of non-finite values")
    step = -(-m.shape[1] // (_W - 2 * _MARGIN))
    m = m[::-1, ::step]
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo if hi > lo else 1.0
    t = (m - lo) / span
    # each channel lies in [0, 255], so the cast truncates as int() does
    rgb = np.stack([255 * t, 64 * (1 - np.abs(2 * t - 1)), 255 * (1 - t)],
                   axis=-1).astype(np.uint8)
    png = base64.b64encode(_png(rgb)).decode("ascii")
    image = (f'<image x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
             f'height="{_H - 2 * _MARGIN}" preserveAspectRatio="none" '
             f'style="image-rendering:pixelated" xmlns:xlink="http://www.w3.org/1999/xlink" '
             f'xlink:href="data:image/png;base64,{png}"/>')
    return "\n".join(_header(title) + [image] + _frame(xlabel, ylabel) + ["</svg>"]) + "\n"
