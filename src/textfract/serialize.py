"""CSV/JSON emission with provenance blocks.

Every JSON payload carries a ``provenance`` object (source hash, config
digest, seeds, fit parameters) so no number leaves the tool without its
parameterization. Output is byte-deterministic: keys are sorted and no
timestamps are written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

__all__ = [
    "config_digest",
    "to_json",
    "series_csv",
    "spectrum_csv",
    "surface_csv",
    "hurst_csv",
    "singularity_csv",
    "ccdf_csv",
    "rank_frequency_csv",
    "wavelet_csv",
]


def config_digest(config) -> str:
    """SHA-256 of the canonical JSON form of a config mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def to_json(payload: dict) -> str:
    """Canonical JSON text (sorted keys, stable float repr)."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"


def table_csv(rows, header) -> str:
    """CSV of rows that may hold text, quoted where a field needs it."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# Rows formatted at a time, so that no whole column is held as Python objects.
_BLOCK = 4096


def _reprs(column) -> list:
    """A float as its repr, which reads back exactly; an int as its digits."""
    return list(map(repr, column.tolist()))


def _lines(*text_columns) -> str:
    """One comma-separated line per row of the text columns (lists of
    equal length): the cells are slotted between a fixed pattern of
    separators, then joined once."""
    k = len(text_columns)
    cells = ([","] * (2 * k - 1) + ["\n"]) * len(text_columns[0])
    for j, column in enumerate(text_columns):
        cells[2 * j::2 * k] = column
    return "".join(cells)


def _columns_csv(header, *columns) -> str:
    """A header, then a line per row of equal-length numeric columns."""
    blocks = [",".join(header) + "\n"]
    for i in range(0, len(columns[0]), _BLOCK):
        blocks.append(_lines(*(_reprs(c[i:i + _BLOCK]) for c in columns)))
    return "".join(blocks)


def series_csv(values, value_name: str = "length") -> str:
    values = np.asarray(values)
    return _columns_csv(["index", value_name], np.arange(1, len(values) + 1), values)


def spectrum_csv(ps) -> str:
    return _columns_csv(["frequency", "power"], ps.freqs, ps.power)


def surface_csv(surf) -> str:
    """One row per (q, scale), the scales running fastest."""
    n_q, n_s = surf.F.shape
    return _columns_csv(["scale", "q", "F"], np.tile(surf.scales, n_q),
                        np.repeat(surf.q_values, n_s), surf.F.ravel())


def hurst_csv(gh) -> str:
    return _columns_csv(["q", "h", "h_stderr"], gh.q_values, gh.h, gh.h_stderr)


def singularity_csv(spec) -> str:
    return _columns_csv(["q", "alpha", "f"], spec.q_values, spec.alphas, spec.f_values)


def ccdf_csv(c) -> str:
    return _columns_csv(["length", "F"], c.lengths, c.F)


def rank_frequency_csv(table) -> str:
    rows = zip(range(1, len(table.surfaces) + 1), table.surfaces, table.counts.tolist())
    return table_csv(rows, ["rank", "surface", "count"])


def wavelet_csv(wm) -> str:
    """One row per (scale, position), a scale at a time; the scale and
    the positions are formatted once."""
    positions = _reprs(wm.positions)
    blocks = ["scale,position,coefficient,boundary\n"]
    for s, coefs, edge in zip(wm.scales.tolist(), wm.coefficients, wm.boundary):
        blocks.append(_lines([repr(s)] * len(positions), positions,
                             _reprs(coefs), np.where(edge, "1", "0").tolist()))
    return "".join(blocks)
