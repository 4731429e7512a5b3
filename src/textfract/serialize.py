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
    """Generic CSV emission for ad-hoc tables."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def series_csv(values, value_name: str = "length") -> str:
    return table_csv(
        ((j + 1, _fmt(v)) for j, v in enumerate(values)),
        ["index", value_name],
    )


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return int(v)
    return repr(float(v))


def _float_columns_csv(header, *columns) -> str:
    """One row per index across equal-length float columns, each value
    as its repr; rows are streamed, not built per column."""
    return table_csv(zip(*(map(repr, map(float, col)) for col in columns)), header)


def spectrum_csv(ps) -> str:
    return _float_columns_csv(["frequency", "power"], ps.freqs, ps.power)


def surface_csv(surf) -> str:
    rows = []
    for i, q in enumerate(surf.q_values):
        for j, s in enumerate(surf.scales):
            rows.append((int(s), repr(float(q)), repr(float(surf.F[i, j]))))
    return table_csv(rows, ["scale", "q", "F"])


def hurst_csv(gh) -> str:
    return _float_columns_csv(["q", "h", "h_stderr"], gh.q_values, gh.h, gh.h_stderr)


def singularity_csv(spec) -> str:
    return _float_columns_csv(["q", "alpha", "f"], spec.q_values, spec.alphas, spec.f_values)


def ccdf_csv(c) -> str:
    return _float_columns_csv(["length", "F"], c.lengths, c.F)


def rank_frequency_csv(table) -> str:
    return table_csv(
        ((r, s, c) for r, s, c in table.entries),
        ["rank", "surface", "count"],
    )


def wavelet_csv(wm) -> str:
    rows = []
    for i, s in enumerate(wm.scales):
        for j, k in enumerate(wm.positions):
            rows.append(
                (repr(float(s)), int(k), repr(float(wm.coefficients[i, j])),
                 int(wm.boundary[i, j]))
            )
    return table_csv(rows, ["scale", "position", "coefficient", "boundary"])
