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


def spectrum_csv(ps) -> str:
    return table_csv(
        ((repr(float(f)), repr(float(p))) for f, p in zip(ps.freqs, ps.power)),
        ["frequency", "power"],
    )


def surface_csv(surf) -> str:
    rows = []
    for i, q in enumerate(surf.q_values):
        for j, s in enumerate(surf.scales):
            rows.append((int(s), repr(float(q)), repr(float(surf.F[i, j]))))
    return table_csv(rows, ["scale", "q", "F"])


def hurst_csv(gh) -> str:
    return table_csv(
        (
            (repr(float(q)), repr(float(h)), repr(float(e)))
            for q, h, e in zip(gh.q_values, gh.h, gh.h_stderr)
        ),
        ["q", "h", "h_stderr"],
    )


def singularity_csv(spec) -> str:
    return table_csv(
        (
            (repr(float(q)), repr(float(a)), repr(float(f)))
            for q, a, f in zip(spec.q_values, spec.alphas, spec.f_values)
        ),
        ["q", "alpha", "f"],
    )


def ccdf_csv(c) -> str:
    return table_csv(
        ((repr(float(l)), repr(float(f))) for l, f in zip(c.lengths, c.F)),
        ["length", "F"],
    )


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
