"""The four workloads: their inputs, CLI arguments and output checks.

Each workload turns a seed into input files plus the exact references
the outputs are checked against. Inputs go under ``inputs/`` of the
directory the CLI runs in, and the CLI is given relative paths, so the
output bytes (which record input paths) do not depend on where the
source tree lives. ``check`` reads one output directory
and returns ``(failures, ref_err, info)``: a list of ``(input, reason)``
pairs, the largest distance from the reference before the resolution
floor that ``run.py`` applies, and any other values worth recording.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

N_NOVELS = 4
CORPUS_SURROGATES = 5
CORPUS_FLAGS = ["--surrogates", str(CORPUS_SURROGATES), "--tail-start", "50"]
FGN_H = 0.75
FGN_N = 2**17
FGN_SURROGATES = 8
FGN_H_TOL = 0.05  # the acceptance tolerance on h(2) of fGn
N_WAVELET_SCALES = 50
N_WAVELET_SAMPLES = 100
# Largest ref_err a correct run may have: text series are exact, and two
# float64 evaluations of one formula agree far below this.
REF_TOL = 1e-9
MISSING = 1.0  # ref_err when there is no output to compare


@dataclass
class Prepared:
    """Inputs written for one seed, and what the outputs must show."""

    argv: list  # CLI arguments without --out, relative to the run directory
    points: int  # series points the CLI analyses per run
    names: list  # input stems, one per input
    fingerprints: dict
    reference: dict = field(default_factory=dict)


def _hurst_reference(x, s_min=20, n_scales=30, m=2):
    """h(2) by DFA-m written from the definition: least squares of every
    segment (both ends of the profile) by ``np.linalg.lstsq``, F_2(s) as
    the root mean residual power, and the log-log slope over all scales.
    Scales follow the CLI's defaults for ``analyze`` (s_max = n // 5)."""
    n = len(x)
    prof = np.cumsum(x - x.mean())
    scales = np.unique(np.round(
        np.logspace(np.log10(s_min), np.log10(n // 5), n_scales)).astype(int))
    log_f2 = []
    for s in scales:
        ms = n // s
        segs = np.vstack([prof[: ms * s].reshape(ms, s),
                          prof[n - ms * s:].reshape(ms, s)])
        k = np.arange(1, s + 1, dtype=float)
        design = np.stack([k**p for p in range(m + 1)], axis=1)
        coef, *_ = np.linalg.lstsq(design, segs.T, rcond=None)
        resid = segs.T - design @ coef
        log_f2.append(0.5 * np.log(np.mean(resid**2)))
    return float(np.polyfit(np.log(scales.astype(float)), log_f2, 1)[0])


def _write_novel(seed: int, workdir: Path, name: str):
    """Writes a seeded novel; returns (relative path, lengths, fingerprint)."""
    text, lengths = inputs.build_novel(seed)
    data = text.encode("utf-8")
    rel = f"inputs/{name}.txt"
    (workdir / "inputs").mkdir(exist_ok=True)
    (workdir / rel).write_bytes(data)
    return rel, lengths, inputs.fingerprint(
        data, seed=seed, chars=len(text), tokens=inputs.novel_token_count(text, lengths),
        sentences=len(lengths), n=len(lengths))


def _read_report(out: Path, name: str):
    path = out / f"{name}__report.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _missing(out: Path, files):
    return [f for f in files if not (out / f).is_file()]


class CorpusAnalyze:
    """``analyze`` over four seeded novels; ``jobs`` sets the pool size."""

    def __init__(self, jobs: int):
        self.jobs = jobs

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        paths, names, prints, lengths = [], [], {}, {}
        for i in range(N_NOVELS):
            name = f"novel_{i}"
            path, lengths[name], prints[name] = _write_novel(
                inputs.derive_seed(seed, i), workdir, name)
            paths.append(path)
            names.append(name)
        argv = ["analyze", *paths, *CORPUS_FLAGS, "--jobs", str(self.jobs)]
        return Prepared(argv, sum(len(v) for v in lengths.values()), names,
                        prints, {"lengths": lengths})

    def check(self, prep: Prepared, out: Path):
        failures, err = [], 0.0
        for f in _missing(out, ["corpus__scatter.csv", "corpus__scatter.svg",
                                "corpus__avg_spectrum.csv", "corpus__avg_spectrum.svg"]):
            failures.append((None, f"missing {f}"))
        for name in prep.names:
            for f in _missing(out, [f"{name}__{k}" for k in (
                    "report.json", "spectrum.csv", "hurst.csv",
                    "singularity.csv", "spectrum.svg")]):
                failures.append((name, f"missing {f}"))
            report = _read_report(out, name)
            if report is None:
                failures.append((name, "unreadable report"))
                err = MISSING
                continue
            ls = prep.reference["lengths"][name].astype(float)
            for key, want in (("j_max", len(ls)), ("mean", ls.mean()),
                              ("variance", ls.var())):
                e = abs(report[key] - want) / abs(want)
                err = max(err, e)
                if not e <= REF_TOL:
                    failures.append((name, f"{key} {report[key]!r} != {want!r}"))
            if len(report["surrogates"]) != CORPUS_SURROGATES:
                failures.append((name, f"{len(report['surrogates'])} surrogate rows"))
            if report["tail_fit"] is None:
                failures.append((name, "tail fit skipped"))
        return failures, err, {}


class SeriesMfdfa:
    """``analyze --series-csv`` on one fGn series."""

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        fgn_seed = inputs.derive_seed(seed, 0)
        x = inputs.fgn(FGN_H, FGN_N, fgn_seed)
        data = inputs.series_csv(x).encode("ascii")
        (workdir / "inputs").mkdir(exist_ok=True)
        (workdir / "inputs/fgn.csv").write_bytes(data)
        prints = {"fgn": inputs.fingerprint(data, seed=fgn_seed, H=FGN_H, n=FGN_N)}
        argv = ["analyze", "--series-csv", "inputs/fgn.csv",
                "--surrogates", str(FGN_SURROGATES)]
        return Prepared(argv, FGN_N, ["fgn"], prints,
                        {"h2": _hurst_reference(x)})

    def check(self, prep: Prepared, out: Path):
        failures = [("fgn", f"missing {f}") for f in _missing(out, [
            "fgn__report.json", "fgn__spectrum.csv", "fgn__hurst.csv",
            "fgn__singularity.csv", "fgn__spectrum.svg",
            "corpus__scatter.csv", "corpus__scatter.svg"])]
        report = _read_report(out, "fgn")
        if report is None:
            return failures + [("fgn", "unreadable report")], MISSING, {}
        h2 = report["H"]
        err = abs(h2 - prep.reference["h2"])
        if not err <= REF_TOL:
            failures.append(("fgn", f"h(2) {h2!r} != reference {prep.reference['h2']!r}"))
        if not abs(h2 - FGN_H) <= FGN_H_TOL:
            failures.append(("fgn", f"h(2) {h2!r} not within {FGN_H_TOL} of {FGN_H}"))
        if report["j_max"] != FGN_N:
            failures.append(("fgn", f"j_max {report['j_max']}"))
        if len(report["surrogates"]) != FGN_SURROGATES:
            failures.append(("fgn", f"{len(report['surrogates'])} surrogate rows"))
        return failures, err, {"h2": h2, "h2_minus_H": h2 - FGN_H}


def _mother_wavelet(x):
    return (3.0 * x - x**3) * np.exp(-(x**2) / 2.0)


class NovelWavelet:
    """``wavelet`` on one seeded novel with the default 50 scales."""

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        novel_seed = inputs.derive_seed(seed, 0)
        path, ls, fingerprint = _write_novel(novel_seed, workdir, "novel")
        n = len(ls)
        rng = np.random.default_rng(novel_seed)
        samples = sorted(zip(rng.integers(0, N_WAVELET_SCALES, N_WAVELET_SAMPLES).tolist(),
                             rng.integers(1, n + 1, N_WAVELET_SAMPLES).tolist()))
        scales = np.logspace(np.log10(4.0), np.log10(max(n / 10.0, 8.0)), N_WAVELET_SCALES)
        return Prepared(["wavelet", path], n, ["novel"], {"novel": fingerprint},
                        {"lengths": ls.astype(float), "samples": samples, "scales": scales})

    def check(self, prep: Prepared, out: Path):
        failures = [("novel", f"missing {f}")
                    for f in _missing(out, ["novel__wavelet.csv", "novel__wavelet.svg"])]
        if failures:
            return failures, MISSING, {}
        lines = (out / "novel__wavelet.csv").read_bytes().split(b"\n")
        x = prep.reference["lengths"]
        n = len(x)
        if len(lines) != N_WAVELET_SCALES * n + 2 or lines[-1]:
            return [("novel", f"{len(lines) - 2} CSV rows, want {N_WAVELET_SCALES * n}")], MISSING, {}
        j = np.arange(1, n + 1, dtype=float)
        err = 0.0
        for i, k in prep.reference["samples"]:
            scale, pos, coef, _boundary = lines[1 + i * n + k - 1].split(b",")
            s = float(scale)
            if int(pos) != k or abs(s - prep.reference["scales"][i]) > REF_TOL * s:
                failures.append(("novel", f"row for scale {i}, position {k} is {scale!r},{pos!r}"))
                continue
            terms = x * _mother_wavelet((j - k) / s) / np.sqrt(s)
            e = abs(float(coef) - terms.sum()) / np.abs(terms).sum()
            err = max(err, e)
            if not e <= REF_TOL:
                failures.append(("novel", f"T({s}, {k}) off by {e:.3g}"))
        return failures, err, {}


WORKLOADS = {
    "corpus_analyze": CorpusAnalyze(jobs=1),
    "corpus_analyze_j2": CorpusAnalyze(jobs=2),
    "series_mfdfa": SeriesMfdfa(),
    "novel_wavelet": NovelWavelet(),
}
