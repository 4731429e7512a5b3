"""Command-line front end: ``textfract <subcommand> [flags] <paths...>``.

Subcommands compose the library pipeline: segmentation -> sentence
length series -> spectrum fit -> MFDFA -> singularity spectrum ->
surrogates -> tail fit, plus the single-purpose commands (zipf, ccdf,
wavelet, recurrence, surrogate, slice).

Logs go to stderr, data to files under --out (or stdout with "-").
Exit codes: 0 ok, 1 fatal, 2 partial (some inputs skipped).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import corpus, distfit, mfdfa, series, serialize, spectral, svgplot, wavelet

__all__ = ["main", "build_parser"]


def log(msg: str):
    print(msg, file=sys.stderr)


# --------------------------------------------------------------------------
# argument plumbing

def _add_common(p):
    p.add_argument("--out", default="textfract_out", help="output directory")
    p.add_argument("--format", default="csv,json,svg",
                   help="comma list of csv,json,svg")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _add_text(p):
    p.add_argument("paths", nargs="*", help="UTF-8 plain text files")
    p.add_argument("--series-csv", default=None,
                   help="skip segmentation; read a series from CSV (index,value)")
    p.add_argument("--unit", choices=["words", "chars"], default="words")
    p.add_argument("--lexicon", default=None, help="abbreviation lexicon file")
    p.add_argument("--language", default="en")
    p.add_argument("--min-sentences", type=int, default=5000,
                   help="warn (not fail) below this sentence count")


def _add_spectral(p):
    p.add_argument("--fit-fmin", type=float, default=None)
    p.add_argument("--fit-fmax", type=float, default=None)
    p.add_argument("--bins-per-decade", type=int, default=20)


def _add_mfdfa(p):
    p.add_argument("--q-min", type=float, default=-4.0)
    p.add_argument("--q-max", type=float, default=4.0)
    p.add_argument("--q-step", type=float, default=0.25)
    p.add_argument("--scale-min", type=int, default=20)
    p.add_argument("--scale-max", type=int, default=None,
                   help="default j_max / 5")
    p.add_argument("--detrend-order", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="textfract",
        description="Long-range correlation analysis of sentence-length series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full per-text pipeline + corpus summary")
    _add_text(p); _add_spectral(p); _add_mfdfa(p); _add_common(p)
    p.add_argument("--surrogates", type=int, default=1,
                   help="surrogate pairs (shuffled + phase-randomized) per text")
    p.add_argument("--tail-start", type=float, default=100.0)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("spectrum", help="power spectrum and 1/f^beta fit")
    _add_text(p); _add_spectral(p); _add_common(p)

    p = sub.add_parser("mfdfa", help="fluctuation surface, h(q), f(alpha)")
    _add_text(p); _add_mfdfa(p); _add_common(p)

    p = sub.add_parser("wavelet", help="wavelet coefficient map")
    _add_text(p); _add_common(p)
    p.add_argument("--n-scales", type=int, default=50)

    p = sub.add_parser("surrogate", help="emit surrogate series")
    _add_text(p); _add_common(p)
    p.add_argument("--kind", choices=["shuffle", "phase"], default="shuffle")
    p.add_argument("--surrogates", type=int, default=1)

    p = sub.add_parser("zipf", help="rank-frequency table and slope")
    _add_text(p); _add_common(p)
    p.add_argument("--include-terminators", action="store_true")
    p.add_argument("--rank-min", type=int, default=10)
    p.add_argument("--rank-max", type=int, default=1000)

    p = sub.add_parser("ccdf", help="sentence-length CCDF and tail fit")
    _add_text(p); _add_common(p)
    p.add_argument("--tail-start", type=float, default=100.0)

    p = sub.add_parser("recurrence", help="word-recurrence pipeline (beta^w)")
    _add_text(p); _add_spectral(p); _add_mfdfa(p); _add_common(p)
    p.add_argument("--target", required=True, help="target word")

    p = sub.add_parser("slice", help="cut a sentence-length series")
    _add_text(p); _add_common(p)
    p.add_argument("--from", dest="slice_from", type=int, required=True)
    p.add_argument("--to", dest="slice_to", type=int, required=True)
    return ap


# --------------------------------------------------------------------------
# input loading

def read_series_csv(path) -> np.ndarray:
    """Values of an ``index,value`` CSV below its header row. A row
    whose second column is missing or not a finite number raises
    ValueError naming the file and line."""
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            try:
                value = float(row[1])
            except (IndexError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"index,value with a finite value, got {row!r}")
            values.append(value)
    return np.array(values)


def load_document(path, args) -> corpus.Document:
    raw = Path(path).read_bytes()
    return corpus.tokenize(raw, title=Path(path).stem, language_tag=args.language)


def load_slv(path, args):
    """Segment one text file and return (series, report, document)."""
    doc = load_document(path, args)
    if args.lexicon:
        lex = corpus.AbbreviationLexicon.from_file(args.lexicon)
    else:
        lex = corpus.AbbreviationLexicon.for_language(args.language)
    sentences, report = corpus.segment_sentences(doc, lex)
    unit = "characters" if args.unit == "chars" else "words"
    slv = corpus.sentence_length_series(
        sentences, unit=unit,
        source={"title": doc.title, "source_hash": doc.source_hash},
        min_sentences=args.min_sentences,
    )
    if slv.below_threshold:
        log(f"warning: {path}: {slv.j_max} sentences, below {args.min_sentences}")
    return slv, report, doc


def text_paths(args):
    """The text paths in sorted order; exits when there are none or when
    --series-csv is given instead."""
    if args.series_csv:
        raise SystemExit(f"{args.command} needs text input, not --series-csv")
    if not args.paths:
        raise SystemExit("no input: give text paths, or --series-csv "
                         "where the command reads a series")
    return sorted(args.paths)


def resolve_inputs(args):
    """Yield (name, values, provenance) for each requested input."""
    if args.series_csv:
        values = read_series_csv(args.series_csv)
        yield Path(args.series_csv).stem, values, {"series_csv": args.series_csv}
        return
    for path in text_paths(args):
        slv, report, _doc = load_slv(path, args)
        prov = {"source": slv.source, "segmentation": asdict(report),
                "unit": slv.unit}
        yield Path(path).stem, slv.values.astype(float), prov


# --------------------------------------------------------------------------
# output helpers

class Emitter:
    def __init__(self, args):
        self.formats = set(args.format.split(","))
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, ext: str, content: str):
        if ext not in self.formats:
            return None
        path = self.out / f"{name}.{ext}"
        path.write_text(content, encoding="utf-8")
        log(f"wrote {path}")
        return path


def mfdfa_params(args, n: int):
    q = mfdfa.default_q_values(args.q_min, args.q_max, args.q_step)
    s_max = args.scale_max or n // 5
    scales = mfdfa.default_scales(n, s_min=args.scale_min, s_max=s_max)
    return q, scales


def spectrum_fit_range(args):
    if args.fit_fmin is not None or args.fit_fmax is not None:
        if args.fit_fmin is None or args.fit_fmax is None:
            raise SystemExit("--fit-fmin and --fit-fmax must be given together")
        return (args.fit_fmin, args.fit_fmax)
    return None


# --------------------------------------------------------------------------
# per-text analysis (used by `analyze`, importable for the worker pool)

def analyze_one(name, values, prov, args):
    """Run the full pipeline on one series; returns the report dict."""
    values = np.asarray(values, dtype=float)
    ps = spectral.power_spectrum(values)
    fit = spectral.fit_beta(ps, spectrum_fit_range(args), args.bins_per_decade)
    q, scales = mfdfa_params(args, len(values))
    _surf, gh, spec = mfdfa.mfdfa(values, q_values=q, scales=scales,
                                  m=args.detrend_order)
    H = mfdfa.hurst_exponent(gh)
    idx2 = int(np.nonzero(np.isclose(gh.q_values, 2.0))[0][0])

    surrogate_rows = []
    for k in range(args.surrogates):
        sh = series.shuffle_surrogate(values, seed=args.seed + 2 * k)
        pr = series.phase_randomized_surrogate(values, seed=args.seed + 2 * k + 1)
        row = {}
        for label, surr in (("shuffled", sh), ("phase_randomized", pr)):
            _, gh_s, spec_s = mfdfa.mfdfa(surr, q_values=q, scales=scales,
                                          m=args.detrend_order)
            row[label] = {
                "h2": mfdfa.hurst_exponent(gh_s),
                "delta_alpha": spec_s.delta_alpha,
                "seed": surr.provenance["seed"],
            }
        surrogate_rows.append(row)

    tail = None
    try:
        tail_fit = distfit.fit_stretched_exponential(
            distfit.ccdf(values), tail_start=args.tail_start
        )
        tail = {"mu": tail_fit.mu, "b": tail_fit.b,
                "fit_range": list(tail_fit.fit_range)}
    except ValueError as exc:
        log(f"{name}: tail fit skipped ({exc})")

    report = {
        "name": name,
        "provenance": prov,
        "j_max": len(values),
        "mean": float(values.mean()),
        "variance": float(values.var()),
        "beta": fit.beta,
        "sigma_beta": fit.sigma_beta,
        "spectrum_fit_range": list(fit.fit_range),
        "H": H,
        "sigma_H": float(gh.h_stderr[idx2]),
        "beta_from_H": mfdfa.beta_from_hurst(H),
        "delta_alpha": spec.delta_alpha,
        "alpha_at_peak": spec.alpha_at_peak,
        "mfdfa": {
            "q": [float(v) for v in q],
            "scale_range": list(gh.fit_scale_range),
            "detrend_order": args.detrend_order,
        },
        "surrogates": surrogate_rows,
        "tail_fit": tail,
    }
    return report, ps, fit, gh, spec


def _analyze_worker(payload):
    name, values, prov, args = payload
    try:
        report, ps, fit, gh, spec = analyze_one(name, values, prov, args)
        return name, report, ps, fit, gh, spec, None
    except Exception as exc:  # isolate per-text failures
        return name, None, None, None, None, None, str(exc)


def cmd_analyze(args) -> int:
    em = Emitter(args)
    inputs = list(resolve_inputs(args))
    # digest only the analysis parameters, not where results land or
    # how the work is scheduled
    cfg_digest = serialize.config_digest(
        {k: v for k, v in vars(args).items()
         if k not in ("paths", "out", "format", "jobs")}
    )
    payloads = [(name, values, prov, args) for name, values, prov in inputs]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(_analyze_worker, payloads))
    else:
        results = [_analyze_worker(p) for p in payloads]
    results.sort(key=lambda r: r[0])

    failed = []
    summary = []
    spectra = []
    for name, report, ps, fit, gh, spec, err in results:
        if err is not None:
            log(f"error: {name}: {err}")
            failed.append(name)
            continue
        report["config_digest"] = cfg_digest
        em.write(f"{name}__report", "json", serialize.to_json(report))
        em.write(f"{name}__spectrum", "csv", serialize.spectrum_csv(ps))
        em.write(f"{name}__hurst", "csv", serialize.hurst_csv(gh))
        em.write(f"{name}__singularity", "csv", serialize.singularity_csv(spec))
        em.write(
            f"{name}__spectrum", "svg",
            svgplot.log_log_plot(
                [(ps.freqs, ps.power, name)],
                title=f"S(f), {name}", xlabel="f", ylabel="S(f)",
                fit_lines=[(-fit.beta, fit.intercept, f"beta={fit.beta:.3f}")],
            ),
        )
        spectra.append(ps)
        shuffled_da = [row["shuffled"]["delta_alpha"] for row in report["surrogates"]]
        summary.append(
            (name, report["H"], report["delta_alpha"], report["beta"],
             max(shuffled_da) if shuffled_da else float("nan"))
        )

    if len(summary) >= 1:
        rows = [(n, repr(h), repr(da), repr(b), repr(sda))
                for n, h, da, b, sda in summary]
        header = ["name", "H", "delta_alpha", "beta", "shuffled_delta_alpha"]
        em.write("corpus__scatter", "csv",
                 serialize.table_csv(rows, header))
        band = None
        sda = [s[4] for s in summary if np.isfinite(s[4])]
        if sda:
            band = (float(np.mean(sda)), float(np.max(sda)))
        em.write(
            "corpus__scatter", "svg",
            svgplot.scatter_plot(
                [s[1] for s in summary], [s[2] for s in summary],
                title="delta_alpha vs H", xlabel="H", ylabel="delta_alpha",
                labels=[s[0] for s in summary], hband=band,
            ),
        )
    if len(spectra) >= 2:
        avg = spectral.average_spectrum(spectra)
        avg_fit = spectral.fit_beta(avg, spectrum_fit_range(args),
                                    args.bins_per_decade)
        em.write("corpus__avg_spectrum", "csv", serialize.spectrum_csv(avg))
        em.write(
            "corpus__avg_spectrum", "svg",
            svgplot.log_log_plot(
                [(avg.freqs, avg.power, "average")],
                title="corpus-average S(f)", xlabel="f", ylabel="S(f)",
                fit_lines=[(-avg_fit.beta, avg_fit.intercept,
                            f"beta={avg_fit.beta:.3f}")],
            ),
        )
    if failed:
        return 2 if summary else 1
    return 0


# --------------------------------------------------------------------------
# single-purpose commands

def cmd_spectrum(args) -> int:
    em = Emitter(args)
    for name, values, prov in resolve_inputs(args):
        ps = spectral.power_spectrum(values)
        fit = spectral.fit_beta(ps, spectrum_fit_range(args), args.bins_per_decade)
        em.write(f"{name}__spectrum", "csv", serialize.spectrum_csv(ps))
        em.write(f"{name}__spectrum_fit", "json", serialize.to_json(
            {"provenance": prov, **asdict(fit)}))
        em.write(f"{name}__spectrum", "svg", svgplot.log_log_plot(
            [(ps.freqs, ps.power, name)], title=f"S(f), {name}",
            xlabel="f", ylabel="S(f)",
            fit_lines=[(-fit.beta, fit.intercept, f"beta={fit.beta:.3f}")]))
    return 0


def cmd_mfdfa(args) -> int:
    em = Emitter(args)
    for name, values, prov in resolve_inputs(args):
        q, scales = mfdfa_params(args, len(values))
        surf, gh, spec = mfdfa.mfdfa(values, q_values=q, scales=scales,
                                     m=args.detrend_order)
        em.write(f"{name}__fq", "csv", serialize.surface_csv(surf))
        em.write(f"{name}__hurst", "csv", serialize.hurst_csv(gh))
        em.write(f"{name}__singularity", "csv", serialize.singularity_csv(spec))
        em.write(f"{name}__mfdfa", "json", serialize.to_json({
            "provenance": prov,
            "H": mfdfa.hurst_exponent(gh),
            "delta_alpha": spec.delta_alpha,
            "alpha_at_peak": spec.alpha_at_peak,
            "fit_scale_range": list(gh.fit_scale_range),
            "detrend_order": args.detrend_order,
        }))
        curves = [(surf.scales, surf.F[i], f"q={surf.q_values[i]:g}")
                  for i in range(0, len(surf.q_values),
                                 max(1, len(surf.q_values) // 5))]
        em.write(f"{name}__fq", "svg", svgplot.log_log_plot(
            curves, title=f"F_q(s), {name}", xlabel="s", ylabel="F_q(s)"))
    return 0


def cmd_wavelet(args) -> int:
    em = Emitter(args)
    for name, values, prov in resolve_inputs(args):
        scales = wavelet.default_scales(len(values), args.n_scales)
        wm = wavelet.wavelet_map(values, scales=scales)
        em.write(f"{name}__wavelet", "csv", serialize.wavelet_csv(wm))
        em.write(f"{name}__wavelet", "svg", svgplot.heatmap(
            wm.coefficients, title=f"|T(s,k)|, {name}"))
    return 0


def cmd_surrogate(args) -> int:
    em = Emitter(args)
    for name, values, prov in resolve_inputs(args):
        for k in range(args.surrogates):
            seed = args.seed + k
            if args.kind == "shuffle":
                surr = series.shuffle_surrogate(values, seed=seed)
            else:
                surr = series.phase_randomized_surrogate(values, seed=seed)
            em.write(f"{name}__{args.kind}_{seed}", "csv",
                     serialize.series_csv(surr.values, value_name="value"))
            em.write(f"{name}__{args.kind}_{seed}", "json", serialize.to_json(
                {"provenance": {**prov, **surr.provenance}}))
    return 0


def cmd_zipf(args) -> int:
    em = Emitter(args)
    for path in text_paths(args):
        doc = load_document(path, args)
        table = corpus.rank_frequency(
            doc, include_terminators=args.include_terminators)
        name = Path(path).stem
        em.write(f"{name}__zipf", "csv", serialize.rank_frequency_csv(table))
        ranks = np.array([e[0] for e in table.entries], dtype=float)
        counts = np.array([e[2] for e in table.entries], dtype=float)
        sel = (ranks >= args.rank_min) & (ranks <= args.rank_max)
        fit = None
        if sel.sum() >= 10:
            slope, intercept = np.polyfit(np.log10(ranks[sel]),
                                          np.log10(counts[sel]), 1)
            fit = {"slope": float(slope), "intercept": float(intercept),
                   "rank_range": [args.rank_min, args.rank_max]}
        em.write(f"{name}__zipf", "json", serialize.to_json({
            "n_types": len(table.entries),
            "include_terminators": args.include_terminators,
            "fit": fit,
        }))
        fit_lines = [(fit["slope"], fit["intercept"],
                      f"slope={fit['slope']:.3f}")] if fit else []
        em.write(f"{name}__zipf", "svg", svgplot.log_log_plot(
            [(ranks, counts, name)], title=f"rank-frequency, {name}",
            xlabel="rank", ylabel="count", fit_lines=fit_lines))
    return 0


def cmd_ccdf(args) -> int:
    em = Emitter(args)
    pooled = []
    names = []
    for name, values, prov in resolve_inputs(args):
        pooled.append(values)
        names.append(name)
    c = distfit.ccdf(pooled)
    name = names[0] if len(names) == 1 else "pooled"
    em.write(f"{name}__ccdf", "csv", serialize.ccdf_csv(c))
    payload = {"n_samples": c.n_samples, "members": names}
    try:
        tail = distfit.fit_stretched_exponential(c, tail_start=args.tail_start)
        payload["tail_fit"] = asdict(tail)
    except ValueError as exc:
        log(f"tail fit skipped ({exc})")
    em.write(f"{name}__ccdf_fit", "json", serialize.to_json(payload))
    em.write(f"{name}__ccdf", "svg", svgplot.log_log_plot(
        [(c.lengths, c.F, name)], title="CCDF", xlabel="length", ylabel="F"))
    return 0


def cmd_recurrence(args) -> int:
    em = Emitter(args)
    for path in text_paths(args):
        doc = load_document(path, args)
        rec = corpus.word_recurrence_series(doc, args.target)
        name = f"{Path(path).stem}__{args.target}"
        em.write(f"{name}__recurrence", "csv",
                 serialize.series_csv(rec.gaps, value_name="gap"))
        values = rec.gaps.astype(float)
        ps = spectral.power_spectrum(values)
        fit = spectral.fit_beta(ps, spectrum_fit_range(args), args.bins_per_decade)
        q, scales = mfdfa_params(args, len(values))
        _, gh, spec = mfdfa.mfdfa(values, q_values=q, scales=scales,
                                  m=args.detrend_order)
        em.write(f"{name}__recurrence", "json", serialize.to_json({
            "provenance": rec.source,
            "target": rec.target_word,
            "n_gaps": len(rec.gaps),
            "beta_w": fit.beta,
            "sigma_beta_w": fit.sigma_beta,
            "H": mfdfa.hurst_exponent(gh),
            "delta_alpha": spec.delta_alpha,
        }))
        em.write(f"{name}__spectrum", "svg", svgplot.log_log_plot(
            [(ps.freqs, ps.power, args.target)],
            title=f"S(f), recurrence of {args.target!r}",
            xlabel="f", ylabel="S(f)",
            fit_lines=[(-fit.beta, fit.intercept, f"beta_w={fit.beta:.3f}")]))
    return 0


def cmd_slice(args) -> int:
    em = Emitter(args)
    for name, values, prov in resolve_inputs(args):
        slv = corpus.SentenceLengthSeries(
            values=values.astype(int), unit="words", source=dict(prov))
        part = corpus.slice_series(slv, args.slice_from, args.slice_to)
        out_name = f"{name}__slice_{args.slice_from}_{args.slice_to}"
        em.write(out_name, "csv", serialize.series_csv(part.values))
        em.write(out_name, "json", serialize.to_json(
            {"provenance": part.source, "j_max": part.j_max}))
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "spectrum": cmd_spectrum,
    "mfdfa": cmd_mfdfa,
    "wavelet": cmd_wavelet,
    "surrogate": cmd_surrogate,
    "zipf": cmd_zipf,
    "ccdf": cmd_ccdf,
    "recurrence": cmd_recurrence,
    "slice": cmd_slice,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        log(f"fatal: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
