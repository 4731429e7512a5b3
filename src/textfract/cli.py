"""Command-line front end: ``textfract <subcommand> [flags] <paths...>``.

Subcommands compose the library pipeline: segmentation -> sentence
length series -> spectrum fit -> MFDFA -> singularity spectrum ->
surrogates -> tail fit, plus the single-purpose commands (zipf, ccdf,
wavelet, recurrence, surrogate, slice).

Every command runs one way: the runner loads each input and hands it
to the command's job, which analyses and writes it; analyze and ccdf
then run a corpus step over what their jobs returned. An input that
cannot be read or analysed, or whose worker process dies, is skipped
with ``error: <name>: ...``.
The seven commands that read a sentence-length series (all but zipf and
recurrence) take the segmentation flags --unit, --lexicon, --language
and --min-sentences, or ``--series-csv`` to read one series instead of
texts; a malformed CSV is fatal. zipf and recurrence read texts only,
case-folded, with no segmentation. Only analyze and surrogate draw
random numbers, so only they take --seed. Data go to files under --out,
logs to stderr, which only the main process writes: each input's lines
whole and in input order at any --jobs (lost if its worker dies), then
the ``error:`` lines, then the corpus step's. Exit codes: 0 ok, 2 some
inputs skipped, 1 all skipped, fatal or a usage error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import itertools
import math
import os
import sys
from concurrent.futures import BrokenExecutor
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


def _add_texts(p):
    p.add_argument("paths", nargs="*", help="UTF-8 plain text files")


def _add_series_input(p):
    """Texts segmented into a sentence-length series, or --series-csv."""
    _add_texts(p)
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
    _add_series_input(p); _add_spectral(p); _add_mfdfa(p); _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--surrogates", type=int, default=1,
                   help="surrogate pairs (shuffled + phase-randomized) per text")
    p.add_argument("--tail-start", type=float, default=100.0)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("spectrum", help="power spectrum and 1/f^beta fit")
    _add_series_input(p); _add_spectral(p); _add_common(p)

    p = sub.add_parser("mfdfa", help="fluctuation surface, h(q), f(alpha)")
    _add_series_input(p); _add_mfdfa(p); _add_common(p)

    p = sub.add_parser("wavelet", help="wavelet coefficient map")
    _add_series_input(p); _add_common(p)
    p.add_argument("--n-scales", type=int, default=50)

    p = sub.add_parser("surrogate", help="emit surrogate series")
    _add_series_input(p); _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--kind", choices=["shuffle", "phase"], default="shuffle")
    p.add_argument("--surrogates", type=int, default=1)

    p = sub.add_parser("zipf", help="rank-frequency table and slope")
    _add_texts(p); _add_common(p)
    p.add_argument("--include-terminators", action="store_true")
    p.add_argument("--rank-min", type=int, default=10)
    p.add_argument("--rank-max", type=int, default=1000)

    p = sub.add_parser("ccdf", help="sentence-length CCDF and tail fit")
    _add_series_input(p); _add_common(p)
    p.add_argument("--tail-start", type=float, default=100.0)

    p = sub.add_parser("recurrence", help="word-recurrence pipeline (beta^w)")
    _add_texts(p); _add_spectral(p); _add_mfdfa(p); _add_common(p)
    p.add_argument("--target", required=True, help="target word")

    p = sub.add_parser("slice", help="cut a sentence-length series")
    _add_series_input(p); _add_common(p)
    p.add_argument("--from", dest="slice_from", type=int, required=True)
    p.add_argument("--to", dest="slice_to", type=int, required=True)
    return ap


def parse_formats(text) -> set:
    if unknown := set(text.split(",")) - {"csv", "json", "svg"}:
        raise ValueError(f"unknown {sorted(unknown)}; use csv,json,svg")
    return set(text.split(","))


# Each option's own domain, walked by check_args: every float must be finite,
# an int within its least and most values, and a list or file must parse.
_LEAST = {"detrend_order": 0, "bins_per_decade": 1, "n_scales": 1, "jobs": 1,
          "surrogates": 0, "seed": 0, "slice_from": 1}
_MOST = {"bins_per_decade": spectral.MAX_BINS_PER_DECADE, "n_scales": wavelet.MAX_SCALES,
         "detrend_order": mfdfa.MAX_DETREND_ORDER}
_PARSED = {"format": parse_formats, "lexicon": corpus.AbbreviationLexicon.from_file,
           "target": corpus.recurrence_target}
_FLAGS = {"slice_from": "--from", "slice_to": "--to"}  # else "--" + dest with dashes
# the fewest ranks a Zipf slope is fitted through
_MIN_ZIPF_RANKS = 10


def check_args(args):
    """Reject, before any input is read, values that can only fail."""
    for dest, value in vars(args).items():
        name = _FLAGS.get(dest, "--" + dest.replace("_", "-"))
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if dest in _LEAST and value < _LEAST[dest]:
            raise ValueError(f"{name} must be >= {_LEAST[dest]}, got {value}")
        if dest in _MOST and value > _MOST[dest]:
            raise ValueError(f"{name} must be <= {_MOST[dest]}, got {value}")
        if dest in _PARSED and value is not None:
            try:
                _PARSED[dest](value)
            except (OSError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
    # the rules below join two or more options
    if "q_step" in args:
        try:
            q = mfdfa.default_q_values(args.q_min, args.q_max, args.q_step)
            # q = 2 holds |q| within 2 + 400 * MAX_Q_STEP = 2.7e156, far below MAX_ABS_Q
            if not np.isclose(q, 2.0).any():
                raise ValueError(f"{args.q_min} to {args.q_max} in steps of {args.q_step} "
                                 "misses q = 2, which H needs")
        except ValueError as exc:
            raise ValueError(f"--q-min/--q-max/--q-step: {exc}") from exc
    if "detrend_order" in args:
        if args.scale_min <= args.detrend_order + 1:
            raise ValueError(f"--scale-min must be > --detrend-order + 1 = "
                             f"{args.detrend_order + 1}, got {args.scale_min}")
        # a given --scale-max fixes the scales whatever the series length
        smax = args.scale_max
        try:  # default_scales names an s_max past 2**53
            few = smax is not None and (smax <= args.scale_min or len(
                mfdfa.default_scales(0, args.scale_min, smax)) < mfdfa.MIN_FIT_SCALES)
        except ValueError as exc:
            raise ValueError(f"--scale-max: {exc}") from exc
        if few:
            raise ValueError(f"--scale-max must give >= {mfdfa.MIN_FIT_SCALES} scales "
                             f"from --scale-min = {args.scale_min}, got {smax}")
    if "fit_fmin" in args and (args.fit_fmin is None) != (args.fit_fmax is None):
        raise ValueError("--fit-fmin and --fit-fmax must be given together")
    if getattr(args, "fit_fmin", None) is not None:
        if not args.fit_fmin < args.fit_fmax:
            raise ValueError(f"--fit-fmin must be < --fit-fmax = {args.fit_fmax}, "
                             f"got {args.fit_fmin}")
        if args.fit_fmax <= 0 or args.fit_fmin >= 0.5:
            raise ValueError(f"--fit-fmin/--fit-fmax: {args.fit_fmin} to {args.fit_fmax} "
                             "holds at most one periodogram frequency, in (0, 0.5]")
    if "rank_min" in args and args.rank_max - max(1, args.rank_min) + 1 < _MIN_ZIPF_RANKS:
        raise ValueError(f"--rank-min/--rank-max: {args.rank_min} to {args.rank_max} holds "
                         f"fewer than the {_MIN_ZIPF_RANKS} ranks the Zipf fit needs")
    if "slice_to" in args and args.slice_to < args.slice_from:
        raise ValueError(f"--to must be >= --from = {args.slice_from}, got {args.slice_to}")


def spectrum_fit_range(args):
    return None if args.fit_fmin is None else (args.fit_fmin, args.fit_fmax)


# --------------------------------------------------------------------------
# input loading

def read_series_csv(path) -> np.ndarray:
    """Values of an ``index,value`` CSV below its header row. A line the
    csv module cannot read, a row whose value is missing or not finite,
    or no row below the header raises ValueError naming the file."""
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
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
        except csv.Error as exc:  # such as a field past csv.field_size_limit()
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not values:
        raise ValueError(f"{path}: no rows below the header")
    return np.array(values)


def load_document(path, args) -> corpus.Document:
    return corpus.tokenize(Path(path).read_bytes(), title=Path(path).stem)


def load_slv(path, args) -> series.Series:
    """One text's sentence-length series; its provenance holds the segmentation."""
    doc = load_document(path, args)
    lex = (corpus.AbbreviationLexicon.from_file(args.lexicon) if args.lexicon
           else corpus.AbbreviationLexicon.for_language(args.language))
    spans, report = corpus.segment_sentences(doc, lex)
    slv = corpus.sentence_length_series(
        spans, unit="characters" if args.unit == "chars" else "words",
        source={"title": doc.title, "source_hash": doc.source_hash},
    )
    if len(slv) < args.min_sentences:
        log(f"warning: {path}: {len(slv)} sentences, below {args.min_sentences}")
    return series.Series(slv.values, {**slv.provenance, "segmentation": asdict(report)})


# --------------------------------------------------------------------------
# the per-input runner

class Emitter:
    def __init__(self, args):
        self.formats = parse_formats(args.format)
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, ext: str, render, /, *args, **kwargs):
        """Render ``render(*args, **kwargs)`` only if ``ext`` is in --format, so
        a format not asked for costs nothing and fails nothing. Write it to
        ``name.ext`` in --out whole or not at all: to ``name.ext.tmp``, then renamed."""
        if ext in self.formats:
            content = render(*args, **kwargs)
            path = self.out / f"{name}.{ext}"
            part = path.with_name(path.name + ".tmp")
            try:
                part.write_text(content, encoding="utf-8")
                os.replace(part, path)
            except BaseException:
                part.unlink(missing_ok=True)
                raise
            log(f"wrote {path}")


def each_input(args, job):
    """Load each input and run ``job(name, loaded, args, em)`` on it in
    up to --jobs processes. A text loads as its series, or as its
    Document where the command has no --series-csv; the --series-csv
    values are read into their Series here, before any job. Two texts
    with the same stem are rejected before any read, since they would
    write the same files. Returns the run's Emitter, the results of the
    inputs that did not raise, in input order, and the status: 0, 2 or 1
    when all, some or none succeeded."""
    if csv_path := getattr(args, "series_csv", None):
        if args.paths:
            raise ValueError("give text paths or --series-csv, not both")
        inputs = [(Path(csv_path).stem,
                   series.Series(read_series_csv(csv_path), {"series_csv": csv_path}))]
    elif args.paths:
        inputs = [(Path(p).stem, p) for p in sorted(args.paths)]
        first = {}  # each output file is named after its input's stem
        for name, p in inputs:
            if name in first:
                raise ValueError(f"{first[name]} and {p} both write {name}__*; rename one")
            first[name] = p
    else:
        raise ValueError("no input: give text paths, or --series-csv "
                         "where the command reads a series")
    em = Emitter(args)
    tasks = [(job, name, source, args, em) for name, source in inputs]
    workers = min(getattr(args, "jobs", 1), len(tasks))
    outcomes = []
    for ok, result, lines in (_run_pooled(tasks, workers) if workers > 1
                              else itertools.starmap(_run_job, tasks)):
        sys.stderr.write(lines)  # in input order, so --jobs N prints as --jobs 1
        outcomes.append((ok, result))
    for (name, _), (ok, result) in zip(inputs, outcomes):
        if not ok:
            log(f"error: {name}: {result}")
    results = [result for ok, result in outcomes if ok]
    return em, results, 0 if len(results) == len(tasks) else 2 if results else 1


def _run_pooled(tasks, workers):
    """The outcomes of ``tasks`` run in a pool of ``workers`` processes,
    at most one per CPU this process may use. A worker that dies breaks
    the pool, so each task that did not complete then runs again alone,
    in a fresh pool of one; a task whose worker dies again fails. The
    parent never runs a task itself."""
    # a fork pool starts all its workers at the first submit
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    futures = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, cpus)) as ex:
        with contextlib.suppress(BrokenExecutor):  # broke before all were submitted
            for task in tasks:
                futures.append(ex.submit(_run_job, *task))
    outcomes = []
    for task, future in itertools.zip_longest(tasks, futures):
        if future is not None and not isinstance(future.exception(), BrokenExecutor):
            outcomes.append(future.result())
        elif workers > 1:
            outcomes += _run_pooled([task], 1)
        else:
            outcomes.append((False, "its worker process died", ""))  # its held lines die with it
    return outcomes


def _run_job(job, name, source, args, em):
    """(ok, result or error, its stderr lines, held for the main process to write)"""
    with contextlib.redirect_stderr(io.StringIO()) as held:
        try:
            if any("\ud800" <= c <= "\udfff" for c in name):  # os.fsdecode's undecodable bytes
                raise ValueError("its file name is not UTF-8, and its outputs are named after it")
            if not isinstance(source, series.Series):  # a text path
                source = (load_slv if "series_csv" in args else load_document)(source, args)
            ok, result = True, job(name, source, args, em)
        except Exception as exc:  # one bad input never sinks the batch
            ok, result = False, str(exc) or type(exc).__name__
    return ok, result, held.getvalue()


# --------------------------------------------------------------------------
# stages shared by the commands

def spectrum_stage(values, args):
    """Power spectrum and its 1/f^beta fit, of a series that varies
    beyond rounding."""
    ps = spectral.power_spectrum(values)
    return ps, spectral.fit_beta(ps, spectrum_fit_range(args), args.bins_per_decade)


def mfdfa_stage(values, args):
    """(surface, h(q), f(alpha)) on the q grid and scales the flags set."""
    q = mfdfa.default_q_values(args.q_min, args.q_max, args.q_step)
    scales = mfdfa.default_scales(len(values), s_min=args.scale_min, s_max=args.scale_max)
    return mfdfa.mfdfa(values, q_values=q, scales=scales, m=args.detrend_order)


def tail_stage(c, tail_start, name):
    """Stretched-exponential tail fit, or None (logged) when it fails."""
    try:
        return distfit.fit_stretched_exponential(c, tail_start=tail_start)
    except ValueError as exc:
        log(f"{name}: tail fit skipped ({exc})")
        return None


def spectrum_svg(ps, fit, label, title, beta_name="beta"):
    """Log-log plot of one spectrum with its fitted 1/f^beta line."""
    return svgplot.log_log_plot(
        [(ps.freqs, ps.power, label)], title=title, xlabel="f", ylabel="S(f)",
        fit_lines=[(-fit.beta, fit.intercept, f"{beta_name}={fit.beta:.3f}")])


# --------------------------------------------------------------------------
# commands: a job per loaded input, and the corpus steps of analyze and ccdf

def analyze_job(name, s, args, em):
    """The full pipeline; returns the input's scatter row and spectrum."""
    values = s.values
    ps, fit = spectrum_stage(values, args)
    _surf, gh, spec = mfdfa_stage(values, args)
    i2 = int(np.nonzero(np.isclose(gh.q_values, 2.0))[0][0])  # check_args keeps q = 2
    H = float(gh.h[i2])

    surrogate_rows = []
    for k in range(args.surrogates):
        sh = series.shuffle_surrogate(values, seed=args.seed + 2 * k)
        pr = series.phase_randomized_surrogate(values, seed=args.seed + 2 * k + 1)
        row = {}
        for label, surr in (("shuffled", sh), ("phase_randomized", pr)):
            _, gh_s, spec_s = mfdfa_stage(surr.values, args)
            row[label] = {
                "h2": mfdfa.hurst_exponent(gh_s),
                "delta_alpha": spec_s.delta_alpha,
                "seed": surr.provenance["seed"],
            }
        surrogate_rows.append(row)

    tail = tail_stage(distfit.ccdf(values), args.tail_start, name)
    report = {
        "name": name,
        "provenance": s.provenance,
        # digest the analysis parameters only, not the output or scheduling
        "config_digest": serialize.config_digest(
            {k: v for k, v in vars(args).items()
             if k not in ("paths", "out", "format", "jobs")}),
        "j_max": len(values),
        "mean": float(values.mean()),
        "variance": float(values.var()),
        "beta": fit.beta,
        "sigma_beta": fit.sigma_beta,
        "spectrum_fit_range": list(fit.fit_range),
        "H": H,
        "sigma_H": float(gh.h_stderr[i2]),
        "beta_from_H": mfdfa.beta_from_hurst(H),
        "delta_alpha": spec.delta_alpha,
        "alpha_at_peak": spec.alpha_at_peak,
        "mfdfa": {
            "q": [float(v) for v in gh.q_values],
            "scale_range": list(gh.fit_scale_range),
            "detrend_order": args.detrend_order,
        },
        "surrogates": surrogate_rows,
        "tail_fit": None if tail is None else {
            "mu": tail.mu, "b": tail.b, "fit_range": list(tail.fit_range)},
    }
    em.write(f"{name}__report", "json", serialize.to_json, report)
    em.write(f"{name}__spectrum", "csv", serialize.spectrum_csv, ps)
    em.write(f"{name}__hurst", "csv", serialize.hurst_csv, gh)
    em.write(f"{name}__singularity", "csv", serialize.singularity_csv, spec)
    em.write(f"{name}__spectrum", "svg", spectrum_svg, ps, fit, name, f"S(f), {name}")
    shuffled_da = max((row["shuffled"]["delta_alpha"] for row in surrogate_rows),
                      default=float("nan"))
    return (name, H, spec.delta_alpha, fit.beta, shuffled_da), ps


def spectrum_job(name, s, args, em):
    ps, fit = spectrum_stage(s.values, args)
    em.write(f"{name}__spectrum", "csv", serialize.spectrum_csv, ps)
    em.write(f"{name}__spectrum_fit", "json", serialize.to_json,
             {"provenance": s.provenance, **asdict(fit)})
    em.write(f"{name}__spectrum", "svg", spectrum_svg, ps, fit, name, f"S(f), {name}")


def mfdfa_job(name, s, args, em):
    surf, gh, spec = mfdfa_stage(s.values, args)
    H = mfdfa.hurst_exponent(gh)  # raises before any file is written
    em.write(f"{name}__fq", "csv", serialize.surface_csv, surf)
    em.write(f"{name}__hurst", "csv", serialize.hurst_csv, gh)
    em.write(f"{name}__singularity", "csv", serialize.singularity_csv, spec)
    em.write(f"{name}__mfdfa", "json", serialize.to_json, {
        "provenance": s.provenance,
        "H": H,
        "delta_alpha": spec.delta_alpha,
        "alpha_at_peak": spec.alpha_at_peak,
        "fit_scale_range": list(gh.fit_scale_range),
        "detrend_order": args.detrend_order,
    })
    curves = [(surf.scales, surf.F[i], f"q={surf.q_values[i]:g}")
              for i in range(0, len(surf.q_values),
                             max(1, len(surf.q_values) // 5))]
    em.write(f"{name}__fq", "svg", svgplot.log_log_plot,
             curves, title=f"F_q(s), {name}", xlabel="s", ylabel="F_q(s)")


def wavelet_job(name, s, args, em):
    wm = wavelet.wavelet_map(s, scales=wavelet.default_scales(len(s), args.n_scales))
    em.write(f"{name}__wavelet", "csv", serialize.wavelet_csv, wm)
    em.write(f"{name}__wavelet", "svg", svgplot.heatmap,
             wm.coefficients, title=f"|T(s,k)|, {name}")


def surrogate_job(name, s, args, em):
    make = (series.shuffle_surrogate if args.kind == "shuffle"
            else series.phase_randomized_surrogate)
    for k in range(args.surrogates):
        seed = args.seed + k
        surr = make(s, seed=seed)
        em.write(f"{name}__{args.kind}_{seed}", "csv",
                 serialize.series_csv, surr.values, value_name="value")
        em.write(f"{name}__{args.kind}_{seed}", "json", serialize.to_json,
                 {"provenance": {**s.provenance, **surr.provenance}})


def zipf_job(name, doc, args, em):
    table = corpus.rank_frequency(doc, include_terminators=args.include_terminators)
    em.write(f"{name}__zipf", "csv", serialize.rank_frequency_csv, table)
    counts = table.counts.astype(float)
    ranks = np.arange(1.0, len(counts) + 1)
    sel = (ranks >= args.rank_min) & (ranks <= args.rank_max)
    fit = None
    if sel.sum() >= _MIN_ZIPF_RANKS:
        slope, intercept, _, _ = series._line_fit(np.log10(ranks[sel]), np.log10(counts[sel]))
        fit = {"slope": float(slope), "intercept": float(intercept),
               "rank_range": [args.rank_min, args.rank_max]}
    em.write(f"{name}__zipf", "json", serialize.to_json, {
        "n_types": len(counts),
        "include_terminators": args.include_terminators,
        "fit": fit,
    })
    fit_lines = [(fit["slope"], fit["intercept"],
                  f"slope={fit['slope']:.3f}")] if fit else []
    em.write(f"{name}__zipf", "svg", svgplot.log_log_plot,
             [(ranks, counts, name)], title=f"rank-frequency, {name}",
             xlabel="rank", ylabel="count", fit_lines=fit_lines)


def recurrence_job(name, doc, args, em):
    rec = corpus.word_recurrence_series(doc, args.target)
    # named after the target it matched, so each spelling of it writes one tree
    target = corpus.recurrence_target(args.target)
    target = "." if target == corpus.TERMINATOR_SURFACE else target
    name = f"{name}__{target}"
    ps, fit = spectrum_stage(rec.values, args)
    _, gh, spec = mfdfa_stage(rec.values, args)
    H = mfdfa.hurst_exponent(gh)  # raises before any file is written
    em.write(f"{name}__recurrence", "csv",
             serialize.series_csv, rec.values.astype(int), value_name="gap")
    em.write(f"{name}__recurrence", "json", serialize.to_json, {
        "provenance": rec.provenance,
        "target": target,
        "n_gaps": len(rec),
        "beta_w": fit.beta,
        "sigma_beta_w": fit.sigma_beta,
        "H": H,
        "delta_alpha": spec.delta_alpha,
    })
    em.write(f"{name}__spectrum", "svg", spectrum_svg,
             ps, fit, target, f"S(f), recurrence of {target!r}", "beta_w")


def slice_job(name, s, args, em):  # a text's lengths always pass these checks
    if not (s.values % 1 == 0).all():
        raise ValueError("sentence lengths must be whole numbers")
    if not (s.values >= 1).all():
        raise ValueError("sentence lengths must be >= 1")
    part = corpus.slice_series(s, args.slice_from, args.slice_to)
    out_name = f"{name}__slice_{args.slice_from}_{args.slice_to}"
    em.write(out_name, "csv", serialize.series_csv, [int(v) for v in part.values.tolist()])
    em.write(out_name, "json", serialize.to_json,
             {"provenance": part.provenance, "j_max": len(part)})


def values_job(name, s, args, em):
    return name, s.values


def analyze_corpus(results, args, em):
    """The delta_alpha-vs-H scatter and, over two or more inputs, the
    corpus-average spectrum."""
    summary, spectra = zip(*sorted(results, key=lambda r: r[0][0]))
    header = ["name", "H", "delta_alpha", "beta", "shuffled_delta_alpha"]
    em.write("corpus__scatter", "csv", serialize.table_csv, summary, header)
    names, hs, das, _betas, sdas = zip(*summary)
    finite = [x for x in sdas if np.isfinite(x)]
    band = (float(np.mean(finite)), float(np.max(finite))) if finite else None
    em.write("corpus__scatter", "svg", svgplot.scatter_plot,
             hs, das, title="delta_alpha vs H", xlabel="H", ylabel="delta_alpha",
             labels=names, hband=band)
    if len(spectra) >= 2:
        avg = spectral.average_spectrum(spectra)
        avg_fit = spectral.fit_beta(avg, spectrum_fit_range(args), args.bins_per_decade)
        em.write("corpus__avg_spectrum", "csv", serialize.spectrum_csv, avg)
        em.write("corpus__avg_spectrum", "svg", spectrum_svg,
                 avg, avg_fit, "average", "corpus-average S(f)")


def ccdf_corpus(results, args, em):
    """The CCDF and tail fit of one input's values, or of all pooled."""
    names, pooled = zip(*results)
    c = distfit.ccdf(np.concatenate(pooled))
    name = names[0] if len(names) == 1 else "pooled"
    em.write(f"{name}__ccdf", "svg", svgplot.log_log_plot,  # first: it can raise
             [(c.lengths, c.F, name)], title="CCDF", xlabel="length", ylabel="F")
    em.write(f"{name}__ccdf", "csv", serialize.ccdf_csv, c)
    payload = {"n_samples": c.n_samples, "members": names}
    tail = tail_stage(c, args.tail_start, name)
    if tail is not None:
        payload["tail_fit"] = asdict(tail)
    em.write(f"{name}__ccdf_fit", "json", serialize.to_json, payload)


# each command: its job per input, and its corpus step or None
_COMMANDS = {
    "analyze": (analyze_job, analyze_corpus),
    "spectrum": (spectrum_job, None),
    "mfdfa": (mfdfa_job, None),
    "wavelet": (wavelet_job, None),
    "surrogate": (surrogate_job, None),
    "zipf": (zipf_job, None),
    "ccdf": (values_job, ccdf_corpus),
    "recurrence": (recurrence_job, None),
    "slice": (slice_job, None),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but here 2 means "some inputs skipped"
        return 1 if exc.code else 0
    try:
        check_args(args)
        job, corpus_step = _COMMANDS[args.command]
        em, results, status = each_input(args, job)
        if corpus_step and results:
            corpus_step(results, args, em)
        return status
    except (ValueError, OSError, MemoryError) as exc:
        log(f"fatal: {str(exc) or type(exc).__name__}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
