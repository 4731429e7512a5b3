"""Span tracer for the traced run, applied from outside the program.

    python3 perfbench/tracer.py --record FILE [--off] -- <textfract args>

runs one ``textfract.cli.main`` call in this fresh interpreter, under
the tracer unless ``--off``, and writes its wall time, exit code and
spans to FILE. ``run.py --trace 1`` starts it once per traced round.

``Tracer.install`` replaces the public functions of textfract's modules
(and three of ``cli``'s) with wrappers that record one span per call:
name, start, end, parent span and run id, plus counts read from the
arguments or result. Spans stay in memory until the call returns.
Calls made inside worker processes are not seen: their spans die with
the workers.

``layer_metrics`` turns the spans of one run into the per-layer
metrics. A span's self time is its duration minus its children's; in
one thread children never overlap, so that is a plain difference.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from pathlib import Path

TRACED_MODULES = ("corpus", "mfdfa", "series", "spectral", "distfit",
                  "wavelet", "serialize", "svgplot")
CLI_FUNCTIONS = ("load_slv", "read_series_csv")


def _counts(name, args, result):
    """Work counts recorded at a layer boundary."""
    if name == "corpus.tokenize":
        return {"tokens": len(result.tokens)}
    if name == "corpus.segment_sentences":
        return {"sentences": len(result[0])}
    if name == "mfdfa.segment_variances":
        n, s = len(args[0].values), int(args[1])
        return {"points": 2 * (n // s) * s}
    if name == "wavelet.wavelet_map":
        return {"coefficients": int(result.coefficients.size)}
    if (name.startswith("svgplot.") or name == "serialize.to_json"
            or (name.startswith("serialize.") and name.endswith("_csv"))):
        return {"bytes": len(result)}  # ASCII text: one byte per character
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            counts = _counts(name, args, result)
            if counts:
                span.update(counts)
            return result

        return traced

    def open(self, name):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def install(self, package="textfract"):
        """Wrap every public function of the traced modules, wherever a
        module of the package holds a reference to it, for the rest of
        this process."""
        names = {}
        for mod_name in TRACED_MODULES:
            mod = sys.modules[f"{package}.{mod_name}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    names[fn] = f"{mod_name}.{attr}"
        cli = sys.modules[f"{package}.cli"]
        for attr in CLI_FUNCTIONS:
            names[getattr(cli, attr)] = f"cli.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        cli.Emitter.write = self._wrap("cli.Emitter.write", cli.Emitter.write)



# Self time of each traced function goes to one per-layer metric;
# functions not listed go to their module's catch-all.
_SELF_TIME = {
    "corpus.tokenize": "corpus.tokenize_s",
    "corpus.segment_sentences": "corpus.segment_s",
    "corpus": "corpus.series_s",
    "mfdfa.segment_variances": "mfdfa.segvar_s",
    "mfdfa.detrended_variance": "mfdfa.segvar_s",
    "mfdfa.fluctuation_surface": "mfdfa.surface_s",
    "mfdfa": "mfdfa.fit_s",
    "series.shuffle_surrogate": "series.surrogate_s",
    "series.phase_randomized_surrogate": "series.surrogate_s",
    "series": "series.other_s",
    "spectral": "spectral.s",
    "distfit": "distfit.s",
    "wavelet": "wavelet.map_s",
    "serialize": "serialize.s",
    "svgplot": "svgplot.s",
    "cli.read_series_csv": "cli.read_csv_s",
    "cli.Emitter.write": "cli.write_s",
    "cli": "cli.self_s",  # cli.main (the root span) and load_slv's own code
}

PER_LAYER = [
    "corpus.tokenize_s", "corpus.segment_s", "corpus.series_s", "corpus.tokens",
    "corpus.sentences", "corpus.tokens_per_s",
    "mfdfa.segvar_s", "mfdfa.surface_s", "mfdfa.fit_s", "mfdfa.passes",
    "mfdfa.detrended_points", "mfdfa.ns_per_point",
    "series.surrogate_s", "series.surrogates",
    "spectral.s", "spectral.fits",
    "distfit.s", "distfit.tail_fits_skipped",
    "wavelet.map_s", "wavelet.coefficients", "wavelet.ns_per_coef",
    "serialize.s", "serialize.bytes", "serialize.mb_per_s",
    "svgplot.s", "svgplot.bytes",
    "cli.read_csv_s", "cli.write_s", "cli.self_s", "cli.parent_ingest_s",
    "cli.jobs2_speedup",
    "trace.overhead_s",
]


def self_times(spans):
    child_time = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] = child_time.get(sp["parent"], 0.0) + sp["end"] - sp["start"]
    return {sp["id"]: sp["end"] - sp["start"] - child_time.get(sp["id"], 0.0)
            for sp in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced run (spans of one run id, with a
    ``cli.main`` root). Rates are 0 where their layer did no work."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["series.other_s"] = 0.0
    own = self_times(spans)
    for sp in spans:
        name = sp["name"]
        key = _SELF_TIME.get(name) or _SELF_TIME[name.split(".")[0]]
        m[key] += own[sp["id"]]
        m["corpus.tokens"] += sp.get("tokens", 0)
        m["corpus.sentences"] += sp.get("sentences", 0)
        m["mfdfa.detrended_points"] += sp.get("points", 0)
        m["wavelet.coefficients"] += sp.get("coefficients", 0)
        layer = name.split(".")[0]
        if layer in ("serialize", "svgplot"):
            m[f"{layer}.bytes"] += sp.get("bytes", 0)
        m["mfdfa.passes"] += name == "mfdfa.fluctuation_surface"
        m["series.surrogates"] += name in ("series.shuffle_surrogate",
                                           "series.phase_randomized_surrogate")
        m["spectral.fits"] += name == "spectral.fit_beta"
        m["distfit.tail_fits_skipped"] += (name == "distfit.fit_stretched_exponential"
                                           and sp.get("error") == "ValueError")
        if name == "cli.load_slv":
            m["cli.parent_ingest_s"] += sp["end"] - sp["start"]

    def rate(num, den, scale=1.0):
        return num * scale / den if den > 0 else 0.0

    m["corpus.tokens_per_s"] = rate(m["corpus.tokens"], m["corpus.tokenize_s"])
    m["mfdfa.ns_per_point"] = rate(m["mfdfa.segvar_s"], m["mfdfa.detrended_points"], 1e9)
    m["wavelet.ns_per_coef"] = rate(m["wavelet.map_s"], m["wavelet.coefficients"], 1e9)
    m["serialize.mb_per_s"] = rate(m["serialize.bytes"], m["serialize.s"], 1e-6)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description="one traced textfract.cli.main call")
    ap.add_argument("--record", type=Path, required=True)
    ap.add_argument("--run-id", type=int, default=0)
    ap.add_argument("--off", action="store_true", help="time the call without spans")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import textfract.cli as cli

    tracer = Tracer()
    tracer.run_id = args.run_id
    if not args.off:
        tracer.install()
    root = tracer.open("cli.main")
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.close(root)
    args.record.write_text(json.dumps({
        "wall_s": root["end"] - root["start"], "exit_code": rc,
        "cli_file": cli.__file__, "spans": tracer.spans if not args.off else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
