"""Benchmark of the textfract CLI: one workload, one seed, one result.

    python3 perfbench/run.py --workload corpus_analyze --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the CLI is imported from ``src/``.
With ``--trace 0`` the CLI runs as a user runs it, one subprocess at a
time, as often as fits in ``--seconds`` (at least twice), and every
run's outputs are checked. With ``--trace 1`` each round calls
``textfract.cli.main`` twice through ``tracer.py``, untraced and then
under the span tracer, and per-layer metrics are reported instead.
Details are in ``perfbench/README.md``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run,
with every sample and its provenance, goes under ``.perfbench/results``.
"""

import os

# Pin BLAS/OpenMP threads before numpy loads, here and in every child, so
# no workload uses more threads than its CLI processes.
PINNED_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPS = 2  # timed CLI runs per benchmark run, however short --seconds is
# set-up samples taken before each CLI run, so they span the same window,
# and the fewest a run reports
SETUP_PER_REP = 1
MIN_SETUP = 5
# Floors that keep the correctness metrics above 0, so their bounds stay
# defined: a correct run reports exactly these values. The wavelet map
# cuts its kernel where |psi| < 1e-12, which leaves relative errors near
# 1e-12 against the full sum; the floor sits well above that.
REF_RESOLUTION = 1e-10
RATE_RESOLUTION = 1e-6
CLI = [sys.executable, "-c", "import sys; from textfract.cli import main; sys.exit(main())"]
SETUP = [sys.executable, "-c", "import textfract.cli as c; c.build_parser()"]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tree_digest(root: Path):
    """SHA-256 over the relative paths and bytes of every file, and the
    total size; ``__pycache__`` is skipped."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        data = path.read_bytes()
        total += len(data)
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), total


def spawn(cmd, cwd, log):
    """Run ``cmd`` to completion; returns (wall s, peak RSS MB, exit code).
    Peak RSS is the largest of the process and the workers it reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                            stdout=log, stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def setup_sample(work, log):
    """One fresh-interpreter import of textfract.cli plus build_parser."""
    wall, _rss, rc = spawn(SETUP, work, log)
    if rc != 0:
        fail(f"importing textfract.cli failed (exit {rc}); see {work / 'setup.log'}")
    return wall


def another(t0, done, seconds, at_least):
    """Whether to start another round: always until ``at_least`` are
    done, then only if one more, at the mean pace so far, ends within
    ``seconds`` of ``t0``."""
    if done < at_least:
        return True
    return (time.perf_counter() - t0) * (done + 1) / done <= seconds


class Tally:
    """Attempts and failures: each input of each CLI run is one attempt."""

    def __init__(self, names):
        self.names = names
        self.attempted = self.failed = 0
        self.reasons = []
        self.ref_err = 0.0

    def add(self, rc, failures, err):
        if rc != 0:
            failures = [(None, f"exit code {rc}")] + failures
        self.reasons.extend(f"{name or 'run'}: {why}" for name, why in failures)
        bad = {name for name, _ in failures}
        self.attempted += len(self.names)
        self.failed += len(self.names) if None in bad else len(bad)
        self.ref_err = max(self.ref_err, err)

    def fail_run(self, why):
        """A failure found after the run was added, such as a digest mismatch."""
        self.reasons.append(f"run: {why}")
        self.failed += len(self.names)


def timed_runs(wl, prep, seconds, work, tally):
    out = work / "out"
    reps, setup = [], []
    with open(work / "cli.log", "wb") as log, open(work / "setup.log", "wb") as setup_log:
        setup_sample(work, setup_log)  # unrecorded: compiles bytecode
        t0 = time.perf_counter()
        while another(t0, len(reps), seconds, MIN_REPS):
            setup.extend(setup_sample(work, setup_log) for _ in range(SETUP_PER_REP))
            shutil.rmtree(out, ignore_errors=True)
            wall, rss, rc = spawn(CLI + prep.argv + ["--out", out.name], work, log)
            digest, nbytes = tree_digest(out) if out.is_dir() else (None, 0)
            failures, err, info = wl.check(prep, out)
            tally.add(rc, failures, err)
            reps.append({"wall_s": wall, "peak_rss_mb": rss, "output_bytes": nbytes,
                         "exit_code": rc, "tree_sha256": digest, "ref_err": err,
                         "failures": failures, **info})
        while len(setup) < MIN_SETUP:
            setup.append(setup_sample(work, setup_log))
    for rep in reps[1:]:
        if rep["tree_sha256"] != reps[0]["tree_sha256"]:
            tally.fail_run("output tree differs between runs of the same inputs")
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    metrics = {
        "wall_s": med("wall_s"),
        "points_per_s": statistics.median(prep.points / r["wall_s"] for r in reps),
        "peak_rss_mb": med("peak_rss_mb"),
        "output_mb": med("output_bytes") / 1e6,
        "setup_s": statistics.median(setup),
    }
    return metrics, {"setup_s": setup, "runs": reps}


def traced_child(argv, out, work, log, record, run_id, trace):
    """One ``textfract.cli.main`` call in a fresh interpreter started on
    tracer.py, so every round pays a CLI run's first-touch costs; returns
    the child's record (wall s, exit code and spans)."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "tracer.py"), "--record", str(record),
           "--run-id", str(run_id), *([] if trace else ["--off"]),
           "--", *argv, "--out", out.name]
    _wall, _rss, rc = spawn(cmd, work, log)
    if rc != 0 or not record.is_file():
        fail(f"traced child exited with {rc}; see {work / 'cli.log'}")
    child = json.loads(record.read_text())
    if Path(child["cli_file"]).resolve().parent != SRC / "textfract":
        fail(f"traced child imported {child['cli_file']}, not {SRC}/textfract")
    return child


def traced_runs(wl, prep, seconds, work, tally, spans_path):
    out = work / "out"
    argv = prep.argv
    j2 = getattr(wl, "jobs", 1) > 1  # its argv ends with "--jobs 2"
    plain, traced, jobs1, per_run, spans = [], [], [], [], []
    t0 = time.perf_counter()
    with open(work / "cli.log", "wb") as log:
        def run(args, trace):
            child = traced_child(args, out, work, log, work / "record.json",
                                 len(traced), trace)
            tally.add(child["exit_code"], *wl.check(prep, out)[:2])
            return child

        while another(t0, len(traced), seconds, 1):
            plain.append(run(argv, False)["wall_s"])
            if j2:
                jobs1.append(run(argv[: argv.index("--jobs")] + ["--jobs", "1"], False)["wall_s"])
            child = run(argv, True)
            traced.append(child["wall_s"])
            per_run.append(tracing.layer_metrics(child["spans"]))
            spans.extend(child["spans"])
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(sp, sort_keys=True) + "\n" for sp in spans)
    metrics = {k: statistics.median(run[k] for run in per_run) for k in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    if j2:
        metrics["cli.jobs2_speedup"] = statistics.median(jobs1) / statistics.median(plain)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced,
               "jobs1_untraced_wall_s": jobs1, "per_run": per_run,
               "worker_spans": "not collected" if j2 else "no workers"}
    return metrics, samples


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return res.stdout.strip()


def cgroup_cpu_max():
    try:
        rel = Path("/proc/self/cgroup").read_text().splitlines()[-1].split(":", 2)[2]
    except (OSError, IndexError):
        rel = ""
    for path in (Path("/sys/fs/cgroup") / rel.lstrip("/") / "cpu.max",
                 Path("/sys/fs/cgroup/cpu.max")):
        try:
            return path.read_text().strip()
        except OSError:
            continue
    return "unavailable"


def blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def provenance(seed, prep):
    nproc = os.cpu_count()
    return {
        "commit": git_commit(),
        "src_sha256": tree_digest(SRC / "textfract")[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "pinned_threads": PINNED_THREADS,
        "nproc": nproc,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cgroup_cpu_max(),
        "seed": seed,
        "inputs": prep.fingerprints,
        "note": (f"measured on a shared {nproc}-core machine, with no cache "
                 "control and no system-wide tracing"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", type=Path, default=WORK / "results",
                    help="where the full result record is written")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "textfract" / "cli.py").is_file() or not spec_path.is_file():
        fail(f"run from a textfract source tree: need {SRC}/textfract and {spec_path}")
    spec = json.loads(spec_path.read_text())
    wl = WORKLOADS[args.workload]
    started = time.time()
    work = WORK / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    args.results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = wl.prepare(args.seed, work)
        tally = Tally(prep.names)
        if args.trace:
            declared = spec["per_layer"]
            metrics, samples = traced_runs(wl, prep, args.seconds, work, tally,
                                           args.results_dir / f"{stem}.spans.jsonl")
        else:
            declared = spec["end_to_end"]
            metrics, samples = timed_runs(wl, prep, args.seconds, work, tally)
            metrics["error_rate"] = max(tally.failed / tally.attempted, RATE_RESOLUTION)
            metrics["ref_err"] = max(tally.ref_err, REF_RESOLUTION)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) - set(metrics):
        fail(f"metrics not measured: {sorted(set(units) - set(metrics))}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "started": started, "finished": time.time(),
              "result": result, "extra_metrics": {k: v for k, v in metrics.items()
                                                  if k not in units},
              "failures": tally.reasons, "samples": samples,
              "provenance": provenance(args.seed, prep)}
    (args.results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    runs = len(samples["per_run"]) if args.trace else len(samples["runs"])
    kind = "traced" if args.trace else "timed CLI"
    print(f"{args.workload} seed {args.seed}: median of {runs} {kind} runs; "
          f"{tally.failed}/{tally.attempted} inputs failed")
    for k, m in result["metrics"].items():
        print(f"  {k:<26} {m['value']:>16.6g} {m['unit']}")
    if args.trace and samples["worker_spans"] == "not collected":
        print("  note: spans inside worker processes are not collected")
    for why in tally.reasons[:20]:
        print(f"  FAILED {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
