"""Compare two sets of benchmark results, such as parent and change, or
the same commit run twice.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*.json`` records ``run.py --results-dir``
writes. Runs of the same workload and seed form a pair. For every
workload and metric it prints each side's median and quartiles, the
pairs each side won, and a verdict:

* improved: the change wins at least 9/10 of the pairs, ties counting
  for neither, and the medians differ by more than the base's
  interquartile range;
* regressed: the change's median is worse than the base's by more than
  the metric's bound in BENCHMARK.json (for per-layer metrics, which
  have no bound: the base wins 9/10 of pairs by more than its spread);
* unresolved: either side's interquartile range, as a share of its
  median, exceeds the bound, and not every change run beats every base
  run;
* unchanged: anything else.

It exits with 1 when any metric regressed or is unresolved. It also
reports whether the output-tree digests of each pair match (not a gate)
and in how many pairs the change ran first; alternate the order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path):
    """{(workload, trace): {seed: record}}; the earliest run of a seed wins."""
    runs = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["trace"])
        old = runs[key].get(rec["seed"])
        if old is None or rec["started"] < old["started"]:
            runs[key][rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better, bound):
    """Verdict for paired samples (lists in seed order)."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - b) for b, c in zip(base, change)]
    change_wins = sum(g > 0 for g in gains)
    base_wins = sum(g < 0 for g in gains)
    q1, med_b, q3 = quartiles(base)
    gain = sign * (statistics.median(change) - med_b)
    if change_wins >= 0.9 * len(gains) and gain > q3 - q1:
        return "improved", change_wins, base_wins
    if bound is None:
        if base_wins >= 0.9 * len(gains) and -gain > q3 - q1:
            return "regressed", change_wins, base_wins
        return "unchanged", change_wins, base_wins
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", change_wins, base_wins
    if -gain > bound * abs(med_b):
        return "regressed", change_wins, base_wins
    return "unchanged", change_wins, base_wins


def compare(base_runs, change_runs, spec, out=sys.stdout):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, trace = key
        seeds = sorted(set(base_runs[key]) & set(change_runs[key]))
        if not seeds:
            continue
        pairs = [(base_runs[key][s], change_runs[key][s]) for s in seeds]
        change_first = sum(c["started"] < b["started"] for b, c in pairs)
        print(f"\n{workload} ({'traced' if trace else 'timed'}): {len(seeds)} pairs, "
              f"change ran first in {change_first}", file=out)
        if not trace:
            same = sum(b["samples"]["runs"][0]["tree_sha256"] == c["samples"]["runs"][0]["tree_sha256"]
                       for b, c in pairs)
            print(f"  output trees identical in {same} of {len(seeds)} pairs", file=out)
        print(f"  {'metric':<26}{'base median [q1, q3]':>36}{'change median [q1, q3]':>36}"
              f"{'wins c/b':>10}  verdict", file=out)
        for name in pairs[0][0]["result"]["metrics"]:
            a = [b["result"]["metrics"][name]["value"] for b, _ in pairs]
            c = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            v, cw, bw = verdict(a, c, better[name], bounds.get(name))
            bad += v in ("regressed", "unresolved")
            qa, qc = quartiles(a), quartiles(c)
            print(f"  {name:<26}{qa[1]:>14.6g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(62)
                  + f"{qc[1]:>14.6g} [{qc[0]:.5g}, {qc[2]:.5g}]".ljust(36)
                  + f"{cw:>4}/{bw:<4}  {v}", file=out)
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description="compare two benchmark result sets")
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    bad = compare(load(args.base), load(args.change), spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
