"""Run the textfract CLI from two source trees on the same fixed inputs
and report every way the runs differ.

    python3 tools/diff_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories, each holding the
``textfract`` package; one may be unpacked from an older commit with
``git archive``. The inputs are built by ``perfbench/inputs.py``,
without importing either tree, and written once to a temporary
directory: the synthetic novel that the tests and the benchmark share, a
copy of it whose full stops turn in turn into ``...``, ``…``, ``....``,
``?`` and ``!`` (plus ``snake_case 3.14 a...b``), a copy whose sentences
in turn gain non-ASCII text (see ``unicode_text``), a copy whose every
space is a newline, a copy whose spaces turn in turn into a tab, a
no-break space, an ideographic space and a newline (so it holds no
ASCII space), a copy whose every newline is a space (read as a series
CSV, its one line is a field past the csv module's limit), an empty text, a seeded float series as an
``index,value`` CSV, fGn times 2^-520 and 2^1010, two amplitudes that
float64 cannot carry through the spectrum and MFDFA, and ``FLAT``, a
series that does not vary beyond rounding.
Every subcommand runs at least once on each side. For each run the exit
code, stdout, stderr (with the output directory written as ``<out>``;
the CLI writes it in input order at any ``--jobs``), the list of output
files and each file's bytes are compared. Each difference is
printed, a differing file with its size on each side as ``(OLD → NEW
bytes)``, then a closing line with the total bytes of all output files
on each side, so an output-size change reads as one net figure. The exit
code is 1 if there is any difference, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import inputs  # noqa: E402

# one CLI call per entry; the text and CSV names are those of write_inputs
RUNS = {
    "analyze_j1": ["analyze", "novel.txt", "marks.txt", "--surrogates", "2"],
    "analyze_j2": ["analyze", "novel.txt", "marks.txt", "--surrogates", "2", "--jobs", "2"],
    # two warnings and a skipped input from parallel workers: pins their stderr
    "analyze_j2_skips": ["analyze", "novel.txt", "empty.txt", "marks.txt", "--jobs", "2",
                         "--surrogates", "0", "--min-sentences", "100000"],
    # one format asked for: only its renderer runs
    "analyze_json": ["analyze", "novel.txt", "marks.txt", "--surrogates", "2",
                     "--format", "json"],
    "analyze_csv": ["analyze", "--series-csv", "noise.csv"],
    "analyze_csv_order1": ["analyze", "--series-csv", "noise.csv", "--surrogates", "3",
                           "--detrend-order", "1", "--q-min", "-6", "--q-max", "6",
                           "--q-step", "0.5"],
    "spectrum_de_chars": ["spectrum", "novel.txt", "marks.txt", "empty.txt",
                          "--language", "de", "--unit", "chars"],
    "spectrum_csv": ["spectrum", "--series-csv", "noise.csv"],
    "mfdfa": ["mfdfa", "marks.txt"],
    "mfdfa_q_positive": ["mfdfa", "--series-csv", "noise.csv", "--detrend-order", "3",
                         "--q-min", "0.5", "--q-max", "4", "--q-step", "0.5"],
    # 30 grid points that round to 25 scales: the only run whose grid has
    # duplicates to drop
    "mfdfa_narrow_grid": ["mfdfa", "--series-csv", "noise.csv",
                          "--scale-min", "10", "--scale-max", "40"],
    # the most q points the grid holds, and a grid the CLI's own q = 2 rule rejects
    "mfdfa_q_grid_most": ["mfdfa", "--series-csv", "noise.csv", "--q-step", "0.02"],
    "mfdfa_q_grid_fatal": ["mfdfa", "--series-csv", "noise.csv", "--q-min", "2.5"],
    "wavelet": ["wavelet", "novel.txt"],
    "wavelet_svg": ["wavelet", "novel.txt", "--format", "svg"],
    "wavelet_csv": ["wavelet", "--series-csv", "noise.csv", "--n-scales", "20"],
    "surrogate_shuffle": ["surrogate", "novel.txt"],
    "surrogate_phase": ["surrogate", "--series-csv", "noise.csv", "--kind", "phase",
                        "--surrogates", "2", "--seed", "3"],
    "zipf": ["zipf", "novel.txt", "marks.txt", "--include-terminators"],
    "zipf_words": ["zipf", "novel.txt", "--rank-min", "1", "--rank-max", "50"],
    "ccdf_pooled": ["ccdf", "novel.txt", "marks.txt", "--tail-start", "20"],
    "ccdf_csv": ["ccdf", "--series-csv", "noise.csv", "--tail-start", "1"],
    "recurrence_the": ["recurrence", "novel.txt", "--target", "the"],
    "recurrence_stop": ["recurrence", "marks.txt", "--target", "."],
    # other spellings of the two targets above: named as those are
    "recurrence_the_spelled": ["recurrence", "novel.txt", "--target", " The"],
    "recurrence_stop_pooled": ["recurrence", "marks.txt", "--target", "⟨.⟩"],
    "slice": ["slice", "marks.txt", "--from", "100", "--to", "5000"],
    "spectrum_unicode_chars": ["spectrum", "unicode.txt", "--unit", "chars"],
    "zipf_unicode": ["zipf", "unicode.txt", "--include-terminators"],
    "recurrence_unicode": ["recurrence", "unicode.txt", "--target", "Café"],
    "recurrence_stop_unicode": ["recurrence", "unicode.txt", "--target", "."],
    "analyze_newlines": ["analyze", "newlines.txt"],
    "zipf_newlines": ["zipf", "newlines.txt", "--include-terminators"],
    "recurrence_newlines": ["recurrence", "newlines.txt", "--target", "the"],
    "zipf_whitespace": ["zipf", "whitespace.txt", "--include-terminators"],
    "analyze_whitespace": ["analyze", "whitespace.txt"],
    "analyze_tiny": ["analyze", "--series-csv", "tiny.csv"],
    "analyze_huge": ["analyze", "--series-csv", "huge.csv"],
    "wavelet_tiny": ["wavelet", "--series-csv", "tiny.csv", "--n-scales", "20"],
    "wavelet_huge": ["wavelet", "--series-csv", "huge.csv", "--n-scales", "20"],
    "surrogate_phase_tiny": ["surrogate", "--series-csv", "tiny.csv", "--kind", "phase"],
    "surrogate_phase_huge": ["surrogate", "--series-csv", "huge.csv", "--kind", "phase"],
    # a text given as a series CSV: its one line is too long a field
    "spectrum_csv_one_line": ["spectrum", "--series-csv", "oneline.txt"],
    "spectrum_flat": ["spectrum", "--series-csv", "flat.csv"],
    "analyze_flat": ["analyze", "--series-csv", "flat.csv"],
}
# 3.0 and the next float up in turn: flat to rounding, so the spectrum and
# MFDFA reject it
FLAT = np.where(np.arange(8192) % 2, np.nextafter(3.0, 4.0), 3.0)


def unicode_text(text: str) -> str:
    """The novel with one change per sentence, in turn: the sentence in
    curly quotes, two words joined by ``’``, a bracketed clause, an NFD
    accented word, a word with a letter outside the BMP, an opening
    ``Dr.`` and initials, and a stray ``)`` followed by a clause in
    straight ``"`` quotes and one in brackets, each holding a full stop
    with a lowercase word after it. The novel itself is pure ASCII."""
    edits = [
        lambda words: ["“" + words[0], *words[1:-1], words[-1] + "”"],
        lambda words: [words[0] + "’" + words[1], *words[2:]] if len(words) > 2 else words,
        lambda words: [words[0], "(so", "it", "went,", "café)", *words[1:]],
        lambda words: [*words[:-1], "cafe\u0301", "nai\u0308ve", words[-1]],
        lambda words: [words[0], "x𝐀y", *words[1:]],
        lambda words: ["Dr.", "J.", "R.", "Banook", "and", words[0].lower(), *words[1:]],
        lambda words: [words[0], ")", '"so.', "it", 'went"', "(and.", "then)", *words[1:]],
    ]
    lines = text.splitlines()
    return "".join(" ".join(edits[i % len(edits)](line.split(" "))) + "\n"
                   for i, line in enumerate(lines))


def write_inputs(folder: Path):
    """The fixed inputs, the same whichever trees are compared."""
    text, _ = inputs.build_novel()
    (folder / "novel.txt").write_text(text, encoding="utf-8")
    marks = ["...", "…", "....", "?", "!"]
    parts = text.split(".\n")
    marked = "".join(p + marks[i % len(marks)] + "\n" for i, p in enumerate(parts[:-1]))
    (folder / "marks.txt").write_text(marked + parts[-1] + "snake_case 3.14 a...b\n",
                                      encoding="utf-8")
    (folder / "unicode.txt").write_text(unicode_text(text), encoding="utf-8")
    (folder / "newlines.txt").write_text(text.replace(" ", "\n"), encoding="utf-8")
    (folder / "oneline.txt").write_text(text.replace("\n", " "), encoding="utf-8")
    spaces = ["\t", "\u00a0", "\u3000", "\n"]
    parts = text.split(" ")
    (folder / "whitespace.txt").write_text(
        "".join(p + spaces[i % len(spaces)] for i, p in enumerate(parts[:-1])) + parts[-1],
        encoding="utf-8")
    (folder / "empty.txt").write_bytes(b"")
    fgn = inputs.fgn(0.75, 8192, 5)
    for name, values in [("noise", np.random.default_rng(20261018).lognormal(2.0, 0.5, 2**14)),
                         ("tiny", fgn * 2.0**-520), ("huge", fgn * 2.0**1010),
                         ("flat", FLAT)]:
        (folder / f"{name}.csv").write_text(inputs.series_csv(values), encoding="utf-8")


def run_side(src: Path, in_dir: Path, outs: Path) -> dict:
    """Run every entry of RUNS in ``in_dir`` with ``src`` first on the
    path; returns name -> (exit code, stdout, stderr, output directory)."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    results = {}
    for name, argv in RUNS.items():
        out = outs / name
        proc = subprocess.run([sys.executable, "-m", "textfract.cli", *argv, "--out", str(out)],
                              cwd=in_dir, env=env, capture_output=True)
        err = proc.stderr.replace(os.fsencode(out), b"<out>")
        results[name] = (proc.returncode, proc.stdout, err, out)
    return results


def files(out: Path) -> dict:
    """Relative name -> path of each file a run wrote (none if no --out)."""
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file()}


def differences(name: str, old, new) -> list:
    """One line per way run ``name`` differs between the two sides."""
    lines = [f"{name}: {what} differs" for what, a, b in
             zip(("exit code", "stdout", "stderr"), old[:3], new[:3]) if a != b]
    old_files, new_files = files(old[3]), files(new[3])
    lines += [f"{name}: only in OLD: {f}" for f in old_files.keys() - new_files.keys()]
    lines += [f"{name}: only in NEW: {f}" for f in new_files.keys() - old_files.keys()]
    for f in sorted(old_files.keys() & new_files.keys()):
        a, b = old_files[f].read_bytes(), new_files[f].read_bytes()
        if a != b:
            lines.append(f"{name}: {f} differs ({len(a):,} → {len(b):,} bytes)")
    return lines


def summary(old: dict, new: dict, n_differences: int) -> str:
    """The closing line: the runs, the OLD side's file count, the number
    of differences and the bytes of all output files on each side."""
    sizes = [[p.stat().st_size for result in side.values() for p in files(result[3]).values()]
             for side in (old, new)]
    return (f"{len(old)} runs, {len(sizes[0])} files on the OLD side: "
            f"{n_differences or 'no'} difference{'s' * (n_differences != 1)}; "
            f"{sum(sizes[0]):,} → {sum(sizes[1]):,} bytes in all")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        in_dir = tmp / "inputs"
        in_dir.mkdir()
        write_inputs(in_dir)
        old = run_side(args.old_src, in_dir, tmp / "old")
        new = run_side(args.new_src, in_dir, tmp / "new")
        lines = [line for name in RUNS for line in differences(name, old[name], new[name])]
        closing = summary(old, new, len(lines))
    for line in lines + [closing]:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
