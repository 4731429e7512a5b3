import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from textfract import cli, corpus, mfdfa, spectral

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"
spec = importlib.util.spec_from_file_location("diff_outputs", TOOL)
diff_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_outputs)

# write_inputs in a fresh process that could import textfract from src
WRITE_INPUTS = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import diff_outputs
diff_outputs.write_inputs(Path(sys.argv[2]))
sys.exit("textfract" in sys.modules)
"""


def side(root, files, code=0, err=b"wrote <out>/a.csv\n"):
    out = root / "out"
    for name, content in files.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_bytes(content)
    return code, b"", err, out


def test_identical_runs_have_no_difference(tmp_path):
    old = side(tmp_path / "old", {"a.csv": b"1\n", "sub/b.svg": b"<svg/>"})
    new = side(tmp_path / "new", {"a.csv": b"1\n", "sub/b.svg": b"<svg/>"})
    assert diff_outputs.differences("run", old, new) == []


def test_each_difference_is_named(tmp_path):
    old = side(tmp_path / "old", {"a.csv": b"1\n", "gone.json": b"{}"})
    new = side(tmp_path / "new", {"a.csv": b"2\n", "extra.json": b"{}"}, code=2,
               err=b"error: x\n")
    assert sorted(diff_outputs.differences("run", old, new)) == [
        "run: a.csv differs (2 → 2 bytes)", "run: exit code differs", "run: only in NEW: extra.json",
        "run: only in OLD: gone.json", "run: stderr differs"]


def test_a_differing_file_states_both_sizes(tmp_path):
    old = side(tmp_path / "old", {"plot.svg": b"<svg>" + b" " * 1995 + b"</svg>"})
    new = side(tmp_path / "new", {"plot.svg": b"<svg/>"})
    assert diff_outputs.differences("run", old, new) == [
        "run: plot.svg differs (2,006 → 6 bytes)"]


def test_a_run_that_wrote_nothing_has_no_files(tmp_path):
    assert diff_outputs.files(tmp_path / "never_made") == {}


def test_the_closing_line_totals_each_side(tmp_path):
    old = {"one": side(tmp_path / "o1", {"a.csv": b"1\n", "sub/b.svg": b"<svg>" * 400}),
           "two": side(tmp_path / "o2", {"c.json": b"{}"})}
    new = {"one": side(tmp_path / "n1", {"a.csv": b"1\n", "sub/b.svg": b"<svg/>"}),
           "two": side(tmp_path / "n2", {"c.json": b"{}", "d.json": b"[]"})}
    assert diff_outputs.summary(old, new, 2) == (
        "2 runs, 3 files on the OLD side: 2 differences; 2,004 → 12 bytes in all")
    assert diff_outputs.summary(old, old, 0) == (
        "2 runs, 3 files on the OLD side: no differences; 2,004 → 2,004 bytes in all")
    assert diff_outputs.summary(old, old, 1).startswith(
        "2 runs, 3 files on the OLD side: 1 difference;")


def test_every_run_parses_and_every_subcommand_runs():
    parser = cli.build_parser()
    for argv in diff_outputs.RUNS.values():
        parser.parse_args([*argv, "--out", "o"])
    assert {argv[0] for argv in diff_outputs.RUNS.values()} == set(cli._COMMANDS)


def test_a_run_fits_over_a_grid_with_duplicates():
    # the byte check then covers the step that drops them
    args = cli.build_parser().parse_args([*diff_outputs.RUNS["mfdfa_narrow_grid"], "--out", "o"])
    grid = mfdfa.default_scales(0, args.scale_min, args.scale_max)
    assert len(grid) < mfdfa._N_SCALES


def test_runs_feed_the_spectrum_a_flat_series():
    # the byte check then pins the error line and exit code of the flat rule
    with pytest.raises(ValueError, match="series does not vary beyond rounding"):
        spectral.power_spectrum(diff_outputs.FLAT)
    assert len(diff_outputs.FLAT) == 8192 and len(set(diff_outputs.FLAT.tolist())) == 2
    for command in ("spectrum", "analyze"):
        assert [command, "--series-csv", "flat.csv"] in diff_outputs.RUNS.values()


def test_runs_pin_the_q_grid_edge_and_its_fatal_rule():
    # the byte check then covers the most q points and the CLI's q = 2 line
    parser = cli.build_parser()
    most = parser.parse_args([*diff_outputs.RUNS["mfdfa_q_grid_most"], "--out", "o"])
    assert len(mfdfa.default_q_values(most.q_min, most.q_max, most.q_step)) == mfdfa.MAX_Q_POINTS
    fatal = parser.parse_args([*diff_outputs.RUNS["mfdfa_q_grid_fatal"], "--out", "o"])
    with pytest.raises(ValueError, match="misses q = 2, which H needs"):
        cli.check_args(fatal)


def test_a_run_pins_parallel_stderr_with_warnings_and_a_skip():
    # the byte check then compares, unsorted, the stderr of two workers
    # that each warn and of an input that is skipped
    args = cli.build_parser().parse_args([*diff_outputs.RUNS["analyze_j2_skips"], "--out", "o"])
    assert args.jobs == 2 and args.min_sentences == 100_000
    assert args.paths == ["novel.txt", "empty.txt", "marks.txt"]


def test_a_run_reads_a_text_as_a_series_csv(tmp_path):
    # the byte check then pins the fatal line of a field past the csv module's limit
    args = cli.build_parser().parse_args([*diff_outputs.RUNS["spectrum_csv_one_line"],
                                          "--out", "o"])
    diff_outputs.write_inputs(tmp_path)
    with pytest.raises(ValueError, match=", line 1: field larger than field limit"):
        cli.read_series_csv(tmp_path / args.series_csv)


def test_runs_spell_a_target_two_ways():
    # the byte check then covers naming a recurrence run by the target it matched
    for spelled, plain in [("recurrence_the_spelled", "recurrence_the"),
                           ("recurrence_stop_pooled", "recurrence_stop")]:
        targets = [diff_outputs.RUNS[run][-1] for run in (spelled, plain)]
        assert targets[0] != targets[1]
        assert len({corpus.recurrence_target(t) for t in targets}) == 1


def test_the_inputs_are_written_without_either_tree(tmp_path):
    # so they stay the same whatever the two compared trees hold
    env = {**os.environ, "PYTHONPATH": str(TOOL.parents[1] / "src")}
    subprocess.run([sys.executable, "-c", WRITE_INPUTS, TOOL.parent, tmp_path],
                   env=env, check=True)
    read = {arg for argv in diff_outputs.RUNS.values() for arg in argv
            if arg.endswith((".txt", ".csv"))}
    assert read <= {p.name for p in tmp_path.iterdir()}
