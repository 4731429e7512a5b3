import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import textfract as tf
from textfract import cli, mfdfa, serialize


VOCAB = [
    "the", "old", "river", "ran", "slow", "past", "mill", "and", "every",
    "night", "someone", "walked", "its", "bank", "under", "a", "pale",
    "moon", "talking", "of", "grain", "water", "stones", "dust", "wind",
    "light", "shadow", "bridge", "keeper", "bell", "song", "road", "field",
    "crow", "ash", "oak", "rain", "fog", "frost", "ember",
]


def make_text(n_sentences, seed):
    """Small synthetic corpus: random-length sentences over a fixed
    vocabulary, Zipf-tilted so the rank-frequency fit has support."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, len(VOCAB) + 1)
    weights /= weights.sum()
    lines = []
    for _ in range(n_sentences):
        n_words = int(rng.integers(3, 13))
        idx = rng.choice(len(VOCAB), size=n_words, p=weights)
        words = [VOCAB[i] for i in idx]
        words[0] = words[0].capitalize()
        lines.append(" ".join(words) + ".")
    return "\n".join(lines) + "\n"


@pytest.fixture()
def text_file(tmp_path):
    path = tmp_path / "tale.txt"
    path.write_text(make_text(1200, 7), encoding="utf-8")
    return path


@pytest.fixture()
def series_file(tmp_path):
    path = tmp_path / "fgn.csv"
    values = tf.generate_fgn(0.75, 4096, 5).values
    path.write_text(serialize.series_csv(values, value_name="value"),
                    encoding="utf-8")
    return path, values


def run(argv):
    return cli.main([str(a) for a in argv])


# the close of the amplitude rule's error
RESCALE = "the exponents do not depend on scale, so rescale the series"

# the options each command needs before anything else can be checked
REQUIRED = {"recurrence": ["--target", "the"], "slice": ["--from", "1", "--to", "2"]}

# input flags, each with a value, that some commands do not take
INPUT_FLAGS = {"series_csv": ["--series-csv", "x.csv"], "unit": ["--unit", "chars"],
               "lexicon": ["--lexicon", "f"], "language": ["--language", "xx"],
               "min_sentences": ["--min-sentences", "1"], "seed": ["--seed", "9"]}


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def assert_same_tree(a, b):
    """Both directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestParser:
    def test_all_subcommands_registered(self):
        ap = cli.build_parser()
        assert ap.prog == "textfract"
        for cmd in ["analyze", "spectrum", "mfdfa", "wavelet", "surrogate",
                    "zipf", "ccdf", "recurrence", "slice"]:
            assert cmd in cli._COMMANDS
            ap.parse_args([cmd, "x.txt", *REQUIRED.get(cmd, [])])

    def test_analyze_option_set(self):
        # config_digest hashes every analyze option, so the set is pinned
        args = cli.build_parser().parse_args(["analyze", "x.txt"])
        assert sorted(vars(args)) == [
            "bins_per_decade", "command", "detrend_order", "fit_fmax", "fit_fmin",
            "format", "jobs", "language", "lexicon", "min_sentences", "out", "paths",
            "q_max", "q_min", "q_step", "scale_max", "scale_min", "seed",
            "series_csv", "surrogates", "tail_start", "unit"]

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_no_input_is_fatal(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["spectrum", "--out", out]) == 1
        assert "fatal: no input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["zipf"], ["recurrence", "--target", "the"]],
                             ids=lambda argv: argv[0])
    def test_text_only_command_without_input_is_fatal(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(argv + ["--out", out]) == 1
        assert "fatal: no input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["mfdfa", "--q-step", "0"], "--q-step"),
        (["analyze", "--format", "cvs"], "--format"),
        (["analyze", "--jobs", "0"], "--jobs"),
        (["analyze", "--surrogates", "-2"], "--surrogates"),
        (["mfdfa", "--q-step", "0.7"], "--q-min/--q-max/--q-step"),
        (["analyze", "--q-min", "1", "--q-max", "2", "--q-step", "0.5"],
         "--q-min/--q-max/--q-step"),
        (["spectrum", "--fit-fmin", "0.001"], "--fit-fmin"),
        (["mfdfa", "--detrend-order", "-1"], "--detrend-order"),
        (["analyze", "--detrend-order", "-1"], "--detrend-order"),
        (["wavelet", "--n-scales", "0"], "--n-scales"),
        (["spectrum", "--bins-per-decade", "0"], "--bins-per-decade"),
        (["mfdfa", "--scale-min", "3"], "--scale-min"),
        (["recurrence", "--target", "the", "--scale-min", "2", "--detrend-order", "1"],
         "--scale-min"),
        (["mfdfa", "--series-csv", "s.csv", "--q-max", "inf"], "--q-max must be finite"),
        (["mfdfa", "--series-csv", "s.csv", "--q-min=-inf"], "--q-min must be finite"),
        (["analyze", "--q-max", "1e400"], "--q-max must be finite"),
        (["mfdfa", "--q-step", "inf"], "--q-step must be finite"),
        (["mfdfa", "--scale-max", "10"], "--scale-max"),
        (["mfdfa", "--scale-max", "-5"], "--scale-max"),
        (["mfdfa", "--scale-max", "0"], "--scale-max"),
        (["recurrence", "--target", "the", "--scale-min", "30", "--scale-max", "30"],
         "--scale-max"),
        (["mfdfa", "--q-min=-1e308"], "--q-min/--q-max/--q-step"),
        (["analyze", "--q-max=1.7e308"], "--q-min/--q-max/--q-step"),
        (["mfdfa", "--q-min=1e308", "--q-max=-1e308"], "--q-min/--q-max/--q-step"),
        (["mfdfa", "--series-csv", "s.csv", "--scale-max", "21"], "--scale-max"),
        (["recurrence", "--target", "the", "--scale-max", "24"], "--scale-max"),
        (["spectrum", "--fit-fmin", "0.1", "--fit-fmax", "0.01"], "--fit-fmin"),
        (["analyze", "--fit-fmin", "0.1", "--fit-fmax", "0.1"], "--fit-fmin"),
        (["spectrum", "--fit-fmin", "nan", "--fit-fmax", "0.1"], "--fit-fmin must be finite"),
        (["recurrence", "--target", "the", "--fit-fmin", "0.01", "--fit-fmax", "inf"],
         "--fit-fmax must be finite"),
        (["slice", "--from", "3", "--to", "2"], "--to must be >= --from"),
        (["slice", "--from", "0", "--to", "2"], "--from must be >= 1"),
        (["analyze", "--seed", "-1"], "--seed must be >= 0"),
        (["surrogate", "--seed", "-1"], "--seed must be >= 0"),
        (["analyze", "--tail-start", "inf"], "--tail-start must be finite"),
        (["ccdf", "--tail-start", "nan"], "--tail-start must be finite"),
        (["spectrum", "--lexicon", "no/such/dir/abbr.txt"], "--lexicon: [Errno 2]"),
        (["spectrum", "--fit-fmin", "0.6", "--fit-fmax", "0.9"], "--fit-fmin/--fit-fmax"),
        (["spectrum", "--fit-fmin=-1", "--fit-fmax", "0"], "--fit-fmin/--fit-fmax"),
        (["analyze", "--fit-fmin", "0.5", "--fit-fmax", "0.7"], "--fit-fmin/--fit-fmax"),
        (["recurrence", "--target", "the", "--fit-fmin=-0.2", "--fit-fmax=-0.1"],
         "--fit-fmin/--fit-fmax"),
        (["mfdfa", "--q-step", "1e-6"], "--q-min/--q-max/--q-step: -4.0 to 4.0 in steps "
         "of 1e-06 gives 8000001 points; at most 401"),
        (["analyze", "--q-max", "4.02", "--q-step", "0.02"],
         "--q-min/--q-max/--q-step: -4.0 to 4.02 in steps of 0.02 gives 402 points"),
        (["zipf", "--rank-min", "10", "--rank-max", "15"], "--rank-min/--rank-max: 10 to 15 "
         "holds fewer than the 10 ranks the Zipf fit needs"),
        (["zipf", "--rank-min", "100", "--rank-max", "10"], "--rank-min/--rank-max"),
        (["zipf", "--rank-min=-5", "--rank-max", "9"], "--rank-min/--rank-max"),
        (["spectrum", "--bins-per-decade", "100001"],
         "--bins-per-decade must be <= 100000, got 100001"),
        (["analyze", "--bins-per-decade", "100000000"], "--bins-per-decade must be <= 100000"),
        (["recurrence", "--target", "the", "--bins-per-decade", "100001"],
         "--bins-per-decade must be <= 100000"),
        (["mfdfa", "--detrend-order", "11"], "--detrend-order must be <= 10, got 11"),
        (["analyze", "--detrend-order", "30"], "--detrend-order must be <= 10, got 30"),
        (["recurrence", "--target", "the", "--detrend-order", "11"],
         "--detrend-order must be <= 10"),
        (["wavelet", "--n-scales", "1001"], "--n-scales must be <= 1000, got 1001"),
        (["mfdfa", "--q-min", "2", "--q-step", repr(math.nextafter(mfdfa.MAX_Q_STEP, math.inf)),
          "--q-max", repr(2 + 400 * mfdfa.MAX_Q_STEP)],
         "--q-min/--q-max/--q-step: 2.0 to 2.681561585988519e+156 in steps of "
         "6.703903964971299e+153 overflows float64 in MFDFA; the step must be <= 6.704e+153"),
    ], ids=["q_step_zero", "unknown_format", "jobs_zero", "negative_surrogates",
            "q_grid_without_two", "q_grid_too_short", "half_fit_range",
            "negative_detrend_order", "analyze_negative_detrend_order", "n_scales_zero",
            "bins_per_decade_zero", "scale_min_at_order_plus_one",
            "recurrence_scale_min_at_order_plus_one", "q_max_inf", "q_min_minus_inf",
            "analyze_q_max_overflow", "q_step_inf", "scale_max_below_min", "negative_scale_max",
            "scale_max_zero", "recurrence_scale_max_at_min", "q_min_grid_overflow",
            "analyze_q_max_grid_overflow", "q_bounds_reversed_overflow",
            "scale_max_two_scales", "recurrence_scale_max_five_scales",
            "fit_range_reversed", "analyze_fit_range_empty", "fit_fmin_nan",
            "recurrence_fit_fmax_inf", "slice_to_below_from", "slice_from_zero",
            "negative_seed", "surrogate_negative_seed", "tail_start_inf", "ccdf_tail_start_nan",
            "missing_lexicon", "fit_range_above_nyquist", "fit_range_at_or_below_zero",
            "analyze_fit_fmin_at_nyquist", "recurrence_fit_range_negative",
            "q_grid_too_fine", "analyze_q_grid_one_past_bound", "zipf_six_ranks",
            "zipf_ranks_reversed", "zipf_nine_ranks_from_one", "bins_per_decade_above_most",
            "analyze_bins_per_decade_huge", "recurrence_bins_per_decade_above_most",
            "detrend_order_above_most", "analyze_detrend_order_far_above_most",
            "recurrence_detrend_order_above_most", "n_scales_above_most",
            "q_step_one_float_past_bound"])
    def test_bad_option_value_is_fatal_before_reading(self, argv, flag, tmp_path, capsys):
        # the input does not exist: the value must be rejected before any read
        out = tmp_path / "o"
        assert run(argv + [tmp_path / "missing.txt", "--out", out]) == 1
        assert f"fatal: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_numeric_option_has_a_domain(self):
        # each float is held finite and each int in the table at its least
        # value; the other ints are checked against other options, or take
        # any value
        cross_option = {"scale_min", "scale_max", "slice_to", "rank_min", "rank_max"}
        all_valid = {"min_sentences"}
        for cmd, parser in subparsers().items():
            for action in parser._actions:
                assert action.type in (None, int, float), (cmd, action.dest)
                if action.type is int and action.dest not in cli._LEAST:
                    assert action.dest in cross_option | all_valid, (cmd, action.dest)
                elif action.type is not None:
                    bad = "nan" if action.type is float else cli._LEAST[action.dest] - 1
                    flag = action.option_strings[-1]
                    args = parser.parse_args([*REQUIRED.get(cmd, []), f"{flag}={bad}"])
                    with pytest.raises(ValueError, match=f"^{flag} must be"):
                        cli.check_args(args)


def subparsers():
    """Each subcommand's parser, by name."""
    ap = cli.build_parser()
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


# For each option: its domain's edge, one step past it and its default, as
# far as they differ; floats also take nan, +-inf and +-1e308. The smallest
# --q-step drawn is 0.1, so a grid holds at most 81 q values.
EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308]
DRAWN = {
    "q_min": [-4.0, 2.0, 2.5, *EXTREMES], "q_max": [4.0, 2.0, 1.5, *EXTREMES],
    "q_step": [0.25, 0.1, 0.0, -0.25, *EXTREMES],
    "scale_min": [20, 4, 3, 2], "scale_max": [25, 24, 21, 20],
    "detrend_order": [2, 0, -1, 10, 11], "bins_per_decade": [20, 1, 0],
    "fit_fmin": [0.01, 0.1, *EXTREMES], "fit_fmax": [0.1, 0.5, *EXTREMES],
    "n_scales": [50, 1, 0, 1000, 1001], "seed": [0, -1], "surrogates": [1, 0, -1],
    "jobs": [2, 1, 0],
    "tail_start": [100.0, *EXTREMES], "min_sentences": [5000, 1, 0],
    "rank_min": [10, 1, 0], "rank_max": [1000, 10, 0],
    "slice_from": [1, 0, 2], "slice_to": [2, 1, 1024, 1025],
    "format": ["json", "cvs"], "lexicon": ["no/such/dir/abbr.txt"],
}


@st.composite
def argvs(draw):
    """A subcommand with drawn values for up to three of its options and
    for each required one."""
    cmd = draw(st.sampled_from(sorted(subparsers())))
    actions = [a for a in subparsers()[cmd]._actions if a.type or a.dest in DRAWN]
    assert all(a.dest in DRAWN for a in actions), cmd
    chosen = draw(st.sets(st.sampled_from([a.dest for a in actions]), max_size=3))
    return [cmd] + [f"{a.option_strings[-1]}={draw(st.sampled_from(DRAWN[a.dest]))}"
                    for a in actions if a.required or a.dest in chosen]


@settings(max_examples=50)
@given(argv=argvs())
@example(argv=["mfdfa", "--q-min=-1e308"])
def test_main_never_raises(argv):
    # exit codes only: 0 ok, 1 fatal or all inputs skipped, 2 some skipped
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if argv[0] in ("zipf", "recurrence"):
            (tmp / "tale.txt").write_text(make_text(300, 5), encoding="utf-8")
            inputs = [tmp / "tale.txt"] + (["--target", "the"] if argv[0] == "recurrence" else [])
        else:
            (tmp / "fgn.csv").write_text(serialize.series_csv(
                tf.generate_fgn(0.75, 1024, 5).values, value_name="value"), encoding="utf-8")
            inputs = ["--series-csv", tmp / "fgn.csv"]
        assert run(argv + inputs + ["--out", tmp / "o"]) in (0, 1, 2)


# the seven commands that read --series-csv, with the options each is run
# with; 10 wavelet scales span the default range, so the longest FFT is the same
SERIES_COMMANDS = {"analyze": [], "spectrum": [], "mfdfa": [], "wavelet": ["--n-scales", "10"],
                   "surrogate": ["--kind", "phase"], "ccdf": [], "slice": REQUIRED["slice"]}


@st.composite
def scaled_series(draw):
    """(x, k): fGn, the binomial cascade, a constant, integers or runs of
    constant integers, times any 2^k that keeps every value finite."""
    kind = draw(st.sampled_from(["fgn", "cascade", "constant", "integers", "runs"]))
    n, seed = draw(st.sampled_from([256, 1000, 2048])), draw(st.integers(0, 99))
    rng = np.random.default_rng(seed)
    if kind == "fgn":
        x = tf.generate_fgn(draw(st.floats(0.2, 0.9)), n, seed).values
    elif kind == "cascade":
        x = tf.generate_binomial_cascade(draw(st.floats(0.01, 0.5)),
                                         draw(st.integers(8, 13))).values
    elif kind == "constant":
        x = np.full(n, draw(st.floats(0.5, 100.0)))
    elif kind == "integers":
        x = rng.integers(1, 60, n).astype(float)
    else:
        x = np.repeat(rng.integers(1, 60, n // 8), 8).astype(float)
    # |k| uniform up to 1100, or up to 550; max|x| * 2^k stays below 2^1024
    k = draw(st.sampled_from(range(1101)) | st.sampled_from(range(551)))
    k = -k if draw(st.booleans()) else k
    return x, min(k, 1023 - int(np.frexp(np.abs(x).max())[1]))


def exponents(out):
    """(beta or None, h(q) or None) from the files a run wrote to ``out``."""
    fits = [json.loads(p.read_text()) for p in out.glob("*__spectrum_fit.json")]
    fits += [json.loads(p.read_text()) for p in out.glob("*__report.json")]
    hurst = [np.array([float(r[1]) for r in read_rows(p)[1:]]) for p in out.glob("*__hurst.csv")]
    return (fits[0]["beta"] if fits else None), (hurst[0] if hurst else None)


@settings(max_examples=50)
@given(drawn=scaled_series())
@example(drawn=(tf.generate_fgn(0.75, 1000, 5).values, -1074))
@example(drawn=(tf.generate_fgn(0.75, 1000, 5).values, 1021))
# in range, but values down to 2^-86 of the largest put F^2 below normal
@example(drawn=(tf.generate_binomial_cascade(0.01, 13).values, -458))
def test_any_amplitude_gives_a_named_outcome_or_the_unscaled_exponents(drawn):
    # every series command exits 0, 1 or 2, warns of nothing and writes no
    # inf or nan; an exponent written equals the unscaled series' own
    x, k = drawn
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "s.csv"
        path.write_text(serialize.series_csv(np.ldexp(x, k), value_name="value"),
                        encoding="utf-8")
        for cmd, options in SERIES_COMMANDS.items():
            out, err = tmp / cmd, io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = run([cmd, "--series-csv", path, *options, "--out", out])
            assert code in (0, 1, 2) and caught == [], (cmd, caught)
            assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
            for f in [*out.glob("*.csv"), *out.glob("*.json")]:
                assert not re.search(r"\b(inf|nan|Infinity|NaN)\b", f.read_text()), f
            beta, h = exponents(out)
            if code == 0 and beta is not None:
                want = tf.fit_beta(tf.power_spectrum(x)).beta
                assert beta == pytest.approx(want, abs=1e-12), cmd
            if code == 0 and h is not None:
                _, gh, _ = tf.mfdfa.mfdfa(x)
                np.testing.assert_allclose(h, gh.h, rtol=0, atol=1e-12, err_msg=cmd)


class TestSeriesCsvInput:
    @pytest.mark.parametrize("row", ["3", "3,nan", "3,inf", "3,abc"],
                             ids=["one_column", "nan", "inf", "non_numeric"])
    def test_malformed_row_is_fatal(self, row, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"index,value\n1,2.0\n2,5.0\n{row}\n4,1.0\n",
                        encoding="utf-8")
        assert run(["spectrum", "--series-csv", path, "--out", tmp_path / "o"]) == 1
        assert f"fatal: {path}, line 4:" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["spectrum", "analyze"])
    def test_texts_with_series_csv_are_fatal(self, cmd, text_file, series_file,
                                             tmp_path, capsys):
        out = tmp_path / "o"
        assert run([cmd, text_file, "--series-csv", series_file[0], "--out", out]) == 1
        assert "fatal: give text paths or --series-csv, not both" in capsys.readouterr().err
        assert not out.exists()

    # In a child process, where numpy's overflow RuntimeWarning stays a
    # warning as in a real run; raised as an error it would stop the run
    # before any fit sees the infinities.
    @staticmethod
    def _child(*argv):
        src = str(Path(tf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "textfract.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=120)

    @pytest.mark.parametrize("cmd", ["spectrum", "analyze", "mfdfa"])
    def test_overflowing_series_writes_nothing(self, cmd, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.choice([-1.0, 1.0], 512) * rng.uniform(0.5, 1.0, 512) * 1e300
        path = tmp_path / "huge.csv"
        path.write_text(serialize.series_csv(values, value_name="value"), encoding="utf-8")
        out = tmp_path / "o"
        proc = self._child(cmd, "--series-csv", path, "--out", out)
        assert proc.returncode == 1
        assert ("error: huge: series amplitude max|x| = 9.998e+299 is outside "
                "[6.718e-139, 8.183e+149] at n = 512; " + RESCALE) in proc.stderr
        assert "Warning" not in proc.stderr
        assert list(out.iterdir()) == []

    def test_q_grid_beyond_float64_is_fatal(self, tmp_path):
        # before the bound, this grid printed numpy's overflow warnings from
        # np.gradient, exited 0 and wrote f(alpha) = 1.0 at every q
        path = tmp_path / "fgn.csv"
        path.write_text(serialize.series_csv(tf.generate_fgn(0.75, 8192, 5).values,
                                             value_name="value"), encoding="utf-8")
        out = tmp_path / "o"
        proc = self._child("mfdfa", "--series-csv", path, "--q-min", "2", "--q-step", "1e305",
                           "--q-max", "4e307", "--out", out)
        assert proc.returncode == 1
        assert proc.stderr == ("fatal: --q-min/--q-max/--q-step: 2.0 to 4e+307 in steps of "
                               "1e+305 overflows float64 in MFDFA; the step must be "
                               "<= 6.704e+153\n")
        assert not out.exists()

    def test_largest_accepted_q_grid_runs_without_warning(self, tmp_path):
        # 401 points from q = 2 at the largest step: |q| reaches 2.7e156
        path = tmp_path / "fgn.csv"
        path.write_text(serialize.series_csv(tf.generate_fgn(0.75, 8192, 5).values,
                                             value_name="value"), encoding="utf-8")
        out = tmp_path / "o"
        step = mfdfa.MAX_Q_STEP
        proc = self._child("mfdfa", "--series-csv", path, "--q-min", "2", "--q-step", repr(step),
                           "--q-max", repr(2 + 400 * step), "--out", out)
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr
        rows = read_rows(out / "fgn__singularity.csv")[1:]
        assert len(rows) == 401
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_wavelet_of_a_huge_series_writes_nothing(self, tmp_path):
        # every value is finite, but the map's FFT would overflow to inf and NaN
        path = tmp_path / "huge.csv"
        values = tf.generate_fgn(0.75, 8192, 5).values * 2.0**1010
        path.write_text(serialize.series_csv(values, value_name="value"), encoding="utf-8")
        out = tmp_path / "o"
        proc = self._child("wavelet", "--series-csv", path, "--out", out)
        assert proc.returncode == 1
        assert ("error: huge: series amplitude max|x| = 4.001e+304 is outside "
                "[1.002e-292, 2.555e+294] at n = 8192; " + RESCALE) in proc.stderr
        assert "Warning" not in proc.stderr
        assert list(out.iterdir()) == []

    # fGn (H = 0.75, n = 8,192, seed 5) times 2^k. Before the amplitude rule,
    # analyze exited 0 with H = 0.058 and 9.9e-29 at 2^-515 and 2^-520, found
    # a false exactly-detrended segment at 2^-540 and 2^-546, and could not fit
    # through non-finite values at 2^504 and 2^1010; the phase surrogate
    # printed numpy's overflow warnings at 2^1010; and wavelet and the phase
    # surrogate exited 0 at 2^-1070, 1.1% and 2.4% off.
    OUT_OF_RANGE = [
        ("analyze", -515, "[6.718e-139, 1.279e+148]"),
        ("analyze", -520, "[6.718e-139, 1.279e+148]"),
        ("analyze", -540, "[6.718e-139, 1.279e+148]"),
        ("analyze", -546, "[6.718e-139, 1.279e+148]"),
        ("analyze", 504, "[6.718e-139, 1.279e+148]"),
        ("analyze", 1010, "[6.718e-139, 1.279e+148]"),
        ("surrogate", 1010, "[1.002e-292, 1.635e+296]"),
        ("wavelet", -1070, "[1.002e-292, 2.555e+294]"),
        ("surrogate", -1070, "[1.002e-292, 1.635e+296]"),
    ]

    @pytest.mark.parametrize("cmd, k, bounds", OUT_OF_RANGE,
                             ids=[f"{cmd}_2^{k}" for cmd, k, _ in OUT_OF_RANGE])
    def test_series_out_of_amplitude_range_writes_nothing(self, cmd, k, bounds, tmp_path):
        values = tf.generate_fgn(0.75, 8192, 5).values * 2.0**k
        path = tmp_path / "fgn.csv"
        path.write_text(serialize.series_csv(values, value_name="value"), encoding="utf-8")
        out = tmp_path / "o"
        kind = ["--kind", "phase"] if cmd == "surrogate" else []
        proc = self._child(cmd, "--series-csv", path, *kind, "--out", out)
        assert proc.returncode == 1
        amp = float(np.abs(values).max())
        assert (f"error: fgn: series amplitude max|x| = {amp:.4g} is outside {bounds} "
                f"at n = 8192; {RESCALE}") in proc.stderr
        assert "Warning" not in proc.stderr
        assert list(out.iterdir()) == []

    def test_wavelet_of_a_large_series_is_the_scaled_map(self, tmp_path):
        path = tmp_path / "large.csv"
        values = tf.generate_fgn(0.75, 8192, 5).values
        path.write_text(serialize.series_csv(values * 2.0**500, value_name="value"),
                        encoding="utf-8")
        out = tmp_path / "o"
        proc = self._child("wavelet", "--series-csv", path, "--out", out)
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr
        rows = read_rows(out / "large__wavelet.csv")[1:]
        want = tf.wavelet_map(values, scales=tf.wavelet.default_scales(8192)).coefficients
        assert [float(r[2]) for r in rows] == (want * 2.0**500).ravel().tolist()

    @pytest.mark.parametrize("cmd, wiggle, message", [
        ("spectrum", 0, "series does not vary beyond rounding: max|x - mean| = 0 <= "),
        ("spectrum", 1, "series does not vary beyond rounding: max|x - mean| = 4.441e-16 <= "),
        ("analyze", 0, "series does not vary beyond rounding: max|x - mean| = 0 <= "),
        ("mfdfa", 0, "series does not vary beyond rounding: max|x - mean| = 0 <= "),
        ("mfdfa", 1, "series does not vary beyond rounding: max|x - mean| = 4.441e-16 <= "),
    ], ids=["spectrum", "spectrum_ulp_steps", "analyze", "mfdfa", "mfdfa_ulp_steps"])
    def test_series_flat_to_rounding_is_rejected(self, cmd, wiggle, message, tmp_path,
                                                 capsys):
        # 5,000 rows of 3.0, or 3.0 and the next float up in turn
        values = np.where(np.arange(5000) % 2 * wiggle, np.nextafter(3.0, 4.0), 3.0)
        path = tmp_path / "flat.csv"
        path.write_text(serialize.series_csv(values, value_name="value"), encoding="utf-8")
        out = tmp_path / "o"
        assert run([cmd, "--series-csv", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"error: flat: {message}" in err and "Warning" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["analyze", "spectrum", "mfdfa", "wavelet", "surrogate",
                                     "ccdf", "slice"])
    def test_header_only_csv_is_fatal(self, cmd, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("index,value\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run([cmd, "--series-csv", path, *REQUIRED.get(cmd, []), "--out", out]) == 1
        assert f"fatal: {path}: no rows below the header" in capsys.readouterr().err
        assert not out.exists()


class TestSpectrumCommand:
    def test_series_csv_input(self, series_file, tmp_path):
        path, values = series_file
        out = tmp_path / "out"
        assert run(["spectrum", "--series-csv", path, "--out", out]) == 0
        rows = read_rows(out / "fgn__spectrum.csv")
        ps = tf.power_spectrum(values)
        assert [float(r[1]) for r in rows[1:]] == ps.power.tolist()
        fit = json.loads((out / "fgn__spectrum_fit.json").read_text())
        assert fit["beta"] == pytest.approx(0.5, abs=0.15)
        ET.fromstring((out / "fgn__spectrum.svg").read_text())

    def test_explicit_fit_range(self, series_file, tmp_path):
        path, values = series_file
        out = tmp_path / "out"
        assert run(["spectrum", "--series-csv", path, "--out", out,
                    "--fit-fmin", "0.001", "--fit-fmax", "0.1",
                    "--format", "json"]) == 0
        fit = json.loads((out / "fgn__spectrum_fit.json").read_text())
        assert fit["fit_range"] == [0.001, 0.1]
        assert not (out / "fgn__spectrum.csv").exists()

    def test_threshold_flag(self, text_file, tmp_path, capsys):
        assert run(["spectrum", text_file, "--out", tmp_path / "a",
                    "--min-sentences", "5000"]) == 0
        assert f"warning: {text_file}: 1200 sentences, below 5000" in capsys.readouterr().err
        assert run(["spectrum", text_file, "--out", tmp_path / "b",
                    "--min-sentences", "100"]) == 0
        assert "warning" not in capsys.readouterr().err


class TestMfdfaCommand:
    def test_outputs(self, series_file, tmp_path):
        path, values = series_file
        out = tmp_path / "out"
        assert run(["mfdfa", "--series-csv", path, "--out", out]) == 0
        meta = json.loads((out / "fgn__mfdfa.json").read_text())
        assert meta["H"] == pytest.approx(0.75, abs=0.08)
        assert meta["delta_alpha"] >= 0
        hurst = read_rows(out / "fgn__hurst.csv")
        assert hurst[0] == ["q", "h", "h_stderr"]
        assert len(hurst) == 1 + 33  # q grid -4..4 step 0.25

    def test_custom_q_grid(self, series_file, tmp_path):
        path, _ = series_file
        out = tmp_path / "out"
        assert run(["mfdfa", "--series-csv", path, "--out", out,
                    "--q-min", "-2", "--q-max", "2", "--q-step", "0.5",
                    "--format", "csv"]) == 0
        assert len(read_rows(out / "fgn__hurst.csv")) == 1 + 9


class TestWaveletCommand:
    def test_outputs(self, series_file, tmp_path):
        path, _ = series_file
        out = tmp_path / "out"
        assert run(["wavelet", "--series-csv", path, "--out", out,
                    "--n-scales", "8"]) == 0
        rows = read_rows(out / "fgn__wavelet.csv")
        assert len(rows) == 1 + 8 * 4096
        ET.fromstring((out / "fgn__wavelet.svg").read_text())


class TestSurrogateCommand:
    def test_shuffle_is_permutation(self, series_file, tmp_path):
        path, values = series_file
        out = tmp_path / "out"
        assert run(["surrogate", "--series-csv", path, "--out", out,
                    "--kind", "shuffle", "--seed", "9"]) == 0
        rows = read_rows(out / "fgn__shuffle_9.csv")
        got = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_allclose(np.sort(got), np.sort(values))
        meta = json.loads((out / "fgn__shuffle_9.json").read_text())
        assert meta["provenance"]["seed"] == 9

    def test_phase_preserves_spectrum(self, series_file, tmp_path):
        path, values = series_file
        out = tmp_path / "out"
        assert run(["surrogate", "--series-csv", path, "--out", out,
                    "--kind", "phase", "--format", "csv"]) == 0
        rows = read_rows(out / "fgn__phase_0.csv")
        got = np.array([float(r[1]) for r in rows[1:]])
        # Rounding after irfft is relative to the largest amplitude; the DC
        # bin of this zero-mean series is itself such noise (about 7e-15).
        want = np.abs(np.fft.rfft(values))
        np.testing.assert_allclose(np.abs(np.fft.rfft(got)), want,
                                   rtol=1e-9, atol=1e-12 * want.max())


class TestZipfCommand:
    def test_table_and_fit(self, text_file, tmp_path):
        out = tmp_path / "out"
        assert run(["zipf", text_file, "--out", out,
                    "--rank-min", "5", "--rank-max", "40"]) == 0
        meta = json.loads((out / "tale__zipf.json").read_text())
        assert meta["fit"]["rank_range"] == [5, 40]
        rows = read_rows(out / "tale__zipf.csv")
        counts = [int(r[2]) for r in rows[1:]]
        assert counts == sorted(counts, reverse=True)
        # rank i + 1 is the table's position i, in the CSV and in the fit
        table = tf.rank_frequency(tf.tokenize(text_file.read_bytes()))
        assert rows[1:] == [[str(i + 1), w, str(c)]
                            for i, (w, c) in enumerate(zip(table.surfaces, counts))]
        slope, intercept = np.polyfit(np.log10(np.arange(5, 41)),
                                      np.log10(table.counts[4:40]), 1)
        assert meta["n_types"] == len(table.surfaces)
        assert meta["fit"]["slope"] == pytest.approx(slope, rel=1e-9)
        assert meta["fit"]["intercept"] == pytest.approx(intercept, rel=1e-9)

    # a flag the command would not read is a usage error, which exits 1
    @pytest.mark.parametrize("cmd, flag", [
        ("zipf", "series_csv"),
        *((cmd, flag) for cmd in ("zipf", "recurrence")
          for flag in ("unit", "lexicon", "language", "min_sentences", "seed")),
        *((cmd, "seed") for cmd in ("spectrum", "mfdfa", "wavelet", "ccdf", "slice")),
    ])
    def test_rejects_series_input(self, cmd, flag, text_file, tmp_path, capsys):
        out = tmp_path / "o"
        argv = [cmd, *REQUIRED.get(cmd, []), *INPUT_FLAGS[flag], text_file, "--out", out]
        assert run(argv) == 1
        assert f"unrecognized arguments: {INPUT_FLAGS[flag][0]}" in capsys.readouterr().err
        assert not out.exists()


class TestCcdfCommand:
    def test_tail_fit_on_heavy_sample(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.exponential(scale=200.0, size=20000) + 1.0
        path = tmp_path / "lengths.csv"
        path.write_text(serialize.series_csv(values, value_name="value"),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert run(["ccdf", "--series-csv", path, "--out", out]) == 0
        meta = json.loads((out / "lengths__ccdf_fit.json").read_text())
        assert meta["n_samples"] == 20000
        assert meta["tail_fit"]["b"] == pytest.approx(1.0, abs=0.05)

    def test_negative_tail_start_fits_positive_lengths(self, series_file, tmp_path, capfd):
        # fGn holds values <= 0, where the double log is undefined
        path, _ = series_file
        out = tmp_path / "out"
        assert run(["ccdf", "--series-csv", path, "--tail-start=-1", "--out", out]) == 0
        meta = json.loads((out / "fgn__ccdf_fit.json").read_text())
        assert meta["tail_fit"]["n_points"] >= 10
        stdout, stderr = capfd.readouterr()
        assert "RuntimeWarning" not in stderr and "DLASCL" not in stdout + stderr

    def test_tail_varying_only_by_rounding_is_skipped(self, tmp_path, capsys):
        # the logs of these tail lengths differ by a few ulps: no slope in them
        path = tmp_path / "close.csv"
        path.write_text(serialize.series_csv(np.r_[np.ones(1000), 1e15 + np.arange(20.0)],
                                             value_name="value"), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["ccdf", "--series-csv", path, "--tail-start", "2", "--out", out]) == 0
        assert ("close: tail fit skipped (cannot fit a line: x does not vary beyond rounding)"
                in capsys.readouterr().err)
        meta = json.loads((out / "close__ccdf_fit.json").read_text())
        assert "tail_fit" not in meta and meta["n_samples"] == 1020

    def test_pooled_ccdf_is_the_ccdf_of_the_concatenated_series(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path, seed in zip(paths, (1, 2)):
            path.write_text(make_text(700 + 200 * seed, seed), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["ccdf", *paths, "--min-sentences", "1", "--out", out]) == 0
        lengths = [tf.sentence_length_series(
            tf.segment_sentences(tf.tokenize(p.read_bytes()))[0]).values for p in paths]
        assert ((out / "pooled__ccdf.csv").read_text(encoding="utf-8")
                == serialize.ccdf_csv(tf.ccdf(np.concatenate(lengths))))
        meta = json.loads((out / "pooled__ccdf_fit.json").read_text())
        assert meta["n_samples"] == len(lengths[0]) + len(lengths[1]) == 2000
        assert meta["members"] == ["a", "b"]

    def test_no_positive_value_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        path.write_text("index,value\n1,-1\n2,-2\n3,-3\n4,0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["ccdf", "--series-csv", path, "--out", out]) == 1
        assert "fatal: CCDF: no point with x > 0 and y > 0" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestRecurrenceCommand:
    def test_word_target(self, text_file, tmp_path):
        out = tmp_path / "out"
        assert run(["recurrence", text_file, "--target", "the",
                    "--out", out, "--format", "csv,json"]) == 0
        meta = json.loads((out / "tale__the__recurrence.json").read_text())
        assert meta["target"] == "the"
        # iid draws: flat spectrum for the gap series
        assert abs(meta["beta_w"]) < 0.2

    def test_pooled_terminator_equals_slv_identity(self, text_file, tmp_path):
        out = tmp_path / "out"
        assert run(["recurrence", text_file, "--target", ".",
                    "--out", out, "--format", "csv"]) == 0
        rows = read_rows(out / "tale__.__recurrence.csv")
        gaps = np.array([int(r[1]) for r in rows[1:]])  # integer text, not "5.0"
        doc = tf.tokenize(text_file.read_text(encoding="utf-8"))
        slv = tf.sentence_length_series(tf.segment_sentences(doc)[0])
        np.testing.assert_array_equal(gaps, slv.values[1:])

    def test_failed_input_writes_nothing(self, text_file, tmp_path, capsys):
        # "ember" is the rarest word: too few gaps for a spectrum fit
        out = tmp_path / "out"
        assert run(["recurrence", text_file, "--target", "ember", "--out", out]) == 1
        assert "error: tale: " in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestSliceCommand:
    def test_cut(self, tmp_path):
        values = np.random.default_rng(8).integers(1, 50, size=200)
        path = tmp_path / "lengths.csv"
        path.write_text(serialize.series_csv(values), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["slice", "--series-csv", path, "--out", out,
                    "--from", "11", "--to", "20"]) == 0
        rows = read_rows(out / "lengths__slice_11_20.csv")
        assert [int(r[1]) for r in rows[1:]] == values[10:20].tolist()
        meta = json.loads((out / "lengths__slice_11_20.json").read_text())
        assert meta["j_max"] == 10
        assert meta["provenance"]["slice"] == [11, 20]

    @pytest.mark.parametrize("unit", ["words", "chars"])
    def test_cut_text(self, unit, text_file, tmp_path):
        out = tmp_path / "out"
        assert run(["slice", text_file, "--unit", unit, "--min-sentences", "1",
                    "--out", out, "--from", "3", "--to", "40"]) == 0
        spans, _ = tf.segment_sentences(tf.tokenize(text_file.read_bytes()))
        rows = read_rows(out / "tale__slice_3_40.csv")
        assert [int(r[1]) for r in rows[1:]] == getattr(spans, unit)[2:40].tolist()
        meta = json.loads((out / "tale__slice_3_40.json").read_text())
        assert meta["j_max"] == 38
        assert set(meta["provenance"]) == {"source", "segmentation", "unit", "slice"}

    def test_lengths_past_int64_are_written_whole(self, tmp_path):
        # 2^63 and up do not fit int64: a cast would write -2^63, with a warning
        values = [3.0, 2.0**63, 2.0**70, 1e300]
        path = tmp_path / "lengths.csv"
        path.write_text(serialize.series_csv(values), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["slice", "--series-csv", path, "--out", out,
                    "--from", "1", "--to", "4"]) == 0
        rows = read_rows(out / "lengths__slice_1_4.csv")
        assert [int(r[1]) for r in rows[1:]] == [3, 2**63, 2**70, int(1e300)]

    def test_non_integral_lengths_rejected(self, tmp_path, capsys):
        path = tmp_path / "lengths.csv"
        path.write_text(serialize.series_csv([3.0, 1.53, 7.0, 2.0]), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["slice", "--series-csv", path, "--out", out,
                    "--from", "1", "--to", "3"]) == 1
        assert "error: lengths: sentence lengths must be whole numbers" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_lengths_below_one_rejected(self, tmp_path, capsys):
        path = tmp_path / "lengths.csv"
        path.write_text(serialize.series_csv([3, 0, 7, 2]), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["slice", "--series-csv", path, "--out", out,
                    "--from", "1", "--to", "3"]) == 1
        assert "error: lengths: sentence lengths must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestAnalyzeCommand:
    def test_full_pipeline_on_texts(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(make_text(1200, 1), encoding="utf-8")
        b.write_text(make_text(1100, 2), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["analyze", a, b, "--out", out, "--min-sentences", "100",
                    "--surrogates", "1"]) == 0
        report = json.loads((out / "a__report.json").read_text())
        assert report["j_max"] == 1200
        assert set(report) >= {"beta", "H", "delta_alpha", "surrogates",
                               "config_digest", "provenance"}
        assert set(report["provenance"]) == {"source", "segmentation", "unit"}
        assert report["provenance"]["segmentation"]["n_sentences"] == 1200
        assert len(report["surrogates"]) == 1
        scatter = read_rows(out / "corpus__scatter.csv")
        assert scatter[0][0] == "name"
        assert [r[0] for r in scatter[1:]] == ["a", "b"]
        assert (out / "corpus__avg_spectrum.csv").exists()
        ET.fromstring((out / "corpus__scatter.svg").read_text())

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text(make_text(900, 3), encoding="utf-8")
        outs = []
        for tag in ("o1", "o2"):
            out = tmp_path / tag
            assert run(["analyze", path, "--out", out,
                        "--min-sentences", "100"]) == 0
            outs.append(out)
        assert_same_tree(*outs)

    def test_parallel_matches_serial(self, tmp_path):
        for name, seed in [("a.txt", 1), ("b.txt", 2)]:
            (tmp_path / name).write_text(make_text(800, seed), encoding="utf-8")
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(["analyze", *paths, "--out", serial,
                    "--min-sentences", "100"]) == 0
        assert run(["analyze", *paths, "--out", parallel,
                    "--min-sentences", "100", "--jobs", "2"]) == 0
        assert len(list(serial.iterdir())) == 14  # 5 per text, 4 for the corpus
        assert_same_tree(serial, parallel)

    def test_parallel_workers_log_whole_lines(self, tmp_path, capfd):
        # both workers log at once; each line must start as one message does
        for name, seed in [("a.txt", 1), ("b.txt", 2)]:
            (tmp_path / name).write_text(make_text(800, seed), encoding="utf-8")
        (tmp_path / "bad.txt").write_bytes(bytes(range(128, 256)))
        paths = [tmp_path / n for n in ("a.txt", "bad.txt", "b.txt")]
        prefixes = ("wrote ", "error: ", "warning: ", "a: ", "b: ", "bad: ")
        for i in range(4):
            assert run(["analyze", *paths, "--out", tmp_path / f"o{i}",
                        "--min-sentences", "100", "--surrogates", "0",
                        "--jobs", "2"]) == 2
            lines = capfd.readouterr().err.split("\n")
            assert lines[-1] == ""
            assert all(line.startswith(prefixes) for line in lines[:-1]), lines

    def test_log_writes_each_line_in_one_call(self, monkeypatch):
        # a line written as text and newline apart can take another
        # worker's line between the two
        calls = []
        monkeypatch.setattr(sys, "stderr", types.SimpleNamespace(
            write=calls.append, flush=lambda: calls.append("<flush>")))
        cli.log("b: tail fit skipped (x)")
        assert calls == ["b: tail fit skipped (x)\n", "<flush>"]

    def test_all_inputs_failing_exits_one(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("One two. Three four five.\n", encoding="utf-8")
        assert run(["analyze", path, "--out", tmp_path / "o",
                    "--min-sentences", "1"]) == 1

    @pytest.mark.parametrize("bad_bytes", [
        b"One two. Three four five.\n", b"", bytes(range(128, 256)),
    ], ids=["too_short", "empty", "undecodable"])
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--jobs", "2"], ["spectrum"],
    ], ids=["analyze", "analyze_jobs2", "spectrum"])
    def test_partial_failure_exits_two(self, argv, bad_bytes, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text(make_text(900, 4), encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(bad_bytes)
        alone, out = tmp_path / "alone", tmp_path / "o"
        assert run(argv + [good, "--out", alone, "--min-sentences", "1"]) == 0
        assert run(argv + [good, bad, "--out", out, "--min-sentences", "1"]) == 2
        assert "error: bad: " in capsys.readouterr().err
        # the bad text leaves no file behind and changes no byte of the rest
        assert_same_tree(alone, out)


class TestRunner:
    @pytest.mark.parametrize("argv", [
        ["ccdf", "--min-sentences", "1"], ["zipf"], ["recurrence", "--target", "the"],
    ], ids=lambda argv: argv[0])
    def test_partial_failure_exits_two(self, argv, tmp_path, capsys):
        # a corpus step, and the loader of the text-only commands
        good = tmp_path / "good.txt"
        good.write_text(make_text(900, 4), encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(bytes(range(128, 256)))
        alone, out = tmp_path / "alone", tmp_path / "o"
        assert run(argv + [good, "--out", alone]) == 0
        assert run(argv + [good, bad, "--out", out]) == 2
        assert "error: bad: " in capsys.readouterr().err
        assert_same_tree(alone, out)

    @pytest.mark.parametrize("fmt, corpus_files", [
        ("csv", ["corpus__avg_spectrum.csv", "corpus__scatter.csv"]),
        ("svg", ["corpus__avg_spectrum.svg", "corpus__scatter.svg"]),
        ("json", []),
    ])
    def test_corpus_step_honours_format(self, fmt, corpus_files, tmp_path):
        for name, seed in [("a.txt", 1), ("b.txt", 2)]:
            (tmp_path / name).write_text(make_text(800, seed), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["analyze", tmp_path / "a.txt", tmp_path / "b.txt", "--out", out,
                    "--format", fmt, "--min-sentences", "100", "--surrogates", "0"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert [n for n in names if n.startswith("corpus__")] == corpus_files
        assert all(n.endswith("." + fmt) for n in names)


class TestSvgText:
    @pytest.mark.parametrize("argv", [["spectrum"], ["mfdfa"], ["wavelet"], ["zipf"],
                                      ["ccdf"], ["analyze", "--surrogates", "0"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("stem", ["R&D", "a<b"])
    def test_markup_in_a_stem_is_escaped(self, argv, stem, tmp_path):
        path = tmp_path / f"{stem}.txt"
        path.write_text(make_text(1200, 7), encoding="utf-8")
        out = tmp_path / "out"
        assert run([*argv, path, "--out", out, "--format", "svg"]) == 0
        texts = []
        for svg in out.iterdir():
            texts += [t.text for t in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert any(stem in t for t in texts)


class TestOutputNames:
    @pytest.mark.parametrize("cmd, paths", [
        (["spectrum"], ["a/x.txt", "b/x.txt"]),
        (["analyze"], ["a/x.txt", "b/x.txt"]),
        (["ccdf"], ["a/x.txt", "b/x.txt"]),
        (["analyze"], ["a/x.txt", "a/x.txt"]),
    ], ids=["spectrum", "analyze", "ccdf", "same_path_twice"])
    def test_colliding_stems_are_fatal(self, cmd, paths, tmp_path, capsys):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "x.txt").write_text(make_text(300, 3), encoding="utf-8")
        out = tmp_path / "o"
        paths = [tmp_path / p for p in paths]
        assert run(cmd + paths + ["--out", out, "--min-sentences", "1"]) == 1
        assert capsys.readouterr().err == (
            f"fatal: {paths[0]} and {paths[1]} both write x__*; rename one\n")
        assert not out.exists()


# Texts that have broken a text pipeline somewhere: each drawn text joins
# up to three of these.
TEXT_PIECES = [
    b"", b"  \n\t \n", b"no terminator at all", b"(an unbalanced bracket. ",
    b'"an unclosed quote. ', b"\xe2\x80\xa6", b"...", b"\xff\xfe\xc3(",
    b"One long sentence " + b"and then some " * 3000 + b"end. ",
    make_text(200, 11).encode(),
]
TEXT_ARGS = {**REQUIRED, "slice": ["--from", "1", "--to", "1"]}


@settings(max_examples=50)
@given(argv=st.sampled_from(sorted(cli._COMMANDS)).map(
           lambda cmd: [cmd, *TEXT_ARGS.get(cmd, [])]),
       text=st.lists(st.sampled_from(TEXT_PIECES), max_size=3).map(b"".join))
@example(argv=["zipf"], text=b"...")
def test_any_text_ends_in_a_named_exit(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "t.txt", Path(tmp) / "o"
        path.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + [path, "--out", out])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert re.search(r"^(error|fatal): ", err.getvalue(), re.M)
        if code == 1:
            assert not out.exists() or not any(out.iterdir())
