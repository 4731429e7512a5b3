import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import textfract as tf
from textfract import cli, serialize


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
            ap.parse_args([cmd, "x.txt"] +
                          (["--target", "the"] if cmd == "recurrence" else []) +
                          (["--from", "1", "--to", "2"] if cmd == "slice" else []))

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_no_input_is_fatal(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["spectrum", "--out", tmp_path / "o"])

    @pytest.mark.parametrize("argv", [["zipf"], ["recurrence", "--target", "the"]],
                             ids=lambda argv: argv[0])
    def test_text_only_command_without_input_is_fatal(self, argv, tmp_path):
        with pytest.raises(SystemExit, match="no input"):
            run(argv + ["--out", tmp_path / "o"])

    @pytest.mark.parametrize("argv, flag", [
        (["mfdfa", "--q-step", "0"], "--q-step"),
        (["analyze", "--format", "cvs"], "--format"),
        (["analyze", "--jobs", "0"], "--jobs"),
        (["analyze", "--surrogates", "-2"], "--surrogates"),
    ], ids=["q_step_zero", "unknown_format", "jobs_zero", "negative_surrogates"])
    def test_bad_option_value_is_fatal_before_reading(self, argv, flag, tmp_path, capsys):
        # the input does not exist: the value must be rejected before any read
        out = tmp_path / "o"
        assert run(argv + [tmp_path / "missing.txt", "--out", out]) == 1
        assert f"fatal: {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestSeriesCsvInput:
    @pytest.mark.parametrize("row", ["3", "3,nan", "3,inf", "3,abc"],
                             ids=["one_column", "nan", "inf", "non_numeric"])
    def test_malformed_row_is_fatal(self, row, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"index,value\n1,2.0\n2,5.0\n{row}\n4,1.0\n",
                        encoding="utf-8")
        assert run(["spectrum", "--series-csv", path, "--out", tmp_path / "o"]) == 1
        assert f"fatal: {path}, line 4:" in capsys.readouterr().err


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

    def test_half_fit_range_rejected(self, series_file, tmp_path):
        path, _ = series_file
        with pytest.raises(SystemExit):
            run(["spectrum", "--series-csv", path, "--out", tmp_path / "o",
                 "--fit-fmin", "0.001"])


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

    def test_rejects_series_input(self, series_file, tmp_path):
        path, _ = series_file
        with pytest.raises(SystemExit):
            run(["zipf", "--series-csv", path, "--out", tmp_path / "o"])


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
        gaps = np.array([int(float(r[1])) for r in rows[1:]])
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

    def test_non_integral_lengths_rejected(self, tmp_path, capsys):
        path = tmp_path / "lengths.csv"
        path.write_text(serialize.series_csv([3.0, 1.53, 7.0, 2.0]), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["slice", "--series-csv", path, "--out", out,
                    "--from", "1", "--to", "3"]) == 1
        assert "error: lengths: sentence lengths must be whole numbers" in capsys.readouterr().err
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
