"""Tests of the benchmark's own code: ``python3 -m pytest -q perfbench``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import compare  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_seeded_novel_matches_test_fixture():
    import _novel

    text, lengths = inputs.build_novel(inputs.NOVEL_SEED)
    want_text, want_lengths = _novel.build_novel()
    assert text.encode("utf-8") == want_text.encode("utf-8")
    assert np.array_equal(lengths, want_lengths)


def test_novel_depends_on_seed():
    assert inputs.build_novel(1, levels=8)[0] != inputs.build_novel(2, levels=8)[0]
    assert inputs.build_novel(1, levels=8)[0] == inputs.build_novel(1, levels=8)[0]


def test_token_count_matches_tokenizer():
    import textfract as tf

    text, lengths = inputs.build_novel(7, levels=10)
    assert inputs.novel_token_count(text, lengths) == len(tf.tokenize(text).tokens)


def test_fgn_matches_library_generator():
    import textfract as tf

    assert np.array_equal(inputs.fgn(0.75, 4096, 3), tf.generate_fgn(0.75, 4096, 3).values)


def test_series_csv_reads_back_exactly(tmp_path):
    from textfract import cli

    x = inputs.fgn(0.75, 256, 1)
    path = tmp_path / "x.csv"
    path.write_text(inputs.series_csv(x))
    assert np.array_equal(cli.read_series_csv(path), x)


def test_hurst_reference_agrees_with_mfdfa():
    from textfract import mfdfa

    x = inputs.fgn(0.75, 2**12, 5)
    q = mfdfa.default_q_values()
    scales = mfdfa.default_scales(len(x), s_min=20, s_max=len(x) // 5)
    _, gh, _ = mfdfa.mfdfa(x, q_values=q, scales=scales)
    assert abs(mfdfa.hurst_exponent(gh) - workloads._hurst_reference(x)) < workloads.REF_TOL


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "cli.load_slv", "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "corpus.tokenize", "parent": 1, "start": 1.0, "end": 4.0,
         "tokens": 300},
        {"id": 3, "name": "corpus.segment_sentences", "parent": 1, "start": 4.0,
         "end": 4.5, "sentences": 20},
        {"id": 4, "name": "distfit.fit_stretched_exponential", "parent": 0,
         "start": 6.0, "end": 6.5, "error": "ValueError"},
    ]
    assert tracer.self_times(spans) == {0: 5.5, 1: 0.5, 2: 3.0, 3: 0.5, 4: 0.5}
    m = tracer.layer_metrics(spans)
    assert m["corpus.tokenize_s"] == 3.0 and m["corpus.segment_s"] == 0.5
    assert m["cli.self_s"] == 6.0  # cli.main's 5.5 plus load_slv's 0.5
    assert m["cli.parent_ingest_s"] == 4.0
    assert m["corpus.tokens_per_s"] == 100.0 and m["corpus.sentences"] == 20
    assert m["distfit.tail_fits_skipped"] == 1
    self_s = sum(v for k, v in m.items() if k.endswith(("_s", ".s"))
                 and not k.endswith("per_s") and k != "cli.parent_ingest_s")
    assert self_s == pytest.approx(10.0)  # self times partition the root span


def test_tracer_records_calls_into_the_library(tmp_path):
    record = tmp_path / "record.json"
    novel = tmp_path / "n.txt"
    novel.write_text(inputs.build_novel(3, levels=12)[0])
    subprocess.run(
        [sys.executable, str(Path(tracer.__file__)), "--record", str(record), "--",
         "analyze", str(novel), "--out", str(tmp_path / "out"), "--surrogates", "1",
         "--min-sentences", "10"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
        capture_output=True, timeout=120)
    child = json.loads(record.read_text())
    assert child["exit_code"] == 0
    names = {sp["name"] for sp in child["spans"]}
    assert {"cli.main", "cli.load_slv", "corpus.tokenize", "mfdfa.segment_variances",
            "serialize.to_json", "svgplot.log_log_plot", "cli.Emitter.write"} <= names
    m = tracer.layer_metrics(child["spans"])
    assert m["mfdfa.passes"] == 3 and m["series.surrogates"] == 2
    assert m["corpus.sentences"] == 2**12


@pytest.mark.parametrize("base, change, better, bound, want", [
    ([10.0] * 10, [8.0] * 10, "lower", 0.1, "improved"),
    ([10.0 + i * 0.01 for i in range(10)], [10.0 + i * 0.01 for i in range(10)],
     "lower", 0.1, "unchanged"),
    ([10.0] * 10, [12.0] * 10, "lower", 0.1, "regressed"),
    ([10.0] * 10, [10.5] * 10, "lower", 0.1, "unchanged"),
    ([10.0] * 10, [8.0] * 10, "higher", 0.1, "regressed"),
    ([1.0, 2.0, 3.0, 4.0] * 2 + [1.0, 2.0], [2.5] * 10, "lower", 0.1, "unresolved"),
    ([1.0] * 10, [1.0] * 10, "lower", None, "unchanged"),
])
def test_verdicts(base, change, better, bound, want):
    assert compare.verdict(base, change, better, bound)[0] == want
