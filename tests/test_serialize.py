import csv
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import textfract as tf
from textfract import serialize, svgplot
from textfract.distfit import CCDF


class TestConfigDigest:
    def test_insertion_order_irrelevant(self):
        a = serialize.config_digest({"x": 1, "y": [2, 3]})
        b = serialize.config_digest({"y": [2, 3], "x": 1})
        assert a == b and len(a) == 64

    def test_value_change_changes_digest(self):
        assert serialize.config_digest({"x": 1}) != serialize.config_digest({"x": 2})


class TestToJson:
    def test_sorted_keys_and_trailing_newline(self):
        out = serialize.to_json({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")

    def test_numpy_values_coerced(self):
        out = serialize.to_json({
            "arr": np.arange(3), "i": np.int64(7), "f": np.float64(0.5)})
        assert '"arr": [\n' in out or '"arr": [' in out
        assert '"i": 7' in out
        assert '"f": 0.5' in out

    def test_byte_deterministic_across_orders(self):
        d1 = {"alpha": 0.1, "beta": [1, 2], "gamma": {"x": 1}}
        d2 = {"gamma": {"x": 1}, "beta": [1, 2], "alpha": 0.1}
        assert serialize.to_json(d1) == serialize.to_json(d2)


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestCsvEmitters:
    def test_series_csv_layout(self):
        out = serialize.series_csv(np.array([5, 2, 9]))
        assert parse_csv(out) == [["index", "length"],
                                  ["1", "5"], ["2", "2"], ["3", "9"]]

    def test_series_csv_float_repr_roundtrip(self):
        values = np.array([0.1, 1 / 3, 2.5e-17])
        rows = parse_csv(serialize.series_csv(values, value_name="value"))[1:]
        assert [float(r[1]) for r in rows] == values.tolist()

    def test_spectrum_csv_roundtrip(self):
        ps = tf.power_spectrum(np.random.default_rng(0).normal(size=64))
        rows = parse_csv(serialize.spectrum_csv(ps))
        assert rows[0] == ["frequency", "power"]
        assert [float(r[0]) for r in rows[1:]] == ps.freqs.tolist()
        assert [float(r[1]) for r in rows[1:]] == ps.power.tolist()

    def test_ccdf_csv(self):
        c = CCDF(lengths=np.array([1.0, 4.0]), F=np.array([1.0, 0.5]),
                 n_samples=4)
        assert parse_csv(serialize.ccdf_csv(c)) == [
            ["length", "F"], ["1.0", "1.0"], ["4.0", "0.5"]]

    def test_rank_frequency_csv(self):
        table = tf.rank_frequency(tf.tokenize("b a b"))
        rows = parse_csv(serialize.rank_frequency_csv(table))
        assert rows == [["rank", "surface", "count"],
                        ["1", "b", "2"], ["2", "a", "1"]]

    def test_wavelet_csv_row_count(self):
        wm = tf.wavelet_map(np.random.default_rng(1).normal(size=200),
                            scales=[5.0, 10.0], positions=[50, 100, 150])
        rows = parse_csv(serialize.wavelet_csv(wm))
        assert rows[0] == ["scale", "position", "coefficient", "boundary"]
        assert len(rows) == 1 + 2 * 3

    def test_wavelet_csv_matches_csv_writer_rows(self):
        # the row formatting of the csv.writer version, kept as the oracle
        x = np.random.default_rng(3).normal(size=200) * 1e3
        wm = tf.wavelet_map(x, scales=np.logspace(np.log10(4.0), np.log10(20.0), 3),
                            positions=[1, 2, 60, 199, 200])
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["scale", "position", "coefficient", "boundary"])
        for i, s in enumerate(wm.scales):
            for j, k in enumerate(wm.positions):
                w.writerow((repr(float(s)), int(k), repr(float(wm.coefficients[i, j])),
                            int(wm.boundary[i, j])))
        assert serialize.wavelet_csv(wm) == buf.getvalue()

    def test_mfdfa_csvs(self):
        import textfract.mfdfa as M

        x = tf.generate_white_noise(4000, 0)
        surf, gh, spec = M.mfdfa(x)
        frows = parse_csv(serialize.surface_csv(surf))
        assert len(frows) == 1 + len(surf.q_values) * len(surf.scales)
        hrows = parse_csv(serialize.hurst_csv(gh))
        assert [float(r[0]) for r in hrows[1:]] == gh.q_values.tolist()
        srows = parse_csv(serialize.singularity_csv(spec))
        assert [float(r[1]) for r in srows[1:]] == spec.alphas.tolist()


class TestSvg:
    def _check(self, text):
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        return text

    def test_log_log_plot_well_formed(self):
        ps = tf.power_spectrum(np.random.default_rng(2).normal(size=256))
        svg = svgplot.log_log_plot(
            [(ps.freqs, ps.power, "demo")], title="S(f)",
            xlabel="f", ylabel="S(f)",
            fit_lines=[(-0.5, -1.0, "beta=0.5")])
        self._check(svg)
        assert "demo" in svg and "beta=0.5" in svg

    def test_scatter_plot_with_band(self):
        svg = svgplot.scatter_plot(
            [0.6, 0.7, 0.8], [0.3, 0.5, 0.4], title="width vs H",
            xlabel="H", ylabel="delta_alpha", labels=["a", "b", "c"],
            hband=(0.1, 0.2))
        self._check(svg)

    def test_heatmap_well_formed(self):
        wm = tf.wavelet_map(tf.generate_white_noise(600, 3))
        self._check(svgplot.heatmap(wm.coefficients, title="|T|"))

    @staticmethod
    def _cells(svg):
        # every <rect> but the white background and the plot frame
        return svg.count("<rect") - 2

    def test_heatmap_capped_at_pixel_columns(self):
        m = np.random.default_rng(4).normal(size=(50, 16384))
        svg = self._check(svgplot.heatmap(m))
        assert self._cells(svg) == 50 * len(range(0, 16384, 31))
        assert self._cells(svg) <= 50 * 540

    @pytest.mark.parametrize("cols", [1, 17, 540])
    def test_heatmap_draws_every_column_that_fits(self, cols):
        m = np.random.default_rng(5).normal(size=(3, cols))
        assert self._cells(svgplot.heatmap(m)) == 3 * cols

    def test_deterministic(self):
        args = ([( np.array([1.0, 2.0]), np.array([3.0, 4.0]), "x")],)
        kw = dict(title="t", xlabel="x", ylabel="y")
        assert svgplot.log_log_plot(*args, **kw) == svgplot.log_log_plot(*args, **kw)
