import csv
import io
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# ---------------------------------------------------------------------------
# The block formatters against the per-element formatting they replaced:
# csv.writer rows of repr(float(v)), or int(v) for an int, and 2-decimal
# pixel coordinates computed one point or one cell at a time.

def writer_csv(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def element_text(v):
    return int(v) if isinstance(v, (int, np.integer)) else repr(float(v))


# one either side of each block edge, and more than two blocks
LENGTHS = [0, 1, 4095, 4096, 4097, 10_001]
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1 / 3]


@st.composite
def columns(draw, k, n=None, kind="float"):
    """``k`` numeric columns of a drawn length: floats over many decades,
    whole-number floats and the drawn special values; or ints."""
    n = draw(st.sampled_from(LENGTHS)) if n is None else n
    specials = draw(st.lists(st.sampled_from(SPECIAL), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(k):
        if kind == "int":
            cols.append(rng.integers(-2**62, 2**62, n) >> rng.integers(0, 62, n))
            continue
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        whole = rng.random(n) < 0.25
        x[whole] = rng.integers(-2**60, 2**60, int(whole.sum())).astype(float)
        if n:
            x[rng.integers(0, n, len(specials))] = specials
        cols.append(x)
    return cols


ORACLE = settings(max_examples=8, deadline=None, derandomize=True)
FLOAT_TABLES = {
    "spectrum_csv": (["frequency", "power"], ["freqs", "power"]),
    "hurst_csv": (["q", "h", "h_stderr"], ["q_values", "h", "h_stderr"]),
    "singularity_csv": (["q", "alpha", "f"], ["q_values", "alphas", "f_values"]),
    "ccdf_csv": (["length", "F"], ["lengths", "F"]),
}


class TestBlockFormatting:
    @pytest.mark.parametrize("emitter", sorted(FLOAT_TABLES))
    @ORACLE
    @given(data=st.data())
    def test_float_tables(self, emitter, data):
        header, attrs = FLOAT_TABLES[emitter]
        cols = data.draw(columns(len(attrs)))
        got = getattr(serialize, emitter)(types.SimpleNamespace(**dict(zip(attrs, cols))))
        assert got == writer_csv(header, zip(*(map(repr, map(float, c)) for c in cols)))

    @pytest.mark.parametrize("kind", ["int", "float"])
    @ORACLE
    @given(data=st.data())
    def test_series(self, kind, data):
        (values,) = data.draw(columns(1, kind=kind))
        want = writer_csv(["index", "value"],
                          ((j + 1, element_text(v)) for j, v in enumerate(values)))
        assert serialize.series_csv(values, value_name="value") == want

    @ORACLE
    @given(n_q=st.sampled_from([1, 2]), data=st.data())
    def test_surface(self, n_q, data):
        (q,) = data.draw(columns(1, n=n_q))
        (scales,) = data.draw(columns(1, kind="int"))
        F = np.array(data.draw(columns(n_q, n=len(scales)))).reshape(n_q, len(scales))
        want = writer_csv(["scale", "q", "F"], (
            (int(s), repr(float(qi)), repr(float(F[i, j])))
            for i, qi in enumerate(q) for j, s in enumerate(scales)))
        surf = types.SimpleNamespace(q_values=q, scales=scales, F=F)
        assert serialize.surface_csv(surf) == want

    @ORACLE
    @given(n_scales=st.sampled_from([1, 2]), data=st.data())
    def test_wavelet(self, n_scales, data):
        (scales,) = data.draw(columns(1, n=n_scales))
        (positions,) = data.draw(columns(1, kind="int"))
        n = len(positions)
        coefs = np.array(data.draw(columns(n_scales, n=n))).reshape(n_scales, n)
        edge = np.random.default_rng(n).random((n_scales, n)) < 0.5
        want = writer_csv(["scale", "position", "coefficient", "boundary"], (
            (repr(float(s)), int(k), repr(float(coefs[i, j])), int(edge[i, j]))
            for i, s in enumerate(scales) for j, k in enumerate(positions)))
        wm = types.SimpleNamespace(scales=scales, positions=positions,
                                   coefficients=coefs, boundary=edge)
        assert serialize.wavelet_csv(wm) == want

    @pytest.mark.parametrize("n", [4095, 4096, 4097, 65536])
    def test_log_log_polyline(self, n):
        # n points drawn; a point at 0 is left off a log axis
        xs = np.arange(n + 1) / (2.0 * n)
        ys = np.random.default_rng(n).exponential(size=n + 1) * (xs + 0.01)**-0.5
        svg = svgplot.log_log_plot([(xs, ys, "S")])
        ax = svgplot._Axes(xs[1:], ys[1:], log=True)
        points = " ".join(f"{float(ax.px(x)):.2f},{float(ax.py(y)):.2f}"
                          for x, y in zip(xs[1:], ys[1:]))
        assert f'<polyline points="{points}" fill="none"' in svg

    @pytest.mark.parametrize("shape", [(3, 17), (50, 16384)])
    def test_heatmap(self, shape):
        matrix = np.random.default_rng(shape[1]).normal(size=shape)
        m = np.abs(matrix)[:, ::-(-shape[1] // 540)]
        lo, hi = float(m.min()), float(m.max())
        rows, cols = m.shape
        cw, ch = 540 / cols, 340 / rows
        parts = svgplot._header("")
        for i in range(rows):
            y = 440 - 50 - (i + 1) * ch
            for j in range(cols):
                t = (m[i, j] - lo) / (hi - lo)
                r, g, b = int(255 * t), int(64 * (1 - abs(2 * t - 1))), int(255 * (1 - t))
                parts.append(f'<rect x="{50 + j * cw:.2f}" y="{y:.2f}" '
                             f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                             f'fill="rgb({r},{g},{b})"/>')
        parts += svgplot._frame("position", "scale") + ["</svg>"]
        assert svgplot.heatmap(matrix) == "\n".join(parts) + "\n"
