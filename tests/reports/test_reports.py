"""Tests for the table/figure report generators.

These exercise the full pipeline (all five domain sweeps), so they are
the slowest tests in the suite; sweeps are memoized across them.  The
assertions encode the *qualitative reproduction criteria* of DESIGN.md
— who wins, by roughly what factor, where crossovers fall.
"""

import math

import pytest

from repro.reports import (
    ALL_REPORTS,
    fig6,
    fig7,
    fig9,
    fig11,
    fig12,
    table1,
    table2,
    table3,
    table4,
)


def _col(table, header):
    idx = table.headers.index(header)
    return {row[0]: row[idx] for row in table.rows}


def _num(text):
    return float(text.rstrip("x% ").split()[0])


class TestTable1:
    @pytest.fixture(scope="class")
    def t(self):
        return table1()

    def test_five_rows(self, t):
        assert len(t.rows) == 5

    def test_data_scales_span_paper_band(self, t):
        scales = {k: _num(v) for k, v in _col(t, "Data scale").items()}
        values = sorted(scales.values())
        assert values[0] >= 15          # paper min 33x (ours: speech 20x)
        assert values[-1] >= 500        # paper max 971x (ours: 836x)

    def test_language_needs_most_data(self, t):
        scales = {k: _num(v) for k, v in _col(t, "Data scale").items()}
        char = [v for k, v in scales.items() if "Character" in k][0]
        assert char == max(scales.values())

    def test_renders_and_csv(self, t):
        text = t.render()
        assert "Table 1" in text
        assert len(t.to_csv().splitlines()) == 6


class TestTable2:
    @pytest.fixture(scope="class")
    def t(self):
        return table2()

    def test_gamma_ordering_matches_paper(self, t):
        """NMT lowest (149), ResNet highest-ish (1111), word LM ~481."""
        gammas = {k: _num(v) for k, v in
                  _col(t, "Alg. FLOPs/param").items()}
        nmt = [v for k, v in gammas.items() if "NMT" in k][0]
        word = [v for k, v in gammas.items() if "Word" in k][0]
        char = [v for k, v in gammas.items() if "Character" in k][0]
        assert nmt == min(gammas.values())
        assert 380 < word < 580          # paper: 481
        assert 700 < char < 1100         # paper: 900

    def test_rnn_lambda_dwarfs_cnn(self, t):
        """The paper's segmentation: RNN weight traffic per param is
        orders of magnitude above the CNN's."""
        lams = {k: _num(v.split(" + ")[0]) for k, v in
                _col(t, "Alg. bytes/param").items()}
        image = [v for k, v in lams.items() if "Image" in k][0]
        word = [v for k, v in lams.items() if "Word" in k][0]
        assert word > 20 * image

    def test_intensity_formula_paper_form(self, t):
        for formula in _col(t, "Alg. op intensity (FLOP/B)").values():
            assert formula.startswith("b*sqrt(p)/(")


class TestTable3:
    @pytest.fixture(scope="class")
    def t(self):
        return table3()

    def test_epoch_gap_language_vs_image(self, t):
        """§5: language domains need ~100x+ more epoch time."""
        days = {k: _num(v) for k, v in _col(t, "Epoch (days)").items()}
        char = [v for k, v in days.items() if "Character" in k][0]
        image = [v for k, v in days.items() if "Image" in k][0]
        speech = [v for k, v in days.items() if "Speech" in k][0]
        assert char > 100 * image
        # image & speech are feasible-ish: months, not years
        assert image < 365 and speech < 365

    def test_language_footprints_exceed_accelerator_memory(self, t):
        """§6.2.3: language footprints exceed 32GB by ~8-100x."""
        feet = {k: _num(v) for k, v in _col(t, "Min foot (GB)").items()}
        for key, val in feet.items():
            if "LM" in key or "NMT" in key:
                assert val > 4 * 32
            if "Image" in key:
                assert val < 64

    def test_word_lm_row_near_paper(self, t):
        row = [r for r in t.rows if "Word" in r[0]][0]
        params = row[t.headers.index("Params")]
        assert params.startswith("24") or params.startswith("23")
        tflops = _num(row[t.headers.index("TFLOPs/step")])
        assert 700 < tflops < 2200       # paper: 1444 (subbatch diff)


class TestTable4:
    def test_matches_paper_constants(self):
        t = table4()
        text = t.render()
        assert "15.67 TFLOP/s" in text
        assert "898 GB/s" in text
        assert "6 MB" in text
        assert "56 GB/s" in text


class TestFigures:
    def test_fig6_payload_holds_no_numpy_scalars(self):
        """A stored fig6 unpickles without importing numpy."""
        import pickle

        series = fig6().series[0]
        assert {type(v) for v in series.x + series.y} == {float}
        assert b"numpy" not in pickle.dumps(fig6())

    def test_fig6_three_regions(self):
        f = fig6()
        notes = " ".join(f.notes)
        assert "small-data" in notes
        assert "power-law" in notes
        assert "irreducible" in notes
        ys = f.series[0].y
        assert ys[0] >= ys[-1]

    def test_fig7_linear_growth(self):
        f = fig7()
        assert len(f.series) == 5
        for s in f.series:
            # FLOPs/sample grows ~linearly: doubling params ~doubles y
            ratio = (s.y[-1] / s.y[0]) / (s.x[-1] / s.x[0])
            assert 0.4 < ratio < 2.5

    def test_fig9_rnn_intensity_plateaus_moderate(self):
        f = fig9()
        for s in f.series:
            if "Word" in s.label or "Character" in s.label:
                assert max(s.y) < 100    # paper: moderate (<70)

    def test_fig11_notes_chosen_subbatch(self):
        f = fig11()
        notes = " ".join(f.notes)
        assert "ridge-match" in notes
        assert "min-latency" in notes

    def test_fig12_epoch_time_falls_utilization_too(self):
        f = fig12()
        days = f.series[0]
        util = f.series[1]
        assert days.y[0] > days.y[-1]
        assert util.y[0] > util.y[-1]

    def test_all_reports_registry(self):
        paper_exhibits = {
            "table1", "table2", "table3", "table4", "table5",
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        }
        extensions = {
            "ablation_cache", "ablation_memory",
            "ablation_interconnect", "ablation_precision",
            "ablation_scheduler", "ablation_fusion",
            "ablation_compression", "auto_plan",
        }
        assert set(ALL_REPORTS) == paper_exhibits | extensions

    def test_figure_render_and_csv(self):
        f = fig6()
        assert "Figure 6" in f.render()
        lines = f.to_csv().splitlines()
        assert lines[0] == "series,x,y"
        assert len(lines) > 10
