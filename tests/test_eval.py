"""Tests for the experiment harness and reporting."""

import pytest

from repro.common.config import ScalePreset
from repro.eval import (
    figure6,
    figure7,
    figure8,
    format_table,
    headline_summary,
    swaptions_analysis,
    table1_setup,
)
from repro.eval.reporting import (
    render_figure6,
    render_figure7,
    render_figure8,
    render_mapping,
)

BENCHES = ("lu", "swaptions")


class TestTable1:
    def test_rows_cover_the_machine(self):
        rows = dict(table1_setup(threads=8))
        assert "16" in rows["Cores"]
        assert rows["Main memory"].startswith("90")
        assert "64KB" in rows["Log buffer"]
        assert "8MB" in rows["Shared L2"]


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return figure6("taintcheck", benchmarks=BENCHES,
                       thread_counts=(1, 2), scale=ScalePreset.TINY)

    def test_all_cells_present(self, result):
        for bench in BENCHES:
            for threads in (1, 2):
                cell = result.cycles[bench][threads]
                assert set(cell) == {"no_monitoring", "timesliced",
                                     "parallel"}

    def test_normalization_base_is_sequential_unmonitored(self, result):
        for bench in BENCHES:
            assert result.normalized(bench, 1, "no_monitoring") == 1.0

    def test_parallel_beats_timesliced_at_two_threads(self, result):
        for bench in BENCHES:
            assert result.speedup_over_timesliced(bench, 2) > 1.0

    def test_rows_shape(self, result):
        rows = result.rows()
        assert len(rows) == len(BENCHES) * 2
        assert all(len(row) == 6 for row in rows)

    def test_render(self, result):
        text = render_figure6(result)
        assert "Figure 6" in text and "lu" in text

    def test_unknown_lifeguard_rejected(self):
        with pytest.raises(ValueError):
            figure6("nope", benchmarks=BENCHES, thread_counts=(1,))


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure7("addrcheck", benchmarks=("swaptions",),
                       thread_counts=(2,))

    def test_components_sum_to_slowdown(self, result):
        cell = result.breakdown["swaptions"][2]
        total = (cell["useful"] + cell["wait_dependence"]
                 + cell["wait_application"])
        assert total == pytest.approx(cell["slowdown"], rel=1e-6)

    def test_swaptions_is_dependence_bound(self, result):
        cell = result.breakdown["swaptions"][2]
        assert cell["wait_dependence"] > 0

    def test_render(self, result):
        assert "Figure 7" in render_figure7(result)


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return figure8("taintcheck", benchmarks=("lu",), threads=2)

    def test_three_variants_for_taintcheck(self, result):
        cell = result.slowdowns["lu"]
        assert {"not_accelerated", "accelerated_limited",
                "accelerated_aggressive"} <= set(cell)

    def test_acceleration_helps(self, result):
        assert result.accelerator_speedup("lu") > 1.0

    def test_addrcheck_omits_limited_bar_by_default(self):
        result = figure8("addrcheck", benchmarks=("lu",), threads=2)
        assert "accelerated_limited" not in result.slowdowns["lu"]

    def test_render(self, result):
        assert "Figure 8" in render_figure8(result)


class TestSummaries:
    def test_headline_summary_structure(self):
        summary = headline_summary(benchmarks=("lu",), threads=2)
        assert summary["taintcheck"]["accelerator_speedup_min"] > 0
        assert summary["addrcheck"]["average_overhead"] >= 0
        assert summary["timesliced_speedup_min"] > 0

    def test_headline_simulates_each_run_once(self, monkeypatch):
        # Per lifeguard: unmonitored, time-sliced, parallel and
        # not-accelerated. Reading Figure 8 and then Figure 6 used to
        # simulate the unmonitored and parallel runs twice (12 runs).
        from repro.cpu.engine import Engine

        calls = []
        run = Engine.run

        def counted(engine, *args, **kwargs):
            calls.append(1)
            return run(engine, *args, **kwargs)

        monkeypatch.setattr(Engine, "run", counted)
        headline_summary(("lu",), threads=2)
        assert len(calls) == 8

    def test_swaptions_analysis_matches_configured_distribution(self):
        analysis = swaptions_analysis(threads=2)
        assert analysis["alloc_free_pairs"] > 0
        assert analysis["fraction_at_most_128_blocks"] == 1.0
        assert analysis["ca_broadcasts"] == 2 * 2 * analysis["alloc_free_pairs"] \
            or analysis["ca_broadcasts"] > 0

    def test_render_mapping(self):
        text = render_mapping("title", {"a": 1})
        assert "title" in text and "a" in text


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["col", "x"], [["value", 12], ["v", 3]])
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert len(lines) == 4

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text
