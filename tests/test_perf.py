"""Tests for the repro.perf benchmark harness and regression gate."""

import copy
import json

import pytest

from repro import perf
from repro.perf import (
    BASELINE_PATH,
    GATE_METRICS,
    SCHEMA,
    build_report,
    gate,
    load_baseline,
    run_archive,
    run_figure5,
    run_scenario,
    write_report,
)


def _figure5_only(suite):
    """Single-scenario suite table used to keep end-to-end tests fast."""
    return {"figure5": run_figure5}


class TestScenarios:
    def test_figure5_metrics_are_deterministic(self):
        first = run_figure5()
        second = run_figure5()
        assert first == second
        assert set(first) == {"parallel", "timesliced", "no_monitoring"}
        for scheme, metrics in first.items():
            assert set(metrics) == set(GATE_METRICS), scheme
            assert metrics["sim_cycles"] > 0
            assert metrics["events_popped"] > 0
        # Unmonitored runs have no lifeguard, hence no shadow memory.
        assert first["no_monitoring"]["shadow_chunks_peak"] == 0
        assert first["no_monitoring"]["shadow_chunk_allocs"] == 0
        # Monitored runs materialized taint metadata.
        assert first["parallel"]["shadow_chunk_allocs"] > 0

    def test_archive_scenario_reports_density(self):
        first = run_archive(range(2))
        second = run_archive(range(2))
        assert first == second, "archive bytes must be deterministic"
        assert set(first) == {"archive"}
        metrics = first["archive"]
        assert set(metrics) == set(GATE_METRICS)
        assert metrics["instructions"] > 0
        # Tiny runs are header-dominated, but density must be sane:
        # more than zero, comfortably under 64 bytes per instruction.
        assert 0 < metrics["archive_bytes_per_kinst"] < 64_000

    def test_run_scenario_shape_and_rates(self):
        scenario = run_scenario(run_figure5, repeats=2)
        assert scenario["repeats"] == 2
        assert scenario["wall_seconds"] > 0
        assert set(scenario["metrics"]) == set(GATE_METRICS)
        assert scenario["rates"]["sim_cycles_per_sec"] > 0
        assert scenario["rates"]["events_popped_per_sec"] > 0

    def test_run_scenario_rejects_nondeterminism(self):
        flip = iter([{"parallel": {"sim_cycles": 1}},
                     {"parallel": {"sim_cycles": 2}}])

        with pytest.raises(AssertionError, match="nondeterministic"):
            run_scenario(lambda: next(flip), repeats=2)


def _fake_report(cycles=1000, wall=1.0, calib=1.0):
    metrics = {metric: cycles for metric in GATE_METRICS}
    return {
        "schema": SCHEMA,
        "calibration_seconds": calib,
        "suites": {
            "quick": {
                "scenarios": {
                    "figure5": {
                        "wall_seconds": wall,
                        "repeats": 3,
                        "schemes": {"parallel": dict(metrics)},
                        "metrics": dict(metrics),
                        "rates": {"sim_cycles_per_sec": 1,
                                  "instructions_per_sec": 1,
                                  "events_popped_per_sec": 1},
                    },
                },
                "wall_seconds_total": wall,
            },
        },
    }


class TestGate:
    def test_passes_against_itself(self):
        report = _fake_report()
        assert gate(report, copy.deepcopy(report)) == []

    def test_passes_within_tolerance(self):
        baseline = _fake_report(cycles=1000)
        current = _fake_report(cycles=1050)  # +5% < 10%
        assert gate(current, baseline) == []

    def test_fails_on_metric_regression(self):
        baseline = _fake_report(cycles=1000)
        current = _fake_report(cycles=1200)  # +20% > 10%
        failures = gate(current, baseline)
        assert failures
        assert any("sim_cycles" in line for line in failures)

    def test_improvement_never_fails(self):
        baseline = _fake_report(cycles=1000, wall=1.0)
        current = _fake_report(cycles=500, wall=0.4)
        assert gate(current, baseline) == []

    def test_wall_clock_normalized_by_calibration(self):
        # 2x slower wall clock on a 2x slower host is not a regression.
        baseline = _fake_report(wall=1.0, calib=1.0)
        current = _fake_report(wall=2.0, calib=2.0)
        assert gate(current, baseline) == []
        # ...but the same slowdown on an equally fast host is.
        current = _fake_report(wall=2.0, calib=1.0)
        failures = gate(current, baseline)
        assert any("wall clock" in line for line in failures)

    def test_missing_scenario_fails(self):
        baseline = _fake_report()
        current = _fake_report()
        current["suites"]["quick"]["scenarios"]["new_scenario"] = \
            copy.deepcopy(
                current["suites"]["quick"]["scenarios"]["figure5"])
        failures = gate(current, baseline)
        assert any("new_scenario" in line for line in failures)

    def test_missing_suite_fails(self):
        baseline = _fake_report()
        failures = gate(_fake_report(), baseline, suite="full")
        assert failures and "full" in failures[0]

    def test_zero_baseline_with_zero_current_passes(self):
        # archive_bytes_per_kinst is legitimately 0 outside the archive
        # scenario; 0 -> 0 must not fail.
        baseline = _fake_report()
        current = _fake_report()
        for report in (baseline, current):
            metrics = report["suites"]["quick"]["scenarios"]["figure5"]
            metrics["metrics"]["archive_bytes_per_kinst"] = 0
        assert gate(current, baseline) == []

    def test_zero_baseline_with_nonzero_current_fails(self):
        # Relative tolerance is meaningless against a zero baseline: any
        # nonzero reading is new work appearing and must fail, not slip
        # through the vacuous `0 * 1.10 >= anything` comparison.
        baseline = _fake_report()
        current = _fake_report()
        baseline["suites"]["quick"]["scenarios"]["figure5"][
            "metrics"]["archive_bytes_per_kinst"] = 0
        current["suites"]["quick"]["scenarios"]["figure5"][
            "metrics"]["archive_bytes_per_kinst"] = 7
        failures = gate(current, baseline)
        assert any("archive_bytes_per_kinst" in line
                   and "zero baseline" in line for line in failures)


class TestCliValidation:
    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_rejected(self, repeats, capsys):
        with pytest.raises(SystemExit) as exc:
            perf.main(["--repeats", repeats])
        assert exc.value.code == 2
        assert "--repeats: must be >= 1" in capsys.readouterr().err

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            perf.main(["--backend", "both"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend both" in \
            capsys.readouterr().err


class TestBaselineIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        report = _fake_report()
        path = write_report(report, tmp_path / "bench.json")
        assert load_baseline(path) == report

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": 999, "suites": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_committed_baseline_is_valid(self):
        """The committed BENCH_perf.json must load, carry both suites,
        and hold every gate metric for every scenario."""
        baseline = load_baseline(BASELINE_PATH)
        assert baseline["schema"] == SCHEMA
        assert baseline["calibration_seconds"] > 0
        for suite in ("quick", "full"):
            scenarios = baseline["suites"][suite]["scenarios"]
            assert set(scenarios) == {"figure5", "diff_sweep",
                                      "taint_large", "archive"}
            for name, scenario in scenarios.items():
                assert scenario["wall_seconds"] > 0, name
                for metric in GATE_METRICS:
                    assert metric in scenario["metrics"], (name, metric)


class TestEndToEnd:
    def test_report_build_and_self_gate(self, monkeypatch):
        """A fresh single-scenario report gates cleanly against itself."""
        monkeypatch.setattr(perf, "_suite_scenarios", _figure5_only)
        report = build_report(suites=("quick",), repeats=1)
        assert report["schema"] == SCHEMA
        assert gate(report, copy.deepcopy(report)) == []

    def test_cli_gate_against_self(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(perf, "_suite_scenarios", _figure5_only)
        baseline = tmp_path / "bench.json"
        # First invocation (no --gate) writes the baseline.
        assert perf.main(["--suite", "quick", "--repeats", "1",
                          "--output", str(baseline)]) == 0
        assert baseline.exists()
        # Gating against it passes.
        assert perf.main(["--suite", "quick", "--repeats", "1", "--gate",
                          "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "perf gate: OK" in out

    def test_cli_gate_fails_on_fabricated_regression(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(perf, "_suite_scenarios", _figure5_only)
        baseline_path = tmp_path / "bench.json"
        assert perf.main(["--suite", "quick", "--repeats", "1",
                          "--output", str(baseline_path)]) == 0
        # Fabricate a much-better past: current numbers now "regress".
        doctored = load_baseline(baseline_path)
        scenario = doctored["suites"]["quick"]["scenarios"]["figure5"]
        for metric in GATE_METRICS:
            scenario["metrics"][metric] = max(
                1, scenario["metrics"][metric] // 2)
        write_report(doctored, baseline_path)
        assert perf.main(["--suite", "quick", "--repeats", "1", "--gate",
                          "--baseline", str(baseline_path)]) == 1
        out = capsys.readouterr().out
        assert "PERF GATE FAILED" in out

    def test_regen_baseline_env_overwrites(self, tmp_path, monkeypatch):
        monkeypatch.setattr(perf, "_suite_scenarios", _figure5_only)
        baseline_path = tmp_path / "bench.json"
        write_report(_fake_report(cycles=1), baseline_path)
        monkeypatch.setenv("REGEN_BASELINE", "1")
        # --gate with REGEN_BASELINE=1 measures and rewrites instead of
        # comparing, even though the stale baseline would fail the gate.
        assert perf.main(["--suite", "quick", "--repeats", "1", "--gate",
                          "--baseline", str(baseline_path)]) == 0
        regenerated = load_baseline(baseline_path)
        scenario = regenerated["suites"]["quick"]["scenarios"]["figure5"]
        assert scenario["metrics"]["sim_cycles"] > 1
