"""Integration tests for the three execution schemes."""

import pytest

from repro import (
    AddrCheck,
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
)
from repro.workloads import PAPER_BENCHMARKS


class TestNoMonitoring:
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_every_benchmark_completes(self, name):
        result = run_no_monitoring(build_workload(name, 2),
                                   SimulationConfig.for_threads(2))
        assert result.total_cycles > 0
        assert result.instructions > 100
        assert result.scheme == "no_monitoring"

    def test_deterministic_cycles(self):
        runs = [
            run_no_monitoring(build_workload("barnes", 2),
                              SimulationConfig.for_threads(2)).total_cycles
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_data_parallel_workload_speeds_up_with_threads(self):
        one = run_no_monitoring(build_workload("blackscholes", 1),
                                SimulationConfig.for_threads(1))
        four = run_no_monitoring(build_workload("blackscholes", 4),
                                 SimulationConfig.for_threads(4))
        assert four.total_cycles < one.total_cycles

    def test_app_buckets_only_contain_app_time(self):
        result = run_no_monitoring(build_workload("lu", 2),
                                   SimulationConfig.for_threads(2))
        assert result.lifeguard_buckets == {}
        assert set(result.app_buckets) == {"app0", "app1"}


class TestParallelMonitoring:
    def test_result_structure(self):
        result = run_parallel_monitoring(
            build_workload("lu", 2), TaintCheck,
            SimulationConfig.for_threads(2))
        assert result.scheme == "parallel"
        assert result.lifeguard == "taintcheck"
        assert set(result.lifeguard_buckets) == {"lifeguard0", "lifeguard1"}
        breakdown = result.lifeguard_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert result.stats["records_processed"] == result.instructions + \
            result.stats.get("ca_marks", 0)

    def test_deterministic_cycles(self):
        runs = [
            run_parallel_monitoring(
                build_workload("swaptions", 2), AddrCheck,
                SimulationConfig.for_threads(2)).total_cycles
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_every_benchmark_under_taintcheck(self, name):
        result = run_parallel_monitoring(
            build_workload(name, 2), TaintCheck,
            SimulationConfig.for_threads(2))
        assert result.total_cycles > 0
        assert not result.violations  # benchmarks are bug-free

    def test_monitoring_never_speeds_up_the_app(self):
        base = run_no_monitoring(build_workload("lu", 2),
                                 SimulationConfig.for_threads(2))
        monitored = run_parallel_monitoring(
            build_workload("lu", 2), TaintCheck,
            SimulationConfig.for_threads(2))
        assert monitored.total_cycles >= base.total_cycles

    def test_log_backpressure_throttles_the_application(self):
        """With a tiny log buffer the application must stall on log-full,
        and the run still completes correctly."""
        config = SimulationConfig.for_threads(2).replace(
            log_config=SimulationConfig().log_config.__class__(
                size_bytes=256))
        result = run_parallel_monitoring(
            build_workload("lu", 2), TaintCheck, config)
        wait_log = sum(buckets.get("wait_log", 0)
                       for buckets in result.app_buckets.values())
        assert wait_log > 0

    def test_keep_trace_collects_all_records(self):
        result = run_parallel_monitoring(
            build_workload("racy_counters", 2), TaintCheck,
            SimulationConfig.for_threads(2), keep_trace=True)
        assert len(result.trace) == result.stats["records_processed"]

    def test_violating_workloads_report(self):
        result = run_parallel_monitoring(
            build_workload("tainted_jump", 2), TaintCheck,
            SimulationConfig.for_threads(2))
        assert result.violation_kinds() == {"tainted-critical-use": 1}

    def test_heap_bugs_detected_by_addrcheck(self):
        workload = build_workload("heap_bugs", 3)
        result = run_parallel_monitoring(
            workload, AddrCheck, SimulationConfig.for_threads(3))
        kinds = result.violation_kinds()
        assert kinds.get("bad-free") == 1
        assert kinds.get("unallocated-access", 0) >= 2

    def test_unsync_counters_detected_by_lockset(self):
        from repro import LockSet
        result = run_parallel_monitoring(
            build_workload("unsync_counters", 2), LockSet,
            SimulationConfig.for_threads(2))
        assert result.violation_kinds().get("data-race") == 1


class TestTimeslicedMonitoring:
    def test_result_structure(self):
        result = run_timesliced_monitoring(
            build_workload("lu", 2), TaintCheck,
            SimulationConfig.for_threads(2))
        assert result.scheme == "timesliced"
        assert result.stats["context_switches"] > 0

    def test_parallel_beats_timesliced(self):
        config = SimulationConfig.for_threads(4)
        parallel = run_parallel_monitoring(
            build_workload("blackscholes", 4), TaintCheck, config)
        timesliced = run_timesliced_monitoring(
            build_workload("blackscholes", 4), TaintCheck, config)
        assert timesliced.total_cycles > parallel.total_cycles

    def test_gap_grows_with_thread_count(self):
        def ratio(threads):
            config = SimulationConfig.for_threads(threads)
            parallel = run_parallel_monitoring(
                build_workload("blackscholes", threads), TaintCheck, config)
            timesliced = run_timesliced_monitoring(
                build_workload("blackscholes", threads), TaintCheck, config)
            return timesliced.total_cycles / parallel.total_cycles
        assert ratio(4) > ratio(2)

    def test_timesliced_streams_have_no_arcs(self):
        result = run_timesliced_monitoring(
            build_workload("racy_counters", 2), TaintCheck,
            SimulationConfig.for_threads(2), keep_trace=True)
        assert all(not record.arcs for record in result.trace)
        assert result.stats["arcs_recorded"] == 0

    def test_detects_the_same_taint_violation(self):
        result = run_timesliced_monitoring(
            build_workload("tainted_jump", 2), TaintCheck,
            SimulationConfig.for_threads(2))
        assert result.violation_kinds() == {"tainted-critical-use": 1}


class TestAcceleratorsAffectTimingOnly:
    @pytest.mark.parametrize("workload_name,lifeguard", [
        ("racy_counters", TaintCheck),
        ("taint_pipeline", TaintCheck),
        ("lu", TaintCheck),
        ("swaptions", TaintCheck),
        ("swaptions", AddrCheck),
        ("heap_bugs", AddrCheck),
    ])
    def test_accelerated_and_plain_runs_agree_semantically(
            self, workload_name, lifeguard):
        """IT/IF/M-TLB are transparent: enabling them must not change
        the lifeguard's final metadata or its violation report."""
        config = SimulationConfig.for_threads(2)
        threads = 2 if workload_name != "heap_bugs" else 2
        accelerated = run_parallel_monitoring(
            build_workload(workload_name, threads), lifeguard, config,
            accel=True)
        plain = run_parallel_monitoring(
            build_workload(workload_name, threads), lifeguard, config,
            accel=False)
        assert (accelerated.lifeguard_obj.metadata_fingerprint()
                == plain.lifeguard_obj.metadata_fingerprint())

    def test_accelerators_reduce_delivered_events(self):
        config = SimulationConfig.for_threads(2)
        accelerated = run_parallel_monitoring(
            build_workload("lu", 2), TaintCheck, config)
        plain = run_parallel_monitoring(
            build_workload("lu", 2), TaintCheck, config,
            accel=False)
        assert (accelerated.stats["events_delivered"]
                < plain.stats["events_delivered"])
        assert accelerated.total_cycles < plain.total_cycles

    def test_capture_mode_is_semantically_transparent(self):
        from repro.common.config import CaptureMode
        config = SimulationConfig.for_threads(2)
        aggressive = run_parallel_monitoring(
            build_workload("racy_counters", 2), TaintCheck, config)
        limited = run_parallel_monitoring(
            build_workload("racy_counters", 2), TaintCheck,
            config.replace(capture_mode=CaptureMode.PER_CORE))
        assert (aggressive.lifeguard_obj.metadata_fingerprint()
                == limited.lifeguard_obj.metadata_fingerprint())
