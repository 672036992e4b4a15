"""Fault-injection resilience matrix and crash-report tests.

Every injected fault must end in one of two defensible outcomes:

* **diagnosed** — the run raises a :class:`DeadlockError` (with wait-for
  graph diagnostics naming the injected site), a :class:`SimulationError`
  (an integrity check fired), or a :class:`SimulationTimeout`;
* **tolerated** — the run completes and, for faults that only cost time
  (stalls, recoverable overflows), the lifeguard verdict is unchanged.

What is never acceptable is a silent hang: every run here carries a
cycle budget and a watchdog, so a regression shows up as a failed
assertion, not a stuck test suite.
"""

import json

import pytest

from repro import (
    DeadlockError,
    Fault,
    FaultPlan,
    SimulationError,
    SimulationTimeout,
    TaintCheck,
    Watchdog,
    build_workload,
    crash_report,
    run_parallel_monitoring,
    run_timesliced_monitoring,
    write_crash_report,
)
from repro.common.errors import ConfigurationError
from repro.faults import parse_fault_spec

#: Generous budget: the unfaulted 2-thread run takes ~16k cycles.
BUDGET = 2_000_000

#: Exceptions that count as "the damage was diagnosed, not ignored".
DIAGNOSED = (DeadlockError, SimulationError, SimulationTimeout)


def run_faulted(plan, scheme="parallel", tracer=None):
    """One swaptions/TaintCheck run under ``plan``, bounded in time."""
    workload = build_workload("swaptions", nthreads=2)
    runner = (run_parallel_monitoring if scheme == "parallel"
              else run_timesliced_monitoring)
    return runner(workload, TaintCheck, fault_plan=plan,
                  watchdog=Watchdog(window=500_000), max_cycles=BUDGET,
                  tracer=tracer)


class TestFaultPlanUnit:
    def test_empty_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.enabled
        assert plan.fire("arc", tid=0) is None
        assert plan.injected == []

    def test_bad_site_and_action_rejected(self):
        with pytest.raises(ConfigurationError):
            Fault(site="bogus", action="drop")
        with pytest.raises(ConfigurationError):
            Fault(site="arc", action="kill")
        with pytest.raises(ConfigurationError):
            Fault(site="arc", action="drop", probability=0.0)

    @pytest.mark.parametrize("spec", [
        "worker:kill", "worker:hang:param=60", "worker_heartbeat:drop:t1",
        "worker_connect:refuse:t0"])
    def test_sweep_executor_sites_are_gone(self, spec):
        """The sweep executor has no fault site: its timeout and crash
        paths are tested with workers that sleep or exit."""
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            parse_fault_spec(spec)

    def test_after_and_count_window(self):
        plan = FaultPlan(faults=(Fault(site="arc", action="drop",
                                       after=2, count=1),))
        fired = [plan.fire("arc") is not None for _ in range(5)]
        assert fired == [False, False, True, False, False]
        assert len(plan.injected) == 1

    def test_tid_and_name_scoping(self):
        plan = FaultPlan(faults=(
            Fault(site="log_append", action="drop", tid=1, name="log1",
                  count=10),))
        assert plan.fire("log_append", tid=0, name="log1") is None
        assert plan.fire("log_append", tid=1, name="log0") is None
        assert plan.fire("log_append", tid=1, name="log1") is not None

    def test_probability_uses_plan_seed_only(self):
        def fires(seed):
            plan = FaultPlan(faults=(Fault(site="arc", action="drop",
                                           probability=0.5, count=100),),
                             seed=seed)
            return [plan.fire("arc") is not None for _ in range(50)]
        assert fires(7) == fires(7)  # deterministic in the plan seed
        assert fires(7) != fires(8)  # and actually seed-dependent

    def test_parse_fault_spec(self):
        fault = parse_fault_spec("log_append:overflow:t0:after=5:count=3")
        assert (fault.site, fault.action, fault.tid) == \
            ("log_append", "overflow", 0)
        assert (fault.after, fault.count) == (5, 3)
        assert parse_fault_spec("lifeguard:stall:param=9").param == 9
        assert parse_fault_spec("ca_mark:drop:p=0.5").probability == 0.5
        with pytest.raises(ConfigurationError):
            parse_fault_spec("arc")
        with pytest.raises(ConfigurationError):
            parse_fault_spec("arc:drop:wat")

    @pytest.mark.parametrize("modifier,value", [
        ("after", "x"), ("count", "2.5"), ("param", "abc"), ("param", ""),
        ("tid", "one"), ("p", "x"), ("probability", ""),
    ])
    def test_non_numeric_modifier_names_itself(self, modifier, value):
        # Used to escape as a bare ValueError (exit 1 with a traceback).
        spec = f"lifeguard:stall:{modifier}={value}"
        with pytest.raises(ConfigurationError,
                           match=f"modifier '{modifier}' needs .*"
                                 f"got '{value}'"):
            parse_fault_spec(spec)


class TestDisabledPlanDeterminism:
    def test_empty_plan_reproduces_unfaulted_run_exactly(self):
        baseline = run_faulted(None)
        empty = run_faulted(FaultPlan())
        assert empty.total_cycles == baseline.total_cycles
        assert empty.instructions == baseline.instructions
        assert empty.lifeguard_buckets == baseline.lifeguard_buckets
        assert empty.violation_kinds() == baseline.violation_kinds()
        assert "faults_injected" not in empty.stats

    def test_enabled_plan_is_deterministic_across_runs(self):
        plan_faults = (Fault(site="lifeguard", action="stall", tid=0,
                             param=5_000),)
        first = run_faulted(FaultPlan(faults=plan_faults))
        second = run_faulted(FaultPlan(faults=plan_faults))
        assert first.total_cycles == second.total_cycles
        assert first.stats["faults_injected"] == \
            second.stats["faults_injected"]


class TestResilienceMatrix:
    """Each injected fault is diagnosed or tolerated — never a hang."""

    @pytest.mark.parametrize("spec", [
        "arc:drop:count=5",
        "arc:corrupt:param=1000",
        "ca_mark:drop",
        "ca_mark:delay:param=200",
        "log_append:drop:count=5",
        "progress:suppress:count=50",
        "lifeguard:kill:t0",
        "stall_flush:skip:count=5",
    ])
    def test_fault_never_hangs(self, spec):
        plan = FaultPlan(faults=(parse_fault_spec(spec),))
        try:
            result = run_faulted(plan)
        except DIAGNOSED as exc:
            report = crash_report(exc)
            assert report["error"] in (
                "DeadlockError", "SimulationError", "SimulationTimeout")
            # A diagnosed deadlock/livelock must carry the machinery
            # snapshots; injected-site attribution is in the plan.
            if isinstance(exc, DeadlockError):
                assert report["waiting"]
                assert report["last_retired"]
            site = spec.split(":")[0]
            assert any(site in label for label, _ in plan.injected)
        else:
            # Tolerated: the run completed within budget and recorded
            # what it injected (or the fault found no opportunity).
            assert result.total_cycles <= BUDGET

    @pytest.mark.parametrize("spec,expected", [
        ("lifeguard:stall:t0:param=20000", "slower"),
        # after=50: inject once the consumer has a backlog, so its pops
        # notify not_full and the producer's bounded retries succeed.
        ("log_append:overflow:t0:after=50:count=3", "same_verdict"),
    ])
    def test_benign_faults_are_tolerated_with_unchanged_verdict(
            self, spec, expected):
        baseline = run_faulted(None)
        plan = FaultPlan(faults=(parse_fault_spec(spec),))
        result = run_faulted(plan)
        # The verdict is the invariant; instruction counts may shift by
        # a few spin-loop iterations under perturbed timing.
        assert result.violation_kinds() == baseline.violation_kinds()
        if expected == "slower":
            assert result.total_cycles > baseline.total_cycles

    def test_dropped_ca_mark_is_diagnosed_with_attribution(self):
        plan = FaultPlan(faults=(parse_fault_spec("ca_mark:drop:t1"),))
        with pytest.raises((DeadlockError, SimulationError)) as exc:
            run_faulted(plan)
        text = str(exc.value)
        # Either the watchdog/heap-drain diagnosis names the injected
        # site, or the CA integrity check names the lost broadcast.
        assert ("ca_mark:drop" in text) or ("CA#" in text)

    def test_killed_lifeguard_produces_wait_for_cycle_report(self):
        plan = FaultPlan(faults=(parse_fault_spec("lifeguard:kill:t0"),))
        with pytest.raises(DeadlockError) as exc:
            run_faulted(plan)
        report = crash_report(exc.value)
        assert report["kind"] in ("deadlock", "livelock")
        assert any("lifeguard:kill" in item
                   for item in report["injected_faults"])
        assert report["progress"]  # machinery snapshots present
        assert report["log_occupancy"]

    def test_timesliced_scheme_shares_the_fault_surface(self):
        plan = FaultPlan(faults=(parse_fault_spec("lifeguard:kill"),))
        with pytest.raises(DIAGNOSED):
            run_faulted(plan, scheme="timesliced")


class TestCrashReportSerialization:
    def test_crash_report_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(faults=(parse_fault_spec("ca_mark:drop:t1"),))
        try:
            run_faulted(plan)
        except DIAGNOSED as exc:
            path = tmp_path / "crash.json"
            write_crash_report(exc, str(path))
            loaded = json.loads(path.read_text())
            assert loaded["error"] == type(exc).__name__
            assert loaded["message"]
        else:
            pytest.fail("expected the dropped CA mark to be diagnosed")

    def test_timeout_report_fields(self):
        workload = build_workload("swaptions", nthreads=2)
        with pytest.raises(SimulationTimeout) as exc:
            run_parallel_monitoring(workload, TaintCheck, max_cycles=500)
        report = crash_report(exc.value)
        assert report["kind"] == "timeout"
        assert report["cycle"] > 500
        assert report["pending_events"] >= 1


class TestCrashReportTraceTail:
    """Crash reports carry the flight recorder's last-N events: the
    post-mortem shows what the machine was doing right before it died."""

    def test_deadlock_report_embeds_ring_buffer(self):
        from repro.trace import DEFAULT_RING_EVENTS, TraceWriter
        from repro.trace.writer import validate_event
        plan = FaultPlan(faults=(parse_fault_spec("lifeguard:kill:t0"),))
        tracer = TraceWriter(ring=DEFAULT_RING_EVENTS)
        with pytest.raises(DeadlockError) as exc:
            run_faulted(plan, tracer=tracer)
        assert exc.value.trace_tail, "DeadlockError lost the trace tail"
        report = crash_report(exc.value, tracer=tracer)
        tail = report["trace_tail"]
        assert 0 < len(tail) <= DEFAULT_RING_EVENTS
        for event in tail:
            validate_event(event)
        # the tail is the *end* of the run: cycle stamps never rewind
        cycles = [event["cycle"] for event in tail]
        assert cycles == sorted(cycles)

    def test_timeout_report_falls_back_to_tracer_snapshot(self):
        """SimulationTimeout carries no trace itself; crash_report pulls
        the tail straight from the tracer."""
        from repro.trace import TraceWriter
        workload = build_workload("swaptions", nthreads=2)
        tracer = TraceWriter(ring=64)
        with pytest.raises(SimulationTimeout) as exc:
            run_parallel_monitoring(workload, TaintCheck, max_cycles=500,
                                    tracer=tracer)
        report = crash_report(exc.value, tracer=tracer)
        assert 0 < len(report["trace_tail"]) <= 64

    def test_report_without_tracer_has_no_tail(self):
        plan = FaultPlan(faults=(parse_fault_spec("lifeguard:kill:t0"),))
        with pytest.raises(DeadlockError) as exc:
            run_faulted(plan)
        assert "trace_tail" not in crash_report(exc.value)

    def test_trace_tail_round_trips_through_json(self, tmp_path):
        from repro.trace import TraceWriter
        plan = FaultPlan(faults=(parse_fault_spec("lifeguard:kill:t0"),))
        tracer = TraceWriter(ring=32)
        with pytest.raises(DeadlockError) as exc:
            run_faulted(plan, tracer=tracer)
        path = tmp_path / "crash.json"
        write_crash_report(exc.value, str(path), tracer=tracer)
        loaded = json.loads(path.read_text())
        assert loaded["trace_tail"] == crash_report(
            exc.value, tracer=tracer)["trace_tail"]


class TestCliRobustnessSurface:
    def test_run_exit_codes_and_report(self, tmp_path, capsys):
        from repro.cli import main
        report_path = tmp_path / "crash.json"
        code = main(["run", "swaptions", "--threads", "2",
                     "--inject", "ca_mark:drop:t1",
                     "--crash-report", str(report_path)])
        assert code == 3
        loaded = json.loads(report_path.read_text())
        assert loaded["error"] in ("DeadlockError", "SimulationError")
        # --crash-report alone arms a silent ring buffer: the report
        # carries the last-N flight-recorder events without --trace
        tail = loaded["trace_tail"]
        assert tail
        from repro.trace import DEFAULT_RING_EVENTS
        from repro.trace.writer import validate_event
        assert len(tail) <= DEFAULT_RING_EVENTS
        for event in tail:
            validate_event(event)

        code = main(["run", "swaptions", "--threads", "2",
                     "--max-cycles", "500"])
        assert code == 4

        code = main(["run", "swaptions", "--threads", "2",
                     "--watchdog", "500000"])
        assert code == 0
