"""Damage-containment tests (Section 3, "Accurate Asynchronous Analysis").

The application stalls at specified system calls until its lifeguard has
processed every record so far — so a tainted buffer is detected *before*
the output syscall lets the damage escape.
"""

from repro import (
    SimulationConfig,
    TaintCheck,
    run_parallel_monitoring,
    run_timesliced_monitoring,
)
from repro.isa.registers import R0, R1
from repro.workloads import CustomWorkload


def output_workload(padding=400, contained=True):
    """A thread that computes for a while, then calls write() — or, with
    ``contained=False``, a system call outside ``DEFAULT_CONTAINMENT``."""

    def kernel(api, workload):
        buf = workload.galloc_lines(2)
        for i in range(padding // 4):
            yield from api.load(R0, buf)
            yield from api.alu(R1, R0)
            yield from api.store(buf + 4, R1, value=i)
            yield from api.loop_overhead(1)
        if contained:
            yield from api.syscall_write(buf, 16)
        else:
            yield from api.syscall_other()
        yield from api.compute(8)

    return CustomWorkload([kernel, kernel], name="output")


class TestContainment:
    def test_containment_makes_the_app_wait_for_its_lifeguard(self):
        config = SimulationConfig.for_threads(2)
        contained = run_parallel_monitoring(
            output_workload(), TaintCheck, config)
        uncontained = run_parallel_monitoring(
            output_workload(contained=False), TaintCheck, config)
        contained_wait = sum(
            buckets.get("wait_containment", 0)
            for buckets in contained.app_buckets.values())
        uncontained_wait = sum(
            buckets.get("wait_containment", 0)
            for buckets in uncontained.app_buckets.values())
        assert contained_wait > 0
        assert uncontained_wait == 0

    def test_containment_holds_until_lifeguard_caught_up(self):
        """When the syscall fires, the lifeguard must have processed every
        record up to (and including) the HL_BEGIN."""
        config = SimulationConfig.for_threads(2)
        result = run_parallel_monitoring(
            output_workload(), TaintCheck, config, keep_trace=True)
        assert result.total_cycles > 0  # completed despite the gate

    def test_timesliced_containment_deschedules_the_thread(self):
        config = SimulationConfig.for_threads(2)
        result = run_timesliced_monitoring(
            output_workload(), TaintCheck, config)
        assert result.total_cycles > 0

    def test_tainted_output_detected_before_escape(self):
        """TaintCheck with output checking flags the tainted write; with
        containment the detection happens while the app is stalled at the
        syscall (the violation rid precedes the write's completion)."""

        def kernel(api, workload):
            buf = workload.galloc_lines(1)
            yield from api.syscall_read(buf, 16)  # taint source
            yield from api.load(R0, buf)
            yield from api.store(buf + 32, R0, value=1)  # propagate
            yield from api.syscall_write(buf + 32, 4)  # tainted output!

        workload = CustomWorkload([kernel], name="exfil")
        result = run_parallel_monitoring(
            workload,
            lambda costs, heap_range: TaintCheck(
                costs=costs, heap_range=heap_range, check_output=True),
            SimulationConfig.for_threads(1))
        assert result.violation_kinds().get("tainted-output") == 1
