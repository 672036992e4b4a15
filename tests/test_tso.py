"""TSO support tests (Section 5.5).

The Dekker workload creates the Figure 5 pattern: both threads' loads
bypass their buffered stores, so using WAR arcs would deadlock the
consumers; versioned metadata must break the cycles while keeping
TaintCheck's answers consistent with a store-buffer-aware reference.
"""

import pytest

from repro import (
    DeadlockError,
    MemoryModel,
    ScalePreset,
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_no_monitoring,
    run_parallel_monitoring,
)
from repro.capture.tso import StoreBufferEntry, TsoVersioner
from repro.capture.events import Record, RecordKind
from repro.memory.coherence import Conflict
from repro.workloads import CustomWorkload
from repro.isa.registers import R0, R1


def tso_config(threads):
    return SimulationConfig.for_threads(threads,
                                        memory_model=MemoryModel.TSO)


class TestStoreBufferEntry:
    def test_exact_forwarding(self):
        entry = StoreBufferEntry(0x100, 4, 7, None)
        assert entry.forwards(0x100, 4)
        assert not entry.forwards(0x100, 2)
        assert not entry.forwards(0x104, 4)

    def test_overlap(self):
        entry = StoreBufferEntry(0x100, 4, 7, None)
        assert entry.overlaps(0x102, 4)
        assert not entry.overlaps(0x104, 4)


class TestVersioner:
    def make_versioner(self):
        versioner = TsoVersioner(line_bytes=64)

        class FakeCapture:
            def __init__(self):
                self.draining_record = None
                self.pending_load = None

            def find_pending_load(self, line, line_bytes):
                return self.pending_load

        writer, reader = FakeCapture(), FakeCapture()
        versioner.register(0, writer)
        versioner.register(1, reader)
        return versioner, writer, reader

    def test_pending_load_is_versioned_and_war_suppressed(self):
        versioner, writer, reader = self.make_versioner()
        store_record = Record(0, 5, RecordKind.STORE)
        load_record = Record(1, 3, RecordKind.LOAD)
        load_record.addr = 0x1040
        writer.draining_record = store_record
        reader.pending_load = load_record
        suppressed = versioner(0, 0x1040 // 64, [Conflict(1, 3, False)])
        assert suppressed == {1}
        assert load_record.consume_version is not None
        version_id, base, length = load_record.consume_version
        assert store_record.produce_versions == [(version_id, base, length)]

    def test_committed_load_keeps_war_arc(self):
        versioner, writer, reader = self.make_versioner()
        writer.draining_record = Record(0, 5, RecordKind.STORE)
        reader.pending_load = None  # the load already committed
        assert versioner(0, 0x40 // 64, [Conflict(1, 3, False)]) == set()

    def test_second_write_reuses_first_version(self):
        versioner, writer, reader = self.make_versioner()
        load_record = Record(1, 3, RecordKind.LOAD)
        load_record.addr = 0x1040
        reader.pending_load = load_record
        writer.draining_record = Record(0, 5, RecordKind.STORE)
        versioner(0, 0x1040 // 64, [Conflict(1, 3, False)])
        first_version = load_record.consume_version
        writer.draining_record = Record(0, 8, RecordKind.STORE)
        suppressed = versioner(0, 0x1040 // 64, [Conflict(1, 3, False)])
        assert suppressed == {1}
        assert load_record.consume_version == first_version


class TestDekkerEndToEnd:
    def test_unmonitored_tso_run_completes(self):
        result = run_no_monitoring(build_workload("dekker", 2),
                                   tso_config(2))
        assert result.total_cycles > 0

    def test_monitored_tso_run_completes_without_deadlock(self):
        """The headline TSO property: WAR cycles are broken by
        versioning, so the lifeguards never deadlock."""
        result = run_parallel_monitoring(
            build_workload("dekker", 2), TaintCheck, tso_config(2))
        assert result.total_cycles > 0

    def test_versions_are_produced_and_consumed(self):
        result = run_parallel_monitoring(
            build_workload("dekker", 2), TaintCheck, tso_config(2))
        assert result.stats["versions_produced"] > 0
        assert result.stats["versions_consumed"] >= result.stats[
            "versions_produced"]

    def test_sc_dekker_needs_no_versions(self):
        result = run_parallel_monitoring(
            build_workload("dekker", 2), TaintCheck,
            SimulationConfig.for_threads(2))
        assert "versions_produced" not in result.stats

    def test_benchmarks_run_under_tso(self):
        for name in ("racy_counters", "swaptions"):
            result = run_parallel_monitoring(
                build_workload(name, 2), TaintCheck, tso_config(2))
            assert result.total_cycles > 0


class TestStoreToLoadForwarding:
    def test_forwarded_load_sees_buffered_value(self):
        observed = {}

        def kernel(api, workload):
            addr = workload.galloc_lines(1)
            yield from api.store(addr, R0, value=123)
            value = yield from api.load(R1, addr)
            observed["value"] = value

        run_no_monitoring(CustomWorkload([kernel]), tso_config(1))
        assert observed["value"] == 123

    def test_taint_flows_through_forwarding(self):
        """A forwarded load never touches coherence, but program order
        at the lifeguard still propagates taint store -> load."""

        def kernel(api, workload):
            source = workload.galloc_lines(1)
            target = workload.galloc_lines(1)
            yield from api.syscall_read(source, 4)  # taints `source`
            yield from api.load(R0, source)
            yield from api.store(target, R0, value=1)  # buffered
            value = yield from api.load(R1, target)  # forwarded
            yield from api.store(target + 8, R1, value=value)

        workload = CustomWorkload([kernel], name="forwarding")
        target = None
        result = run_parallel_monitoring(workload, TaintCheck, tso_config(1))
        taint = result.lifeguard_obj
        tainted = dict(taint.metadata.nonzero_items())
        # Both stores' destinations carry taint.
        assert len(tainted) >= 8


class TestTsoTaintCorrectness:
    def test_dekker_observed_taints_match_value_semantics(self):
        """Whenever a Dekker-side load observed the *other* thread's
        round value (nonzero), its taint must equal the taint the other
        side's store wrote; versioning guarantees the metadata matches
        the value actually read."""
        result = run_parallel_monitoring(
            build_workload("dekker", 2), TaintCheck, tso_config(2),
            keep_trace=True)
        # The flags are written with untainted immediates only, so no
        # metadata should ever become tainted — versioned or not.
        assert dict(result.lifeguard_obj.metadata.nonzero_items()) == {}
        assert not result.violations


class TestLockSetTso:
    """Regression (end to end): races on read-shared words under TSO.

    Two threads run a Dekker-style round at program start: each stores
    its own flag word, then loads the other's. With overlapping store
    buffers the loads are pending when the remote stores drain, so they
    get versioned. Only thread 0 ever *writes* LINE_X — thread 1's sole
    access is the versioned load — so before the fix the word stayed
    Exclusive(t0) and the unprotected sharing went unreported.
    """

    LINE_X = 0x1000_0000
    LINE_Y = 0x1000_0040

    @classmethod
    def make_side(cls, mine, theirs):
        def kernel(api, workload):
            yield from api.loadi(R0)
            yield from api.store(mine, R0, value=1)
            yield from api.load(R1, theirs)
            yield from api.compute(3)
            yield from api.store(mine, R0, value=2)
        return kernel

    def run_lockset(self):
        from repro.lifeguards.lockset import LockSet
        workload = CustomWorkload(
            [self.make_side(self.LINE_X, self.LINE_Y),
             self.make_side(self.LINE_Y, self.LINE_X)],
            name="tso-lockset-race")
        return run_parallel_monitoring(workload, LockSet, tso_config(2))

    def test_read_shared_race_detected_under_tso(self):
        result = self.run_lockset()
        # The scenario only exercises the bug if versioning actually
        # fired — otherwise the loads were delivered as plain loads.
        assert result.stats.get("versions_consumed", 0) >= 1
        raced = {v.detail.split()[1] for v in result.violations
                 if v.kind == "data-race"}
        assert hex(self.LINE_X) in raced
        assert hex(self.LINE_Y) in raced
        assert "load_versioned" in result.lifeguard_obj.handlers


class TestKnownTsoDeadlock:
    @pytest.mark.xfail(strict=True, raises=DeadlockError,
                       reason="4-thread parallel monitoring under TSO "
                              "deadlocks on an arc/ConflictAlert wait cycle")
    def test_four_thread_lu_completes_under_tso(self):
        workload = build_workload("lu", 4, ScalePreset.TINY, 1)
        result = run_parallel_monitoring(workload, TaintCheck,
                                         tso_config(4))
        assert result.instructions > 0
