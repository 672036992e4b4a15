"""Direct unit tests for the LifeguardCore consumer state machine."""

import itertools

import pytest

from repro import build_workload, run_parallel_monitoring
from repro.capture.conflict_alert import CAHub
from repro.capture.events import RecordKind, RecordSource
from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.common.config import LogBufferConfig, SimulationConfig
from repro.cpu.engine import Engine
from repro.cpu.lifeguard_core import LifeguardCore
from repro.enforce.progress import ProgressTable
from repro.enforce.versions import VersionStore
from repro.isa.instructions import (
    HLEventKind,
    alu,
    critical_use,
    hl_begin,
    load,
    loadi,
    store,
)
from repro.isa.registers import R0, R1
from repro.lifeguards import LIFEGUARDS
from repro.lifeguards.addrcheck import AddrCheck
from repro.lifeguards.taintcheck import TaintCheck
from repro.workloads.base import CustomWorkload
from repro.memory.coherence import CoherentMemorySystem


class Harness:
    """One lifeguard core fed by a hand-written record stream: thread
    0's TaintCheck consumer unless told otherwise (``tid=None`` is the
    time-sliced scheme's sequential consumer)."""

    def __init__(self, lifeguard=None, tid=0, accel=True, config=None):
        self.engine = Engine()
        self.config = config or SimulationConfig.for_threads(2)
        self.log = LogBuffer(self.engine, LogBufferConfig(), "log")
        self.memsys = CoherentMemorySystem(self.config, num_cores=4)
        self.progress = ProgressTable(self.engine, [0, 1])
        self.lifeguard = lifeguard or TaintCheck()
        self.core = LifeguardCore(
            self.engine, "lifeguard0", core_id=2, tid=tid, log=self.log,
            lifeguard=self.lifeguard, memsys=self.memsys, config=self.config,
            progress_table=self.progress, accel=accel)
        self.source = RecordSource(0, {0: 0})

    def feed(self, op, arcs=None):
        record = self.source.begin_record(op)
        for arc in arcs or ():
            record.add_arc(*arc)
        assert self.log.try_append(record)
        return record

    def run(self):
        self.log.close()
        self.core.start()
        return self.engine.run()


class TestProcessing:
    def test_processes_to_completion_and_publishes(self):
        harness = Harness()
        harness.feed(load(R0, 0x100))
        harness.feed(store(0x200, R0, value=1))
        harness.run()
        assert harness.core.finished
        assert harness.core.records_processed == 2
        assert harness.progress.get(0) == 2

    def test_semantics_survive_it_absorption(self):
        harness = Harness()
        harness.feed(load(R0, 0x100))
        harness.feed(alu(R1, R0))
        harness.feed(store(0x200, R1, value=1))
        harness.run()
        # Taint of 0x100 (none) flowed to 0x200 (none); registers settled.
        assert harness.lifeguard.regs(0)[R1] == 0

    def test_dependence_arc_blocks_until_progress(self):
        harness = Harness()
        harness.feed(load(R0, 0x100), arcs=[(1, 5)])
        harness.log.close()
        harness.core.start()
        # Release the arc a while in; the consumer must wait until then.
        harness.engine.schedule(500, lambda: harness.progress.publish(1, 5))
        total = harness.engine.run()
        assert total >= 500
        assert harness.core.dependence_stalls == 1
        assert harness.core.buckets.get("wait_dependence") > 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "dependence_stalls counts every re-wait after a publish that "
        "does not satisfy the arc, not stall episodes (ROADMAP item 19)"))
    def test_a_stall_is_counted_once_however_often_it_wakes(self):
        harness = Harness()
        harness.feed(load(R0, 0x100), arcs=[(1, 5)])
        harness.log.close()
        harness.core.start()
        # Each publish below 5 wakes the consumer, which waits again.
        for rid in range(1, 6):
            harness.engine.schedule(
                100 * rid, lambda rid=rid: harness.progress.publish(1, rid))
        harness.engine.run()
        assert harness.core.stall_durations == [500]
        assert harness.core.dependence_stalls == 1

    def test_satisfied_arcs_do_not_stall(self):
        harness = Harness()
        harness.progress.publish(1, 10)
        harness.feed(load(R0, 0x100), arcs=[(1, 5)])
        harness.run()
        assert harness.core.dependence_stalls == 0

    def test_arcs_ignored_when_not_enforced(self):
        # AddrCheck needs no instruction arcs: CA barriers order it.
        harness = Harness(AddrCheck())
        assert not harness.core.enforce_arcs
        harness.feed(load(R0, 0x100), arcs=[(1, 99)])
        harness.run()  # would deadlock if the arc were enforced
        assert harness.core.dependence_stalls == 0

    def test_wait_application_accounted(self):
        harness = Harness()
        harness.feed(load(R0, 0x100))
        harness.core.start()
        def finish():
            harness.feed(loadi(R0))
            harness.log.close()
        harness.engine.schedule(300, finish)
        harness.engine.run()
        assert harness.core.buckets.get("wait_application") > 0


class TestDelayedAdvertising:
    def test_final_progress_is_accurate(self):
        harness = Harness()
        harness.feed(load(R0, 0x100))  # rid 1: absorbed, row holds rid 1
        harness.feed(loadi(R1))        # rid 2
        harness.run()
        # Thread exit flushes everything: the final publish is accurate.
        assert harness.progress.get(0) == 2

    def test_advertised_lags_while_it_holds_state(self):
        harness = Harness()
        assert harness.core.delayed_advertising
        published = []
        original = harness.progress.publish
        harness.progress.publish = lambda tid, rid: (
            published.append((tid, rid)), original(tid, rid))
        harness.feed(load(R0, 0x100))   # rid 1 -> row holds rid 1
        harness.feed(loadi(R1))         # rid 2
        harness.run()
        # While the row for rid 1 was held, the advertised value stayed
        # at 0 (= min held rid - 1).
        assert (0, 0) in published
        assert harness.progress.get(0) == 2

    def test_accurate_mode_publishes_processed(self):
        harness = Harness(tid=None)  # the sequential consumer
        assert not harness.core.delayed_advertising
        published = []
        original = harness.progress.publish
        harness.progress.publish = lambda tid, rid: (
            published.append((tid, rid)), original(tid, rid))
        harness.feed(load(R0, 0x100))
        harness.run()
        assert (0, 1) in published


class TestThresholdFlush:
    def test_stale_rows_flush_at_the_threshold(self):
        harness = Harness()
        config = harness.config.replace(delayed_advertising_threshold=4)
        harness.core.config = config
        harness.feed(load(R0, 0x100))  # rid 1, held
        for _ in range(8):
            harness.feed(loadi(R1))
        harness.run()
        # Well before the end, the rid-1 row must have been force-flushed
        # so progress could advance past the threshold lag.
        assert harness.core.it.min_held_rid(0) is None
        assert harness.progress.get(0) == 9


class TestHighLevelRecords:
    def test_hl_event_applies_semantics(self):
        harness = Harness()
        harness.feed(load(R0, 0x100))
        op = loadi(R0)
        harness.feed(op)
        from repro.isa.instructions import hl_end
        harness.feed(hl_end(HLEventKind.SYSCALL_READ, ranges=((0x300, 8),)))
        harness.run()
        assert harness.lifeguard.metadata.all_equal(0x300, 8, 1)

    def test_local_hl_flushes_it_per_config(self):
        harness = Harness()
        harness.feed(load(R0, 0x100))  # absorbed into IT
        from repro.isa.instructions import hl_begin
        harness.feed(hl_begin(HLEventKind.FREE, ranges=((0x100, 4),)))
        harness.run()
        # TaintCheck's ca_flush_it covers (FREE, BEGIN): the row was
        # flushed before the free handler cleared the range's taint.
        assert harness.core.it.row_count == 0
        assert harness.core.it.full_flushes >= 1


class TestOrderGate:
    """Only records carrying arcs, a consume-version or a ConflictAlert
    id can be held back, so only they enter the order gate — and each
    kind must still stall there until its condition is met."""

    FREE_RANGE = ((0x100, 4),)

    def counting_gate(self, harness):
        gated = []
        original = harness.core._order_gate
        harness.core._order_gate = lambda record: (
            gated.append(record.rid), original(record))[1]
        return gated

    def ca_hub(self, harness, issuer):
        """A hub with lifeguard threads 0 and 1; one CA broadcast from
        ``issuer`` puts its CA_MARK into the other thread's capture."""
        hub = CAHub(harness.engine)
        clock = itertools.count(1)
        captures = {tid: OrderCapture(tid, harness.config, harness.log, {},
                                      {}, clock)
                    for tid in (0, 1)}
        for tid, capture in captures.items():
            hub.register(tid, capture)
        ca_id = hub.broadcast(issuer, HLEventKind.FREE, RecordKind.HL_BEGIN,
                              self.FREE_RANGE)
        harness.core.ca_hub = hub
        return hub, ca_id, captures

    def test_plain_records_skip_the_gate(self):
        harness = Harness()
        gated = self.counting_gate(harness)
        harness.feed(load(R0, 0x100))
        harness.feed(loadi(R1))
        harness.feed(store(0x200, R0, value=1), arcs=[(1, 0)])
        harness.run()
        assert gated == [3]
        assert harness.core.records_processed == 3

    def test_consume_version_stalls_until_produced(self):
        harness = Harness()
        versions = VersionStore(harness.engine)
        harness.core.version_store = versions
        gated = self.counting_gate(harness)
        record = harness.source.begin_record(load(R0, 0x100))
        record.consume_version = (7, 0x100, 4)
        assert harness.log.try_append(record)
        harness.log.close()
        harness.core.start()
        snapshot = harness.lifeguard.snapshot_metadata(0x100, 4)
        harness.engine.schedule(
            300, lambda: versions.produce(7, 0x100, 4, snapshot))
        assert harness.engine.run() >= 300
        assert gated and set(gated) == {1}
        assert harness.core.dependence_stalls == 1
        assert harness.core.buckets.get("wait_dependence") > 0
        assert versions.consumed == 1

    def test_ca_mark_stalls_until_the_issuer_completes(self):
        harness = Harness()
        hub, ca_id, captures = self.ca_hub(harness, issuer=1)
        assert captures[0].flush() and len(harness.log) == 1
        assert harness.log.peek().kind == RecordKind.CA_MARK
        harness.log.close()
        harness.core.start()
        harness.engine.schedule(300, lambda: hub.mark_complete(ca_id))
        assert harness.engine.run() >= 300
        assert hub.state(ca_id).arrived == {0}
        assert harness.core.ca_stalls == 1
        assert harness.core.buckets.get("wait_dependence") > 0

    def test_ca_issuer_stalls_until_every_participant_arrives(self):
        harness = Harness()
        hub, ca_id, _captures = self.ca_hub(harness, issuer=0)
        record = harness.source.begin_record(
            hl_begin(HLEventKind.FREE, ranges=self.FREE_RANGE))
        record.ca_id = ca_id
        record.ca_issuer = True
        assert harness.log.try_append(record)
        harness.log.close()
        harness.core.start()
        harness.engine.schedule(300, lambda: hub.lifeguard_arrive(ca_id, 1))
        assert harness.engine.run() >= 300
        assert harness.core.ca_stalls == 1
        assert hub.state(ca_id).complete


class TestOneObjectPerInstruction:
    """The object a kernel yields is the record capture stamps, the log
    holds and the lifeguard core pops: nothing copies it on the way."""

    def test_lifeguard_pops_the_yielded_record(self):
        yielded, delivered = [], []

        class Witness(TaintCheck):
            def _critical(self, event):
                delivered.append(event[1])
                return super()._critical(event)

        def kernel(api, workload):
            for reg in (R0, R1):
                op = critical_use(reg)
                yielded.append(op)
                yield op

        run_parallel_monitoring(CustomWorkload([kernel]), Witness,
                                SimulationConfig.for_threads(1))
        assert len(delivered) == len(yielded) == 2
        assert all(rec is op for rec, op in zip(delivered, yielded))
        assert [op.tid for op in yielded] == [0, 0]
        assert yielded[1].rid == yielded[0].rid + 1


class TestDerivedWiring:
    """The accelerator wiring follows from each lifeguard's handler
    table, ``if_key`` and subscriptions (DESIGN §6)."""

    IT = {"taintcheck", "memcheck"}
    IF_KEYED = {"addrcheck", "memcheck"}

    @pytest.mark.parametrize("name", sorted(LIFEGUARDS))
    def test_accelerated_sets(self, name):
        core = Harness(LIFEGUARDS[name]()).core
        assert core.it.enabled == (name in self.IT)
        assert core.mtlb.enabled and core.iff.enabled
        assert core.iff.track_rids == (name == "memcheck")
        assert core.enforce_arcs == (name != "addrcheck")

    @pytest.mark.parametrize("name", sorted(LIFEGUARDS))
    def test_not_accelerated_turns_every_accelerator_off(self, name):
        core = Harness(LIFEGUARDS[name](), accel=False).core
        assert not (core.it.enabled or core.iff.enabled
                    or core.mtlb.enabled)

    @pytest.mark.parametrize("name", sorted(LIFEGUARDS))
    def test_only_addrcheck_and_memcheck_key_the_filter(self, name):
        result = run_parallel_monitoring(
            build_workload("swaptions", 2), LIFEGUARDS[name],
            SimulationConfig.for_threads(2))
        stats = result.stats
        assert (stats["if_hits"] + stats["if_misses"] > 0) == (
            name in self.IF_KEYED)
        assert (stats["it_absorbed"] > 0) == (name in self.IT)
        assert stats["mtlb_hits"] + stats["mtlb_misses"] > 0

    def test_touch_ablation_enforces_arcs_for_every_lifeguard(self):
        config = SimulationConfig.for_threads(2).replace(
            ca_touch_threshold_lines=4)
        assert Harness(AddrCheck(), config=config).core.enforce_arcs
