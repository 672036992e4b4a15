"""Tests for the replay engine and the differential check's replay leg.

Fast tier: a handful of seeds proving the record-once/replay-many
contract — live verdicts/fingerprints/violation lists byte-identical to
the archive replayed from disk, and one archive fanning out to all four
lifeguards — and the delivery loop against its per-event reference.
Slow tier (``-m slow``): the 25-seed × 4-lifeguard acceptance sweep,
``differential_sweep(..., replay=True)``, and the reference comparison
over 25 seeds under SC and TSO.
"""

import json

import pytest

import repro.replay
import repro.replay.engine
import repro.replay.format
from repro.accel.inheritance import InheritanceTracking
from repro.capture.events import Record, RecordKind
from repro.common.config import MemoryModel, SimulationConfig
from repro.common.errors import DeadlockError
from repro.cpu.os_model import AddressLayout
from repro.lifeguards import LIFEGUARDS
from repro.lifeguards.memcheck import ADDRESSABLE, INITIALIZED, MemCheck
from repro.lifeguards.oracle import deliver, replay, replay_events
from repro.replay import (
    TraceReader,
    canonical_json,
    capture_archive,
    replay_all,
    replay_archive,
    replay_payload,
)
from repro.trace.diff import (
    differential_check,
    differential_sweep,
    lifeguard_factory,
    report_payload,
)


class TestReplayArchive:
    def test_replay_matches_live_run_exactly(self, tmp_path):
        live, _manifest = capture_archive(tmp_path / "s.plog", 4)
        result = replay_archive(tmp_path / "s.plog", "taintcheck")
        assert result.records == len(live.trace)
        assert result.violations == [(v.kind, v.tid, v.rid, v.detail)
                                     for v in live.violations]
        assert (canonical_json(result.fingerprint)
                == canonical_json(live.lifeguard_obj.metadata_fingerprint()))

    def test_re_replay_is_byte_identical(self, tmp_path):
        capture_archive(tmp_path / "s.plog", 6)
        first = replay_payload(replay_archive(tmp_path / "s.plog",
                                              "memcheck"))
        second = replay_payload(replay_archive(tmp_path / "s.plog",
                                               "memcheck"))
        assert canonical_json(first) == canonical_json(second)

    def test_shared_reader_equals_fresh_reader(self, tmp_path):
        capture_archive(tmp_path / "s.plog", 2)
        reader = TraceReader(tmp_path / "s.plog")
        via_reader = replay_payload(replay_archive(reader, "lockset"))
        via_path = replay_payload(replay_archive(tmp_path / "s.plog",
                                                 "lockset"))
        assert canonical_json(via_reader) == canonical_json(via_path)

    def test_capture_archive_meta(self, tmp_path):
        _live, manifest = capture_archive(tmp_path / "s.plog", 5,
                                          lifeguard="addrcheck")
        meta = manifest["meta"]
        assert meta["seed"] == 5
        assert meta["lifeguard"] == "addrcheck"
        assert meta["scheme"] == "parallel"
        assert meta["instructions"] > 0


def _canonical(value) -> str:
    """Canonical JSON after a JSON round trip (int keys become strings,
    as in a payload)."""
    return canonical_json(json.loads(canonical_json(value)))


def _payloads(reader, names):
    return {name: canonical_json(replay_payload(replay_archive(reader, name)))
            for name in names}


class TestSharedDeliveredStream:
    """Every lifeguard replayed from one reader reads the same cached
    delivered-event stream; none of them may see another's effects."""

    @pytest.fixture(params=[MemoryModel.SC, MemoryModel.TSO],
                    ids=["sc", "tso"])
    def archive(self, request, tmp_path):
        # Seed 0 with 3 threads under TSO delivers versioned loads, the
        # events whose snapshot rewrite must not touch the shared list.
        config = SimulationConfig.for_threads(3, memory_model=request.param)
        path = tmp_path / "s.plog"
        capture_archive(path, 0, nthreads=3, config=config)
        delivered = TraceReader(path).delivered()
        versioned = sum(event[0] == "load_versioned" for event in delivered)
        assert (versioned > 0) == (request.param is MemoryModel.TSO)
        return path

    def test_shared_reader_matches_fresh_readers_and_oracle(self, archive):
        names = sorted(LIFEGUARDS)
        fresh = {name: _payloads(TraceReader(archive), [name])[name]
                 for name in names}
        for order in (names, names[::-1]):
            assert _payloads(TraceReader(archive), order) == fresh
        records = TraceReader(archive).all_records()
        for name in names:
            factory = lifeguard_factory(name)
            oracle = replay(records, lambda: factory(
                heap_range=AddressLayout.heap_range()))
            payload = json.loads(fresh[name])
            assert (_canonical(oracle.metadata_fingerprint())
                    == canonical_json(payload["fingerprint"]))
            assert (_canonical([(v.kind, v.tid, v.rid, v.detail)
                                for v in oracle.violations])
                    == canonical_json(payload["violations"]))

    def test_stream_built_once_and_left_unchanged(self, archive,
                                                  monkeypatch):
        calls = []
        real_deliver = repro.replay.format.deliver

        def counting_deliver(records):
            calls.append(1)
            return real_deliver(records)

        monkeypatch.setattr(repro.replay.format, "deliver",
                            counting_deliver)
        reader = TraceReader(archive)
        delivered = reader.delivered()
        before = list(delivered)
        fields = [(event[0], event[1].kind, event[1].addr, event[1].rd,
                   event[1].consume_version) for event in delivered]
        _payloads(reader, sorted(LIFEGUARDS))
        assert calls == [1]
        assert reader.delivered() is delivered
        assert len(delivered) == len(before)
        assert all(now is then for now, then in zip(delivered, before))
        assert fields == [(event[0], event[1].kind, event[1].addr,
                           event[1].rd, event[1].consume_version)
                          for event in delivered]


    def test_delivered_equals_the_per_record_passthrough(self, archive):
        reader = TraceReader(archive)
        process = InheritanceTracking(enabled=False).process
        expected = [event for record in reader.linearized()
                    if record.kind != RecordKind.CA_MARK
                    for event in process(record)]
        assert reader.delivered() == expected


class TestReplayAll:
    def test_one_archive_feeds_every_lifeguard(self, tmp_path):
        capture_archive(tmp_path / "s.plog", 3)
        payloads = replay_all(tmp_path / "s.plog")
        assert set(payloads) == set(LIFEGUARDS)
        for name, payload in payloads.items():
            assert payload["lifeguard"] == name
            assert payload["records"] > 0

    def test_open_reader_gives_the_path_payloads(self, tmp_path):
        capture_archive(tmp_path / "s.plog", 3)
        reader = TraceReader(tmp_path / "s.plog")
        assert (canonical_json(replay_all(reader, lifeguards=["lockset"]))
                == canonical_json(replay_all(tmp_path / "s.plog",
                                             lifeguards=["lockset"])))

    def test_unknown_lifeguard_rejected(self, tmp_path):
        capture_archive(tmp_path / "s.plog", 1)
        with pytest.raises(ValueError, match="unknown lifeguards"):
            replay_all(tmp_path / "s.plog", lifeguards=["valgrind"])


class TestReplayDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_taintcheck_cells(self, seed):
        differential_check(seed, replay=True).assert_ok()

    @pytest.mark.parametrize("lifeguard",
                             ["addrcheck", "lockset", "memcheck"])
    def test_other_lifeguards(self, lifeguard):
        differential_check(1, lifeguard=lifeguard, replay=True).assert_ok()

    def test_fanout_against_planted_bugs(self, monkeypatch):
        """Every lifeguard replayed from the archive is held to the
        planted bugs: a replay that loses one turns the cell red."""
        real = repro.replay.replay_archive

        def lossy(archive, lifeguard):
            result = real(archive, lifeguard)
            if lifeguard == "memcheck":
                result.violations = result.violations[:-1]
            return result

        differential_check(2, replay=True).assert_ok()
        monkeypatch.setattr(repro.replay, "replay_archive", lossy)
        report = differential_check(2, replay=True)
        assert [failure for failure in report.failures
                if failure.startswith("replayed memcheck verdicts")]
        assert len(report.failures) == 1, report.failures

    def test_divergent_own_replay_is_caught(self, monkeypatch):
        real = repro.replay.replay_archive

        def lossy(archive, lifeguard):
            result = real(archive, lifeguard)
            result.violations = result.violations[:-1]
            return result

        monkeypatch.setattr(repro.replay, "replay_archive", lossy)
        report = differential_check(0, replay=True)
        assert any("violation list diverges from live" in failure
                   for failure in report.failures), report.failures

    @pytest.mark.parametrize("seed,lifeguard",
                             [(0, "taintcheck"), (3, "lockset")])
    def test_replay_leg_writes_the_repro_archive_bytes(
            self, seed, lifeguard, tmp_path, monkeypatch):
        """The leg archives the parallel run it already simulated (with
        the engine tracer on) to the bytes ``capture_archive`` writes."""
        capture_archive(tmp_path / "s.plog", seed, lifeguard=lifeguard)
        written = []
        real = repro.replay.engine.write_capture

        def spy(path, *args, **kwargs):
            manifest = real(path, *args, **kwargs)
            with open(path, "rb") as handle:
                written.append(handle.read())
            return manifest

        monkeypatch.setattr(repro.replay.engine, "write_capture", spy)
        differential_check(seed, lifeguard, replay=True).assert_ok()
        assert written == [(tmp_path / "s.plog").read_bytes()]

    def test_replay_only_adds_checks(self):
        """A clean replay cell reports exactly what the plain cell does."""
        assert (report_payload(differential_check(4, "memcheck", replay=True))
                == report_payload(differential_check(4, "memcheck")))

    def test_config_reaches_the_replay_leg(self, monkeypatch):
        configs = []
        real = repro.replay.engine.write_capture

        def spy(path, program, result, **kwargs):
            configs.append(kwargs["config"])
            return real(path, program, result, **kwargs)

        monkeypatch.setattr(repro.replay.engine, "write_capture", spy)
        tso = SimulationConfig.for_threads(2, memory_model=MemoryModel.TSO)
        differential_check(1, "addrcheck", config=tso, replay=True)
        assert configs == [tso]


# -- the reference delivery loop ----------------------------------------------
#
# ``deliver`` and ``replay_events`` as they read before their per-event
# cuts (one passthrough lookup per record; allocator mark, handler
# lookup and delivery range tested in that order for every event), and
# MemCheck with the per-byte metadata walks its range ops replaced. The
# fast path must reproduce them exactly: metadata fingerprint and the
# full violation list, in order.

_REFERENCE_EVENT_NAMES = {
    RecordKind.LOAD: "load",
    RecordKind.STORE: "store",
    RecordKind.RMW: "rmw",
    RecordKind.MOVRR: "movrr",
    RecordKind.ALU: "alu",
    RecordKind.LOADI: "loadi",
    RecordKind.CRITICAL_USE: "critical",
    RecordKind.HL_BEGIN: "hl",
    RecordKind.HL_END: "hl",
}


def reference_deliver(ordered_records):
    events = []
    for record in ordered_records:
        name = _REFERENCE_EVENT_NAMES.get(record.kind)
        if name == "load" and record.consume_version is not None:
            name = "load_versioned"
        if name is not None:
            events.append((name, record))
    return events


def reference_replay_events(events, lifeguard_factory):
    lifeguard = lifeguard_factory()
    handlers = lifeguard.handlers
    delivery_range = lifeguard.delivery_range
    skip_allocator = not lifeguard.monitors_allocator_internals
    for event in events:
        kind, rec = event[0], event[1]
        if skip_allocator and rec.critical_kind == "allocator":
            continue
        handler = handlers.get(rec.hl_kind if kind == "hl" else kind)
        if handler is None:
            continue
        if (delivery_range is not None and kind != "hl"
                and not delivery_range[0] <= rec.addr < delivery_range[1]):
            continue
        if kind == "load_versioned":
            snapshot = lifeguard.metadata.snapshot_range(rec.addr, rec.size)
            event = ("load_versioned", rec, (rec.addr, rec.size, snapshot))
        handler(event)
    return lifeguard


class PerByteMemCheck(MemCheck):
    """MemCheck reading and writing its metadata one byte at a time."""

    def _defined(self, addr, size):
        if not self.in_heap(addr):
            return True
        return all(self.metadata.get(addr + i) & INITIALIZED
                   for i in range(size))

    def _per_byte_judge(self, rec, byte_bits):
        defined = all(bits & INITIALIZED for bits in byte_bits)
        if not all(bits & ADDRESSABLE for bits in byte_bits):
            self.violation("unaddressable-load", rec.tid, rec.rid,
                           f"load at {rec.addr:#x}")
        elif not defined:
            self.violation("uninitialized-load", rec.tid, rec.rid,
                           f"load at {rec.addr:#x}")
        return 1 if defined else 0

    def _check_load(self, rec):
        if not self.in_heap(rec.addr):
            return 1
        return self._per_byte_judge(
            rec, [self.metadata.get(rec.addr + i) for i in range(rec.size)])

    def _load_versioned(self, event):
        rec, (snap_base, _snap_len, snapshot) = event[1], event[2]
        defined = 1
        if self.in_heap(rec.addr):
            indices = range(rec.addr - snap_base,
                            rec.addr - snap_base + rec.size)
            defined = self._per_byte_judge(
                rec, [snapshot[i] if 0 <= i < len(snapshot) else 0
                      for i in indices])
        self.regs(rec.tid)[rec.rd] = defined
        return (self.costs.handler_body_cost + 2,
                [(rec.addr, rec.size, False)])

    def _write_state(self, addr, size, defined):
        if not self.in_heap(addr):
            return ADDRESSABLE
        addressable = all(self.metadata.get(addr + i) & ADDRESSABLE
                          for i in range(size))
        for i in range(size):
            bits = self.metadata.get(addr + i) & ADDRESSABLE
            if defined:
                bits |= INITIALIZED
            self.metadata.set(addr + i, bits)
        return ADDRESSABLE if addressable else 0


def _capture_linearized(tmp_path, seed, nthreads, model):
    path = tmp_path / f"s{seed}.plog"
    capture_archive(path, seed, nthreads=nthreads,
                    config=SimulationConfig.for_threads(
                        nthreads, memory_model=model))
    return TraceReader(path).linearized()


def assert_matches_reference(records):
    events = deliver(records)
    assert events == reference_deliver(records)
    heap_range = AddressLayout.heap_range()
    for name in sorted(LIFEGUARDS):
        factory = lifeguard_factory(name)
        reference = PerByteMemCheck if name == "memcheck" else factory
        fast = replay_events(events,
                             lambda: factory(heap_range=heap_range))
        slow = reference_replay_events(
            reference_deliver(records),
            lambda: reference(heap_range=heap_range))
        assert fast.metadata_fingerprint() == slow.metadata_fingerprint(), \
            name
        assert ([(v.kind, v.tid, v.rid, v.detail) for v in fast.violations]
                == [(v.kind, v.tid, v.rid, v.detail)
                    for v in slow.violations]), name


class TestReferenceDeliveryLoop:
    @pytest.mark.parametrize("model", [MemoryModel.SC, MemoryModel.TSO],
                             ids=["sc", "tso"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_path_matches_the_reference(self, seed, model, tmp_path):
        records = _capture_linearized(tmp_path, seed, 3, model)
        events = deliver(records)
        low, high = AddressLayout.heap_range()
        # The stream exercises every filter of the loop: allocator-
        # internal accesses, instruction events outside AddrCheck's
        # delivery range and, under TSO, versioned loads.
        assert any(rec.critical_kind == "allocator" for _, rec in events)
        assert any(kind != "hl" and not low <= rec.addr < high
                   for kind, rec in events)
        assert (any(kind == "load_versioned" for kind, _ in events)
                == (model is MemoryModel.TSO))
        assert_matches_reference(records)

    def test_reference_memcheck_reports_mixed_addressability(self):
        # A store over a block's end is the case the range write leaves
        # to the per-byte loop: some bytes addressable, some not.
        heap_low, _ = AddressLayout.heap_range()
        store = Record(0, 1, RecordKind.STORE)
        store.addr, store.size, store.rs1 = heap_low + 6, 4, 0
        lifeguards = []
        for cls in (MemCheck, PerByteMemCheck):
            lifeguard = cls(heap_range=AddressLayout.heap_range())
            lifeguard.metadata.set_range(heap_low, 8, ADDRESSABLE)
            lifeguard.registers[0][0] = 1
            lifeguard.handle(("store", store))
            lifeguards.append(lifeguard)
        fast, slow = lifeguards
        assert fast.metadata_fingerprint() == slow.metadata_fingerprint()
        assert [v.kind for v in fast.violations] == ["unaddressable-store"]
        assert [v.kind for v in slow.violations] == ["unaddressable-store"]
        assert fast.metadata.get(heap_low + 7) == ADDRESSABLE | INITIALIZED
        assert fast.metadata.get(heap_low + 8) == INITIALIZED


#: TSO seeds whose 2-thread live capture deadlocks (ROADMAP item 2): there
#: is no archive to replay until that bug is fixed.
_TSO_CAPTURE_DEADLOCKS = frozenset({6, 10})


def _sweep_cases():
    for seed in range(25):
        yield pytest.param(seed, MemoryModel.SC, id=f"sc-{seed}")
    for seed in range(25):
        marks = ()
        if seed in _TSO_CAPTURE_DEADLOCKS:
            marks = pytest.mark.xfail(strict=True, raises=DeadlockError,
                                      reason="TSO capture deadlock")
        yield pytest.param(seed, MemoryModel.TSO, id=f"tso-{seed}",
                           marks=marks)


@pytest.mark.slow
class TestReferenceDeliveryLoopSweep:
    """The reference comparison over 25 seeds x {SC, TSO}, 2 threads."""

    @pytest.mark.parametrize("seed,model", list(_sweep_cases()))
    def test_fast_path_matches_the_reference(self, seed, model, tmp_path):
        assert_matches_reference(
            _capture_linearized(tmp_path, seed, 2, model))


@pytest.mark.slow
class TestReplayAcceptanceSweep:
    """The acceptance sweep: 25 seeds, every lifeguard, each parallel
    run archived and replayed byte-identically under every lifeguard."""

    SEEDS = range(25)

    def test_live_vs_replay_all_cells(self):
        reports = differential_sweep(self.SEEDS, jobs=4, replay=True)
        assert len(reports) == 25 * len(LIFEGUARDS)
        bad = [r.summary() for r in reports if not r.ok]
        assert not bad, "\n".join(bad)
