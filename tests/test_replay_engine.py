"""Tests for the replay engine and the differential check's replay leg.

Fast tier: a handful of seeds proving the record-once/replay-many
contract — live verdicts/fingerprints/violation lists byte-identical to
the archive replayed from disk, and one archive fanning out to all four
lifeguards. Slow tier (``-m slow``): the 25-seed × 4-lifeguard
acceptance sweep, ``differential_sweep(..., replay=True)``.
"""

import json

import pytest

import repro.replay
import repro.replay.engine
import repro.replay.format
from repro.accel.inheritance import InheritanceTracking
from repro.capture.events import RecordKind
from repro.common.config import MemoryModel, SimulationConfig
from repro.cpu.os_model import AddressLayout
from repro.lifeguards import LIFEGUARDS
from repro.lifeguards.oracle import replay
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
