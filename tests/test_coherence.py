"""Unit tests for the MESI-with-directory coherent memory system.

Besides MESI state transitions and latencies, these verify the property
ParaLog's order capture depends on: an access produces Conflict sources
exactly when it required coherence traffic, tagged with the record id of
the conflicting instruction.
"""

import pytest

from repro.common.config import SimulationConfig
from repro.memory.coherence import (
    INVALIDATION_LATENCY,
    REMOTE_TRANSFER_LATENCY,
    CoherentMemorySystem,
)


@pytest.fixture
def memsys():
    return CoherentMemorySystem(SimulationConfig.for_threads(2), num_cores=4)


ADDR = 0x1000_0000


class TestLatencies:
    def test_cold_read_pays_memory_latency(self, memsys):
        config = memsys.config
        result = memsys.access(0, ADDR, 4, False, rid=1)
        assert result.latency == (config.l1_config.access_latency
                                  + config.l2_config.access_latency
                                  + config.memory_latency)

    def test_second_read_is_an_l1_hit(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        result = memsys.access(0, ADDR, 4, False, 2)
        assert result.latency == memsys.config.l1_config.access_latency

    def test_same_line_different_word_hits(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        result = memsys.access(0, ADDR + 60, 4, False, 2)
        assert result.latency == memsys.config.l1_config.access_latency

    def test_remote_dirty_read_pays_forward_penalty(self, memsys):
        memsys.access(0, ADDR, 4, True, 1)
        result = memsys.access(1, ADDR, 4, False, 1)
        config = memsys.config
        assert result.latency == (config.l1_config.access_latency
                                  + config.l2_config.access_latency
                                  + REMOTE_TRANSFER_LATENCY)

    def test_write_to_shared_line_pays_invalidation(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        memsys.access(1, ADDR, 4, False, 1)
        result = memsys.access(0, ADDR, 4, True, 2)
        assert result.latency >= INVALIDATION_LATENCY


class TestMesiStates:
    def test_sole_reader_gets_exclusive(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        assert memsys.line_state(0, ADDR) == "E"

    def test_second_reader_downgrades_to_shared(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        memsys.access(1, ADDR, 4, False, 1)
        assert memsys.line_state(1, ADDR) == "S"

    def test_writer_holds_modified(self, memsys):
        memsys.access(0, ADDR, 4, True, 1)
        assert memsys.line_state(0, ADDR) == "M"

    def test_silent_e_to_m_upgrade(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        result = memsys.access(0, ADDR, 4, True, 2)
        assert memsys.line_state(0, ADDR) == "M"
        assert result.latency == memsys.config.l1_config.access_latency

    def test_remote_write_invalidates_sharers(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        memsys.access(1, ADDR, 4, True, 1)
        assert memsys.line_state(0, ADDR) is None
        assert memsys.line_state(1, ADDR) == "M"

    def test_remote_read_downgrades_owner(self, memsys):
        memsys.access(0, ADDR, 4, True, 1)
        memsys.access(1, ADDR, 4, False, 1)
        assert memsys.line_state(0, ADDR) == "S"
        assert memsys.line_state(1, ADDR) == "S"


class TestConflicts:
    def test_raw_conflict_points_at_writer_rid(self, memsys):
        memsys.access(0, ADDR, 4, True, rid=7)
        result = memsys.access(1, ADDR, 4, False, rid=1)
        assert len(result.conflicts) == 1
        conflict = result.conflicts[0]
        assert (conflict.core, conflict.rid, conflict.is_writer) == (0, 7, True)

    def test_war_conflicts_point_at_all_readers(self, memsys):
        memsys.access(0, ADDR, 4, False, rid=3)
        memsys.access(1, ADDR, 4, False, rid=5)
        result = memsys.access(2, ADDR, 4, True, rid=1)
        readers = {(c.core, c.rid) for c in result.conflicts if not c.is_writer}
        assert readers == {(0, 3), (1, 5)}

    def test_waw_conflict_points_at_previous_writer(self, memsys):
        memsys.access(0, ADDR, 4, True, rid=2)
        result = memsys.access(1, ADDR, 4, True, rid=1)
        writers = [(c.core, c.rid) for c in result.conflicts if c.is_writer]
        assert writers == [(0, 2)]

    def test_local_hit_never_conflicts(self, memsys):
        memsys.access(0, ADDR, 4, True, 1)
        result = memsys.access(0, ADDR, 4, False, 2)
        assert result.conflicts == []

    def test_same_core_reaccess_never_conflicts(self, memsys):
        memsys.access(0, ADDR, 4, True, 1)
        result = memsys.access(0, ADDR, 4, True, 2)
        assert result.conflicts == []

    def test_disjoint_lines_never_conflict(self, memsys):
        memsys.access(0, ADDR, 4, True, 1)
        result = memsys.access(1, ADDR + 64, 4, True, 1)
        assert result.conflicts == []

    def test_read_read_is_not_a_conflict(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        result = memsys.access(1, ADDR, 4, False, 1)
        assert result.conflicts == []

    def test_rid_tag_tracks_latest_access(self, memsys):
        memsys.access(0, ADDR, 4, True, rid=2)
        memsys.access(0, ADDR, 4, True, rid=9)
        result = memsys.access(1, ADDR, 4, False, rid=1)
        assert result.conflicts[0].rid == 9


class TestWarFilter:
    def test_filter_suppresses_selected_readers(self, memsys):
        memsys.access(0, ADDR, 4, False, rid=3)
        memsys.access(1, ADDR, 4, False, rid=4)
        memsys.war_filter = lambda core, line, readers: {0}
        result = memsys.access(2, ADDR, 4, True, rid=1)
        cores = {c.core for c in result.conflicts}
        assert 0 not in cores
        assert 1 in cores

    def test_filter_not_called_for_reads(self, memsys):
        calls = []
        memsys.war_filter = lambda *args: calls.append(args) or set()
        memsys.access(0, ADDR, 4, True, 1)
        memsys.access(1, ADDR, 4, False, 1)
        assert calls == []


class TestEvictionTagPreservation:
    def test_tags_survive_l2_eviction(self):
        # A 1-set L2 so a second distinct line evicts the first.
        config = SimulationConfig.for_threads(2).replace(
            l2_config=SimulationConfig().l2_config.__class__(
                size_bytes=64 * 2, line_bytes=64, associativity=2,
                access_latency=6),
        )
        memsys = CoherentMemorySystem(config, num_cores=2)
        memsys.access(0, ADDR, 4, True, rid=11)
        # Two more lines evict ADDR's line from the tiny L2.
        memsys.access(0, ADDR + 64, 4, False, 1)
        memsys.access(0, ADDR + 128, 4, False, 2)
        assert memsys.line_state(0, ADDR) is None  # inclusive invalidation
        result = memsys.access(1, ADDR, 4, False, rid=1)
        assert [(c.core, c.rid) for c in result.conflicts] == [(0, 11)]


class TestErrors:
    def test_line_crossing_access_rejected(self, memsys):
        from repro.common.errors import SimulationError
        with pytest.raises(SimulationError):
            memsys.access(0, ADDR + 62, 4, False, 1)

    def test_stats_snapshot_counts(self, memsys):
        memsys.access(0, ADDR, 4, False, 1)
        memsys.access(0, ADDR, 4, False, 2)
        stats = memsys.stats_snapshot()
        assert stats["l1_misses"][0] == 1
        assert stats["l1_hits"][0] == 1


class TestSharedHitResult:
    """Every conflict-free L1 hit returns one shared, read-only
    :class:`AccessResult`; no caller may mutate it."""

    def test_read_and_write_hits_share_one_result(self, memsys):
        memsys.access(0, ADDR, 4, True, 1)
        read_hit = memsys.access(0, ADDR, 4, False, 2)
        write_hit = memsys.access(0, ADDR + 4, 4, True, 3)
        assert read_hit is write_hit is memsys.l1_hit
        assert memsys.access(1, ADDR, 4, False, 1) is not memsys.l1_hit

    @pytest.mark.parametrize("memory_model", ["SC", "TSO"])
    @pytest.mark.parametrize("scheme", ["parallel", "timesliced"])
    def test_shared_hit_result_survives_a_full_run(self, monkeypatch,
                                                   memory_model, scheme):
        from repro import MemoryModel, ScalePreset
        from repro.lifeguards import LIFEGUARDS
        from repro.platform import (run_parallel_monitoring,
                                    run_timesliced_monitoring)
        from repro.workloads import build_workload

        created = []
        original_init = CoherentMemorySystem.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(CoherentMemorySystem, "__init__", recording_init)
        config = SimulationConfig.for_threads(2).replace(
            memory_model=MemoryModel[memory_model])
        runner = {"parallel": run_parallel_monitoring,
                  "timesliced": run_timesliced_monitoring}[scheme]
        runner(build_workload("blackscholes", 2, ScalePreset.TINY, 1),
               LIFEGUARDS["taintcheck"], config)
        (machine_memsys,) = created
        assert sum(machine_memsys.l1_hits) > 0
        hit = machine_memsys.l1_hit
        assert hit.conflicts == []
        assert hit.latency == config.l1_config.access_latency
