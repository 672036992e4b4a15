"""Unit tests for the two-level metadata map."""

import pytest

from repro.common.errors import ConfigurationError
from repro.lifeguards.metadata import CHUNK_APP_BYTES, META_BASE, MetadataMap


class TestBitPacking:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_roundtrip_per_byte(self, bits):
        metadata = MetadataMap(bits)
        value = (1 << bits) - 1
        metadata.set(0x1234, value)
        assert metadata.get(0x1234) == value
        assert metadata.get(0x1235) == 0

    def test_default_is_zero(self):
        assert MetadataMap(2).get(0xDEAD) == 0

    def test_neighbouring_slots_do_not_clobber(self):
        metadata = MetadataMap(2)
        metadata.set(0x100, 0b11)
        metadata.set(0x101, 0b01)
        metadata.set(0x102, 0b10)
        assert metadata.get(0x100) == 0b11
        assert metadata.get(0x101) == 0b01
        assert metadata.get(0x102) == 0b10

    def test_overwrite_clears_old_bits(self):
        metadata = MetadataMap(2)
        metadata.set(0x100, 0b11)
        metadata.set(0x100, 0b01)
        assert metadata.get(0x100) == 0b01

    def test_value_masked_to_width(self):
        metadata = MetadataMap(1)
        metadata.set(0x100, 0xFF)
        assert metadata.get(0x100) == 1

    def test_invalid_bit_width_rejected(self):
        with pytest.raises(ConfigurationError):
            MetadataMap(3)


class TestAccessHelpers:
    def test_get_access_ors_bytes(self):
        metadata = MetadataMap(2)
        metadata.set(0x102, 1)
        assert metadata.get_access(0x100, 4) == 1
        assert metadata.get_access(0x104, 4) == 0

    def test_set_access_covers_all_bytes(self):
        metadata = MetadataMap(2)
        metadata.set_access(0x100, 4, 1)
        assert all(metadata.get(0x100 + i) == 1 for i in range(4))

    def test_set_range_and_all_equal(self):
        metadata = MetadataMap(1)
        metadata.set_range(0x200, 10, 1)
        assert metadata.all_equal(0x200, 10, 1)
        assert not metadata.all_equal(0x200, 11, 1)
        assert metadata.any_equal(0x1FF, 2, 1)

    def test_nonzero_items(self):
        metadata = MetadataMap(2)
        metadata.set(0x100, 1)
        metadata.set(CHUNK_APP_BYTES + 5, 2)
        assert dict(metadata.nonzero_items()) == {
            0x100: 1, CHUNK_APP_BYTES + 5: 2}

    def test_chunks_allocated_lazily(self):
        metadata = MetadataMap(2)
        metadata.get(0x100)
        assert metadata.resident_chunks == 0
        metadata.set(0x100, 1)
        assert metadata.resident_chunks == 1


class TestSnapshots:
    def test_snapshot_and_read(self):
        metadata = MetadataMap(2)
        metadata.set(0x102, 1)
        snapshot = metadata.snapshot_range(0x100, 8)
        assert MetadataMap.read_snapshot(snapshot, 0x100, 0x100, 4) == 1
        assert MetadataMap.read_snapshot(snapshot, 0x100, 0x104, 4) == 0

    def test_snapshot_is_a_copy(self):
        metadata = MetadataMap(2)
        snapshot = metadata.snapshot_range(0x100, 4)
        metadata.set(0x100, 1)
        assert MetadataMap.read_snapshot(snapshot, 0x100, 0x100, 4) == 0

    def test_read_snapshot_out_of_range_is_zero(self):
        assert MetadataMap.read_snapshot([1, 1], 0x100, 0x200, 4) == 0


#: A window straddling one 64 KB chunk boundary.
BOUNDARY_BASE = CHUNK_APP_BYTES - 96
BOUNDARY_WINDOW = 256


def _populate_boundary(metadata, seed=1234):
    """Deterministic mixed pattern across the chunk boundary."""
    state = seed
    for addr in range(BOUNDARY_BASE, BOUNDARY_BASE + BOUNDARY_WINDOW):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        metadata.set(addr, state & ((1 << metadata.bits_per_byte) - 1))


class TestSnapshotAcrossChunks:
    """``snapshot_range`` against per-byte ``get`` at a chunk boundary,
    for every ``bits_per_byte``."""

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_matches_per_byte_get(self, bits):
        metadata = MetadataMap(bits)
        _populate_boundary(metadata)
        lo = BOUNDARY_BASE - 8
        length = BOUNDARY_WINDOW + 16
        assert metadata.snapshot_range(lo, length) == \
            [metadata.get(addr) for addr in range(lo, lo + length)]

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_long_snapshot_matches_one_byte_snapshots(self, bits):
        metadata = MetadataMap(bits)
        _populate_boundary(metadata)
        long = metadata.snapshot_range(BOUNDARY_BASE, BOUNDARY_WINDOW)
        short = [metadata.snapshot_range(BOUNDARY_BASE + i, 1)[0]
                 for i in range(BOUNDARY_WINDOW)]
        assert long == short

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_snapshot_to_end_of_chunk(self, bits):
        metadata = MetadataMap(bits)
        _populate_boundary(metadata)
        span = CHUNK_APP_BYTES - BOUNDARY_BASE
        assert metadata.snapshot_range(BOUNDARY_BASE, span) == \
            [metadata.get(BOUNDARY_BASE + i) for i in range(span)]

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_absent_chunk_reads_zero_without_allocating(self, bits):
        metadata = MetadataMap(bits)
        metadata.set(CHUNK_APP_BYTES - 1, 1)
        snapshot = metadata.snapshot_range(CHUNK_APP_BYTES - 4, 12)
        assert snapshot == [0, 0, 0, 1] + [0] * 8
        assert metadata.resident_chunks == 1


class TestSimulatedView:
    def test_sim_addr_linear_mapping(self):
        metadata = MetadataMap(2)
        assert metadata.sim_addr(0) == META_BASE
        assert metadata.sim_addr(4) == META_BASE + 1

    def test_one_word_access_is_one_metadata_byte(self):
        metadata = MetadataMap(2)
        accesses = metadata.sim_accesses(0x1000, 4, False)
        assert accesses == [(metadata.sim_addr(0x1000), 1, False)]

    def test_eight_byte_access_is_two_metadata_bytes(self):
        metadata = MetadataMap(2)
        accesses = metadata.sim_accesses(0x1000, 8, True)
        assert sum(size for _addr, size, _w in accesses) == 2

    def test_sim_accesses_are_aligned_powers_of_two(self):
        metadata = MetadataMap(1)
        for app_addr in (0x1000, 0x1008, 0x1238):
            for size in (1, 2, 4, 8):
                for addr, chunk, _w in metadata.sim_accesses(app_addr, size,
                                                             False):
                    assert chunk in (1, 2, 4, 8)
                    assert addr % chunk == 0

    def test_bit_race_freedom_precondition(self):
        """Two app addresses sharing a metadata byte always share an app
        cache line (Section 5.3 condition 3)."""
        metadata = MetadataMap(2)
        per_meta_byte = 8 // 2  # app bytes per metadata byte
        for app_addr in range(0, 4096, per_meta_byte):
            group = range(app_addr, app_addr + per_meta_byte)
            lines = {addr // 64 for addr in group}
            assert len(lines) == 1
