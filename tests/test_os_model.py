"""Unit tests for the simulated OS runtime (heap allocator, kernel)."""

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError, WorkloadError
from repro.cpu.os_model import AddressLayout, OSRuntime
from repro.isa.instructions import RecordKind
from repro.memory.mainmem import MainMemory


@pytest.fixture
def os_runtime():
    return OSRuntime(MainMemory(), SimulationConfig())


class TestAllocator:
    def test_allocations_are_aligned_and_disjoint(self, os_runtime):
        blocks = [(os_runtime.heap_alloc(0, size), size)
                  for size in (8, 24, 100, 64)]
        for addr, _size in blocks:
            assert addr % 8 == 0
            assert AddressLayout.HEAP_BASE <= addr < AddressLayout.HEAP_LIMIT
        spans = sorted((addr, addr + size) for addr, size in blocks)
        for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_block_size_tracked(self, os_runtime):
        addr = os_runtime.heap_alloc(0, 100)
        assert os_runtime.heap_block_size(addr) == 100

    def test_free_then_realloc_reuses_space(self, os_runtime):
        first = os_runtime.heap_alloc(0, 64)
        os_runtime.heap_free(0, first)
        second = os_runtime.heap_alloc(0, 64)
        assert second == first

    def test_first_fit_splits_large_blocks(self, os_runtime):
        big = os_runtime.heap_alloc(0, 256)
        os_runtime.heap_free(0, big)
        small = os_runtime.heap_alloc(0, 32)
        assert small == big  # reused the head of the free block
        other = os_runtime.heap_alloc(0, 32)
        assert other != small

    def test_live_allocations_counter(self, os_runtime):
        addr = os_runtime.heap_alloc(0, 8)
        assert os_runtime.live_allocations() == 1
        os_runtime.heap_free(0, addr)
        assert os_runtime.live_allocations() == 0

    def test_double_free_is_recorded_not_fatal(self, os_runtime):
        addr = os_runtime.heap_alloc(0, 8)
        os_runtime.heap_free(0, addr)
        os_runtime.heap_free(0, addr)  # the lifeguard reports; OS shrugs
        assert os_runtime.free_count == 2

    def test_zero_allocation_rejected(self, os_runtime):
        with pytest.raises(WorkloadError):
            os_runtime.heap_alloc(0, 0)

    def test_heap_exhaustion_raises(self):
        os_runtime = OSRuntime(MainMemory(), SimulationConfig())
        os_runtime._brk = AddressLayout.HEAP_LIMIT - 64
        with pytest.raises(SimulationError):
            os_runtime.heap_alloc(0, 1024)

    def test_size_histogram_in_cache_lines(self, os_runtime):
        os_runtime.heap_alloc(0, 8)     # 1 line
        os_runtime.heap_alloc(0, 64)    # 1 line
        os_runtime.heap_alloc(0, 65)    # 2 lines
        assert os_runtime.alloc_line_histogram == {1: 2, 2: 1}
        cdf = os_runtime.allocation_size_cdf()
        assert cdf[0] == (1, pytest.approx(2 / 3))


class TestWrapperOps:
    def test_malloc_touches_the_header_word(self, os_runtime):
        addr = os_runtime.heap_alloc(0, 40)
        ops = os_runtime.allocator_touch_ops(addr, acquire=True)
        assert [op.kind for op in ops] == [RecordKind.LOADI, RecordKind.STORE]
        assert ops[1].addr == addr - 8  # near the block boundary
        assert all(op.critical_kind == "allocator"
                   for op in ops if op.is_memory)

    def test_free_reads_and_rewrites_the_header(self, os_runtime):
        addr = os_runtime.heap_alloc(0, 40)
        ops = os_runtime.allocator_touch_ops(addr, acquire=False)
        assert [op.kind for op in ops] == [RecordKind.LOAD, RecordKind.STORE]

    def test_use_ca_defaults_to_always(self, os_runtime):
        assert os_runtime.use_ca_for(8)
        assert os_runtime.use_ca_for(64 * 1024)

    def test_touch_ablation_threshold(self):
        config = SimulationConfig(ca_touch_threshold_lines=2)
        os_runtime = OSRuntime(MainMemory(), config)
        assert not os_runtime.use_ca_for(64)     # 1 line: touch instead
        assert not os_runtime.use_ca_for(128)    # 2 lines
        assert os_runtime.use_ca_for(129)        # 3 lines: broadcast

    def test_touch_range_ops_cover_every_line(self, os_runtime):
        addr = os_runtime.heap_alloc(0, 200)
        ops = os_runtime.touch_range_ops(addr, 200)
        stores = [op for op in ops if op.kind == RecordKind.STORE]
        lines = {op.addr // 64 for op in stores}
        expected = {line for line in range(addr // 64,
                                           (addr + 199) // 64 + 1)}
        assert lines == expected
        assert all(op.critical_kind == "allocator"
                   for op in ops if op.is_memory)


class TestKernel:
    def test_kernel_fill_writes_values(self, os_runtime):
        os_runtime.kernel_fill(0x5000, 4, b"\x01\x02\x03\x04")
        assert os_runtime.memory.read(0x5000, 4) == 0x04030201
        assert os_runtime.kernel_fills == 1

    def test_kernel_fill_generates_default_data(self, os_runtime):
        os_runtime.kernel_fill(0x5000, 8)
        assert os_runtime.memory.read_bytes(0x5000, 8) != b"\x00" * 8


class TestAddressLayout:
    def test_regions_are_disjoint(self):
        layout = AddressLayout
        assert layout.GLOBALS_BASE + layout.GLOBALS_SIZE <= layout.STACK_BASE
        assert layout.STACK_BASE < layout.HEAP_BASE
        assert layout.HEAP_LIMIT <= 0x8000_0000  # below metadata space

    def test_stacks_do_not_overlap(self):
        a = AddressLayout.stack_for(0)
        b = AddressLayout.stack_for(1)
        assert b - a == AddressLayout.STACK_SIZE_PER_THREAD
