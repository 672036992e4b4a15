"""Simulated OS runtime: address layout, heap allocator, kernel effects.

The allocator models the wrapper-library behaviour ParaLog instruments
(Section 5.4): ``malloc``/``free`` bracket their work with HL_BEGIN /
HL_END records and touch *header words near the block boundaries* — the
"free block information close to the boundaries of the address range"
that makes a free()-vs-access race a *logical* race: the racing access
may be far from the header, so coherence never orders the two.

It also implements the Section 7 ablation the paper sketches: for small
allocations, instead of a ConflictAlert broadcast, the wrapper can touch
every cache block of the range, inducing ordinary dependence arcs
(``ca_touch_threshold_lines``).

Kernel activity (filling ``read()`` buffers) writes memory *values*
directly without going through a monitored core — by design: the paper's
order capture is application-level and deliberately blind to the kernel,
which is exactly why system calls need ConflictAlert records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError, WorkloadError
from repro.isa import instructions as ins
from repro.isa.registers import R13
from repro.memory.mainmem import MainMemory


class AddressLayout:
    """Fixed virtual-address regions of the monitored process."""

    GLOBALS_BASE = 0x1000_0000
    GLOBALS_SIZE = 0x0100_0000
    STACK_BASE = 0x2000_0000
    STACK_SIZE_PER_THREAD = 0x0010_0000  # 1 MiB
    HEAP_BASE = 0x4000_0000
    HEAP_LIMIT = 0x6000_0000

    @classmethod
    def stack_for(cls, tid: int) -> int:
        return cls.STACK_BASE + tid * cls.STACK_SIZE_PER_THREAD

    @classmethod
    def heap_range(cls) -> Tuple[int, int]:
        return (cls.HEAP_BASE, cls.HEAP_LIMIT)


#: Bytes reserved before each heap block for the allocator header.
_HEADER_BYTES = 8
#: Heap allocation alignment.
_ALIGN = 8


class OSRuntime:
    """Per-process OS services shared by all application threads."""

    def __init__(self, memory: MainMemory, config: SimulationConfig):
        self.memory = memory
        self.config = config
        self._brk = AddressLayout.HEAP_BASE
        self._free_blocks: List[Tuple[int, int]] = []  # (addr, total_size)
        self._allocated: Dict[int, int] = {}  # user addr -> user size
        # Allocation statistics (the Section 7 swaptions analysis).
        self.alloc_count = 0
        self.free_count = 0
        self.alloc_line_histogram: Dict[int, int] = {}
        self.kernel_fills = 0

    # -- heap ------------------------------------------------------------------

    def heap_alloc(self, tid: int, nbytes: int) -> int:
        """First-fit allocation; returns the (8-aligned) user address."""
        if nbytes <= 0:
            raise WorkloadError(f"heap_alloc of {nbytes} bytes")
        user_size = (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        total = user_size + _HEADER_BYTES
        addr = None
        for index, (start, size) in enumerate(self._free_blocks):
            if size >= total:
                addr = start
                remainder = size - total
                if remainder >= _HEADER_BYTES + _ALIGN:
                    self._free_blocks[index] = (start + total, remainder)
                else:
                    del self._free_blocks[index]
                break
        if addr is None:
            addr = self._brk
            self._brk += total
            if self._brk > AddressLayout.HEAP_LIMIT:
                raise SimulationError("simulated heap exhausted")
        user_addr = addr + _HEADER_BYTES
        self._allocated[user_addr] = nbytes
        self.alloc_count += 1
        lines = (nbytes + self.config.line_bytes - 1) // self.config.line_bytes
        self.alloc_line_histogram[lines] = self.alloc_line_histogram.get(lines, 0) + 1
        return user_addr

    def heap_free(self, tid: int, user_addr: int) -> None:
        nbytes = self._allocated.pop(user_addr, None)
        if nbytes is None:
            # Deliberate double-free / wild-free in bug-demo workloads:
            # the allocator shrugs, the lifeguard is the one who reports.
            self.free_count += 1
            return
        user_size = (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        self._free_blocks.append((user_addr - _HEADER_BYTES,
                                  user_size + _HEADER_BYTES))
        self.free_count += 1

    def heap_block_size(self, user_addr: int) -> int:
        size = self._allocated.get(user_addr)
        if size is None:
            return _ALIGN  # wild free: report a minimal range
        return size

    def live_allocations(self) -> int:
        return len(self._allocated)

    # -- wrapper-library instruction streams -----------------------------------------

    def allocator_touch_ops(self, user_addr: int, acquire: bool) -> list:
        """Header touches the allocator performs near the block boundary.

        The ops are tagged allocator-internal (``critical_kind``), the
        wrapper-library equivalent of Valgrind replacing malloc: heap
        checkers must not flag the allocator's own bookkeeping accesses.
        """
        header = user_addr - _HEADER_BYTES
        size = self._allocated.get(user_addr, 0)
        if acquire:
            ops = [ins.loadi(R13), ins.store(header, R13, value=size, size=4)]
        else:
            # free(): read then rewrite the header (free-list linkage).
            ops = [
                ins.load(R13, header, size=4),
                ins.store(header, R13, value=0, size=4),
            ]
        for op in ops:
            if op.is_memory:
                op.critical_kind = "allocator"
        return ops

    def use_ca_for(self, nbytes: int) -> bool:
        """Should this allocation's HL events broadcast a ConflictAlert?

        False only under the Section 7 "touch the blocks instead" ablation
        for allocations at or below the configured line threshold.
        """
        threshold = self.config.ca_touch_threshold_lines
        if threshold <= 0:
            return True
        lines = (nbytes + self.config.line_bytes - 1) // self.config.line_bytes
        return lines > threshold

    def touch_range_ops(self, addr: int, nbytes: int) -> list:
        """One store per cache line of the range (arc-inducing ablation)."""
        ops = [ins.loadi(R13)]
        line_bytes = self.config.line_bytes
        line = addr - (addr % line_bytes)
        end = addr + nbytes
        while line < end:
            target = max(line, addr) & ~3
            ops.append(ins.store(target, R13, value=0, size=4))
            line += line_bytes
        for op in ops:
            if op.is_memory:
                op.critical_kind = "allocator"
        return ops

    # -- kernel effects ---------------------------------------------------------------

    def kernel_fill(self, buf_addr: int, nbytes: int,
                    data: Optional[bytes] = None) -> None:
        """The (unmonitored) kernel fills a read() buffer."""
        if data is None:
            data = bytes((i * 31 + 7) & 0xFF for i in range(nbytes))
        self.memory.write_bytes(buf_addr, data[:nbytes])
        self.kernel_fills += 1

    # -- reporting -----------------------------------------------------------------------

    def allocation_size_cdf(self) -> List[Tuple[int, float]]:
        """(lines, cumulative fraction of allocations) — Section 7 analysis."""
        total = sum(self.alloc_line_histogram.values())
        if not total:
            return []
        cdf = []
        running = 0
        for lines in sorted(self.alloc_line_histogram):
            running += self.alloc_line_histogram[lines]
            cdf.append((lines, running / total))
        return cdf
