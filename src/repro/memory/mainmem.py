"""Byte-addressable sparse value memory.

This is the *functional* half of the memory system: it holds the actual
data values the application reads and writes (lock words, barrier
counters, allocator headers, workload data). Timing lives entirely in
:mod:`repro.memory.coherence`; values live here, so the two concerns can
be tested independently.

Values are little-endian unsigned integers of 1/2/4/8 bytes. Memory is
lazily allocated in 4 KiB pages and reads of untouched memory return 0,
which is how the simulated OS zero-fills fresh pages.
"""

from __future__ import annotations

from repro.common.errors import SimulationError

_PAGE_BYTES = 4096
_SIZES = (1, 2, 4, 8)


class MainMemory:
    """Sparse, paged, byte-addressable value store."""

    __slots__ = ("_pages",)

    def __init__(self):
        self._pages = {}

    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes at ``addr`` as a little-endian unsigned int."""
        if (addr < 0 or size not in _SIZES
                or addr // _PAGE_BYTES != (addr + size - 1) // _PAGE_BYTES):
            self._check(addr, size)
        pages = self._pages
        page_no = addr // _PAGE_BYTES
        if page_no not in pages:
            return 0
        offset = addr % _PAGE_BYTES
        return int.from_bytes(pages[page_no][offset:offset + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Write ``value`` (masked to ``size`` bytes) at ``addr``."""
        if (addr < 0 or size not in _SIZES
                or addr // _PAGE_BYTES != (addr + size - 1) // _PAGE_BYTES):
            self._check(addr, size)
        pages = self._pages
        page_no = addr // _PAGE_BYTES
        if page_no in pages:
            page = pages[page_no]
        else:
            page = pages[page_no] = bytearray(_PAGE_BYTES)
        offset = addr % _PAGE_BYTES
        page[offset:offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk write (used by the simulated kernel to fill read() buffers)."""
        for i, byte in enumerate(data):
            self.write(addr + i, 1, byte)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return bytes(self.read(addr + i, 1) for i in range(length))

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    @staticmethod
    def _check(addr: int, size: int) -> None:
        """Raise for a bad access; :meth:`read` and :meth:`write` test
        their operands inline and call this only when that test fails."""
        if addr < 0:
            raise SimulationError(f"negative memory address {addr:#x}")
        if size not in _SIZES:
            raise SimulationError(f"unsupported access size {size}")
        if addr // _PAGE_BYTES != (addr + size - 1) // _PAGE_BYTES:
            raise SimulationError(
                f"access crosses a page boundary: addr={addr:#x} size={size}"
            )
