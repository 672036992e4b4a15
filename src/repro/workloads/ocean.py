"""ocean (SPLASH-2): iterative grid solver (stencil relaxation).

Signature reproduced: a regular five-point stencil over a row-partitioned
grid with a barrier per sweep. Interior rows are thread-private; the
partition-boundary rows are read by the neighbouring thread each sweep,
giving a steady trickle of producer/consumer arcs — cheap, regular
lifeguard work like LU.
"""

from __future__ import annotations

from repro.common.config import ScalePreset
from repro.isa.registers import R0, R1
from repro.workloads.base import Workload

_WORD = 4


class Ocean(Workload):
    """Stencil grid solver (SPLASH-2 ocean)."""

    name = "ocean"

    def __init__(self, nthreads, scale=ScalePreset.TINY, seed=1):
        super().__init__(nthreads, scale, seed)
        self.grid = self.sized(tiny=14, small=26, paper=66)
        self.sweeps = self.sized(tiny=3, small=4, paper=8)
        grid_bytes = self.grid * self.grid * _WORD
        self._a = self.galloc_lines((grid_bytes + 63) // 64)
        self._b = self.galloc_lines((grid_bytes + 63) // 64)
        self._barrier = self.make_barrier()

    def _addr(self, base: int, row: int, col: int) -> int:
        return base + (row * self.grid + col) * _WORD

    def initialize(self, memory, os_runtime):
        rng = self.rng
        for row in range(self.grid):
            for col in range(self.grid):
                memory.write(self._addr(self._a, row, col), _WORD,
                             rng.randrange(1 << 12))

    def _rows_for(self, tid: int):
        """Contiguous row bands (as SPLASH-2 ocean partitions): only the
        band-boundary rows are shared with the neighbouring thread."""
        interior = self.grid - 2
        start = 1 + tid * interior // self.nthreads
        end = 1 + (tid + 1) * interior // self.nthreads
        return list(range(start, end))

    def thread_programs(self, apis):
        return [self._thread(apis[tid], tid) for tid in range(self.nthreads)]

    def _thread(self, api, tid):
        rows = self._rows_for(tid)
        src, dst = self._a, self._b
        for _sweep in range(self.sweeps):
            for row in rows:
                # Five-point stencil accumulated into the centre register
                # (the natural x86 shape: each neighbour folds in as it
                # is loaded).
                for col in range(1, self.grid - 1):
                    yield from api.loop_overhead(5)
                    center = yield from api.load(R0, self._addr(src, row, col))
                    yield from api.load(R1, self._addr(src, row - 1, col))
                    yield from api.alu(R0, R0, R1)
                    yield from api.load(R1, self._addr(src, row + 1, col))
                    yield from api.alu(R0, R0, R1)
                    yield from api.load(R1, self._addr(src, row, col - 1))
                    yield from api.alu(R0, R0, R1)
                    yield from api.load(R1, self._addr(src, row, col + 1))
                    yield from api.alu(R0, R0, R1)
                    yield from api.store(self._addr(dst, row, col), R0,
                                         value=(center * 3 + 1) & 0xFFFF)
            yield from self._barrier.wait(api)
            src, dst = dst, src
