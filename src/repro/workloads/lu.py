"""lu (SPLASH-2): blocked dense LU factorization.

Signature reproduced: a regular, matrix-oriented instruction mix (loads,
a couple of ALU ops, a store — cheap lifeguard handlers, the paper notes
LU invokes much cheaper TaintCheck processing than barnes), barrier
synchronization after every elimination step, and read-sharing of the
pivot row across all threads (producer-to-all arcs once per step).
"""

from __future__ import annotations

from repro.common.config import ScalePreset
from repro.isa.registers import R0, R1, R2
from repro.workloads.base import Workload

_WORD = 4


class LU(Workload):
    """Blocked dense LU factorization (SPLASH-2 lu)."""

    name = "lu"

    def __init__(self, nthreads, scale=ScalePreset.TINY, seed=1):
        super().__init__(nthreads, scale, seed)
        self.n = self.sized(tiny=20, small=32, paper=96)
        matrix_bytes = self.n * self.n * _WORD
        self._matrix = self.galloc_lines((matrix_bytes + 63) // 64)
        self._barrier = self.make_barrier()

    def _addr(self, row: int, col: int) -> int:
        return self._matrix + (row * self.n + col) * _WORD

    def initialize(self, memory, os_runtime):
        rng = self.rng
        for row in range(self.n):
            for col in range(self.n):
                memory.write(self._addr(row, col), _WORD,
                             rng.randrange(1, 1 << 16))

    def thread_programs(self, apis):
        return [self._thread(apis[tid], tid) for tid in range(self.nthreads)]

    def _owner(self, row: int) -> int:
        """Static contiguous-band row ownership (as blocked SPLASH-2 LU
        does); bands keep each thread's metadata on private cache lines."""
        return min(self.nthreads - 1, (row - 1) * self.nthreads // (self.n - 1))

    def _thread(self, api, tid):
        n = self.n
        for k in range(n - 1):
            for i in range(k + 1, n):
                if self._owner(i) != tid:
                    continue
                pivot = yield from api.load(R0, self._addr(k, k))
                lead = yield from api.load(R1, self._addr(i, k))
                yield from api.alu(R2, R1, R0)  # multiplier
                yield from api.store(self._addr(i, k), R2,
                                     value=(lead * 7 + pivot) & 0xFFFF)
                # a[i][j] -= m * a[k][j], in the natural x86 register
                # shape: the pivot-row value folds into the freshly
                # loaded target register, which is stored right back.
                for j in range(k + 1, n):
                    yield from api.loop_overhead(5)
                    upper = yield from api.load(R0, self._addr(k, j))
                    yield from api.alu(R0, R0, R2)
                    current = yield from api.load(R1, self._addr(i, j))
                    yield from api.alu(R1, R1, R0)
                    yield from api.store(self._addr(i, j), R1,
                                         value=(current - upper) & 0xFFFF)
            yield from self._barrier.wait(api)
