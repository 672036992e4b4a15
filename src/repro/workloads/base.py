"""Workload framework.

A workload instantiates per-thread kernel generators over the micro-op
DSL. The eight shipped kernels are synthetic stand-ins for the paper's
SPLASH-2/PARSEC benchmarks (Table 1), each engineered to match its
original's *monitoring-relevant signature*: instruction mix (how much
lifeguard work per event), inter-thread sharing (dependence-arc and
stall frequency), synchronization style, and high-level event rate
(malloc/free ConflictAlert pressure). DESIGN.md records the mapping.

Scale presets: ``TINY`` for unit tests, ``SMALL`` for the benchmark
harness, ``PAPER`` for long runs approaching the paper's input sizes.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.common.config import ScalePreset
from repro.common.errors import WorkloadError
from repro.cpu.os_model import AddressLayout
from repro.isa.program import Barrier, SpinLock, ThreadApi


class Workload:
    """Base class: global-region allocation and sizing helpers."""

    name = "workload"
    #: Violation kinds this workload legitimately triggers (bug demos).
    expected_violation_kinds = frozenset()

    def __init__(self, nthreads: int, scale: ScalePreset = ScalePreset.TINY,
                 seed: int = 1):
        if nthreads < 1:
            raise WorkloadError("workload needs at least one thread")
        try:
            self.scale = ScalePreset(scale)  # the enum or its value
        except ValueError:
            raise WorkloadError(
                f"unknown scale {scale!r}; presets: "
                f"{[preset.value for preset in ScalePreset]}") from None
        self.nthreads = nthreads
        self.seed = seed
        self.rng = random.Random(seed)
        self._galloc_next = AddressLayout.GLOBALS_BASE

    # -- sizing -------------------------------------------------------------------

    def sized(self, tiny: int, small: int, paper: int) -> int:
        """Pick a size parameter by scale preset."""
        if self.scale is ScalePreset.TINY:
            return tiny
        if self.scale is ScalePreset.SMALL:
            return small
        return paper

    def thread_rng(self, tid: int) -> random.Random:
        return random.Random((self.seed * 1_000_003) ^ (tid * 7919))

    # -- shared-memory layout ----------------------------------------------------------

    def galloc(self, nbytes: int, align: int = 8) -> int:
        """Allocate ``nbytes`` of global (static) memory."""
        addr = (self._galloc_next + align - 1) // align * align
        self._galloc_next = addr + nbytes
        limit = AddressLayout.GLOBALS_BASE + AddressLayout.GLOBALS_SIZE
        if self._galloc_next > limit:
            raise WorkloadError(f"{self.name}: global region exhausted")
        return addr

    def galloc_lines(self, nlines: int) -> int:
        """Allocate whole cache lines (avoids false sharing by layout)."""
        return self.galloc(nlines * 64, align=64)

    def make_barrier(self) -> Barrier:
        return Barrier(self.galloc(Barrier.FOOTPRINT, align=64), self.nthreads)

    def make_lock(self) -> SpinLock:
        return SpinLock(self.galloc(64, align=64))

    # -- subclass contract ---------------------------------------------------------------

    def initialize(self, memory, os_runtime) -> None:
        """Pre-populate memory values (data structures, pointers)."""

    def thread_programs(self, apis: List[ThreadApi]) -> List:
        """Build one kernel generator per thread."""
        raise NotImplementedError

    # -- description -----------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "threads": self.nthreads,
            "scale": self.scale.value,
            "seed": self.seed,
        }


class CustomWorkload(Workload):
    """A workload built from explicit per-thread kernel functions.

    Each builder is called as ``builder(api, workload)`` and must return
    a kernel generator. Handy for tests and examples that need precise
    control over the instruction stream::

        def kernel(api, workload):
            yield from api.store(workload.galloc_lines(1), R0, value=1)

        workload = CustomWorkload([kernel, kernel])
    """

    name = "custom"

    def __init__(self, builders, scale: ScalePreset = ScalePreset.TINY,
                 seed: int = 1, name: str = "custom",
                 initializer=None):
        super().__init__(len(builders), scale, seed)
        self.name = name
        self._builders = list(builders)
        self._initializer = initializer

    def initialize(self, memory, os_runtime) -> None:
        if self._initializer is not None:
            self._initializer(memory, os_runtime, self)

    def thread_programs(self, apis: List[ThreadApi]) -> List:
        return [builder(api, self)
                for builder, api in zip(self._builders, apis)]
