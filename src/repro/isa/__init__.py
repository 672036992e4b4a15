"""Micro-op instruction set and the workload program DSL.

Workload kernels are Python generators that *yield* :class:`Record`
objects — the dynamic instruction trace of one application thread. The
simulated core retires one micro-op at a time, sending load results back
into the generator, so workload control flow (loops, branches, lock
spins) runs in ordinary Python while the *memory and register behaviour*
is fully visible to the monitoring hardware. Capture stamps each yielded
record in place, and it is the record the lifeguard processes.
"""

from repro.isa.instructions import (
    HLEventKind,
    HLPhase,
    Record,
    RecordKind,
    alu,
    critical_use,
    hl_begin,
    hl_end,
    load,
    loadi,
    movrr,
    nop,
    rmw,
    store,
)
from repro.isa.registers import NUM_REGISTERS, R0, R1, R2, R3, R4, R5, R6, R7
from repro.isa.program import Barrier, SpinLock, ThreadApi

__all__ = [
    "Barrier",
    "HLEventKind",
    "HLPhase",
    "NUM_REGISTERS",
    "R0",
    "R1",
    "R2",
    "R3",
    "R4",
    "R5",
    "R6",
    "R7",
    "Record",
    "RecordKind",
    "SpinLock",
    "ThreadApi",
    "alu",
    "critical_use",
    "hl_begin",
    "hl_end",
    "load",
    "loadi",
    "movrr",
    "nop",
    "rmw",
    "store",
]
