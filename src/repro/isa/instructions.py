"""Micro-op definitions.

A :class:`MicroOp` is one dynamic instruction of the monitored
application. The set mirrors the event classes of Figure 1 in the paper:

* memory accesses (``LOAD``/``STORE``/``RMW``) — check + update events,
* data movement (``MOVRR``) and computation (``ALU``/``LOADI``) — update
  events consumed by Inheritance Tracking,
* security-critical uses (``CRITICAL_USE``) — check events,
* high-level wrapper-library events (``HL_BEGIN``/``HL_END`` around
  ``malloc``/``free``/system calls/locks) — rare events that may also
  trigger ConflictAlert broadcasts.

Values are carried by the workload's Python code: a ``STORE`` op carries
the value to write, and the core ``send()``s load results back into the
workload generator. Register indices carry no values — they exist so
metadata (taint, initialized-ness) can be tracked per register.
"""

from __future__ import annotations

import enum

from repro.common.errors import WorkloadError
from repro.isa.registers import NUM_REGISTERS


class OpKind(enum.IntEnum):
    """Dynamic micro-op kinds."""

    LOAD = 1
    STORE = 2
    RMW = 3  # atomic exchange: rd <- [addr]; [addr] <- value
    MOVRR = 4
    ALU = 5
    LOADI = 6
    NOP = 7
    CRITICAL_USE = 8
    HL_BEGIN = 9
    HL_END = 10
    THREAD_EXIT = 11


class HLEventKind(enum.IntEnum):
    """High-level (wrapper-library / system-call) event kinds."""

    MALLOC = 1
    FREE = 2
    SYSCALL_READ = 3
    SYSCALL_WRITE = 4
    SYSCALL_OTHER = 5
    LOCK = 6
    UNLOCK = 7
    THREAD_START = 8


class HLPhase(enum.IntEnum):
    """Whether a high-level event record marks its begin or its end."""

    BEGIN = 0
    END = 1


# Enum member lookups through the class cost ~0.2 us each on CPython
# 3.11; the factories below run once per dynamic instruction, so they
# read these module-level aliases instead.
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_RMW = OpKind.RMW
_MOVRR = OpKind.MOVRR
_ALU = OpKind.ALU
_LOADI = OpKind.LOADI
_NOP = OpKind.NOP
_CRITICAL_USE = OpKind.CRITICAL_USE

_MEMORY_KINDS = frozenset({_LOAD, _STORE, _RMW})
_VALID_SIZES = frozenset({1, 2, 4, 8})


class MicroOp:
    """One dynamic instruction.

    Only the fields relevant to the op kind are populated; the rest stay
    ``None``. Instances are created at very high rates, hence
    ``__slots__`` and the thin factory functions below instead of a
    dataclass.
    """

    __slots__ = (
        "kind",
        "rd",
        "rs1",
        "rs2",
        "addr",
        "size",
        "value",
        "hl_kind",
        "ranges",
        "critical_kind",
    )

    def __init__(self, kind, rd=None, rs1=None, rs2=None, addr=None, size=None,
                 value=None, hl_kind=None, ranges=None, critical_kind=None):
        self.kind = kind
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.addr = addr
        self.size = size
        self.value = value
        self.hl_kind = hl_kind
        self.ranges = ranges
        self.critical_kind = critical_kind

    @property
    def is_memory(self) -> bool:
        return self.kind in _MEMORY_KINDS

    @property
    def is_write(self) -> bool:
        return self.kind in (_STORE, _RMW)

    def __repr__(self):
        parts = [self.kind.name]
        if self.rd is not None:
            parts.append(f"rd={self.rd}")
        if self.rs1 is not None:
            parts.append(f"rs1={self.rs1}")
        if self.rs2 is not None:
            parts.append(f"rs2={self.rs2}")
        if self.addr is not None:
            parts.append(f"addr={self.addr:#x}")
        if self.size is not None:
            parts.append(f"size={self.size}")
        if self.hl_kind is not None:
            parts.append(f"hl={self.hl_kind.name}")
        return f"MicroOp({' '.join(parts)})"


# The factories run once per dynamic instruction, so each tests its
# operands inline and calls a checker below only when that test fails.
# A register, address or size must be an ``int`` and not a ``bool``;
# ``type(x) is int`` tests both. An aligned 1/2/4/8-byte access never
# crosses a 64-byte line, so the inline access test needs no line
# arithmetic.


def _check_reg(name: str, reg) -> None:
    """Reject register operand ``name`` unless it is an in-range int."""
    if type(reg) is not int:
        raise WorkloadError(
            f"register operand {name} must be an int, got {reg!r}")
    if not 0 <= reg < NUM_REGISTERS:
        raise WorkloadError(f"register index {reg} out of range")


def _check_access(addr, size, line_bytes: int = 64) -> None:
    """Reject a memory access the simulated caches cannot serve."""
    if type(addr) is not int:
        raise WorkloadError(f"address must be an int, got {addr!r}")
    if type(size) is not int:
        raise WorkloadError(f"access size must be an int, got {size!r}")
    if size not in _VALID_SIZES:
        raise WorkloadError(f"unsupported access size {size}")
    if addr < 0:
        raise WorkloadError(f"negative address {addr:#x}")
    if addr % size:
        raise WorkloadError(f"unaligned access: addr={addr:#x} size={size}")
    if (addr // line_bytes) != ((addr + size - 1) // line_bytes):
        raise WorkloadError(f"access crosses a cache line: addr={addr:#x} size={size}")


def load(rd: int, addr: int, size: int = 4) -> MicroOp:
    """``rd <- [addr]``; the core sends the loaded value back to the generator."""
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    if not (type(addr) is int and type(size) is int and size in _VALID_SIZES
            and addr >= 0 and not addr % size):
        _check_access(addr, size)
    return MicroOp(_LOAD, rd, None, None, addr, size)


def store(addr: int, rs: int, value: int = 0, size: int = 4) -> MicroOp:
    """``[addr] <- rs`` (value carried alongside for the value store)."""
    if not (type(rs) is int and 0 <= rs < NUM_REGISTERS):
        _check_reg("rs", rs)
    if not (type(addr) is int and type(size) is int and size in _VALID_SIZES
            and addr >= 0 and not addr % size):
        _check_access(addr, size)
    return MicroOp(_STORE, None, rs, None, addr, size, value)


def rmw(rd: int, addr: int, value: int, size: int = 4) -> MicroOp:
    """Atomic exchange: ``rd <- [addr]; [addr] <- value``."""
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    if not (type(addr) is int and type(size) is int and size in _VALID_SIZES
            and addr >= 0 and not addr % size):
        _check_access(addr, size)
    return MicroOp(_RMW, rd, None, None, addr, size, value)


def movrr(rd: int, rs: int) -> MicroOp:
    """Register-to-register copy (pure data movement)."""
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    if not (type(rs) is int and 0 <= rs < NUM_REGISTERS):
        _check_reg("rs", rs)
    return MicroOp(_MOVRR, rd, rs)


def alu(rd: int, rs1: int, rs2: int = None) -> MicroOp:
    """Computation: ``rd <- op(rs1[, rs2])``.

    A unary ALU op (``rs2 is None``) propagates metadata like a move; a
    binary op merges the metadata of both sources.
    """
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    if not (type(rs1) is int and 0 <= rs1 < NUM_REGISTERS):
        _check_reg("rs1", rs1)
    if rs2 is not None and not (type(rs2) is int
                                and 0 <= rs2 < NUM_REGISTERS):
        _check_reg("rs2", rs2)
    return MicroOp(_ALU, rd, rs1, rs2)


def loadi(rd: int) -> MicroOp:
    """Load immediate: ``rd <- constant`` (clears inherited metadata)."""
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    return MicroOp(_LOADI, rd)


def nop() -> MicroOp:
    """No-op (``value`` may carry a spin-pause cycle count)."""
    return MicroOp(_NOP)


def critical_use(rs: int, kind: str = "jump") -> MicroOp:
    """Security-critical use of a register (indirect jump target,
    ``printf`` format pointer, ...). TaintCheck flags this when ``rs``
    is tainted."""
    if not (type(rs) is int and 0 <= rs < NUM_REGISTERS):
        _check_reg("rs", rs)
    return MicroOp(_CRITICAL_USE, None, rs, None, None, None, None, None,
                   None, kind)


def hl_begin(kind: HLEventKind, ranges=None) -> MicroOp:
    """Wrapper-library marker: a high-level event begins.

    ``ranges`` is a tuple of ``(start_addr, length)`` pairs describing
    the affected memory (the optional memory-range parameters of
    Section 5.4).
    """
    return MicroOp(OpKind.HL_BEGIN, hl_kind=kind, ranges=tuple(ranges or ()))


def hl_end(kind: HLEventKind, ranges=None) -> MicroOp:
    """Wrapper-library marker: a high-level event ends."""
    return MicroOp(OpKind.HL_END, hl_kind=kind, ranges=tuple(ranges or ()))


def thread_exit() -> MicroOp:
    """Thread-termination marker (appended by the core, not workloads)."""
    return MicroOp(OpKind.THREAD_EXIT)
