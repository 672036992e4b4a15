"""Records: one dynamic instruction, from the kernel that yields it to
the lifeguard that processes it.

A :class:`Record` is one retired instruction of the monitored
application and the unit of the per-thread event streams (Section 5.1).
The factories below build it; order capture stamps the thread id, the
record id (the per-core retired-instruction counter) and the commit time
on the same object, attaches any incoming dependence arcs
``(src_tid, src_rid)``, ConflictAlert linkage and TSO version
annotations, and the lifeguard core pops that object from the log. The
kinds mirror the event classes of Figure 1 in the paper:

* memory accesses (``LOAD``/``STORE``/``RMW``) — check + update events,
* data movement (``MOVRR``) and computation (``ALU``/``LOADI``) — update
  events consumed by Inheritance Tracking,
* security-critical uses (``CRITICAL_USE``) — check events,
* high-level wrapper-library events (``HL_BEGIN``/``HL_END`` around
  ``malloc``/``free``/system calls/locks) — rare events that may also
  trigger ConflictAlert broadcasts,
* ``CA_MARK`` — the ConflictAlert record capture injects into the other
  threads' streams; no kernel yields one.

Values are carried by the workload's Python code: a ``STORE`` carries
the value to write, and the core ``send()``s load results back into the
workload generator. Register indices carry no values — they exist so
metadata (taint, initialized-ness) can be tracked per register.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.common.errors import WorkloadError
from repro.isa.registers import NUM_REGISTERS


class RecordKind(enum.IntEnum):
    """Record kinds in the event stream."""

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
    CA_MARK = 20


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
_LOAD = RecordKind.LOAD
_STORE = RecordKind.STORE
_RMW = RecordKind.RMW
_MOVRR = RecordKind.MOVRR
_ALU = RecordKind.ALU
_LOADI = RecordKind.LOADI
_NOP = RecordKind.NOP
_CRITICAL_USE = RecordKind.CRITICAL_USE

_MEMORY_KINDS = frozenset({_LOAD, _STORE, _RMW})
_WRITE_KINDS = frozenset({_STORE, _RMW})
_VALID_SIZES = frozenset({1, 2, 4, 8})


class Record:
    """One dynamic instruction and its event-stream record.

    A factory leaves ``tid`` and ``rid`` None; capture stamps them when
    the instruction retires. Only the fields relevant to the kind are
    populated. Instances are created at very high rates, hence
    ``__slots__`` and the thin factory functions below instead of a
    dataclass.
    """

    __slots__ = (
        "tid",
        "rid",
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
        "arcs",
        "reduced_arcs",
        "ca_id",
        "ca_issuer",
        "consume_version",
        "produce_versions",
        "commit_time",
    )

    def __init__(self, tid: Optional[int], rid: Optional[int],
                 kind: RecordKind, rd=None, rs1=None, rs2=None, addr=None,
                 size=None, value=None, hl_kind=None, ranges=(),
                 critical_kind=None):
        self.tid = tid
        self.rid = rid
        self.kind = kind
        self.rd: Optional[int] = rd
        self.rs1: Optional[int] = rs1
        self.rs2: Optional[int] = rs2
        self.addr: Optional[int] = addr
        self.size: Optional[int] = size
        #: The value a STORE or RMW writes, or a NOP's pause cycles (None
        #: in a decoded archive: the log carries no values).
        self.value: Optional[int] = value
        self.hl_kind = hl_kind
        self.ranges: Tuple = ranges
        self.critical_kind: Optional[str] = critical_kind
        #: Incoming dependence arcs: list of (src_tid, src_rid).
        self.arcs: Optional[List[Tuple[int, int]]] = None
        #: Arcs dropped by RTR transitive reduction (already implied by
        #: an earlier arc from the same source). Only populated on
        #: ``keep_trace`` runs, so archive writers can honestly measure
        #: a naive full-arc encoding against the reduced one.
        self.reduced_arcs: Optional[List[Tuple[int, int]]] = None
        #: ConflictAlert id this record participates in (CA_MARK records
        #: and the HL records of the issuing thread).
        self.ca_id: Optional[int] = None
        #: True on the issuing thread's HL record, False on CA_MARK copies.
        self.ca_issuer: bool = False
        #: TSO: version id whose metadata this (load) record must consume.
        self.consume_version = None
        #: TSO: version ids (with address ranges) this (store) record must
        #: produce before updating metadata: list of (version_id, addr, size).
        self.produce_versions: Optional[List] = None
        #: Simulated time at which the record entered the log (set by the
        #: order-capture component; used by the sequential oracle).
        self.commit_time: Optional[int] = None

    @property
    def is_memory(self) -> bool:
        return self.kind in _MEMORY_KINDS

    @property
    def is_write(self) -> bool:
        return self.kind in _WRITE_KINDS

    def add_arc(self, src_tid: int, src_rid: int) -> None:
        if self.arcs is None:
            self.arcs = []
        self.arcs.append((src_tid, src_rid))

    def add_reduced_arc(self, src_tid: int, src_rid: int) -> None:
        """Remember an arc that transitive reduction dropped."""
        if self.reduced_arcs is None:
            self.reduced_arcs = []
        self.reduced_arcs.append((src_tid, src_rid))

    def __repr__(self):
        where = "" if self.rid is None else f"t{self.tid} #{self.rid} "
        extra = ""
        if self.addr is not None:
            extra += f" addr={self.addr:#x}"
        if self.arcs:
            extra += f" arcs={self.arcs}"
        if self.hl_kind is not None:
            extra += f" hl={self.hl_kind.name}"
        return f"Record({where}{self.kind.name}{extra})"


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


def load(rd: int, addr: int, size: int = 4) -> Record:
    """``rd <- [addr]``; the core sends the loaded value back to the generator."""
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    if not (type(addr) is int and type(size) is int and size in _VALID_SIZES
            and addr >= 0 and not addr % size):
        _check_access(addr, size)
    return Record(None, None, _LOAD, rd, None, None, addr, size)


def store(addr: int, rs: int, value: int = 0, size: int = 4) -> Record:
    """``[addr] <- rs`` (value carried alongside for the value store)."""
    if not (type(rs) is int and 0 <= rs < NUM_REGISTERS):
        _check_reg("rs", rs)
    if not (type(addr) is int and type(size) is int and size in _VALID_SIZES
            and addr >= 0 and not addr % size):
        _check_access(addr, size)
    return Record(None, None, _STORE, None, rs, None, addr, size, value)


def rmw(rd: int, addr: int, value: int, size: int = 4) -> Record:
    """Atomic exchange: ``rd <- [addr]; [addr] <- value``."""
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    if not (type(addr) is int and type(size) is int and size in _VALID_SIZES
            and addr >= 0 and not addr % size):
        _check_access(addr, size)
    return Record(None, None, _RMW, rd, None, None, addr, size, value)


def movrr(rd: int, rs: int) -> Record:
    """Register-to-register copy (pure data movement)."""
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    if not (type(rs) is int and 0 <= rs < NUM_REGISTERS):
        _check_reg("rs", rs)
    return Record(None, None, _MOVRR, rd, rs)


def alu(rd: int, rs1: int, rs2: int = None) -> Record:
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
    return Record(None, None, _ALU, rd, rs1, rs2)


def loadi(rd: int) -> Record:
    """Load immediate: ``rd <- constant`` (clears inherited metadata)."""
    if not (type(rd) is int and 0 <= rd < NUM_REGISTERS):
        _check_reg("rd", rd)
    return Record(None, None, _LOADI, rd)


def nop() -> Record:
    """No-op (``value`` may carry a spin-pause cycle count)."""
    return Record(None, None, _NOP)


def critical_use(rs: int, kind: str = "jump") -> Record:
    """Security-critical use of a register (indirect jump target,
    ``printf`` format pointer, ...). TaintCheck flags this when ``rs``
    is tainted."""
    if not (type(rs) is int and 0 <= rs < NUM_REGISTERS):
        _check_reg("rs", rs)
    return Record(None, None, _CRITICAL_USE, None, rs, critical_kind=kind)


def hl_begin(kind: HLEventKind, ranges=None) -> Record:
    """Wrapper-library marker: a high-level event begins.

    ``ranges`` is a tuple of ``(start_addr, length)`` pairs describing
    the affected memory (the optional memory-range parameters of
    Section 5.4).
    """
    return Record(None, None, RecordKind.HL_BEGIN, hl_kind=kind,
                  ranges=tuple(ranges or ()))


def hl_end(kind: HLEventKind, ranges=None) -> Record:
    """Wrapper-library marker: a high-level event ends."""
    return Record(None, None, RecordKind.HL_END, hl_kind=kind,
                  ranges=tuple(ranges or ()))


def thread_exit() -> Record:
    """Thread-termination marker (appended by the core, not workloads)."""
    return Record(None, None, RecordKind.THREAD_EXIT)
