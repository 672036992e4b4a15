"""Lifeguard framework.

A lifeguard consumes *delivered events* and updates shared metadata.
Delivered events are plain tuples produced by the consumer pipeline
(after Inheritance Tracking); the vocabulary is:

==========================  =====================================================
``("load", rec)``           plain load (IT disabled or non-inheriting)
``("store", rec)``          plain store
``("rmw", rec)``            atomic exchange (read old metadata, clear)
``("movrr", rec)``          register copy
``("alu", rec)``            computation (1- or 2-source)
``("loadi", rec)``          immediate load
``("critical", rec)``       security-critical register use
``("hl", rec)``             high-level event (HL_BEGIN / HL_END record)
``("reg_inherit", tid, reg, sources, live_regs)``
                            IT row flush: ``reg``'s metadata is the OR of the
                            ``(addr, size)`` sources' metadata and the current
                            metadata of the ``live_regs`` (both may be empty:
                            an immediate).
``("mem_inherit", dst, size, sources, live_regs, rec)``
                            IT-condensed store: metadata(dst) is the same OR.
``("load_versioned", rec, (base, len, snap))``  TSO versioned-metadata load
==========================  =====================================================

``handle()`` applies the event's *semantic* metadata effect in Python
and returns ``(cost, accesses)``: the handler-body instruction cost
(the dispatch and metadata-address-computation costs are charged by the
pipeline) and the application-address ranges whose metadata the handler
touches, for cache-timing simulation.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.capture.events import Record, RecordKind
from repro.common.config import LifeguardCostConfig
from repro.isa.instructions import HLEventKind, HLPhase
from repro.isa.registers import NUM_REGISTERS
from repro.lifeguards.metadata import MetadataMap

#: Cap on how many *timed* metadata accesses a range handler issues; the
#: semantic update always covers the full range.
MAX_TIMED_RANGE_ACCESSES = 8

#: Cap on recorded violations (reports stay bounded on buggy runs).
MAX_VIOLATIONS = 1000


class Violation:
    """One detected error, as a lifeguard would report it."""

    __slots__ = ("lifeguard", "kind", "tid", "rid", "detail")

    def __init__(self, lifeguard: str, kind: str, tid: int, rid: Optional[int],
                 detail: str):
        self.lifeguard = lifeguard
        self.kind = kind
        self.tid = tid
        self.rid = rid
        self.detail = detail

    def __repr__(self):
        return (f"Violation({self.lifeguard}: {self.kind} t{self.tid}"
                f"#{self.rid} {self.detail})")


class Lifeguard:
    """Base class; subclasses implement the handler table."""

    #: Short identifier ("taintcheck", ...).
    name = "lifeguard"
    #: Shadow bits per application byte.
    bits_per_app_byte = 1
    #: Must the consumer enforce instruction-level dependence arcs?
    #: (False for lifeguards, like AddrCheck, whose metadata only changes
    #: on high-level events — CA barriers alone order those.)
    needs_instruction_arcs = True
    #: Which accelerators this lifeguard benefits from.
    uses_it = False
    uses_if = False
    uses_mtlb = True
    #: Do IF entries need RID tagging for delayed advertising?
    if_track_rids = False
    #: Do local writes invalidate overlapping IF entries?
    if_invalidate_on_write = False
    #: Are the wrapper library's allocator-internal memory accesses
    #: monitored? Heap checkers treat the allocator like Valgrind's
    #: replacement malloc — invisible; propagation trackers follow data
    #: through it.
    monitors_allocator_internals = True
    #: High-level events that must be ConflictAlert-broadcast:
    #: frozenset of (HLEventKind, HLPhase).
    ca_subscriptions: FrozenSet = frozenset()
    #: CA record kinds that flush accelerator state.
    ca_flush_it: FrozenSet = frozenset()
    ca_invalidate_if: FrozenSet = frozenset()
    ca_flush_mtlb: FrozenSet = frozenset()

    def __init__(self, costs: LifeguardCostConfig = None,
                 heap_range: Tuple[int, int] = None):
        self.costs = costs or LifeguardCostConfig()
        self.heap_range = heap_range
        self.metadata = MetadataMap(self.bits_per_app_byte)
        self.registers = {}  # tid -> list of per-register metadata values
        self.violations: List[Violation] = []
        #: Shared syscall range table, injected by the platform.
        self.range_table = None
        #: Event kinds that fell through to the terminal default return.
        #: ``wants()`` and ``handle()`` must agree: every kind a lifeguard
        #: registers for has to reach a real handler arm, otherwise the
        #: event is silently dropped at full dispatch cost (the LockSet
        #: TSO ``load_versioned`` bug). The parity test asserts this set
        #: stays empty for every wanted event kind.
        self.unhandled_kinds = set()

    # -- subclass contract ---------------------------------------------------------

    def handle(self, event: tuple) -> Tuple[int, list]:
        """Apply one delivered event; returns (cost, timed accesses)."""
        raise NotImplementedError

    def wants(self, event: tuple) -> bool:
        """Does this lifeguard register a handler for the event?

        The event-delivery hardware only invokes handlers the lifeguard
        registered (and supports address-range filters), so unwanted
        events cost nothing beyond decompression. Default: everything.
        """
        return True

    def if_key(self, event: tuple):
        """Idempotent-Filter key for a filterable check event (or None)."""
        return None

    def unhandled(self, event: tuple) -> Tuple[int, list]:
        """Terminal default for ``handle()``: no registered handler arm.

        Subclasses route their final fall-through here instead of a bare
        ``return (1, [])`` so tests can detect a ``wants()``/``handle()``
        mismatch — an event kind the lifeguard subscribed to but silently
        drops.
        """
        self.unhandled_kinds.add(event[0])
        return (1, [])

    # -- shared helpers -------------------------------------------------------------

    def regs(self, tid: int) -> list:
        registers = self.registers.get(tid)
        if registers is None:
            registers = [0] * NUM_REGISTERS
            self.registers[tid] = registers
        return registers

    def in_heap(self, addr: int) -> bool:
        if self.heap_range is None:
            return True
        start, end = self.heap_range
        return start <= addr < end

    def violation(self, kind: str, tid: int, rid: Optional[int],
                  detail: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(Violation(self.name, kind, tid, rid, detail))

    def range_cost(self, length: int) -> int:
        """Handler cost of a metadata update over ``length`` bytes."""
        lines = max(1, (length + 63) // 64)
        return (self.costs.highlevel_base_cost
                + self.costs.highlevel_cost_per_line * min(lines, 64))

    def timed_range_accesses(self, addr: int, length: int,
                             is_write: bool) -> list:
        """Per-line timed accesses over a range, capped for simulation cost."""
        accesses = []
        line = addr - (addr % 64)
        end = addr + length
        while line < end and len(accesses) < MAX_TIMED_RANGE_ACCESSES:
            remaining = end - line
            accesses.append((line, 8 if remaining >= 8 else 1, is_write))
            line += 64
        return accesses

    # -- TSO versioned metadata -------------------------------------------------------

    def snapshot_metadata(self, app_addr: int, length: int):
        """Copy metadata for a produce_version annotation."""
        return self.metadata.snapshot_range(app_addr, length)

    # -- reporting ----------------------------------------------------------------------

    def report(self) -> List[Violation]:
        return list(self.violations)

    def metadata_fingerprint(self) -> dict:
        """Exact semantic state, for comparing runs against the oracle."""
        return {
            "memory": dict(self.metadata.nonzero_items()),
            "registers": {
                tid: list(regs) for tid, regs in sorted(self.registers.items())
            },
            "violation_kinds": sorted(
                {(v.kind, v.tid) for v in self.violations}
            ),
        }


def hl_phase_of(record: Record) -> HLPhase:
    """The phase of an HL record or CA mark."""
    if record.kind == RecordKind.CA_MARK:
        return HLPhase.BEGIN if record.critical_kind == "begin" else HLPhase.END
    return HLPhase.BEGIN if record.kind == RecordKind.HL_BEGIN else HLPhase.END


#: Convenience alias used by lifeguard subscription declarations.
HL = HLEventKind
