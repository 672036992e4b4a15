"""Lifeguard framework.

A lifeguard is a table of event handlers. The class attribute
``handler_names`` maps a *key* to the name of a method
``handler(event) -> (cost, accesses)``, and the delivery hardware
invokes only the handlers a lifeguard registered (paper Section 2): an
event whose key has no entry is dropped before dispatch and costs
nothing beyond decompression. ``handlers`` binds the table to the
instance (key -> bound method); a delivery loop reads it once, before
its first event. The lifeguard never stores the bound table: each bound
method refers back to the lifeguard, and that cycle would keep a
finished run's lifeguard alive until the cyclic garbage collector ran.
Delivered events are plain tuples produced by the consumer pipeline
(after Inheritance Tracking); register a key to receive its events:

============================  ===================================================
register a key                to receive
============================  ===================================================
``"load"``                    ``("load", rec)``: plain load (IT disabled or
                              non-inheriting)
``"store"``                   ``("store", rec)``: plain store
``"rmw"``                     ``("rmw", rec)``: atomic exchange (read old
                              metadata, clear)
``"movrr"``                   ``("movrr", rec)``: register copy
``"alu"``                     ``("alu", rec)``: computation (1- or 2-source)
``"loadi"``                   ``("loadi", rec)``: immediate load
``"critical"``                ``("critical", rec)``: security-critical register
                              use
``"load_check"``              ``("load_check", rec)``: the check half of a load
                              IT absorbed (its propagation is deferred)
``"reg_inherit"``             ``("reg_inherit", tid, reg, sources, live_regs)``:
                              IT row flush; ``reg``'s metadata is the OR of the
                              ``(addr, size)`` sources' metadata and the current
                              metadata of the ``live_regs`` (both may be empty:
                              an immediate)
``"mem_inherit"``             ``("mem_inherit", dst, size, sources, live_regs,
                              rec)``: IT-condensed store; metadata(dst) is the
                              same OR
``"load_versioned"``          ``("load_versioned", rec, (base, len, snap))``: TSO
                              load against the metadata version it is ordered
                              with
an :class:`HLEventKind`       ``("hl", rec)`` whose ``rec.hl_kind`` is that
                              kind, for both phases (HL_BEGIN and HL_END)
============================  ===================================================

A handler applies the event's *semantic* metadata effect in Python and
returns ``(cost, accesses)``: the handler-body instruction cost (the
dispatch and metadata-address-computation costs are charged by the
pipeline) and the application-address ranges whose metadata the handler
touches, for cache-timing simulation.

A lifeguard declares no accelerator switches: the lifeguard core derives
its wiring from what the lifeguard already declares. With acceleration
on, the M-TLB serves every lifeguard; the Idempotent Filter caches the
checks ``if_key`` names; Inheritance Tracking runs iff the table
registers ``"reg_inherit"`` (its flushes arrive as those events). Every
``ca_subscriptions`` event, own or remote, empties the filter, and every
``ca_flush_it`` event flushes IT.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

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


class RegisterRows(dict):
    """tid -> that thread's list of per-register metadata values.

    Indexing a thread that has no row yet creates its all-zero row, so
    a handler reads and writes ``registers[tid][reg]`` directly. It is a
    plain dict otherwise (equality, iteration, ``get``).
    """

    __slots__ = ()

    def __missing__(self, tid: int) -> list:
        row = self[tid] = [0] * NUM_REGISTERS
        return row


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
    #: Do IF entries depend on metadata that stores change? Then a local
    #: write invalidates the overlapping entries, and each entry is
    #: tagged with its RID for delayed advertising against remote ones.
    if_track_rids = False
    #: Are the wrapper library's allocator-internal memory accesses
    #: monitored? Heap checkers treat the allocator like Valgrind's
    #: replacement malloc — invisible; propagation trackers follow data
    #: through it.
    monitors_allocator_internals = True
    #: High-level events that must be ConflictAlert-broadcast:
    #: frozenset of (HLEventKind, HLPhase). Each one, own or remote,
    #: also empties the Idempotent Filter.
    ca_subscriptions: FrozenSet = frozenset()
    #: High-level events, own or remote, that flush IT state.
    ca_flush_it: FrozenSet = frozenset()
    #: The handler table (see the module docstring): key -> handler
    #: method name.
    handler_names: Dict[object, str] = {}

    def __init__(self, costs: LifeguardCostConfig = None,
                 heap_range: Tuple[int, int] = None):
        self.costs = costs or LifeguardCostConfig()
        #: ``costs.handler_body_cost`` (the config is frozen).
        self._body_cost = self.costs.handler_body_cost
        self.heap_range = heap_range
        self.metadata = MetadataMap(self.bits_per_app_byte)
        self.registers = RegisterRows()
        self.violations: List[Violation] = []
        #: Shared syscall range table, injected by the platform.
        self.range_table = None
        #: The delivery hardware's address-range filter: ``(start, end)``
        #: or None. A registered instruction event whose record address
        #: lies outside it is dropped before dispatch, exactly like an
        #: event without a handler. A lifeguard sets it from its own
        #: state (AddrCheck: the heap) and then registers only
        #: memory-access instruction keys, whose events carry that record.
        self.delivery_range: Optional[Tuple[int, int]] = None

    @property
    def handlers(self) -> Dict[object, Callable[[tuple], Tuple[int, list]]]:
        """``handler_names`` bound to this lifeguard: key -> handler.

        Built on each access; a delivery loop reads it once and keeps
        the table for as long as it delivers.
        """
        return {key: getattr(self, name)
                for key, name in self.handler_names.items()}

    def handle(self, event: tuple) -> Tuple[int, list]:
        """Apply one delivered event through the table; returns (cost,
        timed accesses).

        The generic entry for callers outside the delivery loops (which
        bind ``handlers`` themselves). Raises ``KeyError`` for an event
        without a registered handler; ``delivery_range`` is not applied.
        """
        return getattr(self, self.handler_names[event_key(event)])(event)

    def if_key(self, event: tuple):
        """Idempotent-Filter key for a filterable check event (or None)."""
        return None

    # -- shared helpers -------------------------------------------------------------

    def regs(self, tid: int) -> list:
        """Thread ``tid``'s register row (handlers index ``registers``)."""
        return self.registers[tid]

    def in_heap(self, addr: int) -> bool:
        if self.heap_range is None:
            return True
        start, end = self.heap_range
        return start <= addr < end

    def violation(self, kind: str, tid: int, rid: Optional[int],
                  detail: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(Violation(self.name, kind, tid, rid, detail))

    def hl_nop(self, event: tuple) -> Tuple[int, list]:
        """Handler for a registered high-level event that changes nothing."""
        return (2, [])

    def copy_register(self, event: tuple) -> Tuple[int, list]:
        """``movrr``: the destination register takes the source's metadata."""
        rec = event[1]
        regs = self.registers[rec.tid]
        regs[rec.rd] = regs[rec.rs1]
        return (1, [])

    def fill_ranges(self, ranges, value: int) -> Tuple[int, list]:
        """Set the metadata of every byte of ``ranges`` to ``value``;
        returns the high-level handler's (cost, timed accesses)."""
        cost = 0
        accesses = []
        for start, length in ranges:
            self.metadata.set_range(start, length, value)
            cost += self.range_cost(length)
            accesses.extend(self.timed_range_accesses(start, length, True))
        return (cost or 2, accesses)

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


def event_key(event: tuple):
    """The handler-table key of a delivered event: its kind, or for an
    ``hl`` event the record's high-level kind."""
    return event[1].hl_kind if event[0] == "hl" else event[0]


def hl_phase_of(record: Record) -> HLPhase:
    """The phase of an HL record or CA mark."""
    if record.kind == RecordKind.CA_MARK:
        return HLPhase.BEGIN if record.critical_kind == "begin" else HLPhase.END
    return HLPhase.BEGIN if record.kind == RecordKind.HL_BEGIN else HLPhase.END


#: Convenience alias used by lifeguard subscription declarations.
HL = HLEventKind
