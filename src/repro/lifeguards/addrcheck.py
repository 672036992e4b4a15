"""AddrCheck: memory-access (allocation) checking.

Follows Nethercote's ADDRCHECK as used in the paper: 1 metadata bit per
application byte recording "allocated". Every heap load/store checks
that all accessed bytes are allocated; ``malloc`` marks its range
allocated, ``free`` clears it. Double frees and frees of unallocated
memory are reported too.

Ordering requirements (Section 6): AddrCheck maps application reads
*and* writes to metadata reads, and its metadata only changes on
high-level allocation events. It therefore needs no instruction-level
arc enforcement at all — the ConflictAlert barriers around malloc/free
provide all required ordering — which is why its "waiting for
dependence" time in Figure 7 comes almost exclusively from CA barriers.
"""

from __future__ import annotations

from repro.isa.instructions import HLEventKind, HLPhase
from repro.lifeguards.base import Lifeguard, hl_phase_of

ALLOCATED = 1
UNALLOCATED = 0


class AddrCheck(Lifeguard):
    """Parallel AddrCheck lifeguard."""

    name = "addrcheck"
    bits_per_app_byte = 1
    needs_instruction_arcs = False
    monitors_allocator_internals = False

    ca_subscriptions = frozenset({
        (HLEventKind.MALLOC, HLPhase.END),
        (HLEventKind.FREE, HLPhase.BEGIN),
    })

    # Memory accesses and allocation events; the delivery range filter
    # (set in __init__) keeps only the heap's accesses.
    handler_names = {
        "load": "_access",
        "store": "_access",
        "rmw": "_access",
        "load_versioned": "_load_versioned",
        HLEventKind.MALLOC: "_malloc",
        HLEventKind.FREE: "_free",
    }

    def __init__(self, costs=None, heap_range=None):
        super().__init__(costs=costs, heap_range=heap_range)
        # Heap memory accesses and allocation events only: the delivery
        # hardware's range filter drops every other access before
        # dispatch (the wrapper library's own allocator bookkeeping never
        # reaches the table: monitors_allocator_internals is False).
        self.delivery_range = heap_range

    # -- handlers ---------------------------------------------------------------

    def _access(self, event):
        rec = event[1]
        if not self.metadata.all_equal(rec.addr, rec.size, ALLOCATED):
            self.violation(
                "unallocated-access", rec.tid, rec.rid,
                f"{event[0]} of {rec.size} bytes at {rec.addr:#x}",
            )
        return (self._body_cost, [(rec.addr, rec.size, False)])

    def _load_versioned(self, event):
        # TSO versioned load: the access check runs against the metadata
        # version the load is ordered with, not the current (possibly
        # already-freed-and-remapped) allocation state.
        rec, (snap_base, _snap_len, snapshot) = event[1], event[2]
        allocated = all(
            0 <= rec.addr + i - snap_base < len(snapshot)
            and snapshot[rec.addr + i - snap_base] == ALLOCATED
            for i in range(rec.size))
        if not allocated:
            self.violation(
                "unallocated-access", rec.tid, rec.rid,
                f"load_versioned of {rec.size} bytes at {rec.addr:#x}",
            )
        return (self._body_cost + 2,
                [(rec.addr, rec.size, False)])

    def if_key(self, event):
        """Heap access checks are idempotent between allocation events.

        The thread id is part of the key: like the IT table, the filter
        is virtualized per thread so the sequential (time-sliced)
        consumer never lets one thread's cached check swallow another
        thread's violation report.
        """
        if event[0] in ("load", "store", "rmw"):
            rec = event[1]
            if self.in_heap(rec.addr):
                return (rec.addr, rec.size, "ac", rec.tid)
        return None

    # -- high-level events ----------------------------------------------------------

    def _malloc(self, event):
        rec = event[1]
        if hl_phase_of(rec) != HLPhase.END:
            return (2, [])
        for start, length in rec.ranges:
            if self.metadata.any_equal(start, length, ALLOCATED):
                self.violation(
                    "overlapping-allocation", rec.tid, rec.rid,
                    f"malloc returned already-allocated {start:#x}",
                )
        return self.fill_ranges(rec.ranges, ALLOCATED)

    def _free(self, event):
        rec = event[1]
        if hl_phase_of(rec) != HLPhase.BEGIN:
            return (2, [])
        for start, length in rec.ranges:
            if not self.metadata.all_equal(start, length, ALLOCATED):
                self.violation(
                    "bad-free", rec.tid, rec.rid,
                    f"free of not-fully-allocated range {start:#x}+{length}",
                )
        return self.fill_ranges(rec.ranges, UNALLOCATED)
