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
    uses_it = False
    uses_if = True
    uses_mtlb = True
    if_track_rids = False
    monitors_allocator_internals = False

    ca_subscriptions = frozenset({
        (HLEventKind.MALLOC, HLPhase.END),
        (HLEventKind.FREE, HLPhase.BEGIN),
    })
    ca_invalidate_if = frozenset({
        (HLEventKind.MALLOC, HLPhase.END),
        (HLEventKind.FREE, HLPhase.BEGIN),
    })
    ca_flush_mtlb = frozenset()

    # -- event-delivery filtering ------------------------------------------------

    def wants(self, event):
        """AddrCheck registers handlers only for heap memory accesses and
        allocation events; the delivery hardware's range filter drops
        everything else before dispatch, including the wrapper library's
        own allocator-bookkeeping accesses."""
        kind = event[0]
        if kind in ("load", "store", "rmw", "load_versioned", "load_check"):
            rec = event[1]
            return self.in_heap(rec.addr) and rec.critical_kind != "allocator"
        if kind == "mem_inherit":
            if event[5].critical_kind == "allocator":
                return False
            return (self.in_heap(event[1])
                    or any(self.in_heap(src) for src, _size in event[3]))
        if kind == "hl":
            return event[1].hl_kind in (HLEventKind.MALLOC, HLEventKind.FREE)
        return False

    # -- handlers ---------------------------------------------------------------

    def handle(self, event):
        kind = event[0]
        costs = self.costs

        if kind in ("load", "store", "rmw", "load_check"):
            rec = event[1]
            if not self.in_heap(rec.addr):
                return (1, [])
            if not self.metadata.all_equal(rec.addr, rec.size, ALLOCATED):
                self.violation(
                    "unallocated-access", rec.tid, rec.rid,
                    f"{kind} of {rec.size} bytes at {rec.addr:#x}",
                )
            return (costs.handler_body_cost, [(rec.addr, rec.size, False)])

        if kind == "load_versioned":
            # TSO versioned load: the access check runs against the
            # metadata version the load is ordered with, not the current
            # (possibly already-freed-and-remapped) allocation state.
            rec, (snap_base, _snap_len, snapshot) = event[1], event[2]
            if not self.in_heap(rec.addr):
                return (1, [])
            allocated = all(
                0 <= rec.addr + i - snap_base < len(snapshot)
                and snapshot[rec.addr + i - snap_base] == ALLOCATED
                for i in range(rec.size))
            if not allocated:
                self.violation(
                    "unallocated-access", rec.tid, rec.rid,
                    f"{kind} of {rec.size} bytes at {rec.addr:#x}",
                )
            return (costs.handler_body_cost + 2,
                    [(rec.addr, rec.size, False)])

        if kind == "mem_inherit":
            # Only reachable if IT were enabled; check every endpoint.
            _, dst, size, sources, _live_regs, rec = event
            endpoints = [(src, src_size) for src, src_size in sources]
            endpoints.append((dst, size))
            for addr, span in endpoints:
                if self.in_heap(addr) and not self.metadata.all_equal(
                        addr, span, ALLOCATED):
                    self.violation(
                        "unallocated-access", rec.tid, rec.rid,
                        f"copy touching {addr:#x}",
                    )
            return (costs.handler_body_cost,
                    [(addr, span, False) for addr, span in endpoints])

        if kind == "hl":
            return self._handle_highlevel(event[1])

        # Register-only traffic carries no allocation information.
        return self.unhandled(event)

    def if_key(self, event):
        """Heap access checks are idempotent between allocation events.

        The thread id is part of the key: like the IT table, the filter
        is virtualized per thread so the sequential (time-sliced)
        consumer never lets one thread's cached check swallow another
        thread's violation report.
        """
        if event[0] in ("load", "store", "rmw", "load_check"):
            rec = event[1]
            if self.in_heap(rec.addr):
                return (rec.addr, rec.size, "ac", rec.tid)
        return None

    # -- high-level events ----------------------------------------------------------

    def _handle_highlevel(self, rec):
        phase = hl_phase_of(rec)
        hl_kind = rec.hl_kind

        if hl_kind == HLEventKind.MALLOC and phase == HLPhase.END:
            cost = 0
            accesses = []
            for start, length in rec.ranges:
                if self.metadata.any_equal(start, length, ALLOCATED):
                    self.violation(
                        "overlapping-allocation", rec.tid, rec.rid,
                        f"malloc returned already-allocated {start:#x}",
                    )
                self.metadata.set_range(start, length, ALLOCATED)
                cost += self.range_cost(length)
                accesses.extend(self.timed_range_accesses(start, length, True))
            return (cost or 2, accesses)

        if hl_kind == HLEventKind.FREE and phase == HLPhase.BEGIN:
            cost = 0
            accesses = []
            for start, length in rec.ranges:
                if not self.metadata.all_equal(start, length, ALLOCATED):
                    self.violation(
                        "bad-free", rec.tid, rec.rid,
                        f"free of not-fully-allocated range {start:#x}+{length}",
                    )
                self.metadata.set_range(start, length, UNALLOCATED)
                cost += self.range_cost(length)
                accesses.extend(self.timed_range_accesses(start, length, True))
            return (cost or 2, accesses)

        return (2, [])
