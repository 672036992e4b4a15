"""MemCheck: addressability + initialized-ness tracking (extension).

A simplified Valgrind-Memcheck-style lifeguard, included because the
paper uses MEMCHECK (Section 4.1) as the example of a *propagation*
lifeguard whose IT state must also be flushed on high-level events:
initialized-ness propagates through registers exactly like taint, but
``malloc`` resets a range to allocated-but-uninitialized, conflicting
with inheritance state cached for that range.

Metadata: 2 bits per byte — bit0 "addressable", bit1 "initialized".
Register metadata: 1 = holds a defined value. Binary ALU results are
defined iff *all* sources are defined. Violations: loads of
uninitialized heap bytes, accesses to unaddressable heap bytes, and
critical uses of undefined values.

Non-heap memory (globals, stacks) is treated as always addressable and
defined, which keeps the lifeguard focused on heap bugs like the paper's
memory checkers.
"""

from __future__ import annotations

from repro.isa.instructions import HLEventKind, HLPhase
from repro.lifeguards.base import Lifeguard, hl_phase_of

ADDRESSABLE = 0b01
INITIALIZED = 0b10


class MemCheck(Lifeguard):
    """Initialized/addressable-state lifeguard (paper extension)."""

    name = "memcheck"
    bits_per_app_byte = 2
    needs_instruction_arcs = True
    uses_it = True
    uses_if = True
    uses_mtlb = True
    # MemCheck's metadata changes on *instruction-level* events (stores
    # initialize bytes), so cached checks must be invalidated by local
    # writes and participate in delayed advertising against remote ones —
    # the "in general" case of Section 4.1.
    if_track_rids = True
    if_invalidate_on_write = True
    monitors_allocator_internals = False

    ca_subscriptions = frozenset({
        (HLEventKind.MALLOC, HLPhase.END),
        (HLEventKind.FREE, HLPhase.BEGIN),
    })
    # The MEMCHECK example of Section 4.1: IT must flush on malloc/free.
    ca_flush_it = frozenset({
        (HLEventKind.MALLOC, HLPhase.END),
        (HLEventKind.FREE, HLPhase.BEGIN),
    })

    # -- semantic helpers ----------------------------------------------------------

    def _defined(self, addr: int, size: int) -> bool:
        if not self.in_heap(addr):
            return True
        return all(
            self.metadata.get(addr + i) & INITIALIZED for i in range(size)
        )

    def _addressable(self, addr: int, size: int) -> bool:
        if not self.in_heap(addr):
            return True
        return all(
            self.metadata.get(addr + i) & ADDRESSABLE for i in range(size)
        )

    def _check_load(self, rec) -> None:
        if not self.in_heap(rec.addr):
            return
        if not self._addressable(rec.addr, rec.size):
            self.violation("unaddressable-load", rec.tid, rec.rid,
                           f"load at {rec.addr:#x}")
        elif not self._defined(rec.addr, rec.size):
            self.violation("uninitialized-load", rec.tid, rec.rid,
                           f"load at {rec.addr:#x}")

    def _write_state(self, addr: int, size: int, defined: bool) -> None:
        if not self.in_heap(addr):
            return
        for i in range(size):
            bits = self.metadata.get(addr + i) & ADDRESSABLE
            if defined:
                bits |= INITIALIZED
            self.metadata.set(addr + i, bits)

    # -- handlers ------------------------------------------------------------------

    def handle(self, event):
        kind = event[0]
        costs = self.costs

        if kind == "load":
            rec = event[1]
            self._check_load(rec)
            self.regs(rec.tid)[rec.rd] = 1 if self._defined(rec.addr, rec.size) else 0
            return (costs.handler_body_cost, [(rec.addr, rec.size, False)])

        if kind == "load_check":
            # The check half of an IT-absorbed load: the definedness
            # propagation is deferred in the IT row, the access check is
            # performed (and Idempotent-Filtered) right away.
            rec = event[1]
            self._check_load(rec)
            return (costs.handler_body_cost, [(rec.addr, rec.size, False)])

        if kind == "store":
            rec = event[1]
            if self.in_heap(rec.addr) and not self._addressable(rec.addr, rec.size):
                self.violation("unaddressable-store", rec.tid, rec.rid,
                               f"store at {rec.addr:#x}")
            self._write_state(rec.addr, rec.size,
                              bool(self.regs(rec.tid)[rec.rs1]))
            return (costs.handler_body_cost,
                    [(rec.addr, rec.size, False), (rec.addr, rec.size, True)])

        if kind == "rmw":
            rec = event[1]
            self.regs(rec.tid)[rec.rd] = 1 if self._defined(rec.addr, rec.size) else 0
            self._write_state(rec.addr, rec.size, True)
            return (costs.handler_body_cost + 2,
                    [(rec.addr, rec.size, False), (rec.addr, rec.size, True)])

        if kind == "movrr":
            rec = event[1]
            regs = self.regs(rec.tid)
            regs[rec.rd] = regs[rec.rs1]
            return (1, [])

        if kind == "alu":
            rec = event[1]
            regs = self.regs(rec.tid)
            defined = regs[rec.rs1]
            if rec.rs2 is not None:
                defined = defined & regs[rec.rs2]
            regs[rec.rd] = defined
            return (1, [])

        if kind == "loadi":
            rec = event[1]
            self.regs(rec.tid)[rec.rd] = 1
            return (1, [])

        if kind == "critical":
            rec = event[1]
            if not self.regs(rec.tid)[rec.rs1]:
                self.violation("undefined-critical-use", rec.tid, rec.rid,
                               f"r{rec.rs1} used as {rec.critical_kind}")
            return (2, [])

        if kind == "reg_inherit":
            _, tid, reg, sources, live_regs = event
            regs = self.regs(tid)
            defined = all(self._defined(addr, size) for addr, size in sources)
            defined = defined and all(regs[live] for live in live_regs)
            regs[reg] = 1 if defined else 0
            return (costs.handler_body_cost if sources else 1,
                    [(addr, size, False) for addr, size in sources])

        if kind == "mem_inherit":
            _, dst, size, sources, live_regs, rec = event
            regs = self.regs(rec.tid)
            if self.in_heap(dst) and not self._addressable(dst, size):
                self.violation("unaddressable-store", rec.tid, rec.rid,
                               f"store at {dst:#x}")
            defined = all(self._defined(src, src_size)
                          for src, src_size in sources)
            defined = defined and all(regs[live] for live in live_regs)
            self._write_state(dst, size, defined)
            accesses = [(src, src_size, False) for src, src_size in sources]
            accesses.append((dst, size, True))
            return (costs.handler_body_cost + 1, accesses)

        if kind == "mem_imm":
            _, addr, size, _rec = event
            self._write_state(addr, size, True)
            return (costs.handler_body_cost, [(addr, size, True)])

        if kind == "load_versioned":
            rec, (snap_base, _len, snapshot) = event[1], event[2]
            bits = self.metadata.read_snapshot(snapshot, snap_base, rec.addr,
                                               rec.size)
            # OR across the snapshot is conservative for "defined".
            self.regs(rec.tid)[rec.rd] = 1 if bits & INITIALIZED else 0
            return (costs.handler_body_cost + 2, [(rec.addr, rec.size, False)])

        if kind == "hl":
            return self._handle_highlevel(event[1])

        return self.unhandled(event)

    def _handle_highlevel(self, rec):
        phase = hl_phase_of(rec)
        if rec.hl_kind == HLEventKind.MALLOC and phase == HLPhase.END:
            cost = 0
            accesses = []
            for start, length in rec.ranges:
                self.metadata.set_range(start, length, ADDRESSABLE)
                cost += self.range_cost(length)
                accesses.extend(self.timed_range_accesses(start, length, True))
            return (cost or 2, accesses)
        if rec.hl_kind == HLEventKind.FREE and phase == HLPhase.BEGIN:
            cost = 0
            accesses = []
            for start, length in rec.ranges:
                self.metadata.set_range(start, length, 0)
                cost += self.range_cost(length)
                accesses.extend(self.timed_range_accesses(start, length, True))
            return (cost or 2, accesses)
        return (2, [])

    def wants(self, event):
        """MemCheck handles everything except lock-discipline events and
        the wrapper library's own allocator-bookkeeping accesses."""
        kind = event[0]
        if kind == "hl":
            return event[1].hl_kind not in (HLEventKind.LOCK,
                                            HLEventKind.UNLOCK)
        if kind in ("load", "store", "rmw", "load_check", "load_versioned"):
            return event[1].critical_kind != "allocator"
        if kind == "mem_inherit":
            return event[5].critical_kind != "allocator"
        return True

    def if_key(self, event):
        """Deferred-load checks of heap bytes are idempotent until the
        metadata changes (local write / CA / remote conflict). The key
        carries the thread id — the filter is virtualized per thread."""
        if event[0] == "load_check":
            rec = event[1]
            if self.in_heap(rec.addr):
                return (rec.addr, rec.size, "mc", rec.tid)
        return None
