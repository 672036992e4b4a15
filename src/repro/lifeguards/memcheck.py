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

    def __init__(self, costs=None, heap_range=None):
        super().__init__(costs=costs, heap_range=heap_range)
        # Every event except lock-discipline ones.
        self.handlers = {
            "load": self._load,
            "load_check": self._load_check,
            "store": self._store,
            "rmw": self._rmw,
            "movrr": self.copy_register,
            "alu": self._alu,
            "loadi": self._loadi,
            "critical": self._critical,
            "reg_inherit": self._reg_inherit,
            "mem_inherit": self._mem_inherit,
            "load_versioned": self._load_versioned,
            HLEventKind.MALLOC: self._malloc,
            HLEventKind.FREE: self._free,
            HLEventKind.SYSCALL_READ: self.hl_nop,
            HLEventKind.SYSCALL_WRITE: self.hl_nop,
            HLEventKind.SYSCALL_OTHER: self.hl_nop,
            HLEventKind.THREAD_START: self.hl_nop,
        }

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

    def _judge_load(self, rec, bits_at) -> int:
        """Check a load against the metadata bits ``bits_at(addr)`` of
        each byte it reads; returns the loaded value's definedness.
        Non-heap loads are never reported and always defined."""
        if not self.in_heap(rec.addr):
            return 1
        byte_bits = [bits_at(rec.addr + i) for i in range(rec.size)]
        defined = all(bits & INITIALIZED for bits in byte_bits)
        if not all(bits & ADDRESSABLE for bits in byte_bits):
            self.violation("unaddressable-load", rec.tid, rec.rid,
                           f"load at {rec.addr:#x}")
        elif not defined:
            self.violation("uninitialized-load", rec.tid, rec.rid,
                           f"load at {rec.addr:#x}")
        return 1 if defined else 0

    def _write_state(self, addr: int, size: int, defined: bool) -> None:
        if not self.in_heap(addr):
            return
        for i in range(size):
            bits = self.metadata.get(addr + i) & ADDRESSABLE
            if defined:
                bits |= INITIALIZED
            self.metadata.set(addr + i, bits)

    # -- handlers ------------------------------------------------------------------

    def _load(self, event):
        rec = event[1]
        self.regs(rec.tid)[rec.rd] = self._judge_load(rec, self.metadata.get)
        return (self.costs.handler_body_cost, [(rec.addr, rec.size, False)])

    def _load_check(self, event):
        # The check half of an IT-absorbed load: the definedness
        # propagation is deferred in the IT row, the access check is
        # performed (and Idempotent-Filtered) right away.
        rec = event[1]
        self._judge_load(rec, self.metadata.get)
        return (self.costs.handler_body_cost, [(rec.addr, rec.size, False)])

    def _load_versioned(self, event):
        # Judged exactly like a plain load, against the metadata version
        # the load is ordered with; a byte outside the snapshot has no
        # recorded state (unaddressable), as in AddrCheck.
        rec, (snap_base, _snap_len, snapshot) = event[1], event[2]

        def bits_at(addr):
            index = addr - snap_base
            return snapshot[index] if 0 <= index < len(snapshot) else 0

        self.regs(rec.tid)[rec.rd] = self._judge_load(rec, bits_at)
        return (self.costs.handler_body_cost + 2, [(rec.addr, rec.size, False)])

    def _store(self, event):
        rec = event[1]
        if self.in_heap(rec.addr) and not self._addressable(rec.addr, rec.size):
            self.violation("unaddressable-store", rec.tid, rec.rid,
                           f"store at {rec.addr:#x}")
        self._write_state(rec.addr, rec.size,
                          bool(self.regs(rec.tid)[rec.rs1]))
        return (self.costs.handler_body_cost,
                [(rec.addr, rec.size, False), (rec.addr, rec.size, True)])

    def _rmw(self, event):
        rec = event[1]
        self.regs(rec.tid)[rec.rd] = 1 if self._defined(rec.addr, rec.size) else 0
        self._write_state(rec.addr, rec.size, True)
        return (self.costs.handler_body_cost + 2,
                [(rec.addr, rec.size, False), (rec.addr, rec.size, True)])

    def _alu(self, event):
        rec = event[1]
        regs = self.regs(rec.tid)
        defined = regs[rec.rs1]
        if rec.rs2 is not None:
            defined = defined & regs[rec.rs2]
        regs[rec.rd] = defined
        return (1, [])

    def _loadi(self, event):
        rec = event[1]
        self.regs(rec.tid)[rec.rd] = 1
        return (1, [])

    def _critical(self, event):
        rec = event[1]
        if not self.regs(rec.tid)[rec.rs1]:
            self.violation("undefined-critical-use", rec.tid, rec.rid,
                           f"r{rec.rs1} used as {rec.critical_kind}")
        return (2, [])

    def _reg_inherit(self, event):
        _, tid, reg, sources, live_regs = event
        regs = self.regs(tid)
        defined = all(self._defined(addr, size) for addr, size in sources)
        defined = defined and all(regs[live] for live in live_regs)
        regs[reg] = 1 if defined else 0
        return (self.costs.handler_body_cost if sources else 1,
                [(addr, size, False) for addr, size in sources])

    def _mem_inherit(self, event):
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
        return (self.costs.handler_body_cost + 1, accesses)

    def _malloc(self, event):
        rec = event[1]
        if hl_phase_of(rec) == HLPhase.END:
            return self.fill_ranges(rec.ranges, ADDRESSABLE)
        return (2, [])

    def _free(self, event):
        rec = event[1]
        if hl_phase_of(rec) == HLPhase.BEGIN:
            return self.fill_ranges(rec.ranges, 0)
        return (2, [])

    def if_key(self, event):
        """Deferred-load checks of heap bytes are idempotent until the
        metadata changes (local write / CA / remote conflict). The key
        carries the thread id — the filter is virtualized per thread."""
        if event[0] == "load_check":
            rec = event[1]
            if self.in_heap(rec.addr):
                return (rec.addr, rec.size, "mc", rec.tid)
        return None
