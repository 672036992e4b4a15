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
    # MemCheck's metadata changes on *instruction-level* events (stores
    # initialize bytes), so cached checks must be invalidated by local
    # writes and participate in delayed advertising against remote ones —
    # the "in general" case of Section 4.1. Malloc and free empty the
    # filter like any ConflictAlert-ordered event.
    if_track_rids = True
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

    # Every event except lock-discipline ones.
    handler_names = {
        "load": "_load",
        "load_check": "_load_check",
        "store": "_store",
        "rmw": "_rmw",
        "movrr": "copy_register",
        "alu": "_alu",
        "loadi": "_loadi",
        "critical": "_critical",
        "reg_inherit": "_reg_inherit",
        "mem_inherit": "_mem_inherit",
        "load_versioned": "_load_versioned",
        HLEventKind.MALLOC: "_malloc",
        HLEventKind.FREE: "_free",
        HLEventKind.SYSCALL_READ: "hl_nop",
        HLEventKind.SYSCALL_WRITE: "hl_nop",
        HLEventKind.SYSCALL_OTHER: "hl_nop",
        HLEventKind.THREAD_START: "hl_nop",
    }

    def __init__(self, costs=None, heap_range=None):
        super().__init__(costs=costs, heap_range=heap_range)

    # -- semantic helpers ----------------------------------------------------------

    # Each helper tests ``heap_range`` inline (``in_heap`` without the
    # call): non-heap memory is always addressable and defined.

    def _defined(self, addr: int, size: int) -> bool:
        heap = self.heap_range
        if heap is not None and not heap[0] <= addr < heap[1]:
            return True
        return bool(self.metadata.common_bits(addr, size) & INITIALIZED)

    def _judge_load(self, rec, bits: int) -> int:
        """Check a heap load whose bytes all carry the metadata ``bits``
        (the AND over its bytes); returns the loaded value's definedness.
        """
        if not bits & ADDRESSABLE:
            self.violation("unaddressable-load", rec.tid, rec.rid,
                           f"load at {rec.addr:#x}")
        elif not bits & INITIALIZED:
            self.violation("uninitialized-load", rec.tid, rec.rid,
                           f"load at {rec.addr:#x}")
        return 1 if bits & INITIALIZED else 0

    def _check_load(self, rec) -> int:
        """Judge a load against the current metadata; returns the loaded
        value's definedness. Non-heap loads are never reported and
        always defined."""
        heap = self.heap_range
        if heap is not None and not heap[0] <= rec.addr < heap[1]:
            return 1
        return self._judge_load(
            rec, self.metadata.common_bits(rec.addr, rec.size))

    def _write_state(self, addr: int, size: int, defined: bool) -> int:
        """Mark a heap range's bytes initialized or not, keeping each
        byte's ADDRESSABLE bit; returns ADDRESSABLE when every byte has
        it (or the range is not heap memory), else 0."""
        heap = self.heap_range
        if heap is not None and not heap[0] <= addr < heap[1]:
            return ADDRESSABLE
        metadata = self.metadata
        initialized = INITIALIZED if defined else 0
        addressable = metadata.common_bits(addr, size) & ADDRESSABLE
        if addressable or not metadata.get_access(addr, size) & ADDRESSABLE:
            # Every byte has the same ADDRESSABLE bit: one range write.
            metadata.set_range(addr, size, addressable | initialized)
        else:
            for app_addr in range(addr, addr + size):
                metadata.set(app_addr,
                             (metadata.get(app_addr) & ADDRESSABLE)
                             | initialized)
        return addressable

    # -- handlers ------------------------------------------------------------------

    def _load(self, event):
        rec = event[1]
        self.registers[rec.tid][rec.rd] = self._check_load(rec)
        return (self._body_cost, [(rec.addr, rec.size, False)])

    def _load_check(self, event):
        # The check half of an IT-absorbed load: the definedness
        # propagation is deferred in the IT row, the access check is
        # performed (and Idempotent-Filtered) right away.
        rec = event[1]
        self._check_load(rec)
        return (self._body_cost, [(rec.addr, rec.size, False)])

    def _load_versioned(self, event):
        # Judged exactly like a plain load, against the metadata version
        # the load is ordered with; a byte outside the snapshot has no
        # recorded state (unaddressable), as in AddrCheck.
        rec, (snap_base, _snap_len, snapshot) = event[1], event[2]
        defined = 1
        if self.in_heap(rec.addr):
            bits = ADDRESSABLE | INITIALIZED
            for index in range(rec.addr - snap_base,
                               rec.addr - snap_base + rec.size):
                bits &= snapshot[index] if 0 <= index < len(snapshot) else 0
            defined = self._judge_load(rec, bits)
        self.registers[rec.tid][rec.rd] = defined
        return (self._body_cost + 2, [(rec.addr, rec.size, False)])

    def _store(self, event):
        rec = event[1]
        if not self._write_state(rec.addr, rec.size,
                                 bool(self.registers[rec.tid][rec.rs1])):
            self.violation("unaddressable-store", rec.tid, rec.rid,
                           f"store at {rec.addr:#x}")
        return (self._body_cost,
                [(rec.addr, rec.size, False), (rec.addr, rec.size, True)])

    def _rmw(self, event):
        rec = event[1]
        self.registers[rec.tid][rec.rd] = (
            1 if self._defined(rec.addr, rec.size) else 0)
        self._write_state(rec.addr, rec.size, True)
        return (self._body_cost + 2,
                [(rec.addr, rec.size, False), (rec.addr, rec.size, True)])

    def _alu(self, event):
        rec = event[1]
        regs = self.registers[rec.tid]
        defined = regs[rec.rs1]
        if rec.rs2 is not None:
            defined = defined & regs[rec.rs2]
        regs[rec.rd] = defined
        return (1, [])

    def _loadi(self, event):
        rec = event[1]
        self.registers[rec.tid][rec.rd] = 1
        return (1, [])

    def _critical(self, event):
        rec = event[1]
        if not self.registers[rec.tid][rec.rs1]:
            self.violation("undefined-critical-use", rec.tid, rec.rid,
                           f"r{rec.rs1} used as {rec.critical_kind}")
        return (2, [])

    def _reg_inherit(self, event):
        _, tid, reg, sources, live_regs = event
        regs = self.registers[tid]
        defined = all(self._defined(addr, size) for addr, size in sources)
        defined = defined and all(regs[live] for live in live_regs)
        regs[reg] = 1 if defined else 0
        return (self._body_cost if sources else 1,
                [(addr, size, False) for addr, size in sources])

    def _mem_inherit(self, event):
        _, dst, size, sources, live_regs, rec = event
        regs = self.registers[rec.tid]
        defined = all(self._defined(src, src_size)
                      for src, src_size in sources)
        defined = defined and all(regs[live] for live in live_regs)
        if not self._write_state(dst, size, defined):
            self.violation("unaddressable-store", rec.tid, rec.rid,
                           f"store at {dst:#x}")
        accesses = [(src, src_size, False) for src, src_size in sources]
        accesses.append((dst, size, True))
        return (self._body_cost + 1, accesses)

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
