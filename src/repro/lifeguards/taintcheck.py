"""TaintCheck: dynamic taint (data-flow) tracking.

Follows Newsome & Song's TaintCheck as summarized in Section 2 of the
paper: one taint state per memory byte (stored in 2 metadata bits per
byte for efficient word-granularity handlers, as the paper's
implementation does) plus a taint bit per register. The taint of every
destination is the OR of its sources' taints; unverified input (here:
``read()``-style system-call buffers) is the taint source; a violation
fires when tainted data reaches a security-critical use (indirect jump
target, format string).

Ordering requirements (Section 6): TaintCheck needs all application data
races ordered (instruction-level arcs) plus correct high-level event
ordering (CA broadcasts for malloc/free and system calls). Reads map to
metadata reads and writes to metadata writes, so the synchronization-
free fast path applies and no handler takes a lock.
"""

from __future__ import annotations

from repro.isa.instructions import HLEventKind, HLPhase
from repro.lifeguards.base import Lifeguard, hl_phase_of

#: Taint value stored per byte (any nonzero bits mean tainted).
TAINTED = 1
UNTAINTED = 0


class TaintCheck(Lifeguard):
    """Parallel TaintCheck lifeguard."""

    name = "taintcheck"
    bits_per_app_byte = 2
    needs_instruction_arcs = True

    ca_subscriptions = frozenset({
        (HLEventKind.MALLOC, HLPhase.END),
        (HLEventKind.FREE, HLPhase.BEGIN),
        (HLEventKind.SYSCALL_READ, HLPhase.BEGIN),
        (HLEventKind.SYSCALL_READ, HLPhase.END),
        (HLEventKind.SYSCALL_WRITE, HLPhase.BEGIN),
        (HLEventKind.SYSCALL_WRITE, HLPhase.END),
    })
    # Malloc/free and a finished read() rewrite metadata that IT rows
    # may have deferred: flush inheritance state first.
    ca_flush_it = frozenset({
        (HLEventKind.MALLOC, HLPhase.END),
        (HLEventKind.FREE, HLPhase.BEGIN),
        (HLEventKind.SYSCALL_READ, HLPhase.END),
    })

    # Every event except lock-discipline ones (no data flow) and the
    # check half of an IT-absorbed load (taint tracking performs no
    # checks on loads: IT defers the whole load).
    handler_names = {
        "load": "_load",
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
        HLEventKind.SYSCALL_READ: "_syscall_read",
        HLEventKind.SYSCALL_WRITE: "_syscall_write",
        HLEventKind.SYSCALL_OTHER: "hl_nop",
        HLEventKind.THREAD_START: "hl_nop",
    }

    def __init__(self, costs=None, heap_range=None,
                 conservative_race_taint: bool = True,
                 check_output: bool = False):
        super().__init__(costs=costs, heap_range=heap_range)
        self.conservative_race_taint = conservative_race_taint
        self.check_output = check_output

    # -- handlers -----------------------------------------------------------------

    def _load(self, event):
        rec = event[1]
        taint = self.metadata.get_access(rec.addr, rec.size)
        if self.conservative_race_taint and self.range_table is not None:
            taint |= self._race_taint(rec, rec.addr)
        self.registers[rec.tid][rec.rd] = 1 if taint else 0
        return (self._body_cost, [(rec.addr, rec.size, False)])

    def _store(self, event):
        rec = event[1]
        value = TAINTED if self.registers[rec.tid][rec.rs1] else UNTAINTED
        self.metadata.set_access(rec.addr, rec.size, value)
        return (self._body_cost, [(rec.addr, rec.size, True)])

    def _rmw(self, event):
        rec = event[1]
        taint = self.metadata.get_access(rec.addr, rec.size)
        self.registers[rec.tid][rec.rd] = 1 if taint else 0
        # The exchanged-in value is an immediate: clears the location.
        self.metadata.set_access(rec.addr, rec.size, UNTAINTED)
        return (self._body_cost + 2,
                [(rec.addr, rec.size, False), (rec.addr, rec.size, True)])

    def _alu(self, event):
        rec = event[1]
        regs = self.registers[rec.tid]
        taint = regs[rec.rs1]
        if rec.rs2 is not None:
            taint |= regs[rec.rs2]
        regs[rec.rd] = taint
        return (1, [])

    def _loadi(self, event):
        rec = event[1]
        self.registers[rec.tid][rec.rd] = 0
        return (1, [])

    def _critical(self, event):
        rec = event[1]
        if self.registers[rec.tid][rec.rs1]:
            self.violation(
                "tainted-critical-use", rec.tid, rec.rid,
                f"tainted register r{rec.rs1} used as {rec.critical_kind}",
            )
        return (2, [])

    def _reg_inherit(self, event):
        _, tid, reg, sources, live_regs = event
        regs = self.registers[tid]
        taint = 0
        accesses = []
        for addr, size in sources:
            taint |= self.metadata.get_access(addr, size)
            accesses.append((addr, size, False))
        for live in live_regs:
            taint |= regs[live]
        regs[reg] = 1 if taint else 0
        return (self._body_cost if sources else 1, accesses)

    def _mem_inherit(self, event):
        _, dst, size, sources, live_regs, rec = event
        regs = self.registers[rec.tid]
        race_taint = (self.conservative_race_taint
                      and self.range_table is not None)
        taint = 0
        accesses = []
        for src, src_size in sources:
            taint |= self.metadata.get_access(src, src_size)
            if race_taint:
                taint |= self._race_taint(rec, src)
            accesses.append((src, src_size, False))
        for live in live_regs:
            taint |= regs[live]
        value = TAINTED if taint else UNTAINTED
        self.metadata.set_access(dst, size, value)
        accesses.append((dst, size, True))
        return (self._body_cost + 1, accesses)

    def _load_versioned(self, event):
        rec, (snap_base, _snap_len, snapshot) = event[1], event[2]
        taint = self.metadata.read_snapshot(snapshot, snap_base, rec.addr,
                                            rec.size)
        self.registers[rec.tid][rec.rd] = 1 if taint else 0
        return (self._body_cost + 2, [(rec.addr, rec.size, False)])

    # -- high-level events -------------------------------------------------------------

    def _malloc(self, event):
        rec = event[1]
        if hl_phase_of(rec) == HLPhase.END:
            return self.fill_ranges(rec.ranges, UNTAINTED)
        return (2, [])

    def _free(self, event):
        rec = event[1]
        if hl_phase_of(rec) == HLPhase.BEGIN:
            return self.fill_ranges(rec.ranges, UNTAINTED)
        return (2, [])

    def _syscall_read(self, event):
        rec = event[1]
        phase = hl_phase_of(rec)
        if self.range_table is not None:
            if phase == HLPhase.BEGIN:
                self.range_table.insert(rec.rid, rec.tid, rec.ranges)
            else:
                self.range_table.remove(self._find_range_key(rec))
        if phase == HLPhase.END:
            return self.fill_ranges(rec.ranges, TAINTED)
        return (2, [])

    def _syscall_write(self, event):
        rec = event[1]
        if hl_phase_of(rec) == HLPhase.BEGIN and self.check_output:
            for start, length in rec.ranges:
                if self.metadata.any_equal(start, length, TAINTED):
                    self.violation(
                        "tainted-output", rec.tid, rec.rid,
                        f"tainted bytes written out from {start:#x}",
                    )
            return (self.range_cost(sum(r[1] for r in rec.ranges) or 1),
                    [a for start, length in rec.ranges
                     for a in self.timed_range_accesses(start, length, False)])
        return (2, [])

    def _find_range_key(self, rec):
        """Range-table entries for a thread's syscall are keyed by the
        BEGIN record's rid; on END we remove that thread's active entry."""
        if self.range_table is None:
            return -1
        for ca_id, tid, _ranges in self.range_table.active_entries():
            if tid == rec.tid:
                return ca_id
        return -1

    # -- race-with-kernel conservatism ------------------------------------------------------

    def _race_taint(self, rec, address: int) -> int:
        """Conservatively taint a load from ``address`` racing an active
        remote syscall range. The caller runs it only under
        ``conservative_race_taint`` with a range table (which the
        platform attaches after construction, so it is tested per call).
        """
        racing = self.range_table.racing_access(rec.tid, address, rec.size)
        if racing is None:
            return 0
        self.violation(
            "syscall-race", rec.tid, rec.rid,
            f"access to {address:#x} races read() by thread {racing[0]}",
        )
        return 1
