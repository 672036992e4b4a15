"""LockSet: Eraser-style dynamic data-race detection (extension).

Included to demonstrate Section 5.3's *slow-path* rule. LockSet violates
condition 2 of the synchronization-free fast path — an application
**read** can shrink a location's candidate lockset, i.e. write metadata
— so read handlers are split into a read-only fast segment and a
locked slow segment that performs the single metadata write. The
simulated cost model charges :data:`SLOW_PATH_LOCK_COST` only when the
slow segment runs, mirroring the paper's division.

State machine per 4-byte word (classic Eraser): Virgin -> Exclusive
(first thread) -> Shared (read by a second thread) -> Shared-Modified
(written by a second thread). Candidate locksets are intersected with
the accessing thread's held locks in the Shared states; an empty
candidate set in Shared-Modified reports a race. Synchronization
variables themselves (lock words seen in LOCK/UNLOCK events) are
excluded, as Eraser does.
"""

from __future__ import annotations

from repro.isa.instructions import HLEventKind, HLPhase
from repro.lifeguards.base import Lifeguard, hl_phase_of

#: Extra handler cost when the locked slow path runs (an atomic
#: instruction locks the bus: order-of-100-cycles, Section 3).
SLOW_PATH_LOCK_COST = 100

_VIRGIN = 0
_EXCLUSIVE = 1
_SHARED = 2
_SHARED_MODIFIED = 3


class _WordState:
    __slots__ = ("state", "owner", "lockset")

    def __init__(self):
        self.state = _VIRGIN
        self.owner = None
        self.lockset = None  # frozenset once Shared


class LockSet(Lifeguard):
    """Eraser-style lockset race detector (paper extension)."""

    name = "lockset"
    bits_per_app_byte = 2  # modeled footprint; semantic state is word-level
    needs_instruction_arcs = True
    uses_it = False
    uses_if = False
    uses_mtlb = True
    monitors_allocator_internals = False

    ca_subscriptions = frozenset({
        (HLEventKind.MALLOC, HLPhase.END),
        (HLEventKind.FREE, HLPhase.BEGIN),
    })

    def __init__(self, costs=None, heap_range=None):
        super().__init__(costs=costs, heap_range=heap_range)
        self._words = {}  # word addr -> _WordState
        self._held = {}  # tid -> frozenset of lock addrs
        self._sync_addrs = set()
        self._raced_words = set()
        self.slow_path_entries = 0
        self.fast_path_entries = 0
        # Memory accesses and every high-level event; allocator-internal
        # accesses never reach the table (Eraser does not check the
        # allocator's own, internally synchronized, bookkeeping).
        self.handlers = {
            "load": self._read,
            "load_versioned": self._read,
            "store": self._write,
            "rmw": self._write,
            HLEventKind.LOCK: self._lock,
            HLEventKind.UNLOCK: self._unlock,
            HLEventKind.FREE: self._free,
            HLEventKind.MALLOC: self.hl_nop,
            HLEventKind.SYSCALL_READ: self.hl_nop,
            HLEventKind.SYSCALL_WRITE: self.hl_nop,
            HLEventKind.SYSCALL_OTHER: self.hl_nop,
            HLEventKind.THREAD_START: self.hl_nop,
        }

    # -- helpers -----------------------------------------------------------------

    def _held_locks(self, tid: int) -> frozenset:
        return self._held.get(tid, frozenset())

    def _word(self, addr: int) -> _WordState:
        word = addr & ~3
        state = self._words.get(word)
        if state is None:
            state = _WordState()
            self._words[word] = state
        return state

    def _update(self, tid: int, rec, addr: int, is_write: bool) -> int:
        """Run the Eraser state machine; returns the handler cost."""
        if (addr & ~3) in self._sync_addrs:
            return 1
        word = self._word(addr)
        cost = self.costs.handler_body_cost
        changed = False

        if word.state == _VIRGIN:
            word.state = _EXCLUSIVE
            word.owner = tid
            changed = True
        elif word.state == _EXCLUSIVE:
            if word.owner != tid:
                word.state = _SHARED_MODIFIED if is_write else _SHARED
                word.lockset = self._held_locks(tid)
                changed = True
        else:
            new_lockset = word.lockset & self._held_locks(tid)
            if is_write and word.state == _SHARED:
                word.state = _SHARED_MODIFIED
                changed = True
            if new_lockset != word.lockset:
                word.lockset = new_lockset
                changed = True

        if word.state == _SHARED_MODIFIED and not word.lockset:
            word_addr = addr & ~3
            if word_addr not in self._raced_words:
                self._raced_words.add(word_addr)
                self.violation(
                    "data-race", tid, rec.rid,
                    f"word {word_addr:#x} shared-modified with empty lockset",
                )

        # Section 5.3: a read that changes metadata takes the locked slow
        # path; writes are ordered by captured arcs and stay lock-free.
        if changed and not is_write:
            self.slow_path_entries += 1
            cost += SLOW_PATH_LOCK_COST
        else:
            self.fast_path_entries += 1
        return cost

    # -- handlers ---------------------------------------------------------------------

    def _read(self, event):
        # A TSO versioned load is still an application *read* of the word:
        # the Eraser state machine must run (a read can shrink the
        # candidate lockset and trip the race check). LockSet's semantic
        # state lives in its own word table, not the shadow MetadataMap,
        # so the metadata snapshot a versioned load carries plays no role.
        rec = event[1]
        cost = self._update(rec.tid, rec, rec.addr, False)
        return (cost, [(rec.addr, rec.size, False)])

    def _write(self, event):
        rec = event[1]
        cost = self._update(rec.tid, rec, rec.addr, True)
        return (cost, [(rec.addr, rec.size, True)])

    def _lock(self, event):
        rec = event[1]
        if hl_phase_of(rec) == HLPhase.END and rec.ranges:
            lock_addr = rec.ranges[0][0]
            self._sync_addrs.add(lock_addr & ~3)
            self._held[rec.tid] = self._held_locks(rec.tid) | {lock_addr}
        return (2, [])

    def _unlock(self, event):
        rec = event[1]
        if hl_phase_of(rec) == HLPhase.BEGIN and rec.ranges:
            lock_addr = rec.ranges[0][0]
            self._held[rec.tid] = self._held_locks(rec.tid) - {lock_addr}
        return (2, [])

    def _free(self, event):
        rec = event[1]
        if hl_phase_of(rec) != HLPhase.BEGIN:
            return (2, [])
        # Freed words return to Virgin (recycled memory is benign).
        for start, length in rec.ranges:
            for word in range(start & ~3, start + length, 4):
                self._words.pop(word, None)
        return (self.range_cost(sum(r[1] for r in rec.ranges) or 1), [])
