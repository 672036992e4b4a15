"""Semantic unit tests for the LockSet extension lifeguard."""

import pytest

from repro.capture.events import Record, RecordKind
from repro.isa.instructions import HLEventKind
from repro.lifeguards.lockset import SLOW_PATH_LOCK_COST, LockSet

WORD = 0x1000_0100
LOCK_A = 0x1000_0000
LOCK_B = 0x1000_0040


@pytest.fixture
def lockset():
    return LockSet()


def record(kind, tid=0, rid=1, **fields):
    rec = Record(tid, rid, kind)
    for name, value in fields.items():
        setattr(rec, name, value)
    return rec


def acquire(lockset, tid, lock_addr):
    lockset.handle(("hl", record(RecordKind.HL_END, tid=tid,
                                 hl_kind=HLEventKind.LOCK,
                                 ranges=((lock_addr, 4),))))


def release(lockset, tid, lock_addr):
    lockset.handle(("hl", record(RecordKind.HL_BEGIN, tid=tid,
                                 hl_kind=HLEventKind.UNLOCK,
                                 ranges=((lock_addr, 4),))))


def access(lockset, tid, addr, write):
    kind = "store" if write else "load"
    rec = record(RecordKind.STORE if write else RecordKind.LOAD, tid=tid,
                 addr=addr, size=4)
    lockset.handle((kind, rec))


class TestEraserStateMachine:
    def test_single_thread_never_races(self, lockset):
        access(lockset, 0, WORD, write=True)
        access(lockset, 0, WORD, write=False)
        access(lockset, 0, WORD, write=True)
        assert lockset.violations == []

    def test_consistent_locking_is_clean(self, lockset):
        for tid in (0, 1, 0, 1):
            acquire(lockset, tid, LOCK_A)
            access(lockset, tid, WORD, write=True)
            release(lockset, tid, LOCK_A)
        assert lockset.violations == []

    def test_unprotected_shared_write_races(self, lockset):
        acquire(lockset, 0, LOCK_A)
        access(lockset, 0, WORD, write=True)
        release(lockset, 0, LOCK_A)
        access(lockset, 1, WORD, write=True)  # no lock held
        assert [v.kind for v in lockset.violations] == ["data-race"]

    def test_inconsistent_locks_race(self, lockset):
        acquire(lockset, 0, LOCK_A)
        access(lockset, 0, WORD, write=True)
        release(lockset, 0, LOCK_A)
        acquire(lockset, 1, LOCK_B)
        access(lockset, 1, WORD, write=True)  # candidate set becomes {B}
        release(lockset, 1, LOCK_B)
        assert lockset.violations == []  # Eraser is not yet sure
        acquire(lockset, 0, LOCK_A)
        access(lockset, 0, WORD, write=True)  # {B} & {A} = {} -> race
        release(lockset, 0, LOCK_A)
        assert [v.kind for v in lockset.violations] == ["data-race"]

    def test_read_sharing_without_writes_is_clean(self, lockset):
        access(lockset, 0, WORD, write=True)  # exclusive owner writes
        access(lockset, 1, WORD, write=False)  # shared (read by other)
        access(lockset, 0, WORD, write=False)
        assert lockset.violations == []

    def test_race_reported_once_per_word(self, lockset):
        access(lockset, 0, WORD, write=True)
        access(lockset, 1, WORD, write=True)
        access(lockset, 0, WORD, write=True)
        assert len(lockset.violations) == 1

    def test_sync_variables_excluded(self, lockset):
        acquire(lockset, 0, LOCK_A)
        release(lockset, 0, LOCK_A)
        access(lockset, 0, LOCK_A, write=True)
        access(lockset, 1, LOCK_A, write=True)
        assert lockset.violations == []

    def test_free_resets_words_to_virgin(self, lockset):
        access(lockset, 0, WORD, write=True)
        access(lockset, 1, WORD, write=True)  # race
        lockset.handle(("hl", record(RecordKind.HL_BEGIN, rid=9,
                                     hl_kind=HLEventKind.FREE,
                                     ranges=((WORD, 4),))))
        # Recycled memory starts over: a single-thread write is fine.
        access(lockset, 0, WORD, write=True)
        assert len(lockset.violations) == 1


class TestSlowPath:
    def test_metadata_changing_read_pays_lock_cost(self, lockset):
        """Section 5.3: LockSet violates condition 2 — reads that shrink
        the candidate set must take the locked slow path."""
        access(lockset, 0, WORD, write=True)
        # First read by another thread moves Exclusive -> Shared: a
        # metadata write triggered by a read.
        rec = record(RecordKind.LOAD, tid=1, addr=WORD, size=4)
        cost, _accesses = lockset.handle(("load", rec))
        assert cost >= SLOW_PATH_LOCK_COST
        assert lockset.slow_path_entries == 1

    def test_stable_read_stays_on_fast_path(self, lockset):
        access(lockset, 0, WORD, write=True)
        access(lockset, 1, WORD, write=False)  # slow (state change)
        rec = record(RecordKind.LOAD, tid=1, addr=WORD, size=4)
        cost, _accesses = lockset.handle(("load", rec))
        assert cost < SLOW_PATH_LOCK_COST
        assert lockset.fast_path_entries >= 1

    def test_wants_only_memory_and_hl(self, lockset):
        assert "load" in lockset.handlers
        assert HLEventKind.LOCK in lockset.handlers
        assert "alu" not in lockset.handlers


class TestVersionedLoads:
    """Regression: TSO versioned loads must run the Eraser machine.

    LockSet registers ``load_versioned`` and must treat it exactly like
    a plain read; before the fix the event was dropped and the read
    never moved the word out of Exclusive, masking races on read-shared
    words under TSO.
    """

    def versioned_load(self, lockset, tid, addr):
        rec = record(RecordKind.LOAD, tid=tid, addr=addr, size=4)
        # Snapshot payload as lifeguard_core delivers it: (base, len, bytes).
        return lockset.handle(("load_versioned", rec, (addr, 4, [0, 0, 0, 0])))

    def test_versioned_load_is_not_dropped(self, lockset):
        assert lockset.handlers["load_versioned"] == lockset.handlers["load"]
        self.versioned_load(lockset, 0, WORD)
        assert lockset.fast_path_entries + lockset.slow_path_entries == 1

    def test_versioned_load_runs_state_machine(self, lockset):
        access(lockset, 0, WORD, write=True)          # Virgin -> Exclusive(t0)
        cost, accesses = self.versioned_load(lockset, 1, WORD)
        # Exclusive -> Shared is a metadata write triggered by a read:
        # the locked slow path must run, same as for a plain load.
        assert cost >= SLOW_PATH_LOCK_COST
        assert accesses == [(WORD, 4, False)]
        access(lockset, 0, WORD, write=True)          # Shared -> Shared-Modified
        assert [v.kind for v in lockset.violations] == ["data-race"]

    def test_versioned_load_respects_held_locks(self, lockset):
        acquire(lockset, 0, LOCK_A)
        access(lockset, 0, WORD, write=True)
        release(lockset, 0, LOCK_A)
        acquire(lockset, 1, LOCK_A)
        self.versioned_load(lockset, 1, WORD)
        release(lockset, 1, LOCK_A)
        acquire(lockset, 0, LOCK_A)
        access(lockset, 0, WORD, write=True)
        release(lockset, 0, LOCK_A)
        assert lockset.violations == []
