"""Semantic unit tests for the MemCheck extension lifeguard."""

import pytest

from repro import SimulationConfig
from repro.capture.events import Record, RecordKind
from repro.cpu.os_model import AddressLayout
from repro.isa.instructions import HLEventKind
from repro.isa.registers import R0, R1, R2
from repro.lifeguards.memcheck import ADDRESSABLE, INITIALIZED, MemCheck
from repro.lifeguards.oracle import replay
from repro.platform import run_scheme
from repro.workloads.base import CustomWorkload, Workload

HEAP = (0x4000_0000, 0x6000_0000)
BLOCK = 0x4000_2000


@pytest.fixture
def memcheck():
    return MemCheck(heap_range=HEAP)


def record(kind, tid=0, rid=1, **fields):
    rec = Record(tid, rid, kind)
    for name, value in fields.items():
        setattr(rec, name, value)
    return rec


def malloc_event(addr, size):
    return ("hl", record(RecordKind.HL_END, hl_kind=HLEventKind.MALLOC,
                         ranges=((addr, size),)))


class TestInitTracking:
    def test_fresh_allocation_is_uninitialized(self, memcheck):
        memcheck.handle(malloc_event(BLOCK, 64))
        assert memcheck.metadata.get(BLOCK) == ADDRESSABLE

    def test_load_of_uninitialized_heap_reported(self, memcheck):
        memcheck.handle(malloc_event(BLOCK, 64))
        memcheck.handle(("load", record(RecordKind.LOAD, addr=BLOCK, size=4,
                                        rd=R0)))
        assert memcheck.violations[0].kind == "uninitialized-load"
        assert memcheck.regs(0)[R0] == 0  # register holds undefined

    def test_store_initializes(self, memcheck):
        memcheck.handle(malloc_event(BLOCK, 64))
        memcheck.regs(0)[R1] = 1
        memcheck.handle(("store", record(RecordKind.STORE, addr=BLOCK, size=4,
                                         rs1=R1)))
        memcheck.handle(("load", record(RecordKind.LOAD, rid=2, addr=BLOCK,
                                        size=4, rd=R0)))
        assert len(memcheck.violations) == 0
        assert memcheck.regs(0)[R0] == 1

    def test_store_of_undefined_register_keeps_undefined(self, memcheck):
        memcheck.handle(malloc_event(BLOCK, 64))
        memcheck.regs(0)[R1] = 0
        memcheck.handle(("store", record(RecordKind.STORE, addr=BLOCK, size=4,
                                         rs1=R1)))
        assert not memcheck.metadata.get(BLOCK) & INITIALIZED

    def test_load_of_unaddressable_heap_reported(self, memcheck):
        memcheck.handle(("load", record(RecordKind.LOAD, addr=BLOCK, size=4,
                                        rd=R0)))
        assert memcheck.violations[0].kind == "unaddressable-load"

    def test_free_makes_unaddressable(self, memcheck):
        memcheck.handle(malloc_event(BLOCK, 64))
        memcheck.handle(("hl", record(RecordKind.HL_BEGIN, rid=2,
                                      hl_kind=HLEventKind.FREE,
                                      ranges=((BLOCK, 64),))))
        memcheck.handle(("store", record(RecordKind.STORE, rid=3, addr=BLOCK,
                                         size=4, rs1=R1)))
        assert any(v.kind == "unaddressable-store"
                   for v in memcheck.violations)

    def test_non_heap_memory_is_always_defined(self, memcheck):
        memcheck.handle(("load", record(RecordKind.LOAD, addr=0x1000, size=4,
                                        rd=R0)))
        assert memcheck.violations == []
        assert memcheck.regs(0)[R0] == 1


class TestDefinednessPropagation:
    def test_binary_alu_uses_and_semantics(self, memcheck):
        regs = memcheck.regs(0)
        regs[R0], regs[R1] = 1, 0
        memcheck.handle(("alu", record(RecordKind.ALU, rd=R2, rs1=R0,
                                       rs2=R1)))
        assert regs[R2] == 0

    def test_loadi_defines(self, memcheck):
        memcheck.handle(("loadi", record(RecordKind.LOADI, rd=R0)))
        assert memcheck.regs(0)[R0] == 1

    def test_reg_inherit_and_semantics(self, memcheck):
        memcheck.handle(malloc_event(BLOCK, 64))
        memcheck.handle(("reg_inherit", 0, R0, ((BLOCK, 4),), ()))
        assert memcheck.regs(0)[R0] == 0  # uninitialized source

    def test_mem_inherit_propagates_definedness(self, memcheck):
        memcheck.handle(malloc_event(BLOCK, 128))
        # Initialize the source, then copy: destination becomes defined.
        memcheck.regs(0)[R1] = 1
        memcheck.handle(("store", record(RecordKind.STORE, addr=BLOCK, size=4,
                                         rs1=R1)))
        rec = record(RecordKind.STORE, rid=2, addr=BLOCK + 64, size=4, rs1=R0)
        memcheck.handle(("mem_inherit", BLOCK + 64, 4, ((BLOCK, 4),), (), rec))
        assert memcheck.metadata.get(BLOCK + 64) & INITIALIZED

    def test_critical_use_of_undefined_reported(self, memcheck):
        memcheck.regs(0)[R0] = 0
        memcheck.handle(("critical", record(RecordKind.CRITICAL_USE, rs1=R0,
                                            critical_kind="jump")))
        assert memcheck.violations[0].kind == "undefined-critical-use"

    def test_memcheck_flushes_it_on_allocation_events(self, memcheck):
        from repro.isa.instructions import HLPhase
        assert (HLEventKind.MALLOC, HLPhase.END) in memcheck.ca_flush_it
        assert (HLEventKind.FREE, HLPhase.BEGIN) in memcheck.ca_flush_it


class TestVersionedLoads:
    """A TSO versioned load is judged exactly like a plain load, against
    the metadata version it is ordered with instead of live metadata:
    the same violations, and defined only if every byte is initialized.
    """

    A = ADDRESSABLE
    AI = ADDRESSABLE | INITIALIZED

    def versioned(self, memcheck, snapshot, addr=BLOCK, snap_base=BLOCK):
        rec = record(RecordKind.LOAD, addr=addr, size=4, rd=R0)
        memcheck.regs(0)[R0] = 1
        memcheck.handle(("load_versioned", rec,
                         (snap_base, len(snapshot), list(snapshot))))
        return ([v.kind for v in memcheck.violations], memcheck.regs(0)[R0])

    def live(self, snapshot, addr=BLOCK):
        memcheck = MemCheck(heap_range=HEAP)
        for i, bits in enumerate(snapshot):
            memcheck.metadata.set(addr + i, bits)
        memcheck.regs(0)[R0] = 1
        memcheck.handle(("load", record(RecordKind.LOAD, addr=addr, size=4,
                                        rd=R0)))
        return ([v.kind for v in memcheck.violations], memcheck.regs(0)[R0])

    def test_uninitialized_snapshot_reported(self, memcheck):
        assert self.versioned(memcheck, [self.A] * 4) == (
            ["uninitialized-load"], 0)

    def test_partly_initialized_snapshot_is_undefined(self, memcheck):
        assert self.versioned(memcheck, [self.AI, self.AI, self.A, self.A]) \
            == (["uninitialized-load"], 0)

    def test_unaddressable_snapshot_reported(self, memcheck):
        assert self.versioned(memcheck, [0] * 4) == (
            ["unaddressable-load"], 0)

    def test_initialized_snapshot_is_defined(self, memcheck):
        assert self.versioned(memcheck, [self.AI] * 4) == ([], 1)

    def test_bytes_outside_snapshot_are_unaddressable(self, memcheck):
        # Only the first two loaded bytes lie inside the version.
        assert self.versioned(memcheck, [self.AI] * 2) == (
            ["unaddressable-load"], 0)

    def test_non_heap_versioned_load_is_defined(self, memcheck):
        assert self.versioned(memcheck, [0] * 4, addr=0x1000,
                              snap_base=0x1000) == ([], 1)

    @pytest.mark.parametrize("snapshot", [
        [ADDRESSABLE] * 4,
        [ADDRESSABLE | INITIALIZED] * 2 + [ADDRESSABLE] * 2,
        [0] * 4,
        [INITIALIZED] * 4,
        [ADDRESSABLE | INITIALIZED] * 4,
    ], ids=["uninitialized", "partly-initialized", "unaddressable",
            "initialized-unaddressable", "defined"])
    def test_matches_plain_load_on_the_same_bytes(self, memcheck, snapshot):
        assert self.versioned(memcheck, snapshot) == self.live(snapshot)


class RemoteFree(Workload):
    """Thread 1 checks a block, thread 0 frees it, thread 1 loads it
    again: a use-after-free across threads."""

    name = "remote_free"

    def __init__(self):
        super().__init__(2)
        self.ptr_cell = self.galloc_lines(1)
        self.checked = self.galloc_lines(1)
        self.freed = self.galloc_lines(1)

    def thread_programs(self, apis):
        return [self._owner(apis[0]), self._user(apis[1])]

    def _wait_for(self, api, cell):
        value = 0
        while not value:
            value = yield from api.load(R2, cell)
            if not value:
                yield from api.pause(16)
        return value

    def _owner(self, api):
        buf = yield from api.malloc(8)
        yield from api.loadi(R0)
        yield from api.store(buf, R0, value=1)
        yield from api.store(self.ptr_cell, R0, value=buf)
        yield from self._wait_for(api, self.checked)
        yield from api.free(buf)
        yield from api.store(self.freed, R0, value=1)

    def _user(self, api):
        buf = yield from self._wait_for(api, self.ptr_cell)
        yield from api.load(R1, buf)
        yield from api.store(self.checked, R0, value=1)
        yield from self._wait_for(api, self.freed)
        yield from api.load(R1, buf)


def _local_free(api, workload):
    buf = yield from api.malloc(8)
    yield from api.store(buf, R0, value=1)
    yield from api.load(R1, buf)
    yield from api.free(buf)
    yield from api.load(R1, buf)


class TestUseAfterFreeUnderAcceleration:
    """Malloc and free empty the Idempotent Filter (they are
    ConflictAlert-ordered), so a cached check of a block never hides a
    load of that block after it is freed."""

    @staticmethod
    def kinds(scheme, workload, no_accel):
        result = run_scheme(scheme, workload, MemCheck,
                            SimulationConfig.for_threads(workload.nthreads),
                            no_accel=no_accel, keep_trace=True)
        oracle = replay(result.trace, lambda: MemCheck(
            heap_range=AddressLayout.heap_range()))
        return ({(v.kind, v.tid) for v in result.lifeguard_obj.violations},
                {(v.kind, v.tid) for v in oracle.violations})

    @pytest.mark.parametrize("scheme", ["parallel", "timesliced"])
    def test_own_free(self, scheme):
        kinds, oracle = self.kinds(
            scheme, CustomWorkload([_local_free]), no_accel=False)
        assert ("unaddressable-load", 0) in kinds
        assert kinds == oracle
        assert kinds == self.kinds(
            scheme, CustomWorkload([_local_free]), no_accel=True)[0]

    @pytest.mark.parametrize("scheme", ["parallel", "timesliced"])
    def test_remote_free(self, scheme):
        kinds, oracle = self.kinds(scheme, RemoteFree(), no_accel=False)
        assert ("unaddressable-load", 1) in kinds
        assert kinds == oracle
        assert kinds == self.kinds(scheme, RemoteFree(), no_accel=True)[0]
