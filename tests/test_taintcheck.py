"""Semantic unit tests for TaintCheck handlers."""

import pytest

from repro.capture.events import Record, RecordKind
from repro.enforce.range_table import SyscallRangeTable
from repro.isa.instructions import HLEventKind
from repro.isa.registers import R0, R1, R2
from repro.lifeguards.base import event_key
from repro.lifeguards.taintcheck import TAINTED, UNTAINTED, TaintCheck


@pytest.fixture
def taint():
    return TaintCheck()


def record(kind, tid=0, rid=1, **fields):
    rec = Record(tid, rid, kind)
    for name, value in fields.items():
        setattr(rec, name, value)
    return rec


class TestPropagation:
    def test_load_copies_memory_taint_to_register(self, taint):
        taint.metadata.set_access(0x100, 4, TAINTED)
        taint.handle(("load", record(RecordKind.LOAD, addr=0x100, size=4,
                                     rd=R0)))
        assert taint.regs(0)[R0] == 1

    def test_load_of_clean_memory_clears_register(self, taint):
        taint.regs(0)[R0] = 1
        taint.handle(("load", record(RecordKind.LOAD, addr=0x100, size=4,
                                     rd=R0)))
        assert taint.regs(0)[R0] == 0

    def test_store_copies_register_taint_to_memory(self, taint):
        taint.regs(0)[R1] = 1
        taint.handle(("store", record(RecordKind.STORE, addr=0x200, size=4,
                                      rs1=R1)))
        assert taint.metadata.get_access(0x200, 4)

    def test_store_of_clean_register_untaints(self, taint):
        taint.metadata.set_access(0x200, 4, TAINTED)
        taint.handle(("store", record(RecordKind.STORE, addr=0x200, size=4,
                                      rs1=R1)))
        assert taint.metadata.get_access(0x200, 4) == UNTAINTED

    def test_movrr_and_alu_or_semantics(self, taint):
        taint.regs(0)[R0] = 1
        taint.handle(("movrr", record(RecordKind.MOVRR, rd=R1, rs1=R0)))
        assert taint.regs(0)[R1] == 1
        taint.handle(("alu", record(RecordKind.ALU, rd=R2, rs1=R1, rs2=R2)))
        assert taint.regs(0)[R2] == 1

    def test_loadi_clears(self, taint):
        taint.regs(0)[R0] = 1
        taint.handle(("loadi", record(RecordKind.LOADI, rd=R0)))
        assert taint.regs(0)[R0] == 0

    def test_rmw_reads_then_clears(self, taint):
        taint.metadata.set_access(0x100, 4, TAINTED)
        taint.handle(("rmw", record(RecordKind.RMW, addr=0x100, size=4,
                                    rd=R0)))
        assert taint.regs(0)[R0] == 1
        assert taint.metadata.get_access(0x100, 4) == UNTAINTED

    def test_registers_are_per_thread(self, taint):
        taint.regs(0)[R0] = 1
        assert taint.regs(1)[R0] == 0


class TestInheritanceEvents:
    def test_reg_inherit_ors_sources_and_live_regs(self, taint):
        taint.metadata.set_access(0x100, 4, TAINTED)
        taint.handle(("reg_inherit", 0, R0, ((0x100, 4),), ()))
        assert taint.regs(0)[R0] == 1
        taint.handle(("reg_inherit", 0, R1, (), (R0,)))
        assert taint.regs(0)[R1] == 1
        taint.handle(("reg_inherit", 0, R2, (), ()))  # immediate
        assert taint.regs(0)[R2] == 0

    def test_mem_inherit_propagates_to_memory(self, taint):
        taint.metadata.set_access(0x100, 4, TAINTED)
        rec = record(RecordKind.STORE, addr=0x300, size=4, rs1=R0)
        taint.handle(("mem_inherit", 0x300, 4, ((0x100, 4),), (), rec))
        assert taint.metadata.get_access(0x300, 4)

    def test_mem_inherit_from_clean_sources_untaints(self, taint):
        taint.metadata.set_access(0x300, 4, TAINTED)
        rec = record(RecordKind.STORE, addr=0x300, size=4, rs1=R0)
        taint.handle(("mem_inherit", 0x300, 4, (), (), rec))
        assert taint.metadata.get_access(0x300, 4) == UNTAINTED

    def test_load_versioned_reads_snapshot_not_current(self, taint):
        # Current metadata is clean, but the version snapshot is tainted:
        # the register must become tainted (pre-write view).
        snapshot = [TAINTED] * 64
        rec = record(RecordKind.LOAD, addr=0x100, size=4, rd=R0)
        taint.handle(("load_versioned", rec, (0x100, 64, snapshot)))
        assert taint.regs(0)[R0] == 1


class TestViolations:
    def test_tainted_critical_use_reported(self, taint):
        taint.regs(0)[R0] = 1
        taint.handle(("critical", record(RecordKind.CRITICAL_USE, rs1=R0,
                                         critical_kind="jump")))
        assert taint.violations[0].kind == "tainted-critical-use"

    def test_clean_critical_use_is_silent(self, taint):
        taint.handle(("critical", record(RecordKind.CRITICAL_USE, rs1=R0)))
        assert taint.violations == []


class TestHighLevelEvents:
    def test_malloc_untaints_range(self, taint):
        taint.metadata.set_range(0x400, 32, TAINTED)
        rec = record(RecordKind.HL_END, hl_kind=HLEventKind.MALLOC,
                     ranges=((0x400, 32),))
        taint.handle(("hl", rec))
        assert taint.metadata.all_equal(0x400, 32, UNTAINTED)

    def test_syscall_read_taints_buffer(self, taint):
        rec = record(RecordKind.HL_END, hl_kind=HLEventKind.SYSCALL_READ,
                     ranges=((0x500, 16),))
        taint.handle(("hl", rec))
        assert taint.metadata.all_equal(0x500, 16, TAINTED)

    def test_taint_policy_can_be_disabled(self):
        taint = TaintCheck(taint_syscall_reads=False)
        rec = record(RecordKind.HL_END, hl_kind=HLEventKind.SYSCALL_READ,
                     ranges=((0x500, 16),))
        taint.handle(("hl", rec))
        assert taint.metadata.all_equal(0x500, 16, UNTAINTED)

    def test_output_check_flags_tainted_writes(self):
        taint = TaintCheck(check_output=True)
        taint.metadata.set_range(0x600, 8, TAINTED)
        rec = record(RecordKind.HL_BEGIN, hl_kind=HLEventKind.SYSCALL_WRITE,
                     ranges=((0x600, 8),))
        taint.handle(("hl", rec))
        assert taint.violations[0].kind == "tainted-output"


class TestSyscallRaces:
    def test_load_racing_remote_syscall_is_conservatively_tainted(self):
        taint = TaintCheck()
        taint.range_table = SyscallRangeTable()
        begin = record(RecordKind.HL_BEGIN, tid=1, rid=5,
                       hl_kind=HLEventKind.SYSCALL_READ,
                       ranges=((0x700, 32),))
        taint.handle(("hl", begin))
        taint.handle(("load", record(RecordKind.LOAD, tid=0, addr=0x700,
                                     size=4, rd=R0)))
        assert taint.regs(0)[R0] == 1
        assert any(v.kind == "syscall-race" for v in taint.violations)
        end = record(RecordKind.HL_END, tid=1, rid=6,
                     hl_kind=HLEventKind.SYSCALL_READ, ranges=((0x700, 32),))
        taint.handle(("hl", end))
        assert len(taint.range_table) == 0


class TestEventFiltering:
    def test_wants_everything_but_lock_events(self, taint):
        lock = record(RecordKind.HL_END, hl_kind=HLEventKind.LOCK)
        unlock = record(RecordKind.HL_BEGIN, hl_kind=HLEventKind.UNLOCK)
        malloc = record(RecordKind.HL_END, hl_kind=HLEventKind.MALLOC)
        assert event_key(("hl", lock)) not in taint.handlers
        assert event_key(("hl", unlock)) not in taint.handlers
        assert event_key(("hl", malloc)) in taint.handlers
        assert "load" in taint.handlers

    def test_fingerprint_reflects_state(self, taint):
        taint.metadata.set(0x100, 1)
        taint.regs(0)[R0] = 1
        fingerprint = taint.metadata_fingerprint()
        assert fingerprint["memory"] == {0x100: 1}
        assert fingerprint["registers"][0][R0] == 1
