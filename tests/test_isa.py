"""Unit tests for the micro-op ISA and factories."""

import pytest

from repro.common.errors import WorkloadError
from repro.isa.instructions import (
    HLEventKind,
    MicroOp,
    OpKind,
    alu,
    critical_use,
    hl_begin,
    hl_end,
    load,
    loadi,
    movrr,
    nop,
    rmw,
    store,
    thread_exit,
)
from repro.isa.program import run_program_sequentially, ThreadApi
from repro.isa.registers import NUM_REGISTERS, R0, R1
from repro import SimulationConfig, TaintCheck, run_parallel_monitoring
from repro.workloads.base import CustomWorkload


class TestFactories:
    def test_load_populates_fields(self):
        op = load(R1, 0x1000, 4)
        assert op.kind == OpKind.LOAD
        assert op.rd == R1
        assert op.addr == 0x1000
        assert op.size == 4
        assert op.is_memory and not op.is_write

    def test_store_is_a_write(self):
        op = store(0x1000, R0, value=7)
        assert op.is_memory and op.is_write
        assert op.value == 7

    def test_rmw_is_a_write(self):
        assert rmw(R0, 0x1000, 1).is_write

    def test_alu_unary_has_no_rs2(self):
        assert alu(R0, R1).rs2 is None

    def test_hl_ranges_are_tuples(self):
        op = hl_begin(HLEventKind.MALLOC, ranges=[(0x100, 32)])
        assert op.ranges == ((0x100, 32),)
        assert hl_end(HLEventKind.FREE).ranges == ()

    def test_critical_use_kind(self):
        assert critical_use(R1, "format").critical_kind == "format"

    def test_nop_and_thread_exit(self):
        assert nop().kind == OpKind.NOP
        assert thread_exit().kind == OpKind.THREAD_EXIT

    def test_repr_mentions_fields(self):
        text = repr(load(R1, 0x40))
        assert "LOAD" in text and "0x40" in text


#: Valid keyword arguments for every factory that takes int operands.
GOOD_ARGS = {
    load: dict(rd=R0, addr=0x100, size=4),
    store: dict(addr=0x100, rs=R0, size=4),
    rmw: dict(rd=R0, addr=0x100, value=1, size=4),
    movrr: dict(rd=R0, rs=R1),
    alu: dict(rd=R0, rs1=R1, rs2=R1),
    loadi: dict(rd=R0),
    critical_use: dict(rs=R0),
}
#: (factory, operand, bad value) for every int operand of every
#: factory; ``alu``'s ``rs2=None`` is the valid unary form.
BAD_OPERANDS = [(factory, operand, bad)
                for factory, args in GOOD_ARGS.items()
                for operand in args if operand != "value"
                for bad in (None, "r1", 1.0, 64.0, True)
                if not (operand == "rs2" and bad is None)]
#: How the error names a non-register operand.
OPERAND_NAMES = {"addr": "address", "size": "access size"}


class TestValidation:
    def test_register_range_checked(self):
        with pytest.raises(WorkloadError):
            load(NUM_REGISTERS, 0x1000)
        with pytest.raises(WorkloadError):
            movrr(R0, -1)

    @pytest.mark.parametrize("size", [0, 3, 16])
    def test_bad_sizes_rejected(self, size):
        with pytest.raises(WorkloadError):
            load(R0, 0x1000, size)

    def test_unaligned_access_rejected(self):
        with pytest.raises(WorkloadError):
            load(R0, 0x1002, 4)

    def test_line_crossing_rejected(self):
        with pytest.raises(WorkloadError):
            store(0x103C + 2, R0)  # 0x103E + 4 crosses 0x1040

    def test_negative_address_rejected(self):
        with pytest.raises(WorkloadError):
            load(R0, -4)

    @pytest.mark.parametrize("factory,operand,bad", BAD_OPERANDS,
                             ids=[f"{f.__name__}-{operand}-{bad!r}"
                                  for f, operand, bad in BAD_OPERANDS])
    def test_non_int_operand_rejected(self, factory, operand, bad):
        # Registers, addresses and sizes must be ints and not bools; the
        # error names the operand.
        args = dict(GOOD_ARGS[factory], **{operand: bad})
        message = OPERAND_NAMES.get(operand, f"register operand {operand}")
        with pytest.raises(WorkloadError, match=f"{message} must be an int"):
            factory(**args)

    def test_non_int_register_fails_before_the_run(self):
        # A float register used to reach the lifeguard and crash the
        # run with a TypeError from a list index.
        def kernel(api, workload):
            yield from api.alu(1.0, R0)

        workload = CustomWorkload([kernel])
        with pytest.raises(WorkloadError, match="rd must be an int"):
            run_parallel_monitoring(workload, TaintCheck,
                                    SimulationConfig.for_threads(1))


class TestSequentialRunner:
    def test_load_sees_prior_store(self):
        def program(api):
            yield from api.store(0x100, R0, value=42)
            value = yield from api.load(R1, 0x100)
            assert value == 42

        ops = run_program_sequentially(program(ThreadApi(0)))
        assert [op.kind for op in ops] == [OpKind.STORE, OpKind.LOAD]

    def test_rmw_returns_old_value(self):
        def program(api):
            old = yield from api.rmw(R0, 0x200, 1)
            assert old == 0
            old = yield from api.rmw(R0, 0x200, 2)
            assert old == 1

        run_program_sequentially(program(ThreadApi(0)))

    def test_loop_overhead_shape(self):
        def program(api):
            yield from api.loop_overhead(4)

        ops = run_program_sequentially(program(ThreadApi(0)))
        assert [op.kind for op in ops] == [
            OpKind.LOADI, OpKind.ALU, OpKind.ALU, OpKind.ALU]
        assert all(op.rs2 is None for op in ops[1:])

    def test_compute_emits_unary_alus(self):
        def program(api):
            yield from api.compute(3)

        ops = run_program_sequentially(program(ThreadApi(0)))
        assert len(ops) == 3
        assert all(op.kind == OpKind.ALU for op in ops)

    def test_pause_sets_value(self):
        def program(api):
            yield from api.pause(32)

        ops = run_program_sequentially(program(ThreadApi(0)))
        assert ops[0].kind == OpKind.NOP and ops[0].value == 32

    def test_malloc_requires_os(self):
        def program(api):
            yield from api.malloc(16)

        with pytest.raises(WorkloadError):
            run_program_sequentially(program(ThreadApi(0, os_runtime=None)))
