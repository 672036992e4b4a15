"""Property-based tests (hypothesis).

The crown-jewel property: for *random* racy multithreaded programs, the
full parallel monitoring platform (arcs + delayed advertising + CA
barriers + accelerators) ends with exactly the metadata a sequential
replay of the coherence order produces.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    AcceleratorConfig,
    AddrCheck,
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_parallel_monitoring,
)
from repro.accel.inheritance import InheritanceTracking
from repro.capture.events import Record
from repro.cpu.os_model import AddressLayout
from repro.isa import instructions as ins
from repro.isa.registers import NUM_REGISTERS
from repro.lifeguards.base import event_key
from repro.lifeguards.metadata import MetadataMap
from repro.lifeguards.oracle import replay
from repro.workloads import CustomWorkload

# ---------------------------------------------------------------------------
# Random program construction
# ---------------------------------------------------------------------------

#: A small shared arena: few lines so threads conflict constantly.
ARENA_LINES = 4
ARENA_BASE = 0x1000_0000


def _arena_addr(slot):
    return ARENA_BASE + (slot % (ARENA_LINES * 16)) * 4


_op_strategy = st.one_of(
    st.tuples(st.just("load"), st.integers(0, NUM_REGISTERS - 1),
              st.integers(0, 63)),
    st.tuples(st.just("store"), st.integers(0, 63),
              st.integers(0, NUM_REGISTERS - 1)),
    st.tuples(st.just("movrr"), st.integers(0, NUM_REGISTERS - 1),
              st.integers(0, NUM_REGISTERS - 1)),
    st.tuples(st.just("alu2"), st.integers(0, NUM_REGISTERS - 1),
              st.integers(0, NUM_REGISTERS - 1),
              st.integers(0, NUM_REGISTERS - 1)),
    st.tuples(st.just("alu1"), st.integers(0, NUM_REGISTERS - 1),
              st.integers(0, NUM_REGISTERS - 1)),
    st.tuples(st.just("loadi"), st.integers(0, NUM_REGISTERS - 1)),
    st.tuples(st.just("rmw"), st.integers(0, NUM_REGISTERS - 1),
              st.integers(0, 63)),
    st.tuples(st.just("taint"), st.integers(0, 63)),
    st.tuples(st.just("critical"), st.integers(0, NUM_REGISTERS - 1)),
)

_program_strategy = st.lists(
    st.lists(_op_strategy, min_size=5, max_size=60), min_size=2, max_size=4)


def _make_kernel(script):
    def kernel(api, workload):
        for step in script:
            kind = step[0]
            if kind == "load":
                yield from api.load(step[1], _arena_addr(step[2]))
            elif kind == "store":
                yield from api.store(_arena_addr(step[1]), step[2],
                                     value=step[1])
            elif kind == "movrr":
                yield from api.movrr(step[1], step[2])
            elif kind == "alu2":
                yield from api.alu(step[1], step[2], step[3])
            elif kind == "alu1":
                yield from api.alu(step[1], step[2])
            elif kind == "loadi":
                yield from api.loadi(step[1])
            elif kind == "rmw":
                yield from api.rmw(step[1], _arena_addr(step[2]), 1)
            elif kind == "taint":
                yield from api.syscall_read(_arena_addr(step[1]), 4)
            elif kind == "critical":
                yield from api.critical_use(step[1])
    return kernel


def _fuzz_taintcheck(costs=None, heap_range=None):
    """TaintCheck without conservative race tainting: that policy is
    *deliberately* order-dependent ("probably conservatively consider the
    destination tainted", Section 5.4), so exact-equality fuzzing must
    turn it off on both sides."""
    return TaintCheck(costs=costs, heap_range=heap_range,
                      conservative_race_taint=False)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_program_strategy)
def test_random_racy_programs_match_oracle(scripts):
    workload = CustomWorkload([_make_kernel(s) for s in scripts],
                              name="fuzz")
    result = run_parallel_monitoring(
        workload, _fuzz_taintcheck,
        SimulationConfig.for_threads(len(scripts)), keep_trace=True)
    oracle = replay(result.trace, lambda: _fuzz_taintcheck(
        heap_range=AddressLayout.heap_range()))
    assert (result.lifeguard_obj.metadata_fingerprint()
            == oracle.metadata_fingerprint())


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_program_strategy,
       st.sampled_from([AcceleratorConfig.all_on(),
                        AcceleratorConfig.all_off()]))
def test_random_programs_accelerator_transparency(scripts, accel):
    workload = CustomWorkload([_make_kernel(s) for s in scripts],
                              name="fuzz")
    result = run_parallel_monitoring(
        workload, _fuzz_taintcheck,
        SimulationConfig.for_threads(len(scripts)), accel=accel,
        keep_trace=True)
    oracle = replay(result.trace, lambda: _fuzz_taintcheck(
        heap_range=AddressLayout.heap_range()))
    assert (result.lifeguard_obj.metadata_fingerprint()
            == oracle.metadata_fingerprint())


# ---------------------------------------------------------------------------
# Inheritance Tracking vs a direct reference machine
# ---------------------------------------------------------------------------

class ReferenceTaint:
    """Straight-line taint semantics over one thread's op list."""

    def __init__(self):
        self.regs = [0] * NUM_REGISTERS
        self.mem = {}

    def run(self, ops):
        for op in ops:
            kind = op.kind
            if kind == ins.OpKind.LOAD:
                self.regs[op.rd] = self._mem_taint(op.addr, op.size)
            elif kind == ins.OpKind.STORE:
                self._set_mem(op.addr, op.size, self.regs[op.rs1])
            elif kind == ins.OpKind.MOVRR:
                self.regs[op.rd] = self.regs[op.rs1]
            elif kind == ins.OpKind.ALU:
                taint = self.regs[op.rs1]
                if op.rs2 is not None:
                    taint |= self.regs[op.rs2]
                self.regs[op.rd] = taint
            elif kind == ins.OpKind.LOADI:
                self.regs[op.rd] = 0
            elif kind == ins.OpKind.RMW:
                self.regs[op.rd] = self._mem_taint(op.addr, op.size)
                self._set_mem(op.addr, op.size, 0)

    def _mem_taint(self, addr, size):
        return 1 if any(self.mem.get(addr + i, 0) for i in range(size)) else 0

    def _set_mem(self, addr, size, value):
        for i in range(size):
            self.mem[addr + i] = value


_single_thread_ops = st.lists(
    st.one_of(
        st.builds(lambda rd, slot: ins.load(rd, _arena_addr(slot)),
                  st.integers(0, 7), st.integers(0, 31)),
        st.builds(lambda slot, rs: ins.store(_arena_addr(slot), rs),
                  st.integers(0, 31), st.integers(0, 7)),
        st.builds(lambda rd, rs: ins.movrr(rd, rs),
                  st.integers(0, 7), st.integers(0, 7)),
        st.builds(lambda rd, rs1, rs2: ins.alu(rd, rs1, rs2),
                  st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
        st.builds(lambda rd, rs: ins.alu(rd, rs),
                  st.integers(0, 7), st.integers(0, 7)),
        st.builds(ins.loadi, st.integers(0, 7)),
        st.builds(lambda rd, slot: ins.rmw(rd, _arena_addr(slot), 1),
                  st.integers(0, 7), st.integers(0, 31)),
    ),
    min_size=1, max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(_single_thread_ops)
def test_it_is_semantically_transparent(ops):
    """Feeding any op stream through IT and a TaintCheck handler yields
    exactly the same final taint state as direct semantics — including
    after a full flush (so nothing is still hidden in the rows)."""
    reference = ReferenceTaint()
    # Seed some taint so propagation is observable.
    for i in range(4):
        reference.mem[_arena_addr(5) + i] = 1

    lifeguard = TaintCheck()
    lifeguard.metadata.set_access(_arena_addr(5), 4, 1)
    it = InheritanceTracking()

    def feed(events):
        for event in events:
            if event_key(event) in lifeguard.handlers:
                lifeguard.handle(event)

    for rid, op in enumerate(ops, start=1):
        feed(it.process(Record.from_op(0, rid, op)))
    feed(it.flush_all())
    reference.run(ops)

    assert lifeguard.regs(0) == reference.regs
    run_mem = {addr: 1 for addr, _bits in lifeguard.metadata.nonzero_items()}
    ref_mem = {addr: 1 for addr, value in reference.mem.items() if value}
    assert run_mem == ref_mem


# ---------------------------------------------------------------------------
# Metadata map vs a dict model
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4095), st.integers(0, 3)),
                min_size=1, max_size=200),
       st.sampled_from([1, 2, 4]))
def test_metadata_map_matches_dict_model(writes, bits):
    metadata = MetadataMap(bits)
    model = {}
    mask = (1 << bits) - 1
    for addr, value in writes:
        metadata.set(addr, value)
        model[addr] = value & mask
    for addr, expected in model.items():
        assert metadata.get(addr) == expected
    assert dict(metadata.nonzero_items()) == {
        addr: value for addr, value in model.items() if value}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1 << 20), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from([1, 2]), st.booleans())
def test_sim_accesses_cover_the_metadata_range_exactly(app_addr, size, bits,
                                                       is_write):
    app_addr -= app_addr % size  # legal alignment
    metadata = MetadataMap(bits)
    accesses = metadata.sim_accesses(app_addr, size, is_write)
    covered = set()
    for addr, chunk, write_flag in accesses:
        assert write_flag == is_write
        assert chunk in (1, 2, 4, 8)
        assert addr % chunk == 0
        covered.update(range(addr, addr + chunk))
    first = metadata.sim_addr(app_addr)
    last = metadata.sim_addr(app_addr + size - 1)
    assert covered == set(range(first, last + 1))


# ---------------------------------------------------------------------------
# Random racy heap workloads under AddrCheck
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(8, 600), min_size=1, max_size=12),
       st.integers(2, 3))
def test_random_allocation_patterns_match_oracle(sizes, threads):
    def kernel(api, workload):
        live = []
        for size in sizes:
            addr = yield from api.malloc(size)
            yield from api.store(addr, 0, value=size)
            yield from api.load(1, addr)
            live.append(addr)
            if len(live) > 2:
                yield from api.free(live.pop(0))
        for addr in live:
            yield from api.free(addr)

    workload = CustomWorkload([kernel] * threads, name="alloc_fuzz")
    result = run_parallel_monitoring(
        workload, AddrCheck, SimulationConfig.for_threads(threads),
        keep_trace=True)
    assert result.violations == []
    oracle = replay(result.trace, lambda: AddrCheck(
        heap_range=AddressLayout.heap_range()))
    assert (result.lifeguard_obj.metadata_fingerprint()
            == oracle.metadata_fingerprint())
