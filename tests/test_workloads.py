"""Tests for the workload kernels: construction, op-stream validity,
determinism, and signature properties the evaluation relies on."""

import pytest

from repro.common.config import ScalePreset, SimulationConfig
from repro.common.errors import WorkloadError
from repro.cpu.os_model import OSRuntime
from repro.isa.instructions import RecordKind
from repro.isa.program import ThreadApi
from repro.memory.mainmem import MainMemory
from repro.workloads import (
    PAPER_BENCHMARKS,
    WORKLOADS,
    CustomWorkload,
    build_workload,
)
from repro.workloads.swaptions import sample_allocation_size


def drive(workload, max_ops=500_000):
    """Run a workload's generators against a plain functional memory,
    returning every emitted op per thread."""
    memory = MainMemory()
    os_runtime = OSRuntime(memory, SimulationConfig())
    apis = [ThreadApi(tid, os_runtime) for tid in range(workload.nthreads)]
    workload.initialize(memory, os_runtime)
    programs = workload.thread_programs(apis)
    streams = [[] for _ in programs]
    # Round-robin the generators so spin loops that wait on other
    # threads' stores make progress.
    pending = {tid: (iter(gen), None) for tid, gen in enumerate(programs)}
    total = 0
    while pending and total < max_ops:
        for tid in list(pending):
            gen, sendval = pending[tid]
            try:
                op = gen.send(sendval) if sendval is not None or streams[tid] \
                    else next(gen)
            except StopIteration:
                del pending[tid]
                continue
            streams[tid].append(op)
            total += 1
            result = None
            if op.kind == RecordKind.LOAD:
                result = memory.read(op.addr, op.size)
            elif op.kind == RecordKind.RMW:
                result = memory.read(op.addr, op.size)
                memory.write(op.addr, op.size, op.value)
            elif op.kind == RecordKind.STORE:
                memory.write(op.addr, op.size, op.value)
            pending[tid] = (gen, result if result is not None else 0)
    return streams


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builds_one_program_per_thread(name):
    workload = build_workload(name, 2)
    memory = MainMemory()
    os_runtime = OSRuntime(memory, SimulationConfig())
    workload.initialize(memory, os_runtime)
    apis = [ThreadApi(tid, os_runtime) for tid in range(workload.nthreads)]
    programs = workload.thread_programs(apis)
    assert len(programs) == workload.nthreads


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_benchmark_streams_are_valid_and_nontrivial(name):
    workload = build_workload(name, 2)
    streams = drive(workload)
    assert all(len(stream) > 50 for stream in streams)
    for stream in streams:
        for op in stream:
            if op.is_memory:
                assert op.addr % op.size == 0
                assert op.addr // 64 == (op.addr + op.size - 1) // 64


def test_unknown_workload_rejected():
    with pytest.raises(WorkloadError):
        build_workload("nope", 2)


def test_zero_threads_rejected():
    with pytest.raises(WorkloadError):
        build_workload("lu", 0)


def test_workload_scales_with_preset():
    tiny = build_workload("lu", 2, ScalePreset.TINY)
    small = build_workload("lu", 2, ScalePreset.SMALL)
    assert small.n > tiny.n


@pytest.mark.parametrize("scale", ["tiny", "small", "paper"])
def test_string_scale_is_its_preset(scale):
    # A string scale used to fall through `sized` to the paper value.
    preset = ScalePreset(scale)
    workload = build_workload("swaptions", 4, scale=scale)
    assert workload.scale is preset
    assert workload.sized(1, 2, 3) == {"tiny": 1, "small": 2,
                                       "paper": 3}[scale]
    assert CustomWorkload([lambda api, w: iter(())],
                          scale=scale).scale is preset


def test_unknown_scale_rejected():
    with pytest.raises(WorkloadError, match="unknown scale 'huge'; "
                       "presets: \\['tiny', 'small', 'paper'\\]"):
        build_workload("lu", 2, scale="huge")


def test_fixed_problem_size_divides_across_threads():
    two = build_workload("swaptions", 2)
    four = build_workload("swaptions", 4)
    assert two.trials_per_thread > four.trials_per_thread


class TestSwaptionsSignature:
    def test_allocation_size_cdf_matches_paper(self):
        """1/3 of allocations at most 1 block, 2/3 at most 32 blocks,
        none above 128 blocks (Section 7)."""
        import random
        rng = random.Random(7)
        sizes = [sample_allocation_size(rng) for _ in range(20_000)]
        lines = [(size + 63) // 64 for size in sizes]
        frac_1 = sum(1 for l in lines if l <= 1) / len(lines)
        frac_32 = sum(1 for l in lines if l <= 32) / len(lines)
        assert frac_1 == pytest.approx(1 / 3, abs=0.02)
        assert frac_32 == pytest.approx(2 / 3, abs=0.02)
        assert max(lines) <= 128

    def test_swaptions_is_allocation_heavy(self):
        workload = build_workload("swaptions", 2)
        streams = drive(workload)
        mallocs = sum(
            1 for stream in streams for op in stream
            if op.kind == RecordKind.HL_BEGIN and op.hl_kind.name == "MALLOC")
        assert mallocs == workload.trials_per_thread * 2 * 2


class TestDeterminism:
    @pytest.mark.parametrize("name", ["lu", "barnes", "swaptions"])
    def test_same_seed_same_stream(self, name):
        lhs = drive(build_workload(name, 2, seed=3))
        rhs = drive(build_workload(name, 2, seed=3))
        for left, right in zip(lhs, rhs):
            assert len(left) == len(right)
            assert all(a.kind == b.kind and a.addr == b.addr
                       for a, b in zip(left, right))

    def test_different_seed_changes_barnes(self):
        lhs = drive(build_workload("barnes", 2, seed=1))
        rhs = drive(build_workload("barnes", 2, seed=2))
        lhs_addrs = [op.addr for op in lhs[0] if op.kind == RecordKind.LOAD]
        rhs_addrs = [op.addr for op in rhs[0] if op.kind == RecordKind.LOAD]
        assert lhs_addrs != rhs_addrs


class TestCustomWorkload:
    def test_builders_receive_api_and_workload(self):
        seen = []

        def kernel(api, workload):
            seen.append((api.tid, workload.name))
            yield from api.nop()

        workload = CustomWorkload([kernel, kernel], name="mini")
        drive(workload)
        assert seen == [(0, "mini"), (1, "mini")]

    def test_initializer_hook_runs(self):
        ran = []

        def kernel(api, workload):
            yield from api.nop()

        workload = CustomWorkload(
            [kernel], initializer=lambda mem, os, wl: ran.append(True))
        drive(workload)
        assert ran == [True]


class TestGlobalAllocation:
    def test_galloc_respects_alignment(self):
        workload = build_workload("lu", 2)
        addr = workload.galloc(10, align=64)
        assert addr % 64 == 0

    def test_galloc_exhaustion(self):
        workload = build_workload("lu", 2)
        with pytest.raises(WorkloadError):
            workload.galloc(1 << 30)
