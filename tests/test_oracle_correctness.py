"""Oracle-based end-to-end correctness: the parallel platform's lifeguard
state must equal a sequential replay of the captured trace in coherence
order — for every benchmark, both lifeguards, and all accelerator and
capture-mode combinations. This is the test that catches ordering bugs
(lost arcs, bad flushes, leaky CA barriers)."""

import pytest

from repro import (
    AddrCheck,
    LockSet,
    MemCheck,
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_parallel_monitoring,
    run_timesliced_monitoring,
)
from repro.common.config import CaptureMode
from repro.cpu.os_model import AddressLayout
from repro.lifeguards.oracle import fingerprints_match, linearize, replay


def oracle_for(lifeguard_cls, trace):
    return replay(
        trace, lambda: lifeguard_cls(heap_range=AddressLayout.heap_range()))


def assert_matches_oracle(result, lifeguard_cls):
    oracle = oracle_for(lifeguard_cls, result.trace)
    assert (result.lifeguard_obj.metadata_fingerprint()
            == oracle.metadata_fingerprint())


PARALLEL_CASES = [
    ("racy_counters", TaintCheck, 4),
    ("taint_pipeline", TaintCheck, 4),
    ("barnes", TaintCheck, 2),
    ("lu", TaintCheck, 2),
    ("ocean", TaintCheck, 2),
    ("fmm", TaintCheck, 2),
    ("radiosity", TaintCheck, 2),
    ("blackscholes", TaintCheck, 2),
    ("fluidanimate", TaintCheck, 2),
    ("swaptions", TaintCheck, 2),
    ("swaptions", AddrCheck, 2),
    ("heap_bugs", AddrCheck, 3),
    ("swaptions", MemCheck, 2),
    ("racy_counters", LockSet, 4),
    ("fluidanimate", LockSet, 2),
    ("fmm", LockSet, 2),
] + [
    # LockSet's Eraser state depends on the order unordered reads reach
    # it, so at 4 threads its reports differ from the commit-order
    # replay (ROADMAP item 13). The fix must flip these.
    pytest.param(name, LockSet, 4, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="LockSet diverges from the oracle (ROADMAP item 13)"))
    for name in ("fluidanimate", "fmm")
]


@pytest.mark.parametrize("name,lifeguard,threads", PARALLEL_CASES)
def test_parallel_monitoring_matches_oracle(name, lifeguard, threads):
    result = run_parallel_monitoring(
        build_workload(name, threads), lifeguard,
        SimulationConfig.for_threads(threads), keep_trace=True)
    assert_matches_oracle(result, lifeguard)


@pytest.mark.parametrize("accel", [True, False], ids=["accel", "no_accel"])
@pytest.mark.parametrize("name,lifeguard,threads", [
    # The accelerator sets a run can reach: accel=True enables the ones
    # the lifeguard uses, accel=False none.
    ("taint_pipeline", TaintCheck, 3),  # IT + M-TLB
    ("heap_bugs", AddrCheck, 3),        # IF + M-TLB
    ("swaptions", MemCheck, 2),         # IT + IF + M-TLB
    ("racy_counters", LockSet, 4),      # M-TLB
], ids=["taintcheck", "addrcheck", "memcheck", "lockset"])
def test_every_accelerator_combination_matches_oracle(
        name, lifeguard, threads, accel):
    result = run_parallel_monitoring(
        build_workload(name, threads), lifeguard,
        SimulationConfig.for_threads(threads), accel=accel, keep_trace=True)
    assert_matches_oracle(result, lifeguard)


@pytest.mark.parametrize("mode", [CaptureMode.PER_BLOCK, CaptureMode.PER_CORE])
def test_both_capture_modes_match_oracle(mode):
    config = SimulationConfig.for_threads(4).replace(capture_mode=mode)
    result = run_parallel_monitoring(
        build_workload("racy_counters", 4), TaintCheck, config,
        keep_trace=True)
    assert_matches_oracle(result, TaintCheck)


def test_reduction_disabled_matches_oracle():
    config = SimulationConfig.for_threads(4).replace(
        transitive_reduction=False)
    result = run_parallel_monitoring(
        build_workload("racy_counters", 4), TaintCheck, config,
        keep_trace=True)
    assert_matches_oracle(result, TaintCheck)


def test_tiny_log_buffer_matches_oracle():
    config = SimulationConfig.for_threads(2).replace(
        log_config=SimulationConfig().log_config.__class__(size_bytes=128))
    result = run_parallel_monitoring(
        build_workload("racy_counters", 2), TaintCheck, config,
        keep_trace=True)
    assert_matches_oracle(result, TaintCheck)


def test_small_advertising_threshold_matches_oracle():
    config = SimulationConfig.for_threads(2).replace(
        delayed_advertising_threshold=4)
    result = run_parallel_monitoring(
        build_workload("taint_pipeline", 2), TaintCheck, config,
        keep_trace=True)
    assert_matches_oracle(result, TaintCheck)


def test_timesliced_matches_oracle():
    result = run_timesliced_monitoring(
        build_workload("racy_counters", 3), TaintCheck,
        SimulationConfig.for_threads(3), keep_trace=True)
    assert_matches_oracle(result, TaintCheck)


class TestLinearize:
    def test_linearization_is_sorted_and_complete(self):
        result = run_parallel_monitoring(
            build_workload("racy_counters", 2), TaintCheck,
            SimulationConfig.for_threads(2), keep_trace=True)
        ordered = linearize(result.trace)
        assert len(ordered) == len(result.trace)
        times = [record.commit_time for record in ordered]
        assert times == sorted(times)

    def test_per_thread_program_order_preserved(self):
        result = run_parallel_monitoring(
            build_workload("racy_counters", 2), TaintCheck,
            SimulationConfig.for_threads(2), keep_trace=True)
        ordered = linearize(result.trace)
        last_rid = {}
        for record in ordered:
            assert last_rid.get(record.tid, 0) < record.rid
            last_rid[record.tid] = record.rid


class TestFingerprintsMatch:
    """``fingerprints_match`` reads lifeguard state directly; it must
    answer exactly what fingerprint equality answers."""

    @staticmethod
    def _agrees(lhs, rhs) -> bool:
        expected = lhs.metadata_fingerprint() == rhs.metadata_fingerprint()
        assert fingerprints_match(lhs, rhs) is expected
        assert fingerprints_match(rhs, lhs) is expected
        return expected

    def test_acceptance_sweep_oracle_pairs(self):
        """Every (live, oracle) pair of the 25-seed acceptance sweep's
        monitored runs, plus the mismatching pairs across seeds and
        the pinned MemCheck program whose registers diverge."""
        from repro.lifeguards import LIFEGUARDS
        from repro.trace.diff import RacyProgram, lifeguard_factory

        config = SimulationConfig.for_threads(2)
        verdicts = []
        for name in sorted(LIFEGUARDS):
            factory = lifeguard_factory(name)
            previous = None
            for seed in [*range(25), 20168]:
                program = RacyProgram.generate(seed)
                for runner in (run_parallel_monitoring,
                               run_timesliced_monitoring):
                    result = runner(program.workload(), factory, config,
                                    keep_trace=True)
                    oracle = replay(result.trace, lambda: factory(
                        heap_range=AddressLayout.heap_range()))
                    live = result.lifeguard_obj
                    verdicts.append(self._agrees(live, oracle))
                    if previous is not None:
                        verdicts.append(self._agrees(live, previous))
                    previous = oracle
        assert True in verdicts and False in verdicts

    @staticmethod
    def _pair(bits=(2, 2)):
        from repro.lifeguards.metadata import MetadataMap

        lhs, rhs = TaintCheck(), TaintCheck()
        lhs.metadata = MetadataMap(bits[0])
        rhs.metadata = MetadataMap(bits[1])
        return lhs, rhs

    def test_absent_chunk_equals_an_all_zero_chunk(self):
        lhs, rhs = self._pair()
        rhs.metadata.set(0x4000_0000, 3)
        rhs.metadata.set(0x4000_0000, 0)  # resident, all zero
        assert rhs.metadata.resident_chunks == 1
        assert self._agrees(lhs, rhs)
        rhs.metadata.set(0x4000_0001, 1)
        assert not self._agrees(lhs, rhs)

    def test_different_bits_per_byte(self):
        lhs, rhs = self._pair(bits=(1, 2))
        for side in (lhs, rhs):
            side.metadata.set_range(0x1000, 5, 1)
        assert self._agrees(lhs, rhs)
        rhs.metadata.set(0x1002, 2)
        assert not self._agrees(lhs, rhs)

    def test_all_zero_register_row_on_one_side(self):
        lhs, rhs = self._pair()
        rhs.regs(1)  # materializes an all-zero row for t1
        assert not self._agrees(lhs, rhs)
        lhs.regs(1)
        assert self._agrees(lhs, rhs)
        lhs.regs(1)[3] = 1
        assert not self._agrees(lhs, rhs)

    def test_violations_compare_as_a_kind_tid_set(self):
        from repro.lifeguards.base import Violation

        first = Violation("taintcheck", "tainted-critical-use", 0, 5, "a")
        second = Violation("taintcheck", "tainted-critical-use", 1, 9, "b")
        lhs, rhs = self._pair()
        lhs.violations = [first, second]
        rhs.violations = [second, first]
        assert self._agrees(lhs, rhs)
        rhs.violations = [first, Violation(
            "taintcheck", "tainted-critical-use", 0, 9, "b")]
        assert not self._agrees(lhs, rhs)
