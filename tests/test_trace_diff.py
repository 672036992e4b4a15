"""Cross-scheme differential testing (repro.trace.diff).

The fast tier runs the full acceptance sweep — 25+ seeded random racy
programs, every lifeguard, parallel vs time-sliced vs baseline — in a
couple of seconds. The ``slow`` tier widens the sweep (more seeds,
3- and 4-thread programs, longer scripts)."""

import pytest

from repro.lifeguards import LIFEGUARDS
from repro.trace.diff import (
    RacyProgram,
    SHARED_SLOTS,
    differential_check,
    differential_sweep,
)

ALL_LIFEGUARDS = tuple(sorted(LIFEGUARDS))


class TestRacyProgramGenerator:
    def test_every_thread_plants_the_bug_inventory(self):
        program = RacyProgram.generate(2, nthreads=3)
        for script in program.scripts:
            kinds = [step[0] for step in script]
            assert kinds.count("taintchain") == 1
            assert 1 <= kinds.count("heap") <= 2
            # preamble: every shared slot written by every thread
            assert kinds[:len(SHARED_SLOTS)] == ["sstore"] * len(SHARED_SLOTS)

    def test_heap_sizes_stay_in_the_padding(self):
        program = RacyProgram.generate(4, nthreads=4, length=30)
        for script in program.scripts:
            for step in script:
                if step[0] == "heap":
                    # the off-by-n byte must land in the 8-byte-aligned
                    # block's own padding and inside LockSet's free-time
                    # word recycling range
                    assert step[1] % 4 != 0

    def test_expected_verdicts_cover_planted_bugs(self):
        program = RacyProgram.generate(6, nthreads=2)
        expected = program.expected_verdicts("taintcheck")
        assert sum(expected.values()) == 2  # one tainted use per thread
        assert program.expected_verdicts("addrcheck")
        assert program.expected_verdicts("memcheck")


class TestDifferentialSingles:
    @pytest.mark.parametrize("lifeguard", ALL_LIFEGUARDS)
    def test_one_seed_per_lifeguard(self, lifeguard):
        differential_check(1, lifeguard=lifeguard).assert_ok()

    def test_report_shape(self):
        report = differential_check(2)
        assert report.ok
        assert set(report.instructions) == {"parallel", "timesliced",
                                            "no_monitoring"}
        assert set(report.verdicts) == {"parallel", "timesliced"}
        assert "OK" in report.summary()

    def test_failures_render_readably(self):
        report = differential_check(2)
        report.failures.append("synthetic divergence for rendering")
        assert not report.ok
        with pytest.raises(AssertionError, match="synthetic divergence"):
            report.assert_ok()


#: Simulated work of the 25-seed x 4-lifeguard acceptance sweep, per
#: scheme: sums of cycles, retired instructions, engine events popped
#: and shadow-chunk allocations, and the peak shadow-chunk residency.
#: Pinned exactly: a change that moves the engine, the cores or the
#: metadata map by one event or one cycle must update this table.
SWEEP_WORK = {
    "parallel": {"sim_cycles": 106883, "instructions": 10232,
                 "events_popped": 24659, "shadow_chunk_allocs": 75,
                 "shadow_chunks_peak": 1},
    "timesliced": {"sim_cycles": 135423, "instructions": 10232,
                   "events_popped": 22144, "shadow_chunk_allocs": 75,
                   "shadow_chunks_peak": 1},
    "no_monitoring": {"sim_cycles": 61236, "instructions": 10232,
                      "events_popped": 10432, "shadow_chunk_allocs": 0,
                      "shadow_chunks_peak": 0},
}


def sweep_work(reports) -> dict:
    """Per-scheme totals of the counters in :data:`SWEEP_WORK`."""
    totals = {}
    for report in reports:
        for scheme, perf in report.perf.items():
            work = totals.setdefault(scheme, dict.fromkeys(
                SWEEP_WORK[scheme], 0))
            for counter in ("sim_cycles", "events_popped",
                            "shadow_chunk_allocs"):
                work[counter] += perf.get(counter, 0)
            work["instructions"] += report.instructions[scheme]
            work["shadow_chunks_peak"] = max(
                work["shadow_chunks_peak"],
                perf.get("shadow_chunks_peak", 0))
    return totals


class TestAcceptanceSweep:
    @pytest.fixture(scope="class")
    def reports(self):
        return differential_sweep(range(25))

    def test_25_seeds_every_lifeguard(self, reports):
        """The issue's acceptance criterion: >= 25 seeded random programs
        with identical lifeguard verdicts across the three schemes."""
        bad = [report for report in reports if not report.ok]
        assert not bad, "\n\n".join(report.summary() for report in bad)
        assert len(reports) == 25 * len(ALL_LIFEGUARDS)

    def test_work_counters_are_pinned(self, reports):
        assert sweep_work(reports) == SWEEP_WORK


@pytest.mark.slow
class TestWideSweep:
    def test_sixty_more_seeds(self):
        reports = differential_sweep(range(25, 85))
        bad = [report for report in reports if not report.ok]
        assert not bad, "\n\n".join(report.summary() for report in bad)

    @pytest.mark.parametrize("nthreads,length", [(3, 30), (4, 24)])
    def test_wider_machines(self, nthreads, length):
        reports = differential_sweep(range(12), nthreads=nthreads,
                                     length=length)
        bad = [report for report in reports if not report.ok]
        assert not bad, "\n\n".join(report.summary() for report in bad)


class TestKnownSimulatorBugs:
    """Pinned open bugs: each test asserts the correct behaviour and is
    a strict xfail, so the change that fixes the bug must flip it."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="MemCheck register metadata of both monitored "
                              "schemes differs from the replay oracle's")
    def test_memcheck_program_20168_matches_the_oracle(self):
        report = differential_check(20168, "memcheck")
        assert report.ok, report.summary()
