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


class TestAcceptanceSweep:
    def test_25_seeds_every_lifeguard(self):
        """The issue's acceptance criterion: >= 25 seeded random programs
        with identical lifeguard verdicts across the three schemes."""
        reports = differential_sweep(range(25))
        bad = [report for report in reports if not report.ok]
        assert not bad, "\n\n".join(report.summary() for report in bad)
        assert len(reports) == 25 * len(ALL_LIFEGUARDS)


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
