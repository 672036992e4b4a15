"""A deterministic guard on the per-record host work of every scheme.

Retiring one record (capture, log, the lifeguard core's delivery and
publish, IT, the engine trampoline, the memory system) is the path
DESIGN §5k keeps free of calls that do no work. Wall-clock speed is too
noisy for tier 1, but the number of host calls per simulated
instruction is exact: a call that does no work coming back onto the
path shows here as a rise.

Each bound is about 5% above the count measured on CPython 3.11, which
leaves room for the interpreter versions CI runs (3.12 inlines
comprehensions, so it makes slightly fewer calls).
"""

import cProfile
import pstats

import pytest

from repro.lifeguards import TaintCheck
from repro.platform import SCHEMES, run_scheme
from repro.workloads import build_workload

#: scheme -> bound on host calls per simulated instruction (measured:
#: parallel 39.5, timesliced 35.9, none 13.5).
CALL_BOUNDS = {
    "parallel": 41.5,
    "timesliced": 37.7,
    "none": 14.2,
}


def calls_per_instruction(scheme: str) -> float:
    workload = build_workload("radiosity", 4)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_scheme(scheme, workload, TaintCheck)
    finally:
        profiler.disable()
    return pstats.Stats(profiler).total_calls / result.instructions


def test_every_scheme_has_a_bound():
    assert set(CALL_BOUNDS) == set(SCHEMES)


@pytest.mark.parametrize("scheme", sorted(CALL_BOUNDS))
def test_host_calls_per_instruction(scheme):
    # An unprofiled run first, so that one-time work (lazy imports,
    # caches filled on first use) is not counted.
    run_scheme(scheme, build_workload("radiosity", 4), TaintCheck)
    calls = calls_per_instruction(scheme)
    assert calls <= CALL_BOUNDS[scheme], (
        f"{scheme}: {calls:.2f} host calls per simulated instruction, "
        f"bound {CALL_BOUNDS[scheme]}")
