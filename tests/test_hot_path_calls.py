"""A deterministic guard on the per-record host work of every scheme,
of archive replay and of the flight recorder.

Retiring one record (capture, log, the lifeguard core's delivery and
publish, IT, the engine trampoline, the memory system) is the path
DESIGN §5k keeps free of calls that do no work; replaying one delivered
event (the delivery loop, the handler, the metadata map) is the path
DESIGN §5l keeps free of them. Wall-clock speed is too noisy for tier
1, but the number of host calls per simulated instruction, per
delivered event and per record is exact: a call that does no work
coming back onto a path shows here as a rise. Per emitted trace event,
the same count shows an emit site drifting back from its prepared
emitter onto the general ``TraceWriter.emit``.

Each bound is about 5% above the count measured on CPython 3.11, which
leaves room for the interpreter versions CI runs (3.12 inlines
comprehensions, so it makes slightly fewer calls).
"""

import cProfile
import pstats

import pytest

from repro.common.config import MemoryModel, SimulationConfig
from repro.lifeguards import LIFEGUARDS, TaintCheck
from repro.lifeguards.oracle import deliver
from repro.platform import SCHEMES, run_parallel_monitoring, run_scheme
from repro.replay import TraceReader, replay_archive
from repro.replay.format import write_archive
from repro.trace import TraceWriter
from repro.trace.diff import lifeguard_factory
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


#: lifeguard -> bound on host calls per event of the delivered-event
#: stream that ``replay_archive`` feeds it (measured: addrcheck 1.01,
#: lockset 1.93, memcheck 2.26, taintcheck 2.53; before the cuts DESIGN
#: §5l lists: 1.00, 2.18, 4.52, 5.83).
REPLAY_CALL_BOUNDS = {
    "addrcheck": 1.06,
    "lockset": 2.03,
    "memcheck": 2.37,
    "taintcheck": 2.66,
}

#: Bound on host calls per record of ``deliver`` (measured 1.00; 2.99
#: before the batched passthrough).
DELIVER_CALL_BOUND = 1.05


def profiled_calls(function, *args) -> int:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        function(*args)
    finally:
        profiler.disable()
    return pstats.Stats(profiler).total_calls


@pytest.fixture(scope="module")
def radiosity_archive(tmp_path_factory):
    """A decoded archive of tiny 4-thread radiosity under TaintCheck."""
    config = SimulationConfig.for_threads(4)
    result = run_parallel_monitoring(
        build_workload("radiosity", 4), lifeguard_factory("taintcheck"),
        config, keep_trace=True)
    path = tmp_path_factory.mktemp("replay") / "radiosity.plog"
    write_archive(path, result.trace, nthreads=4, config=config)
    reader = TraceReader(path)
    reader.delivered()  # decode and deliver outside the profiled calls
    return reader


def test_every_lifeguard_has_a_replay_bound():
    assert set(REPLAY_CALL_BOUNDS) == set(LIFEGUARDS)


@pytest.mark.parametrize("lifeguard", sorted(REPLAY_CALL_BOUNDS))
def test_host_calls_per_replayed_event(radiosity_archive, lifeguard):
    replay_archive(radiosity_archive, lifeguard)  # one-time work first
    calls = (profiled_calls(replay_archive, radiosity_archive, lifeguard)
             / len(radiosity_archive.delivered()))
    assert calls <= REPLAY_CALL_BOUNDS[lifeguard], (
        f"{lifeguard}: {calls:.2f} host calls per delivered event, "
        f"bound {REPLAY_CALL_BOUNDS[lifeguard]}")


def test_host_calls_per_delivered_record(radiosity_archive):
    records = radiosity_archive.linearized()
    deliver(records)
    calls = profiled_calls(deliver, records) / len(records)
    assert calls <= DELIVER_CALL_BOUND, (
        f"deliver: {calls:.2f} host calls per record, "
        f"bound {DELIVER_CALL_BOUND}")


#: memory model -> bound on host calls per emitted trace event of a
#: file-traced parallel run (measured: SC 16.27, TSO 17.17; 21.20 and
#: 22.02 when every site took ``emit``).
TRACE_CALL_BOUNDS = {
    "SC": 17.1,
    "TSO": 18.0,
}


def traced_run(model: str, path, profiler=None) -> int:
    """Run tiny 4-thread radiosity under TaintCheck, traced to ``path``;
    returns the events emitted."""
    config = SimulationConfig.for_threads(4, memory_model=MemoryModel[model])
    tracer = TraceWriter.to_path(str(path))
    try:
        if profiler is not None:
            profiler.enable()
        run_parallel_monitoring(build_workload("radiosity", 4), TaintCheck,
                                config, tracer=tracer)
    finally:
        if profiler is not None:
            profiler.disable()
        tracer.close()
    return tracer.emitted


@pytest.mark.parametrize("model", sorted(TRACE_CALL_BOUNDS))
def test_host_calls_per_trace_event(model, tmp_path):
    traced_run(model, tmp_path / "warm.jsonl")  # one-time work first
    profiler = cProfile.Profile()
    emitted = traced_run(model, tmp_path / "trace.jsonl", profiler)
    calls = pstats.Stats(profiler).total_calls / emitted
    assert calls <= TRACE_CALL_BOUNDS[model], (
        f"{model}: {calls:.2f} host calls per emitted trace event, "
        f"bound {TRACE_CALL_BOUNDS[model]}")
