"""A finished run frees itself (DESIGN §5k, "What a finished run leaves
behind").

Once a run completes, nothing of the simulated machine sits in a
reference cycle: reference counting frees the engine, its calendar
ring, the cores, caches, memory and logs the moment the runner returns,
and a caller holding the :class:`~repro.platform.RunResult` keeps only
the result, its trace and its lifeguard. Each check runs with the
cyclic garbage collector off, so a cycle shows up as leaked objects
instead of being collected at some later, unrelated allocation. A run
that raises (deadlock, timeout) keeps its machine for the crash report
and is out of scope.
"""

import pytest

from repro.capture.log_buffer import LogBuffer
from repro.common.errors import DeadlockError
from repro.common.config import MemoryModel, SimulationConfig
from repro.cpu.engine import Condition, CoreActor, Engine
from repro.faults import FaultPlan
from repro.faults.plan import parse_fault_spec
from repro.lifeguards import LIFEGUARDS, TaintCheck
from repro.memory.coherence import CoherentMemorySystem
from repro.platform import SCHEMES, run_scheme
from repro.replay import capture_archive, replay_archive
from repro.trace import TraceWriter, read_trace
from repro.trace.diff import differential_check
from repro.workloads import build_workload
from tests.conftest import no_cyclic_garbage, survivors

#: Ways to observe a run: each attaches a different part of the
#: flight recorder, capture or fault machinery to the machine.
VARIANTS = ("plain", "file_tracer", "kept_tracer", "keep_trace",
            "fault_plan")


def _run(scheme, memory_model, variant, tmp_path):
    config = SimulationConfig.for_threads(2, memory_model=memory_model)
    options = {}
    tracer = None
    if variant == "file_tracer":
        tracer = TraceWriter.to_path(str(tmp_path / "trace.jsonl"))
    elif variant == "kept_tracer":
        tracer = TraceWriter(keep=True)
    elif variant == "keep_trace":
        options["keep_trace"] = True
    elif variant == "fault_plan":
        options["fault_plan"] = FaultPlan(faults=(
            parse_fault_spec("lifeguard:stall:t0:count=1:param=50"),))
    try:
        return run_scheme(scheme, build_workload("swaptions", 2), TaintCheck,
                          config, tracer=tracer, **options)
    finally:
        if tracer is not None:
            tracer.close()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("memory_model", list(MemoryModel),
                         ids=lambda model: model.name)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_finished_run_leaves_no_cyclic_garbage(scheme, memory_model, variant,
                                               tmp_path):
    result = no_cyclic_garbage(
        lambda: _run(scheme, memory_model, variant, tmp_path))
    assert result.instructions > 0
    if variant == "file_tracer":
        assert read_trace(str(tmp_path / "trace.jsonl"))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_held_result_keeps_no_machine_alive(scheme):
    # Everything a run builds per machine: while the caller still holds
    # the result, none of it may be alive.
    result, alive = survivors(
        lambda: _run(scheme, MemoryModel.TSO, "keep_trace", None),
        Engine, CoreActor, LogBuffer, Condition, CoherentMemorySystem)
    assert alive == []
    assert result.total_cycles > 0
    if scheme != "none":
        assert result.trace
        assert result.lifeguard_obj.metadata_fingerprint()["registers"]


def test_archive_replay_leaves_no_cyclic_garbage(tmp_path):
    path = str(tmp_path / "run.plog")
    capture_archive(path, 7)
    for name in sorted(LIFEGUARDS):
        replayed = no_cyclic_garbage(lambda: replay_archive(path, name))
        assert replayed.records > 0


def test_differential_check_with_replay_leaves_no_cyclic_garbage():
    report = no_cyclic_garbage(
        lambda: differential_check(20001, "taintcheck", replay=True))
    report.assert_ok()


class _StallsAfterFive(CoreActor):
    """Busy for 5 cycles, then waits on a condition nobody notifies."""

    def __init__(self, engine):
        super().__init__(engine, "stuck")
        self.steps = iter([("delay", 5, "useful"),
                           ("wait", Condition("never"), "b", "forever")])

    def step(self):
        return next(self.steps)


def test_completed_engine_detaches_only_its_own_clock():
    tracer = TraceWriter(keep=True)
    first = Engine(tracer=tracer)
    second = Engine(tracer=tracer)  # the writer now follows this clock
    second.now = 7
    first.run()
    tracer.emit("engine", "probe")
    assert tracer.events[-1]["cycle"] == 7
    second.run()
    tracer.emit("engine", "probe")
    assert tracer.events[-1]["cycle"] == 0


def test_failed_run_keeps_its_machine_for_the_report():
    tracer = TraceWriter(keep=True)
    engine = Engine(tracer=tracer)
    engine.diagnostics_provider = lambda: {"progress": {"t0": 1}}
    actor = _StallsAfterFive(engine)
    actor.start()
    with pytest.raises(DeadlockError) as info:
        engine.run()
    assert info.value.progress == {"t0": 1}
    assert engine.diagnostics_provider is not None
    assert list(engine.live_actors) == [actor]
    tracer.emit("engine", "probe")
    assert tracer.events[-1]["cycle"] == 5
