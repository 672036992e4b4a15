"""Self-tests of the end-to-end benchmark, on small inputs.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from e2e_layers import attribute, matching_entries  # noqa: E402
from e2e_workloads import (  # noqa: E402
    DiffSweep,
    FigCells,
    ReplayFanout,
    ServeTraced,
)
from repro import ScalePreset  # noqa: E402

#: The public API the benchmark may import (README "Public API
#: contract"); module -> names.
PUBLIC_API = {
    "repro": {"MemoryModel", "ScalePreset", "SimulationConfig",
              "SimulationError"},
    "repro.platform": {"run_no_monitoring", "run_timesliced_monitoring",
                       "run_parallel_monitoring", "RunResult"},
    "repro.workloads": {"build_workload", "PAPER_BENCHMARKS"},
    "repro.lifeguards": {"LIFEGUARDS"},
    "repro.trace": {"TraceWriter", "read_trace", "trace_hash"},
    "repro.trace.diff": {"differential_check", "lifeguard_factory"},
    "repro.replay": {"write_archive", "TraceReader", "replay_archive",
                     "replay_payload", "canonical_json"},
}

#: Each workload at a size that runs in about a second.
SMALL = {
    "fig-cells": lambda seed: FigCells(
        seed, benchmarks=("swaptions",), scale=ScalePreset.TINY, threads=2),
    "diff-sweep": lambda seed: DiffSweep(seed, programs=2),
    "replay-fanout": lambda seed: ReplayFanout(
        seed, benchmarks=("swaptions",), threads=2),
    "serve-traced": lambda seed: ServeTraced(
        seed, benchmarks=("swaptions",), scale=ScalePreset.TINY, threads=2),
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_small_sizes_cover_every_workload():
    assert set(SMALL) == set(run.WORKLOADS) == {
        workload["name"] for workload in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "layers"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_declared_metric_is_emitted(name, trace, tmp_path):
    report = run.run_workload(SMALL[name](1), 0, str(tmp_path), trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert report["correct"], report["failures"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    assert [(metric, entry["unit"])
            for metric, entry in report["metrics"].items()] == [
        (metric["name"], metric["unit"]) for metric in declared]
    values = {metric: entry["value"]
              for metric, entry in report["metrics"].items()}
    assert all(isinstance(value, (int, float)) for value in values.values())
    if trace:
        assert values["profile.coverage"] >= 0.95
        assert values["profile.overhead"] > 0
    else:
        assert all(value > 0 for value in values.values()), values


class _Perturbed(DiffSweep):
    """A differential sweep whose simulated outputs drift by one cycle."""

    def check(self, op, report):
        outcome = super().check(op, report)
        outcome.output["sim_cycles"]["parallel"] += 1
        return outcome


def test_digest_check_goes_red_and_green(tmp_path):
    first = run.run_workload(DiffSweep(3, programs=2), 0, str(tmp_path))
    green = run.run_workload(DiffSweep(3, programs=2), 0, str(tmp_path),
                             expected_digest=first["digest"])
    assert green["digest"] == first["digest"]
    assert green["correct"] and green["failed"] == 0
    red = run.run_workload(_Perturbed(3, programs=2), 0, str(tmp_path),
                           expected_digest=first["digest"])
    assert not red["correct"]
    assert red["failed"] / red["attempted"] == 1.0


def test_recorded_digests_cover_seeds_one_and_two():
    digests = json.loads((HERE / "digests.json").read_text())
    assert set(digests) == set(run.WORKLOADS)
    for per_seed in digests.values():
        assert set(per_seed) == {"1", "2"}


def test_every_module_maps_to_exactly_one_layer():
    package = ROOT / "src" / "repro"
    modules = sorted(path.relative_to(package).as_posix()
                     for path in package.rglob("*.py"))
    assert modules
    unmapped = {module: matching_entries(module) for module in modules
                if len(matching_entries(module)) != 1}
    assert not unmapped


def test_outside_time_is_charged_to_the_calling_layers(tmp_path):
    package = tmp_path / "repro"
    engine = (str(package / "cpu" / "engine.py"), 1, "run")
    cores = (str(package / "cpu" / "cores.py"), 1, "step")
    helper = ("/lib/json/encoder.py", 1, "encode")
    builtin = ("~", 0, "<method 'append' of 'list' objects>")
    root = ("/bench/run.py", 1, "execute")
    # func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        engine: (1, 1, 1.0, 6.0, {root: (1, 1, 1.0, 6.0)}),
        cores: (2, 2, 1.0, 3.5, {root: (2, 2, 1.0, 3.5)}),
        # 3 s of self time: 2 s reached from the engine, 1 s from cores.
        builtin: (9, 9, 3.0, 3.0, {engine: (6, 6, 2.0, 2.0),
                                   cores: (3, 3, 1.0, 1.0)}),
        # Outside code twice removed: 2 s, all under the engine's helper.
        helper: (1, 1, 1.0, 3.0, {engine: (1, 1, 1.0, 3.0)}),
        ("~", 0, "<built-in method dumps>"): (
            1, 1, 2.0, 2.0, {helper: (1, 1, 2.0, 2.0)}),
    }
    self_s, calls_in, other = attribute(stats, str(package))
    assert self_s == pytest.approx({"cpu.engine": 1.0 + 2.0 + 1.0 + 2.0,
                                    "cpu.cores": 1.0 + 1.0})
    assert other == pytest.approx(0.5)
    assert calls_in == {"cpu.engine": 1, "cpu.cores": 2}


def test_compare_verdicts():
    import compare

    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    noisy = [50, 150, 60, 140, 100, 100, 70, 130, 90, 110]
    assert compare.verdict(steady, [x * 1.2 for x in steady],
                           "higher", 0.1) == ("improved", 10)
    assert compare.verdict(steady, [x * 1.2 for x in steady],
                           "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, steady, "higher", 0.1)[0] == "unchanged"
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"


def _benchmark_sources():
    return [path for path in sorted(HERE.glob("*.py"))
            if not path.name.startswith("test_")]


def test_benchmark_imports_only_the_public_api():
    for path in _benchmark_sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(alias.name.startswith("repro")
                               for alias in node.names), path
            elif isinstance(node, ast.ImportFrom) and (
                    node.module or "").split(".")[0] == "repro":
                names = {alias.name for alias in node.names}
                allowed = PUBLIC_API.get(node.module, set())
                assert names <= allowed, (path.name, node.module,
                                          names - allowed)
            elif isinstance(node, ast.Call):
                keywords = {kw.arg for kw in node.keywords}
                assert not keywords & {"backend", "jobs", "executor"}, (
                    path.name, node.lineno)


def test_run_fails_cleanly_without_the_package(tmp_path):
    """The benchmark alone, without ``src/repro``, exits non-zero and
    prints no result."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(HERE / "digests.json", bench)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "diff-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""
