"""Tests for the ``repro.jobs`` parallel sweep executor.

Covers the determinism contract (parallel merge byte-identical to the
serial run), the failure paths (timeout, crash isolation, one run per
cell, interrupt) and the acceptance-criterion speedup on the
25-seed differential sweep (slow tier; the speedup assertion is guarded
on effective CPU count so a throttled 1-core CI host measures
correctness but not parallelism).
"""

import json
import os
import time

import pytest

from repro.jobs import (
    EXIT_CRASHED,
    EXIT_OK,
    EXIT_TIMEOUT,
    Job,
    run_jobs,
)
from repro.trace.diff import differential_sweep, report_payload
from repro.trace.writer import TraceWriter


# -- module-level workers (pickled by reference into worker processes) --------

def square_worker(payload):
    return {"square": payload["n"] * payload["n"]}


def misbehaving_worker(payload):
    """Scriptable worker: mark a file / sleep / hard-exit / raise on
    demand."""
    if payload.get("mark"):
        with open(payload["mark"], "a") as handle:
            handle.write(f"ran j{payload['n']}\n")
    if payload.get("sleep"):
        time.sleep(payload["sleep"])
    if payload.get("exit"):
        os._exit(payload["exit"])  # simulates a segfaulted/killed worker
    if payload.get("raise"):
        raise RuntimeError(payload["raise"])
    return {"n": payload["n"]}


def pid_worker(payload):
    return os.getpid()


def set_worker(payload):
    """Returns a value that pickles but does not JSON-normalize."""
    return {payload["n"]}


def _jobs(n, **extra_by_id):
    out = []
    for i in range(n):
        payload = {"n": i}
        payload.update(extra_by_id.get(f"j{i}", {}))
        out.append(Job(f"j{i}", payload))
    return out


def _effective_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- the determinism contract -------------------------------------------------

class TestDeterministicMerge:
    def test_serial_and_parallel_results_identical(self):
        jobs = _jobs(8)
        serial = run_jobs(jobs, square_worker, nworkers=1)
        parallel = run_jobs(jobs, square_worker, nworkers=3)
        assert serial == parallel
        assert [r.job_id for r in parallel] == [j.job_id for j in jobs]

    def test_values_are_json_normalized_on_every_path(self):
        def tuple_worker(payload):
            return (payload["n"], (1, 2))
        # In-process (serial) results must round-trip exactly like
        # pickled pool results: pure JSON types.
        result = run_jobs([Job("a", {"n": 5})], tuple_worker)[0]
        assert result.value == [5, [1, 2]]

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_jobs([Job("same", {}), Job("same", {})], square_worker)

    def test_diff_sweep_parallel_byte_identical_to_serial(self):
        """Tier-1 guard: the sweep surfaces' merged parallel output is
        byte-for-byte the serial output (small sweep; the full 25-seed
        acceptance version lives in the slow tier below)."""
        kwargs = dict(lifeguards=("addrcheck", "taintcheck"))
        serial = differential_sweep(range(3), **kwargs)
        parallel = differential_sweep(range(3), jobs=2, **kwargs)
        as_bytes = lambda reports: json.dumps(
            [report_payload(r) for r in reports], sort_keys=True)
        assert as_bytes(serial) == as_bytes(parallel)


# -- failure paths ------------------------------------------------------------

def _starts(tracer, job_id):
    return sum(1 for e in tracer.events
               if e["event"] == "start" and e["job"] == job_id)


class TestFailurePaths:
    def test_timeout_runs_once_without_poisoning_siblings(self):
        jobs = _jobs(4, j1={"sleep": 60})
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(jobs, misbehaving_worker, nworkers=2,
                           timeout=0.5, tracer=tracer)
        by_id = {r.job_id: r for r in results}
        assert by_id["j1"].status == "timeout"
        assert by_id["j1"].exit_code == EXIT_TIMEOUT
        assert [_starts(tracer, job.job_id) for job in jobs] == [1] * 4
        for sibling in ("j0", "j2", "j3"):
            assert by_id[sibling].status == "ok"
            assert by_id[sibling].value == {"n": int(sibling[1])}

    def test_hung_cell_at_one_worker_runs_once(self):
        """The single-slot path: a hung cell's process is killed alone,
        and the cell after it runs once on a fresh process."""
        jobs = _jobs(3, j1={"sleep": 60})
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(jobs, misbehaving_worker, timeout=0.5,
                           tracer=tracer)
        assert [r.status for r in results] == ["ok", "timeout", "ok"]
        assert [r.value for r in results] == [{"n": 0}, None, {"n": 2}]
        assert [_starts(tracer, job.job_id) for job in jobs] == [1] * 3

    def test_crash_isolated_and_bounded(self):
        jobs = _jobs(4, j2={"exit": 7})
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(jobs, misbehaving_worker, nworkers=2,
                           tracer=tracer)
        by_id = {r.job_id: r for r in results}
        assert by_id["j2"].status == "crashed"
        assert by_id["j2"].exit_code == EXIT_CRASHED
        assert [_starts(tracer, job.job_id) for job in jobs] == [1] * 4
        for sibling in ("j0", "j1", "j3"):
            assert by_id[sibling].status == "ok"
            assert by_id[sibling].value == {"n": int(sibling[1])}

    @pytest.mark.parametrize("nworkers", [1, 2])
    def test_crashing_cell_runs_exactly_once(self, tmp_path, nworkers):
        """A cell whose worker process dies is never run again, also on
        the single slot every timed ``POST /runs`` takes: the cell's
        side effect happens once and no sibling runs twice."""
        marks = tmp_path / "marks.txt"
        jobs = _jobs(3, j1={"mark": str(marks), "exit": 7})
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(jobs, misbehaving_worker, nworkers=nworkers,
                           timeout=30, tracer=tracer)
        assert [r.status for r in results] == ["ok", "crashed", "ok"]
        assert [r.value for r in results] == [{"n": 0}, None, {"n": 2}]
        assert marks.read_text().splitlines() == ["ran j1"]
        assert [_starts(tracer, job.job_id) for job in jobs] == [1] * 3
        assert [e["event"] for e in tracer.events].count("done") == 3

    @pytest.mark.parametrize("nworkers", [1, 2])
    def test_exception_reported_after_one_run(self, nworkers):
        """A cell's failure is deterministic, so it is never re-run:
        one ``start``, no pause, and the first outcome is terminal."""
        jobs = _jobs(2, j0={"raise": "boom"})
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(jobs, misbehaving_worker, nworkers=nworkers,
                           tracer=tracer)
        assert results[0].status == "error"
        assert "boom" in results[0].error
        assert results[1].status == "ok"
        assert [_starts(tracer, job.job_id) for job in jobs] == [1, 1]
        assert "retry" not in [e["event"] for e in tracer.events]

    @pytest.mark.parametrize("nworkers", [1, 2])
    def test_non_json_value_ends_error(self, nworkers):
        """The coordinator JSON-normalizes every value; one that does
        not normalize is the cell's error, not the sweep's crash."""
        results = run_jobs(_jobs(2), set_worker, nworkers=nworkers)
        assert [r.status for r in results] == ["error", "error"]
        assert "not JSON serializable" in results[0].error

    def test_timeout_enforced_at_one_worker(self):
        """A timeout alone moves the sweep onto the pool, so it is
        enforced at ``nworkers=1`` too."""
        results = run_jobs([Job("j0", {"n": 0, "sleep": 0.5})],
                           misbehaving_worker, timeout=0.1)
        assert results[0].status == "timeout"
        assert results[0].exit_code == EXIT_TIMEOUT

    def test_raising_cell_is_a_classified_error_at_one_job(self):
        """At ``jobs=1`` a raising cell ends as an ``error`` result
        (the sweep surface raises RuntimeError), never a bare traceback
        from inside the cell."""
        with pytest.raises(RuntimeError, match=r"\(error, exit 1\)"):
            differential_sweep([0], lifeguards=("no-such-lifeguard",))

    def test_coordinator_sleeps_while_the_pool_is_full(self):
        """More cells than workers: the pending cells' due-time must not
        size the wait while no slot is free, or the coordinator spins
        (1.6 s of CPU for this 2 s sweep before the fix)."""
        jobs = [Job(f"j{i}", {"n": i, "sleep": 0.5}) for i in range(8)]
        start = time.process_time()
        results = run_jobs(jobs, misbehaving_worker, nworkers=2)
        assert all(r.ok for r in results)
        assert time.process_time() - start < 0.3


# -- progress tracing ---------------------------------------------------------

class TestProgressTrace:
    def test_jobs_category_emits_lifecycle_events(self):
        tracer = TraceWriter(categories=("jobs",), keep=True)
        run_jobs(_jobs(2), square_worker, tracer=tracer)
        names = [e["event"] for e in tracer.events]
        assert names.count("start") == 2
        assert names.count("done") == 2
        assert names[-1] == "sweep_done"
        assert all(e["cat"] == "jobs" for e in tracer.events)

    def test_failing_cell_events(self):
        tracer = TraceWriter(categories=("jobs",), keep=True)
        run_jobs(_jobs(1, j0={"raise": "x"}), misbehaving_worker,
                 tracer=tracer)
        assert [e["event"] for e in tracer.events] == [
            "start", "done", "sweep_done"]

    def test_interrupt_propagates_without_sweep_done(self):
        """Ctrl-C is not a cell failure: it leaves ``run_jobs`` at once
        and the sweep is run again."""
        def interrupted_worker(payload):
            if payload["n"] == 1:
                raise KeyboardInterrupt
            return payload

        tracer = TraceWriter(categories=("jobs",), keep=True)
        with pytest.raises(KeyboardInterrupt):
            run_jobs(_jobs(3), interrupted_worker, tracer=tracer)
        assert [(e["event"], e.get("job")) for e in tracer.events] == [
            ("start", "j0"), ("done", "j0"), ("start", "j1")]


# -- the acceptance criterion (slow tier) -------------------------------------

@pytest.mark.slow
class TestSweepAcceptance:
    def test_25_seed_sweep_parallel_identical_and_faster(self):
        """ISSUE 4 acceptance: ``--jobs 4`` on the 25-seed differential
        sweep is byte-identical to serial and >= 1.8x faster. The
        speedup half is only asserted when the host actually exposes
        >= 4 CPUs (slow-tolerant: CI noise and throttled containers
        must not flake the determinism half)."""
        start = time.perf_counter()
        serial = differential_sweep(range(25))
        serial_wall = time.perf_counter() - start

        start = time.perf_counter()
        parallel = differential_sweep(range(25), jobs=4)
        parallel_wall = time.perf_counter() - start

        as_bytes = lambda reports: json.dumps(
            [report_payload(r) for r in reports], sort_keys=True)
        assert as_bytes(serial) == as_bytes(parallel)
        assert all(r.ok for r in parallel)

        if _effective_cpus() >= 4:
            speedup = serial_wall / parallel_wall
            assert speedup >= 1.8, (
                f"25-seed sweep with --jobs 4 only {speedup:.2f}x faster "
                f"({serial_wall:.1f}s serial vs {parallel_wall:.1f}s)")
