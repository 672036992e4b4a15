"""Unit tests for the sweep-executor architecture.

Covers the pieces under :mod:`repro.jobs` that the behavioral tests in
``test_jobs.py`` exercise only end-to-end: the buffered-but-synced
checkpoint writer, the inline/pool rule, inline/pool parity and
degradation, and the worker processes' lifetimes.
"""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.jobs import (
    CheckpointWriter,
    JobResult,
    load_checkpoint,
    run_jobs,
)
from repro.jobs import checkpoint as checkpoint_module
from repro.jobs import pool as pool_module
from repro.trace.writer import TraceWriter
from tests.test_jobs import _jobs, misbehaving_worker, pid_worker, \
    square_worker


# -- checkpoint durability ----------------------------------------------------

class TestCheckpointWriter:
    def test_sync_flushes_buffered_lines(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        writer = CheckpointWriter(path)
        writer.append(JobResult("a", "ok").to_json())
        writer.sync()
        assert sorted(load_checkpoint(path)) == ["a"]
        writer.close()

    def test_periodic_fsync_counter(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "cp.jsonl"))
        every = checkpoint_module.FSYNC_EVERY
        for n in range(every - 1):
            writer.append(JobResult(f"j{n}", "ok").to_json())
        assert writer._unsynced == every - 1
        writer.append(JobResult("last", "ok").to_json())
        assert writer._unsynced == 0  # hit FSYNC_EVERY -> synced
        writer.close()

    def test_interrupt_syncs_checkpoint_and_exits_abnormally(self, tmp_path):
        """Satellite guarantee, end to end: SIGINT mid-sweep leaves a
        loadable checkpoint and the CLI exits with the documented
        abnormal code (3)."""
        cp = tmp_path / "cp.jsonl"
        cells = 8
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "diff", "--seeds", str(cells),
             "--lifeguards", "addrcheck", "--jobs", "2",
             "--checkpoint", str(cp)],
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        # let a cell land, then interrupt the sweep
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if cp.exists() and len(cp.read_text().splitlines()) >= 1:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        _out, err = proc.communicate(timeout=60)
        if proc.returncode == 0:
            pytest.skip("sweep finished before the interrupt landed")
        if (proc.returncode == -signal.SIGINT
                and len(load_checkpoint(str(cp))) == cells):
            # Every cell was checkpointed: the interrupt raced process
            # exit and hit interpreter finalization, where CPython has
            # already restored SIGINT to its default disposition.
            pytest.skip("interrupt landed during interpreter teardown")
        assert proc.returncode == 3, err
        assert "resume" in err
        recovered = load_checkpoint(str(cp))
        assert recovered  # the synced lines parse and key resume


# -- backend rule / parity ---------------------------------------------------

def _backends_used(**kwargs):
    tracer = TraceWriter(categories=("jobs",), keep=True)
    run_jobs(_jobs(2), square_worker, tracer=tracer, **kwargs)
    return {e["executor"] for e in tracer.events if e["event"] == "start"}


class TestBackendRule:
    def test_backend_picked_from_inputs(self):
        """Pool when there are several workers or a timeout to enforce;
        inline otherwise."""
        assert _backends_used() == {"inline"}
        assert _backends_used(nworkers=2) == {"pool"}
        assert _backends_used(timeout=60.0) == {"pool"}

    def test_executor_keyword_removed(self):
        with pytest.raises(TypeError, match="executor"):
            run_jobs(_jobs(1), square_worker, executor="pool")

    def test_backoff_keyword_removed(self):
        with pytest.raises(TypeError, match="backoff"):
            run_jobs(_jobs(1), square_worker, backoff=None)

    @pytest.mark.parametrize("keyword,value", [
        ("retries", 1), ("worker_faults", ()), ("fault_seed", 3)],
        ids=["retries", "worker_faults", "fault_seed"])
    def test_retry_and_chaos_keywords_removed(self, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            run_jobs(_jobs(1), square_worker, **{keyword: value})

    @pytest.mark.parametrize("timeout", [0, -3.0])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            run_jobs(_jobs(1), square_worker, nworkers=2, timeout=timeout)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf])
    def test_non_finite_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            run_jobs(_jobs(1), square_worker, timeout=timeout)


class TestBackendParity:
    """Both backends produce the byte-identical canonical merge."""

    @pytest.mark.parametrize("kwargs", [
        dict(nworkers=1),
        dict(nworkers=2),
    ], ids=["inline", "pool"])
    def test_merge_identical_to_serial(self, kwargs):
        jobs = _jobs(6)
        serial = [r.to_json() for r in run_jobs(jobs, square_worker)]
        assert [r.to_json()
                for r in run_jobs(jobs, square_worker, **kwargs)] == serial

    def test_degradation_reaches_inline_floor(self, monkeypatch):
        """With no worker process able to start, the sweep completes
        inline — and the fallback is traced once."""
        def refuse_start(*_args, **_kwargs):
            raise OSError("unavailable in this test")

        monkeypatch.setattr(pool_module._Slot, "start", refuse_start)
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(_jobs(3), square_worker, nworkers=2,
                           tracer=tracer)
        assert all(r.ok for r in results)
        rungs = [(e["from_executor"], e["to_executor"])
                 for e in tracer.events if e["event"] == "degrade"]
        assert rungs == [("pool", "inline")]
        assert {e["executor"] for e in tracer.events
                if e["event"] == "start"} == {"inline"}

    def test_busy_slots_finish_when_a_fresh_process_cannot_start(
            self, monkeypatch):
        """A crash needs a fresh process; when none can start, the
        undispatched cells finish inline and nothing runs twice."""
        real_start = pool_module._Slot.start
        starts = []

        def start_once(self, worker):
            starts.append(1)
            if len(starts) > 1:
                raise OSError("unavailable in this test")
            real_start(self, worker)

        monkeypatch.setattr(pool_module._Slot, "start", start_once)
        jobs = _jobs(3, j0={"exit": 7})
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(jobs, misbehaving_worker, timeout=30,
                           tracer=tracer)
        assert [r.status for r in results] == ["crashed", "ok", "ok"]
        assert [(e["event"], e.get("executor")) for e in tracer.events
                if e["event"] in ("start", "degrade")] == [
            ("start", "pool"), ("degrade", None), ("start", "inline"),
            ("start", "inline")]


# -- worker-process hygiene ---------------------------------------------------

class TestWorkerProcesses:
    def test_processes_started_are_bounded_by_the_cells(self, monkeypatch):
        """``nworkers=8`` over two cells starts at most two processes."""
        real_start = multiprocessing.process.BaseProcess.start
        started = []

        def counting_start(self):
            started.append(self)
            real_start(self)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counting_start)
        results = run_jobs(_jobs(2), pid_worker, nworkers=8)
        pids = {r.value for r in results}
        assert len(started) <= 2
        assert len(pids) <= 2 and os.getpid() not in pids

    @pytest.mark.parametrize("extra,status", [
        ({}, "ok"), ({"exit": 7}, "crashed"), ({"sleep": 60}, "timeout")],
        ids=["ok", "crash", "timeout"])
    def test_no_worker_outlives_the_sweep(self, extra, status):
        results = run_jobs(_jobs(3, j1=extra), misbehaving_worker,
                           nworkers=2, timeout=0.5)
        assert results[1].status == status
        assert multiprocessing.active_children() == []
