"""Unit tests for the sweep-executor architecture.

Covers the pieces under :mod:`repro.jobs` that the behavioral tests in
``test_jobs.py`` exercise only end-to-end: the inline/pool rule,
inline/pool parity and degradation, and the worker processes'
lifetimes, Ctrl-C included.
"""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.jobs import run_jobs
from repro.jobs import pool as pool_module
from repro.trace.writer import TraceWriter
from tests.test_jobs import _jobs, misbehaving_worker, pid_worker, \
    square_worker


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
        serial = run_jobs(jobs, square_worker)
        assert run_jobs(jobs, square_worker, **kwargs) == serial

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

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="finds the worker processes through /proc")
    def test_interrupt_exits_abnormally_and_leaves_no_worker(self):
        """SIGINT mid-sweep: the CLI exits with the documented abnormal
        code (3) and every worker process is gone with it. There is
        nothing to resume; the sweep is run again."""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "diff", "--seeds", "40",
             "--jobs", "2"],
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        # interrupt once both worker processes are running cells
        workers = set()
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None \
                and time.monotonic() < deadline:
            workers |= _children(proc.pid)
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        _out, err = proc.communicate(timeout=60)
        if proc.returncode == 0:
            pytest.skip("sweep finished before the interrupt landed")
        assert proc.returncode == 3, err
        assert len(workers) == 2
        assert [pid for pid in workers if _alive(pid)] == []


def _stat_fields(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name, or
    None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def _children(ppid):
    """The pids whose parent is ``ppid``."""
    found = set()
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(name)
            if fields is not None and int(fields[1]) == ppid:
                found.add(int(name))
    return found


def _alive(pid):
    """True while ``pid`` runs (a zombie has already exited)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"
