"""Unit tests for the sweep-executor architecture.

Covers the pieces under :mod:`repro.jobs` that the behavioral tests in
``test_jobs.py`` / ``test_jobs_chaos.py`` exercise only end-to-end: the
deterministic retry delay, the buffered-but-synced checkpoint writer,
the inline/pool rule, and inline/pool parity and degradation.
"""

import math
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults import parse_fault_spec
from repro.jobs import (
    CheckpointWriter,
    JobResult,
    load_checkpoint,
    retry_delay,
    run_jobs,
)
from repro.jobs import checkpoint as checkpoint_module
from repro.jobs import pool as pool_module
from repro.jobs import runner
from repro.trace.writer import TraceWriter
from tests.test_jobs import _jobs, misbehaving_worker, square_worker


# -- retry delay --------------------------------------------------------------

class TestBackoffPolicy:
    """The retry backoff: :func:`retry_delay` over module constants."""

    def test_capped_exponential_shape(self, monkeypatch):
        monkeypatch.setattr(runner, "BACKOFF_JITTER", 0.0)
        assert retry_delay("j", 1) == pytest.approx(0.1)
        assert retry_delay("j", 2) == pytest.approx(0.2)
        assert retry_delay("j", 3) == pytest.approx(0.4)
        assert retry_delay("j", 6) == pytest.approx(3.2)
        assert retry_delay("j", 7) == pytest.approx(5.0)  # capped
        assert retry_delay("j", 10) == pytest.approx(5.0)

    def test_delays_are_pinned(self):
        """The constants keep every delay the old default policy gave."""
        assert retry_delay("j", 1) == pytest.approx(0.11663785821765359)
        assert retry_delay("j", 2) == pytest.approx(0.22156850444231854)
        assert retry_delay("seed00003:lockset:t2:l18", 3) == \
            pytest.approx(0.4944660812567289)

    def test_jitter_is_deterministic_and_seeded(self, monkeypatch):
        assert retry_delay("a", 1) == retry_delay("a", 1)
        # different jobs / attempts / seeds decorrelate
        assert retry_delay("a", 1) != retry_delay("b", 1)
        assert retry_delay("a", 1) != retry_delay("a", 2)
        seed0 = retry_delay("a", 1)
        monkeypatch.setattr(runner, "BACKOFF_SEED", 8)
        assert retry_delay("a", 1) != seed0

    def test_jitter_never_exceeds_cap(self):
        assert all(retry_delay(f"j{i}", 7) == 5.0 for i in range(50))
        assert all(retry_delay(f"j{i}", 6) <= 5.0 for i in range(50))


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
        """Pool when there are several workers, a timeout to enforce or
        worker faults to arm; inline otherwise."""
        assert _backends_used() == {"inline"}
        assert _backends_used(nworkers=2) == {"pool"}
        assert _backends_used(timeout=60.0) == {"pool"}
        assert _backends_used(worker_faults=(
            parse_fault_spec("worker:kill:after=99"),)) == {"pool"}

    def test_executor_keyword_removed(self):
        with pytest.raises(TypeError, match="executor"):
            run_jobs(_jobs(1), square_worker, executor="pool")

    def test_backoff_keyword_removed(self):
        with pytest.raises(TypeError, match="backoff"):
            run_jobs(_jobs(1), square_worker, backoff=None)

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
        """With the pool unable to start, the sweep completes inline —
        and the fallback is traced."""
        def refuse_start(*_args, **_kwargs):
            raise OSError("unavailable in this test")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse_start)
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(_jobs(3), square_worker, nworkers=2,
                           tracer=tracer)
        assert all(r.ok for r in results)
        rungs = [(e["from_executor"], e["to_executor"])
                 for e in tracer.events if e["event"] == "degrade"]
        assert rungs == [("pool", "inline")]

    def test_pool_breaking_twice_in_one_submit_finishes_inline(
            self, monkeypatch):
        """Mid-run fallback: the attempt being submitted is re-queued
        uncharged and the sweep completes inline."""
        from concurrent.futures.process import BrokenProcessPool

        def broken_submit(self, job):
            raise BrokenProcessPool("broken in this test")

        monkeypatch.setattr(pool_module.PoolSweep, "_submit", broken_submit)
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(_jobs(3), square_worker, nworkers=2,
                           tracer=tracer)
        assert [r.value["square"] for r in results] == [0, 1, 4]
        assert all(r.attempts == 1 for r in results)
        events = [e["event"] for e in tracer.events]
        assert events[:5] == ["start", "pool_broken", "requeued", "degrade",
                              "start"]
        assert {e["executor"] for e in tracer.events
                if e["event"] == "start"} == {"pool", "inline"}

    def test_retry_backoff_is_traced_with_delay(self):
        tracer = TraceWriter(categories=("jobs",), keep=True)
        run_jobs(_jobs(1, j0={"raise": "x"}), misbehaving_worker, retries=1,
                 tracer=tracer)
        retries = [e for e in tracer.events if e["event"] == "retry"]
        assert [e["delay"] for e in retries] == [round(retry_delay("j0", 1),
                                                       4)]
