"""Unit tests for the sweep-executor architecture.

Covers the pieces under :mod:`repro.jobs` that the behavioral tests in
``test_jobs.py`` / ``test_jobs_chaos.py`` exercise only end-to-end: the
deterministic backoff policy, the buffered-but-synced checkpoint
writer, the inline/pool rule, and backend parity/degradation.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults import parse_fault_spec
from repro.jobs import (
    BackoffPolicy,
    CheckpointWriter,
    load_checkpoint,
    run_jobs,
)
from repro.trace.writer import TraceWriter
from tests.test_jobs import _jobs, misbehaving_worker, square_worker


# -- backoff ------------------------------------------------------------------

class TestBackoffPolicy:
    def test_capped_exponential_shape(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
        assert policy.delay("j", 1) == pytest.approx(0.1)
        assert policy.delay("j", 2) == pytest.approx(0.2)
        assert policy.delay("j", 3) == pytest.approx(0.4)
        assert policy.delay("j", 4) == pytest.approx(0.5)  # capped
        assert policy.delay("j", 10) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_seeded(self):
        policy = BackoffPolicy(seed=7)
        assert policy.delay("a", 1) == policy.delay("a", 1)
        # different jobs / attempts / seeds decorrelate
        assert policy.delay("a", 1) != policy.delay("b", 1)
        assert policy.delay("a", 1) != policy.delay("a", 2)
        assert policy.delay("a", 1) != BackoffPolicy(seed=8).delay("a", 1)

    def test_jitter_never_exceeds_cap(self):
        policy = BackoffPolicy(base=4.0, cap=5.0, jitter=1.0)
        assert all(policy.delay(f"j{i}", 1) <= 5.0 for i in range(50))

    def test_none_policy_is_immediate(self):
        policy = BackoffPolicy.none()
        assert policy.delay("j", 1) == 0.0
        assert policy.delay("j", 99) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)


# -- checkpoint durability ----------------------------------------------------

class TestCheckpointWriter:
    def test_sync_flushes_buffered_lines(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        writer = CheckpointWriter(path, fsync_every=1000)
        writer.append({"job_id": "a", "status": "ok"})
        writer.sync()
        assert sorted(load_checkpoint(path)) == ["a"]
        writer.close()

    def test_periodic_fsync_counter(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "cp.jsonl"), fsync_every=2)
        writer.append({"job_id": "a", "status": "ok"})
        assert writer._unsynced == 1
        writer.append({"job_id": "b", "status": "ok"})
        assert writer._unsynced == 0  # hit fsync_every -> synced
        writer.close()

    def test_invalid_fsync_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(str(tmp_path / "cp.jsonl"), fsync_every=0)

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

    @pytest.mark.parametrize("timeout", [0, -3.0])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            run_jobs(_jobs(1), square_worker, nworkers=2, timeout=timeout)


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
        from repro.jobs import executors as ex

        def refuse_start(self):
            raise ex.ExecutorError("unavailable in this test")

        monkeypatch.setattr(ex.PoolExecutor, "start", refuse_start)
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(_jobs(3), square_worker, nworkers=2,
                           tracer=tracer)
        assert all(r.ok for r in results)
        rungs = [(e["from_executor"], e["to_executor"])
                 for e in tracer.events if e["event"] == "degrade"]
        assert rungs == [("pool", "inline")]

    def test_retry_backoff_is_traced_with_delay(self):
        tracer = TraceWriter(categories=("jobs",), keep=True)
        run_jobs(_jobs(1, j0={"raise": "x"}), misbehaving_worker, retries=1,
                 backoff=BackoffPolicy(base=0.01, cap=0.02), tracer=tracer)
        retries = [e for e in tracer.events if e["event"] == "retry"]
        assert retries and retries[0]["delay"] > 0
