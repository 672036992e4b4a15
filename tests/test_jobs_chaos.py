"""Chaos tests: byte-identical recovery under injected worker faults.

The differential and unit sweeps here murder, hang and corrupt pool
workers on purpose (the ``worker`` site of :mod:`repro.faults`) and
assert the executor's two contracts survive every time:

1. **Byte-identical merge** — the canonical-order merge of a chaos-ridden
   parallel sweep equals the serial run, byte for byte.
2. **Bounded retries** — no job is ever charged more than ``retries + 1``
   attempts, no matter how many workers die around it.

The matrix runs {kill, hang, corrupt-result} on the pool. Pool workers
have no stable ids, so every fault is scoped by ``after``/``count``
(counted per worker process).
"""

import json

import pytest

from repro.faults import parse_fault_spec
from repro.jobs import load_checkpoint, run_jobs
from repro.trace.diff import differential_sweep, report_payload, sweep_jobs, \
    diff_job
from repro.trace.writer import TraceWriter
from tests.test_jobs import _jobs, misbehaving_worker, square_worker

#: (name, fault specs, extra run_jobs kwargs).
CHAOS_MATRIX = [
    ("kill-pool", ["worker:kill:after=2:count=1"], {}),
    ("hang-pool", ["worker:hang:after=2:count=1:param=60"],
     dict(timeout=1.0)),
    ("corrupt-result-pool", ["worker:corrupt_result:after=1:count=1"], {}),
]


class TestChaosMatrix:
    @pytest.mark.parametrize(
        "name,specs,extra", CHAOS_MATRIX,
        ids=[case[0] for case in CHAOS_MATRIX])
    def test_merge_byte_identical_and_retries_bounded(self, name, specs,
                                                      extra):
        jobs = _jobs(6)
        serial = [r.to_json()["value"] for r in
                  run_jobs(jobs, misbehaving_worker)]
        retries = 3
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(
            jobs, misbehaving_worker, nworkers=2,
            retries=retries,
            worker_faults=tuple(parse_fault_spec(s) for s in specs),
            fault_seed=11, tracer=tracer, **extra)
        assert [r.to_json()["value"] for r in results] == serial
        assert all(r.ok for r in results)
        assert all(r.attempts <= retries + 1 for r in results)

    def test_corrupt_result_is_detected_not_merged(self):
        """The integrity digest catches the mangled value: the sweep
        retries instead of recording garbage, and the decision lands on
        the jobs trace."""
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(
            _jobs(4), square_worker, nworkers=2, retries=3,
            worker_faults=(
                parse_fault_spec("worker:corrupt_result:after=1:count=1"),),
            tracer=tracer)
        assert all(r.ok for r in results)
        names = [e["event"] for e in tracer.events]
        assert "corrupt_result" in names
        assert not any("__corrupted__" in json.dumps(r.value)
                       for r in results)

    def test_killed_pool_worker_is_traced_and_quarantined(self):
        """A worker death poisons the shared pool: the breakage is
        traced, every in-flight attempt re-runs in a quarantine pool,
        and the sweep still completes."""
        tracer = TraceWriter(categories=("jobs",), keep=True)
        results = run_jobs(
            _jobs(6), square_worker, nworkers=2, retries=3,
            worker_faults=(parse_fault_spec("worker:kill:after=2:count=1"),),
            tracer=tracer)
        assert all(r.ok for r in results)
        names = [e["event"] for e in tracer.events]
        assert names.count("pool_broken") >= 1
        assert "quarantine" in names


class TestChaosDiffSweep:
    """Tier-1 guard, small edition: a pool differential sweep with a
    murdered worker merges byte-identical to serial (the full 25-seed
    version is in the slow tier)."""

    def test_pool_sweep_with_worker_kill_matches_serial(self):
        kwargs = dict(lifeguards=("addrcheck",), nthreads=2)
        serial = differential_sweep(range(3), **kwargs)
        chaos = differential_sweep(
            range(3), jobs=2, retries=3,
            worker_faults=(parse_fault_spec("worker:kill:after=1:count=1"),),
            **kwargs)
        as_bytes = lambda reports: json.dumps(
            [report_payload(r) for r in reports], sort_keys=True)
        assert as_bytes(serial) == as_bytes(chaos)


@pytest.mark.slow
class TestChaosSweepAcceptance:
    """Full size: the 25-seed differential sweep on the pool with an
    injected worker murder — and the same sweep interrupted and resumed
    through a damaged checkpoint — both merge byte-identical to
    ``--jobs 1``."""

    def _as_bytes(self, reports):
        return json.dumps([report_payload(r) for r in reports],
                          sort_keys=True)

    def test_25_seed_pool_chaos_sweep_byte_identical(self):
        serial = differential_sweep(range(25))
        chaos = differential_sweep(
            range(25), jobs=4, retries=3,
            worker_faults=(parse_fault_spec("worker:kill:after=3:count=1"),))
        assert self._as_bytes(serial) == self._as_bytes(chaos)
        assert all(r.ok for r in chaos)

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        serial = differential_sweep(range(25))
        cp = str(tmp_path / "cp.jsonl")
        jobs = sweep_jobs(range(25))
        # "interrupt": complete only the first third, then damage the
        # checkpoint the way a dying coordinator would (torn tail plus
        # one corrupted interior line)
        run_jobs(jobs[:len(jobs) // 3], diff_job, nworkers=4,
                 checkpoint_path=cp)
        lines = open(cp).read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        with open(cp, "w") as handle:
            handle.write("\n".join(lines) + "\n")
            handle.write('{"job_id": "torn')
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            recovered = load_checkpoint(cp)
        assert len(recovered) == len(jobs) // 3 - 1
        with pytest.warns(UserWarning):
            resumed = differential_sweep(
                range(25), jobs=4, retries=3, checkpoint_path=cp,
                resume=True,
                worker_faults=(
                    parse_fault_spec("worker:kill:after=3:count=1"),))
        assert self._as_bytes(serial) == self._as_bytes(resumed)
