"""Replay captured archives through lifeguards — no CMP simulation.

ParaLog's central claim is that the captured inter-thread order is
*sufficient* to drive any lifeguard. This module cashes that claim in:
a :class:`~repro.replay.format.TraceReader` reconstructs the delivered
event order from an on-disk archive, and :func:`replay_archive` feeds it
to a fresh lifeguard through the same unaccelerated delivery path the
sequential oracle uses (:func:`repro.lifeguards.oracle.deliver`, built
once per reader, then :func:`~repro.lifeguards.oracle.replay_events`
per lifeguard). One
expensive capture becomes N cheap analyses: :func:`replay_all` fans a
single archive out to every registered lifeguard, optionally in
parallel worker processes via :mod:`repro.jobs`.

Determinism contract: replaying the same archive any number of times,
in any process, produces byte-identical
:func:`replay_payload` output — the replay-vs-live differential layer
(:mod:`repro.trace.diff`) and the CI ``replay-sweep`` job both assert
exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.config import SimulationConfig
from repro.cpu.os_model import AddressLayout
from repro.lifeguards import LIFEGUARDS
from repro.lifeguards.oracle import replay_events
from repro.platform import run_parallel_monitoring
from repro.replay.format import TraceReader, canonical_json, write_archive
from repro.trace.diff import RacyProgram, lifeguard_factory, verdict_projection

_HEAP_RANGE = AddressLayout.heap_range()


@dataclass
class ReplayResult:
    """Everything one lifeguard's replay of one archive produced."""

    archive: str
    lifeguard: str
    #: Scheme-independent verdict projection (repro.trace.diff's view).
    verdicts: tuple
    #: Exact semantic state after the replay (memory metadata, register
    #: metadata, violation kinds) — comparable byte-for-byte, via
    #: :func:`replay_payload`, against the live run's fingerprint.
    fingerprint: dict
    #: Per-thread retired-record order reconstructed from the archive.
    retire_orders: Dict[int, List[int]] = field(default_factory=dict)
    #: Full violation tuples (kind, tid, rid, detail), live-identical.
    violations: List[tuple] = field(default_factory=list)
    #: Records delivered (CA marks included; they are skipped, not lost).
    records: int = 0

    def summary(self) -> str:
        """One-line human rendering for the CLI."""
        return (f"replay {self.lifeguard}: {self.records} records, "
                f"{len(self.violations)} violations, "
                f"verdicts={list(self.verdicts)}")


def replay_archive(archive, lifeguard: str) -> ReplayResult:
    """Replay one archive through one lifeguard, no CMP re-simulation.

    ``archive`` is a path or an open :class:`TraceReader` (pass the
    reader when replaying the same file under several lifeguards: its
    decoded records, delivered-event stream and retire orders are built
    once and shared). The delivered order is the archive's global
    coherence linearization — exactly what the sequential oracle
    consumes, and proven fingerprint-identical to live parallel
    monitoring by the differential harness. The lifeguard is built by
    :func:`~repro.trace.diff.lifeguard_factory`, exactly as on the live
    side (TaintCheck's order-dependent race-taint policy stays off on
    both — byte-identical verdicts depend on it).
    """
    reader = archive if isinstance(archive, TraceReader) \
        else TraceReader(archive)
    factory = lifeguard_factory(lifeguard)
    populated = replay_events(reader.delivered(),
                              lambda: factory(heap_range=_HEAP_RANGE))
    retire_orders = reader.retire_orders()
    return ReplayResult(
        archive=reader.path,
        lifeguard=lifeguard,
        verdicts=verdict_projection(populated.violations, lifeguard),
        fingerprint=populated.metadata_fingerprint(),
        retire_orders={tid: list(rids) for tid, rids in retire_orders.items()},
        violations=[(v.kind, v.tid, v.rid, v.detail)
                    for v in populated.violations],
        records=sum(len(rids) for rids in retire_orders.values()),
    )


def replay_payload(result: ReplayResult) -> dict:
    """A :class:`ReplayResult` as pure JSON types (canonical form).

    This is the byte-comparison surface: serialize with
    :func:`~repro.replay.format.canonical_json` and two payloads are
    identical iff the replays were. It crosses the ``repro.jobs`` worker
    boundary, so it round-trips through JSON here to keep in-process and
    worker-computed results byte-for-byte interchangeable.
    """
    import json

    return json.loads(canonical_json({
        "lifeguard": result.lifeguard,
        "verdicts": result.verdicts,
        "fingerprint": result.fingerprint,
        "retire_orders": {str(tid): rids
                          for tid, rids in result.retire_orders.items()},
        "violations": result.violations,
        "records": result.records,
    }))


def replay_job(payload: dict) -> dict:
    """``repro.jobs`` worker: replay one (archive, lifeguard) cell.

    Module-level so worker processes pickle it by reference; the archive
    is re-opened (and re-verified) inside each worker, so a corrupt file
    fails loudly in every process that touches it.
    """
    return replay_payload(
        replay_archive(payload["archive"], payload["lifeguard"]))


def replay_all(archive_path: str, lifeguards=None, jobs: int = 1,
               tracer=None) -> Dict[str, dict]:
    """Fan one archive out to many lifeguards; returns name -> payload.

    ``jobs=1`` replays in-process sharing one decoded reader; ``jobs=N``
    distributes (archive, lifeguard) cells over :mod:`repro.jobs`
    workers. Both paths return byte-identical payload dicts in
    lifeguard-name order — the parallel replay acceptance test asserts
    it.
    """
    names = sorted(lifeguards or LIFEGUARDS)
    unknown = [name for name in names if name not in LIFEGUARDS]
    if unknown:
        raise ValueError(f"unknown lifeguards {unknown}; "
                         f"valid: {sorted(LIFEGUARDS)}")
    if jobs == 1:
        reader = TraceReader(archive_path)
        return {name: replay_payload(replay_archive(reader, name))
                for name in names}

    from repro.jobs import Job, run_jobs

    results = run_jobs(
        [Job(f"replay:{name}",
             {"archive": str(archive_path), "lifeguard": name})
         for name in names],
        replay_job, nworkers=jobs, tracer=tracer)
    payloads: Dict[str, dict] = {}
    for name, result in zip(names, results):
        if not result.ok:
            raise RuntimeError(
                f"replay cell {result.job_id} failed ({result.status}, "
                f"exit {result.exit_code}): {result.error}")
        payloads[name] = result.value
    return payloads


def capture_archive(path: str, seed: int, lifeguard: str = "taintcheck",
                    nthreads: int = 2, length: int = 18,
                    config: Optional[SimulationConfig] = None):
    """Run one seeded racy program live and archive its captured order.

    Returns ``(run_result, manifest)``. The archive records the
    generator parameters in its ``meta`` block, so replay tooling can
    re-run the live side for differential verification
    (``python -m repro replay --verify-live``).
    """
    program = RacyProgram.generate(seed, nthreads=nthreads, length=length)
    config = config or SimulationConfig.for_threads(nthreads)
    result = run_parallel_monitoring(program.workload(),
                                     lifeguard_factory(lifeguard), config,
                                     keep_trace=True)
    return result, write_capture(path, program, result, lifeguard=lifeguard,
                                 length=length, config=config)


def write_capture(path: str, program, result, *, lifeguard: str,
                  length: int, config: SimulationConfig) -> dict:
    """Archive ``result``, a live parallel run of the racy ``program``;
    returns the manifest.

    The one writer behind :func:`capture_archive` and the differential
    check's replay leg, so both produce the same bytes for the same
    seed, lifeguard, shape and ``config``.
    """
    return write_archive(
        path, result.trace, nthreads=program.nthreads, config=config,
        meta={
            "generator": "racy",
            "seed": program.seed,
            "lifeguard": lifeguard,
            "nthreads": program.nthreads,
            "length": length,
            "scheme": "parallel",
            "workload": program.workload().name,
            "instructions": result.instructions,
        })
