"""Cross-scheme differential checking built on the flight recorder.

The strongest correctness claim the simulator can make is that the
*same* program, monitored under ParaLog's parallel scheme and under the
time-sliced baseline, reaches the same lifeguard verdicts — and that
each scheme's serialized metadata-update order matches the sequential
replay oracle. This module generates seeded random racy programs with
*planted* bugs (a heap overflow, an optional uninitialized read, a
tainted critical use, and unsynchronized shared writes) and replays one
program under all three platform schemes, asserting:

1. **Verdict equivalence** — parallel and time-sliced monitoring report
   the same violation multiset. Verdicts are projected before comparing:
   record ids are scheme-dependent (CA marks consume rids), and LockSet's
   reporting thread is interleaving-dependent (the raced *word* is not).
2. **Oracle agreement** — each monitored run's final metadata equals a
   sequential replay of its own captured coherence order
   (:func:`repro.lifeguards.oracle.replay`).
3. **Op-stream equivalence** — per-thread captured record streams are
   structurally identical across schemes (CA marks excluded, heap
   addresses masked: the first-fit allocator serves interleaving-
   dependent addresses).
4. **Flight-recorder consistency** — the tracer's ``engine/retire``
   events replay each thread's captured stream exactly, in order.
5. **Instruction parity** — all three schemes (including the
   unmonitored baseline) retire the same application instruction count.
6. **Planted-bug detection** — the verdicts match what the generator
   planted, computed from the scripts alone.
7. **Replay** (``replay=True``) — the parallel run, archived to disk,
   replays byte-identically to live under its own lifeguard, replays to
   the same bytes from a fresh reader, and reports exactly the planted
   bugs under every lifeguard.

The generator is deliberately conservative so that verdicts are
interleaving-*independent* even though the programs race constantly:
taint flows only through a dedicated register/private word, heap bugs
stay inside each thread's own allocation padding, and every shared word
is written by every thread (so LockSet's raced-word set is exactly the
shared arena). TaintCheck runs with ``conservative_race_taint=False`` —
that policy is deliberately order-dependent (Section 5.4).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.capture.events import RecordKind
from repro.common.config import SimulationConfig
from repro.cpu.os_model import AddressLayout
from repro.lifeguards import LIFEGUARDS
from repro.lifeguards.oracle import replay as oracle_replay
from repro.platform import (
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
)
from repro.trace.writer import TraceWriter
from repro.workloads import CustomWorkload

__all__ = [
    "DiffReport",
    "RacyProgram",
    "SHARED_SLOTS",
    "diff_job",
    "differential_check",
    "differential_sweep",
    "lifeguard_factory",
    "report_from_payload",
    "report_payload",
    "sweep_jobs",
    "verdict_projection",
]

#: Shared arena: few cache lines so threads conflict constantly.
ARENA_BASE = 0x1000_0000
SHARED_SLOTS = tuple(ARENA_BASE + line * 64 + word * 4
                     for line in range(3) for word in range(4))

#: Per-thread private scratch (never shared: base + tid * stride).
_PRIVATE_BASE = ARENA_BASE + 0x1000
_PRIVATE_STRIDE = 0x100
_PRIVATE_SLOTS = 4
_TAINT_OFFSET = 0x80

#: Registers 0..5 stay taint-free/defined-only; r6 is the taint sink.
#: R13/R15 are reserved by the allocator wrapper and spin locks.
_CLEAN_REGS = tuple(range(6))
_TAINT_REG = 6

#: Heap block sizes, all with ``n % 4 != 0`` so the one-past-the-end
#: overflow byte lands in the block's own alignment padding *and* its
#: word is covered by LockSet's free-time word recycling.
_HEAP_SIZES = (5, 6, 7, 9, 10, 11, 13, 14, 15)


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------

def _random_op(rng: random.Random) -> tuple:
    roll = rng.random()
    if roll < 0.20:
        return ("sstore", rng.randrange(len(SHARED_SLOTS)),
                rng.choice(_CLEAN_REGS))
    if roll < 0.40:
        return ("sload", rng.choice(_CLEAN_REGS),
                rng.randrange(len(SHARED_SLOTS)))
    if roll < 0.50:
        return ("srmw", rng.choice(_CLEAN_REGS),
                rng.randrange(len(SHARED_SLOTS)))
    if roll < 0.58:
        return ("pstore", rng.randrange(_PRIVATE_SLOTS),
                rng.choice(_CLEAN_REGS))
    if roll < 0.66:
        return ("pload", rng.choice(_CLEAN_REGS),
                rng.randrange(_PRIVATE_SLOTS))
    if roll < 0.78:
        return ("alu2", rng.choice(_CLEAN_REGS), rng.choice(_CLEAN_REGS),
                rng.choice(_CLEAN_REGS))
    if roll < 0.86:
        return ("alu1", rng.choice(_CLEAN_REGS), rng.choice(_CLEAN_REGS))
    if roll < 0.93:
        return ("movrr", rng.choice(_CLEAN_REGS), rng.choice(_CLEAN_REGS))
    return ("loadi", rng.choice(_CLEAN_REGS))


def _thread_script(rng: random.Random, length: int) -> tuple:
    # Preamble: every thread writes every shared slot, making LockSet's
    # raced-word set exactly SHARED_SLOTS regardless of interleaving.
    ops = [("sstore", index, rng.choice(_CLEAN_REGS))
           for index in range(len(SHARED_SLOTS))]
    body = [_random_op(rng) for _ in range(length)]
    # Distinct sizes per thread keep repeated overflow checks from ever
    # sharing an Idempotent-Filter key within one allocation lifetime.
    for nbytes in rng.sample(_HEAP_SIZES, k=rng.randrange(1, 3)):
        block = ("heap", nbytes, rng.random() < 0.5,
                 rng.choice(_CLEAN_REGS), rng.choice(_CLEAN_REGS))
        body.insert(rng.randrange(len(body) + 1), block)
    body.insert(rng.randrange(len(body) + 1), ("taintchain",))
    ops.extend(body)
    return tuple(ops)


def _make_kernel(script: tuple) -> Callable:
    def kernel(api, workload):
        private = _PRIVATE_BASE + api.tid * _PRIVATE_STRIDE
        for step in script:
            op = step[0]
            if op == "sstore":
                yield from api.store(SHARED_SLOTS[step[1]], step[2],
                                     value=step[1])
            elif op == "sload":
                yield from api.load(step[1], SHARED_SLOTS[step[2]])
            elif op == "srmw":
                yield from api.rmw(step[1], SHARED_SLOTS[step[2]], 1)
            elif op == "pstore":
                yield from api.store(private + 4 * step[1], step[2], value=1)
            elif op == "pload":
                yield from api.load(step[1], private + 4 * step[2])
            elif op == "alu2":
                yield from api.alu(step[1], step[2], step[3])
            elif op == "alu1":
                yield from api.alu(step[1], step[2])
            elif op == "movrr":
                yield from api.movrr(step[1], step[2])
            elif op == "loadi":
                yield from api.loadi(step[1])
            elif op == "heap":
                _, nbytes, uninit_load, rd, rs = step
                addr = yield from api.malloc(nbytes)
                if uninit_load:
                    yield from api.load(rd, addr)
                yield from api.store(addr, rs, value=7)
                # One byte past the requested size: stays inside the
                # block's own 8-byte alignment padding, so only the
                # lifeguard (not the machine) can notice.
                yield from api.store(addr + nbytes, rs, value=9, size=1)
                yield from api.free(addr)
            elif op == "taintchain":
                taint_addr = private + _TAINT_OFFSET
                yield from api.syscall_read(taint_addr, 4)
                yield from api.load(_TAINT_REG, taint_addr)
                yield from api.critical_use(_TAINT_REG)
                yield from api.loadi(_TAINT_REG)
    return kernel


@dataclass(frozen=True)
class RacyProgram:
    """A seeded multithreaded program with planted, scheme-independent bugs."""

    seed: int
    nthreads: int
    scripts: Tuple[tuple, ...]

    @classmethod
    def generate(cls, seed: int, nthreads: int = 2,
                 length: int = 18) -> "RacyProgram":
        scripts = tuple(
            _thread_script(random.Random((seed << 8) + tid + 1), length)
            for tid in range(nthreads))
        return cls(seed=seed, nthreads=nthreads, scripts=scripts)

    def workload(self) -> CustomWorkload:
        """A fresh workload instance (kernels are stateless closures)."""
        return CustomWorkload([_make_kernel(script) for script in self.scripts],
                              name=f"racy-{self.seed}")

    def expected_verdicts(self, lifeguard_name: str) -> Counter:
        """Planted (kind, tid) multiset for the multiset-projected
        lifeguards; LockSet is handled separately by raced-word set."""
        expected = Counter()
        for tid, script in enumerate(self.scripts):
            for step in script:
                if step[0] == "heap":
                    if lifeguard_name == "addrcheck":
                        expected[("unallocated-access", tid)] += 1
                    elif lifeguard_name == "memcheck":
                        expected[("unaddressable-store", tid)] += 1
                        if step[2]:
                            expected[("uninitialized-load", tid)] += 1
                elif step[0] == "taintchain" and lifeguard_name == "taintcheck":
                    expected[("tainted-critical-use", tid)] += 1
        return expected


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def lifeguard_factory(name: str) -> Callable:
    """A runner-compatible factory for a lifeguard by registry name.

    TaintCheck gets ``conservative_race_taint=False``: that policy is
    deliberately interleaving-dependent, so exact differential checking
    must disable it on every scheme.
    """
    cls = LIFEGUARDS[name]
    if name == "taintcheck":
        def factory(costs=None, heap_range=None):
            return cls(costs=costs, heap_range=heap_range,
                       conservative_race_taint=False)
        return factory
    return cls


def verdict_projection(violations, lifeguard_name: str) -> tuple:
    """The scheme-independent view of a violation list.

    Default: sorted multiset of (kind, tid) — record ids shift with CA
    mark insertion. LockSet: sorted set of (kind, detail) — *which*
    thread's access trips a race is interleaving-dependent, but the
    raced word in the detail string is not.
    """
    if lifeguard_name == "lockset":
        return tuple(sorted({(v.kind, v.detail) for v in violations}))
    counted = Counter((v.kind, v.tid) for v in violations)
    return tuple(sorted(counted.items()))


_HEAP_RANGE = AddressLayout.heap_range()


def _mask_heap(addr):
    if addr is None:
        return None
    low, high = _HEAP_RANGE
    return "heap" if low <= addr < high else addr


def _op_projection(record) -> tuple:
    return (
        record.kind.name,
        record.hl_kind.name if record.hl_kind is not None else None,
        record.critical_kind,
        record.rd, record.rs1, record.rs2, record.size,
        _mask_heap(record.addr),
        tuple((_mask_heap(start), length) for start, length in record.ranges),
    )


def _per_tid_streams(trace, nthreads: int, project: Callable) -> Dict[int, list]:
    streams = {tid: [] for tid in range(nthreads)}
    for record in trace:
        if record.kind is RecordKind.CA_MARK:
            continue
        streams[record.tid].append(project(record))
    return streams


def _retire_streams(events, nthreads: int) -> Dict[int, list]:
    streams = {tid: [] for tid in range(nthreads)}
    for event in events:
        if (event.get("cat") == "engine" and event.get("event") == "retire"
                and event.get("kind") != "CA_MARK"):
            tid = event.get("tid")
            if tid in streams:
                streams[tid].append(event.get("rid"))
    return streams


def _first_divergence(lhs: Dict[int, list], rhs: Dict[int, list]) -> str:
    for tid in sorted(lhs):
        left, right = lhs[tid], rhs.get(tid, [])
        if left == right:
            continue
        for index, (a, b) in enumerate(zip(left, right)):
            if a != b:
                return (f"t{tid}[{index}]: {a} != {b}")
        return (f"t{tid}: length {len(left)} != {len(right)}")
    return "streams identical"


# ---------------------------------------------------------------------------
# The differential check
# ---------------------------------------------------------------------------

MONITORED_SCHEMES = ("parallel", "timesliced")


@dataclass
class DiffReport:
    """Outcome of one cross-scheme differential run."""

    seed: int
    lifeguard: str
    nthreads: int
    verdicts: Dict[str, tuple] = field(default_factory=dict)
    instructions: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: Per-scheme hot-path counters (``stats["perf"]`` plus the run's
    #: cycles): ``{scheme: {"sim_cycles", "events_popped",
    #: "shadow_chunks_peak", "shadow_chunk_allocs"}}``. The end-to-end
    #: benchmark reports them; the acceptance sweep pins their totals.
    perf: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"differential seed={self.seed} lifeguard={self.lifeguard} "
                 f"threads={self.nthreads}: {status}"]
        for scheme in sorted(self.instructions):
            verdicts = self.verdicts.get(scheme)
            suffix = "" if verdicts is None else f" verdicts={list(verdicts)}"
            lines.append(f"  {scheme}: "
                         f"instructions={self.instructions[scheme]}{suffix}")
        lines.extend(f"  FAIL: {failure}" for failure in self.failures)
        return "\n".join(lines)

    def assert_ok(self) -> None:
        if not self.ok:
            raise AssertionError(self.summary())


def differential_check(seed: int, lifeguard: str = "taintcheck",
                       nthreads: int = 2, length: int = 18,
                       config: SimulationConfig = None,
                       replay: bool = False) -> DiffReport:
    """Run one seeded racy program under all three schemes and compare.

    ``replay=True`` also archives the parallel run and replays it from
    disk under every lifeguard (:func:`_replay_failures`), so the
    record-once/replay-many contract is checked on the same run, under
    the same ``config``.
    """
    program = RacyProgram.generate(seed, nthreads=nthreads, length=length)
    factory = lifeguard_factory(lifeguard)
    config = config or SimulationConfig.for_threads(nthreads)
    report = DiffReport(seed=seed, lifeguard=lifeguard, nthreads=nthreads)

    runners = {"parallel": run_parallel_monitoring,
               "timesliced": run_timesliced_monitoring}
    results, tracers = {}, {}
    for scheme in MONITORED_SCHEMES:
        tracer = TraceWriter(categories=("engine",), keep=True)
        results[scheme] = runners[scheme](
            program.workload(), factory, config, keep_trace=True,
            tracer=tracer)
        tracer.close()
        tracers[scheme] = tracer
        report.verdicts[scheme] = verdict_projection(
            results[scheme].violations, lifeguard)
        report.instructions[scheme] = results[scheme].instructions
        report.perf[scheme] = dict(
            results[scheme].stats.get("perf", {}),
            sim_cycles=results[scheme].total_cycles)
    baseline = run_no_monitoring(program.workload(), config)
    report.instructions["no_monitoring"] = baseline.instructions
    report.perf["no_monitoring"] = dict(
        baseline.stats.get("perf", {}), sim_cycles=baseline.total_cycles)

    # 1. verdict equivalence across monitored schemes
    if report.verdicts["parallel"] != report.verdicts["timesliced"]:
        report.failures.append(
            "verdict divergence:\n"
            f"      parallel:   {list(report.verdicts['parallel'])}\n"
            f"      timesliced: {list(report.verdicts['timesliced'])}")

    # 2. each scheme agrees with the sequential replay of its own
    #    captured coherence order (serialized metadata-update order)
    for scheme in MONITORED_SCHEMES:
        result = results[scheme]
        oracle = oracle_replay(result.trace,
                               lambda: factory(heap_range=_HEAP_RANGE))
        if (result.lifeguard_obj.metadata_fingerprint()
                != oracle.metadata_fingerprint()):
            report.failures.append(
                f"{scheme}: final metadata diverges from the sequential "
                f"replay oracle")

    # 3. per-thread captured op streams are structurally identical
    ops = {scheme: _per_tid_streams(results[scheme].trace, nthreads,
                                    _op_projection)
           for scheme in MONITORED_SCHEMES}
    if ops["parallel"] != ops["timesliced"]:
        report.failures.append(
            "per-thread op streams diverge between schemes: "
            + _first_divergence(ops["parallel"], ops["timesliced"]))

    # 4. the flight recorder's retire events replay the captured stream
    for scheme in MONITORED_SCHEMES:
        retired = _retire_streams(tracers[scheme].events, nthreads)
        captured = _per_tid_streams(results[scheme].trace, nthreads,
                                    lambda record: record.rid)
        if retired != captured:
            report.failures.append(
                f"{scheme}: flight-recorder retire order disagrees with "
                f"the captured stream: "
                + _first_divergence(captured, retired))

    # 5. instruction parity across all three schemes
    if len(set(report.instructions.values())) != 1:
        report.failures.append(
            f"instruction counts diverge: {report.instructions}")

    # 6. the planted bugs (and nothing else) are reported
    live = results["parallel"]
    violations = [(v.kind, v.tid, v.rid, v.detail) for v in live.violations]
    report.failures.extend(_planted_failures(program, lifeguard, violations))

    # 7. the parallel run, archived and replayed from disk
    if replay:
        report.failures.extend(_replay_failures(
            program, lifeguard, length, config, live, violations))
    return report


def _planted_failures(program: RacyProgram, lifeguard_name: str,
                      violations) -> List[str]:
    """Failures for ``(kind, tid, rid, detail)`` violation tuples that
    are not exactly the bugs the generator planted."""
    if lifeguard_name == "lockset":
        if program.nthreads < 2:
            return []
        raced = set()
        for kind, _tid, _rid, detail in violations:
            if kind != "data-race":
                return [f"unexpected lockset verdict {kind!r}"]
            try:
                raced.add(int(detail.split()[1], 0))
            except (IndexError, ValueError):
                return [f"unparseable data-race detail {detail!r}"]
        if raced != set(SHARED_SLOTS):
            missing = sorted(hex(a) for a in set(SHARED_SLOTS) - raced)
            extra = sorted(hex(a) for a in raced - set(SHARED_SLOTS))
            return [f"lockset raced words != planted shared arena "
                    f"(missing={missing}, extra={extra})"]
        return []
    expected = program.expected_verdicts(lifeguard_name)
    observed = Counter((kind, tid) for kind, tid, _rid, _detail in violations)
    if observed != expected:
        return [f"{lifeguard_name} verdicts {sorted(observed.items())} "
                f"!= planted {sorted(expected.items())}"]
    return []


def _record_fields(record, commit_base: int = 0) -> tuple:
    """Every field of a captured record, for exact archive comparison.

    ``commit_base`` rebases live commit times the way the archive writer
    does (archives root theirs at 1; live values carry process history).
    """
    return (record.tid, record.rid, int(record.kind), record.addr,
            record.size, record.rd, record.rs1, record.rs2,
            int(record.hl_kind) if record.hl_kind is not None else None,
            tuple(record.ranges), record.critical_kind,
            tuple(record.arcs or ()), record.ca_id, record.ca_issuer,
            record.consume_version,
            tuple(tuple(v) for v in record.produce_versions or ()),
            record.commit_time - commit_base
            if record.commit_time is not None else None)


def _replay_failures(program: RacyProgram, lifeguard: str, length: int,
                     config: SimulationConfig, live,
                     violations) -> List[str]:
    """Archive the live parallel run, replay it from disk, compare.

    The archive holds the bytes ``repro archive`` writes for the same
    seed, lifeguard and config. One reader then drives every replay:

    a. **live identity** — ``lifeguard``'s replay reproduces the live
       run byte for byte: verdict projection, full violation list,
       metadata fingerprint, and every decoded record field (live
       commit times rebased the way the writer roots them at 1);
    b. **re-replay** — a fresh reader of the same file gives the same
       payload bytes as the shared one (the archive, not the process,
       is the source of truth);
    c. **fan-out** — every lifeguard's replay reports exactly the
       planted bugs. Verdicts are interleaving-independent by generator
       design, so any capture feeds any lifeguard; fingerprints are not
       (heap addresses move), hence byte identity only for ``lifeguard``.
    """
    import os
    import shutil
    import tempfile

    from repro.replay import (
        TraceReader,
        canonical_json,
        replay_archive,
        replay_payload,
    )
    from repro.replay.engine import write_capture

    tmp = tempfile.mkdtemp(prefix="repro-replay-")
    try:
        path = os.path.join(tmp, f"seed{program.seed}.plog")
        write_capture(path, program, live, lifeguard=lifeguard,
                      length=length, config=config)
        reader = TraceReader(path)
        replays = {name: replay_archive(reader, name)
                   for name in sorted(LIFEGUARDS)}
        fresh = replay_archive(TraceReader(path), lifeguard)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    own = replays[lifeguard]
    failures = []

    # a. live identity: verdicts, violations, fingerprint, streams
    projection = verdict_projection(live.violations, lifeguard)
    if canonical_json(projection) != canonical_json(own.verdicts):
        failures.append(
            "replay verdict projection diverges from live:\n"
            f"      live:   {list(projection)}\n"
            f"      replay: {list(own.verdicts)}")
    if violations != own.violations:
        failures.append(
            f"replay violation list diverges from live "
            f"({len(violations)} live vs {len(own.violations)} replayed)")
    if (canonical_json(live.lifeguard_obj.metadata_fingerprint())
            != canonical_json(own.fingerprint)):
        failures.append("replay metadata fingerprint diverges from live")
    commit_base = (min(r.commit_time for r in live.trace) - 1
                   if live.trace else 0)
    live_streams = {tid: [] for tid in range(program.nthreads)}
    for record in live.trace:
        live_streams[record.tid].append(_record_fields(record, commit_base))
    for tid, live_fields in live_streams.items():
        archived = [_record_fields(r) for r in reader.records(tid)]
        if live_fields != archived:
            failures.append(
                f"t{tid}: archived stream diverges from the live capture: "
                + _first_divergence({tid: live_fields}, {tid: archived}))

    # b. re-replay from a fresh reader -> identical bytes
    if (canonical_json(replay_payload(own))
            != canonical_json(replay_payload(fresh))):
        failures.append(
            "re-replay of the same archive produced different bytes")

    # c. every lifeguard replayed from this archive sees the planted bugs
    for name, result in replays.items():
        failures.extend(f"replayed {failure}" for failure in
                        _planted_failures(program, name, result.violations))
    return failures


def report_payload(report: DiffReport) -> dict:
    """A :class:`DiffReport` as pure JSON types.

    This is the *canonical* serialized form: it crosses the worker
    process boundary, lands in sweep checkpoints and result files, and
    is what the byte-identical parallel-vs-serial test compares.
    """
    import json

    return json.loads(json.dumps({
        "seed": report.seed,
        "lifeguard": report.lifeguard,
        "nthreads": report.nthreads,
        "verdicts": report.verdicts,
        "instructions": report.instructions,
        "failures": report.failures,
        "perf": report.perf,
    }, sort_keys=True))


def _tuplize(value):
    if isinstance(value, list):
        return tuple(_tuplize(item) for item in value)
    return value


def report_from_payload(payload: dict) -> DiffReport:
    """Inverse of :func:`report_payload` (verdict lists re-tupled so
    round-tripped reports compare equal to freshly computed ones)."""
    return DiffReport(
        seed=payload["seed"],
        lifeguard=payload["lifeguard"],
        nthreads=payload["nthreads"],
        verdicts={scheme: _tuplize(v)
                  for scheme, v in payload["verdicts"].items()},
        instructions=dict(payload["instructions"]),
        failures=list(payload["failures"]),
        perf={scheme: dict(counters)
              for scheme, counters in payload["perf"].items()},
    )


def diff_job(payload: dict) -> dict:
    """``repro.jobs`` worker: one differential cell, JSON in/out.

    Module-level (pickled by reference into worker processes); the
    simulator is deterministic per seed, so the returned payload is
    identical no matter which process computes it. ``payload`` holds
    :func:`differential_check`'s keyword arguments.
    """
    return report_payload(differential_check(**payload))


def sweep_jobs(seeds, lifeguards=None, nthreads: int = 2,
               length: int = 18, replay: bool = False) -> list:
    """The canonical job list for a differential sweep: one job per
    (seed, lifeguard) cell, ids stable across runs for checkpointing
    (replay cells carry a ``:replay`` suffix)."""
    from repro.jobs import Job

    lifeguards = tuple(lifeguards or sorted(LIFEGUARDS))
    suffix = ":replay" if replay else ""
    return [
        Job(f"seed{seed:05d}:{name}:t{nthreads}:l{length}{suffix}",
            {"seed": seed, "lifeguard": name, "nthreads": nthreads,
             "length": length, "replay": replay})
        for seed in seeds for name in lifeguards
    ]


def differential_sweep(seeds, lifeguards=None, nthreads: int = 2,
                       length: int = 18, replay: bool = False,
                       jobs: int = 1, checkpoint_path: str = None,
                       resume: bool = False, timeout: float = None,
                       retries: int = 1, worker_faults=(),
                       fault_seed: int = 0,
                       tracer=None) -> List[DiffReport]:
    """Run :func:`differential_check` over a seed range; returns all
    reports in canonical (seed, lifeguard) order (callers assert
    ``all(r.ok for r in reports)``).

    Every cell runs through the :mod:`repro.jobs` executor, whose
    canonical-order merge keeps the result list — and its serialized
    form — byte-identical to ``jobs=1`` even under worker-level chaos
    faults (``worker_faults``/``fault_seed``). ``replay=True`` adds the
    archive-and-replay leg to every cell; each cell archives to its own
    temporary file, so the sweep stays embarrassingly parallel.
    """
    from repro.jobs import cell_values, run_jobs

    results = run_jobs(sweep_jobs(seeds, lifeguards, nthreads, length,
                                  replay),
                       diff_job, nworkers=jobs, timeout=timeout,
                       retries=retries, checkpoint_path=checkpoint_path,
                       resume=resume, worker_faults=worker_faults,
                       fault_seed=fault_seed, tracer=tracer)
    return [report_from_payload(value)
            for value in cell_values(results, "differential")]
