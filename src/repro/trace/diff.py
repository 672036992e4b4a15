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
from repro.lifeguards.oracle import replay
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
    "replay_diff_job",
    "replay_differential_check",
    "replay_fanout_check",
    "replay_sweep",
    "replay_sweep_jobs",
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
    #: Per-scheme hot-path counters for :mod:`repro.perf`:
    #: ``{scheme: {"sim_cycles", "events_popped", "shadow_chunks_peak",
    #: "shadow_chunk_allocs"}}``.
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
                       check_planted: bool = True) -> DiffReport:
    """Run one seeded racy program under all three schemes and compare."""
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
        oracle = replay(result.trace,
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
    if check_planted:
        report.failures.extend(
            _check_planted(program, lifeguard,
                           results["parallel"].violations))
    return report


def _check_planted(program: RacyProgram, lifeguard_name: str,
                   violations) -> List[str]:
    if lifeguard_name == "lockset":
        if program.nthreads < 2:
            return []
        raced = set()
        for violation in violations:
            if violation.kind != "data-race":
                return [f"unexpected lockset verdict {violation.kind!r}"]
            try:
                raced.add(int(violation.detail.split()[1], 0))
            except (IndexError, ValueError):
                return [f"unparseable data-race detail "
                        f"{violation.detail!r}"]
        if raced != set(SHARED_SLOTS):
            missing = sorted(hex(a) for a in set(SHARED_SLOTS) - raced)
            extra = sorted(hex(a) for a in raced - set(SHARED_SLOTS))
            return [f"lockset raced words != planted shared arena "
                    f"(missing={missing}, extra={extra})"]
        return []
    expected = program.expected_verdicts(lifeguard_name)
    observed = Counter((v.kind, v.tid) for v in violations)
    if observed != expected:
        return [f"{lifeguard_name} verdicts {sorted(observed.items())} "
                f"!= planted {sorted(expected.items())}"]
    return []


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
    identical no matter which process computes it.
    """
    report = differential_check(payload["seed"],
                                lifeguard=payload["lifeguard"],
                                nthreads=payload["nthreads"],
                                length=payload["length"])
    return report_payload(report)


def sweep_jobs(seeds, lifeguards=None, nthreads: int = 2,
               length: int = 18) -> list:
    """The canonical job list for a differential sweep: one job per
    (seed, lifeguard) cell, ids stable across runs for checkpointing."""
    from repro.jobs import Job

    lifeguards = tuple(lifeguards or sorted(LIFEGUARDS))
    return [
        Job(f"seed{seed:05d}:{name}:t{nthreads}:l{length}",
            {"seed": seed, "lifeguard": name, "nthreads": nthreads,
             "length": length})
        for seed in seeds for name in lifeguards
    ]


# ---------------------------------------------------------------------------
# Replay-vs-live differential layer (record once, replay many)
# ---------------------------------------------------------------------------

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


def replay_differential_check(seed: int, lifeguard: str = "taintcheck",
                              nthreads: int = 2, length: int = 18,
                              archive_path: str = None) -> DiffReport:
    """Live-monitor one seeded racy program, archive it, replay it.

    The strict acceptance check of the record-once/replay-many design:
    the archived run, replayed from disk through the same lifeguard,
    must reproduce the live run *byte-for-byte* —

    1. **verdicts** — the full violation list (kind, tid, rid, detail)
       and its scheme-independent projection, as canonical JSON bytes;
    2. **fingerprints** — the lifeguard's exact semantic state
       (memory metadata, register metadata, violation kinds);
    3. **retire orders** — every thread's archived stream decodes to
       the live captured records, all fields including dependence arcs
       and commit times;
    4. **re-replay** — replaying the same archive twice produces
       identical payload bytes (the archive, not the process, is the
       source of truth).
    """
    import os
    import tempfile

    from repro.replay import (
        TraceReader,
        canonical_json,
        capture_archive,
        replay_archive,
        replay_payload,
    )

    report = DiffReport(seed=seed, lifeguard=lifeguard, nthreads=nthreads)
    tmp = None
    if archive_path is None:
        tmp = tempfile.mkdtemp(prefix="repro-replay-")
        archive_path = os.path.join(tmp, f"seed{seed}.plog")
    try:
        live, manifest = capture_archive(
            archive_path, seed, lifeguard=lifeguard, nthreads=nthreads,
            length=length)
        reader = TraceReader(archive_path)
        first = replay_archive(reader, lifeguard)
        second = replay_archive(TraceReader(archive_path), lifeguard)

        report.verdicts["live"] = verdict_projection(live.violations,
                                                     lifeguard)
        report.verdicts["replay"] = first.verdicts
        report.instructions["live"] = live.instructions
        report.instructions["replay"] = manifest["meta"]["instructions"]
        totals = manifest["totals"]
        report.perf["archive"] = {
            "stream_bytes": totals["stream_bytes"],
            "arc_bytes": totals["arc_bytes"],
            "naive_arc_bytes": totals["naive_arc_bytes"],
            "records": totals["records"],
        }

        # 1. verdicts: projection and the full violation list
        if (canonical_json(report.verdicts["live"])
                != canonical_json(first.verdicts)):
            report.failures.append(
                "replay verdict projection diverges from live:\n"
                f"      live:   {list(report.verdicts['live'])}\n"
                f"      replay: {list(first.verdicts)}")
        live_violations = [(v.kind, v.tid, v.rid, v.detail)
                           for v in live.violations]
        if live_violations != first.violations:
            report.failures.append(
                f"replay violation list diverges from live "
                f"({len(live_violations)} live vs "
                f"{len(first.violations)} replayed)")

        # 2. fingerprints, byte-compared in canonical form
        live_fp = live.lifeguard_obj.metadata_fingerprint()
        if canonical_json(live_fp) != canonical_json(first.fingerprint):
            report.failures.append(
                "replay metadata fingerprint diverges from live")

        # 3. retire orders: archived streams decode to the live records
        # (live commit times rebased the way the archive writer roots
        # them at 1 — see repro.replay.format._commit_base)
        live_streams = {tid: [] for tid in range(nthreads)}
        for record in live.trace:
            live_streams[record.tid].append(record)
        commit_base = min(r.commit_time for r in live.trace) - 1 \
            if live.trace else 0
        for tid in sorted(live_streams):
            live_fields = [_record_fields(r, commit_base)
                           for r in live_streams[tid]]
            archived_fields = [_record_fields(r)
                               for r in reader.records(tid)]
            if live_fields != archived_fields:
                report.failures.append(
                    f"t{tid}: archived stream diverges from the live "
                    f"capture: " + _first_divergence(
                        {tid: live_fields}, {tid: archived_fields}))

        # 4. same archive twice -> identical bytes
        if (canonical_json(replay_payload(first))
                != canonical_json(replay_payload(second))):
            report.failures.append(
                "re-replay of the same archive produced different bytes")
    finally:
        if tmp is not None:
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
    return report


class _ViolationView:
    """Attribute view over a (kind, tid, rid, detail) violation tuple,
    so planted-bug checks accept replayed payloads."""

    __slots__ = ("kind", "tid", "rid", "detail")

    def __init__(self, entry):
        self.kind, self.tid, self.rid, self.detail = entry


def replay_fanout_check(seed: int, nthreads: int = 2, length: int = 18,
                        capture_lifeguard: str = "taintcheck",
                        lifeguards=None, jobs: int = 1,
                        executor: str = "auto",
                        archive_path: str = None) -> DiffReport:
    """Archive one run once; replay *every* lifeguard from that file.

    The capture side runs a single live monitored execution; each
    requested lifeguard then re-monitors the stored order from disk.
    Checks: every replayed lifeguard reports exactly the planted bugs
    (the generator's interleaving-independent ground truth), and a
    parallel ``jobs=N`` fan-out returns byte-identical payloads to the
    serial one.
    """
    import os
    import tempfile

    from repro.replay import canonical_json, capture_archive, replay_all

    names = sorted(lifeguards or LIFEGUARDS)
    report = DiffReport(seed=seed, lifeguard=",".join(names),
                        nthreads=nthreads)
    tmp = None
    if archive_path is None:
        tmp = tempfile.mkdtemp(prefix="repro-replay-")
        archive_path = os.path.join(tmp, f"seed{seed}.plog")
    try:
        program = RacyProgram.generate(seed, nthreads=nthreads,
                                       length=length)
        live, _manifest = capture_archive(
            archive_path, seed, lifeguard=capture_lifeguard,
            nthreads=nthreads, length=length)
        report.instructions["live"] = live.instructions
        serial = replay_all(archive_path, lifeguards=names)
        for name in names:
            payload = serial[name]
            report.verdicts[name] = _tuplize(payload["verdicts"])
            violations = [_ViolationView(entry)
                          for entry in payload["violations"]]
            report.failures.extend(
                f"replayed {failure}"
                for failure in _check_planted(program, name, violations))
        if jobs > 1 or executor != "auto":
            parallel = replay_all(archive_path, lifeguards=names,
                                  jobs=jobs, executor=executor)
            if canonical_json(parallel) != canonical_json(serial):
                report.failures.append(
                    f"--jobs {jobs} replay fan-out diverges from the "
                    f"serial replay of the same archive")
    finally:
        if tmp is not None:
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
    return report


def replay_diff_job(payload: dict) -> dict:
    """``repro.jobs`` worker: one replay-vs-live differential cell."""
    report = replay_differential_check(payload["seed"],
                                       lifeguard=payload["lifeguard"],
                                       nthreads=payload["nthreads"],
                                       length=payload["length"])
    return report_payload(report)


def replay_sweep_jobs(seeds, lifeguards=None, nthreads: int = 2,
                      length: int = 18) -> list:
    """Stable job list for a replay differential sweep (one job per
    (seed, lifeguard) cell, ids checkpoint-stable across runs)."""
    from repro.jobs import Job

    lifeguards = tuple(lifeguards or sorted(LIFEGUARDS))
    return [
        Job(f"replay{seed:05d}:{name}:t{nthreads}:l{length}",
            {"seed": seed, "lifeguard": name, "nthreads": nthreads,
             "length": length})
        for seed in seeds for name in lifeguards
    ]


def replay_sweep(seeds, lifeguards=None, nthreads: int = 2,
                 length: int = 18, jobs: int = 1,
                 executor: str = "auto", tracer=None) -> List[DiffReport]:
    """:func:`replay_differential_check` over a seed range.

    Returns reports in canonical (seed, lifeguard) order; callers assert
    ``all(r.ok for r in reports)``. ``jobs=N`` fans cells over the
    :mod:`repro.jobs` executor — each worker archives to its own
    temporary file, so the sweep is embarrassingly parallel.
    """
    if jobs == 1 and executor == "auto":
        lifeguards = tuple(lifeguards or sorted(LIFEGUARDS))
        return [replay_differential_check(seed, lifeguard=name,
                                          nthreads=nthreads, length=length)
                for seed in seeds for name in lifeguards]

    from repro.jobs import run_jobs

    results = run_jobs(replay_sweep_jobs(seeds, lifeguards, nthreads,
                                         length),
                       replay_diff_job, nworkers=jobs, executor=executor,
                       tracer=tracer)
    reports = []
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"replay cell {result.job_id} failed "
                f"({result.status}, exit {result.exit_code}): "
                f"{result.error}")
        reports.append(report_from_payload(result.value))
    return reports


def differential_sweep(seeds, lifeguards=None, nthreads: int = 2,
                       length: int = 18, jobs: int = 1,
                       checkpoint_path: str = None, resume: bool = False,
                       timeout: float = None, retries: int = 1,
                       executor: str = "auto", heartbeat: float = None,
                       backoff=None, worker_faults=(), fault_seed: int = 0,
                       shard_dir: str = None,
                       tracer=None) -> List[DiffReport]:
    """Run :func:`differential_check` over a seed range; returns all
    reports in canonical (seed, lifeguard) order (callers assert
    ``all(r.ok for r in reports)``).

    ``jobs=1`` with no checkpointing is the historical in-process loop;
    ``jobs=N`` fans the cells out over the :mod:`repro.jobs` executor
    (``executor`` picks the backend: ``auto``/``inline``/``pool``/
    ``socket``), whose canonical-order merge keeps the result list —
    and its serialized form — byte-identical to the serial run even
    under worker-level chaos faults (``worker_faults``/``fault_seed``)
    and per-worker result shards (``shard_dir``).
    """
    if (jobs == 1 and checkpoint_path is None and not resume
            and executor == "auto" and not worker_faults and not shard_dir):
        lifeguards = tuple(lifeguards or sorted(LIFEGUARDS))
        return [differential_check(seed, lifeguard=name, nthreads=nthreads,
                                   length=length)
                for seed in seeds for name in lifeguards]

    from repro.jobs import DEFAULT_HEARTBEAT, run_jobs

    results = run_jobs(sweep_jobs(seeds, lifeguards, nthreads, length),
                       diff_job, nworkers=jobs, timeout=timeout,
                       retries=retries, checkpoint_path=checkpoint_path,
                       resume=resume, executor=executor,
                       heartbeat=(DEFAULT_HEARTBEAT if heartbeat is None
                                  else heartbeat),
                       backoff=backoff, worker_faults=worker_faults,
                       fault_seed=fault_seed, shard_dir=shard_dir,
                       tracer=tracer)
    reports = []
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"differential cell {result.job_id} failed "
                f"({result.status}, exit {result.exit_code}): {result.error}")
        reports.append(report_from_payload(result.value))
    return reports
