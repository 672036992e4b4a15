"""Synthetic and adversarial workloads for tests and bug demonstrations.

These are not paper benchmarks; they exist to exercise specific
mechanisms: racy sharing (dependence arcs and delayed advertising),
cross-thread taint flow (the Figure 3 scenario), heap bugs (AddrCheck
violations), a tainted-jump exploit (TaintCheck violations), the Dekker
pattern (TSO versioning) and unsynchronized counters (LockSet races).
"""

from __future__ import annotations

from repro.common.config import ScalePreset
from repro.isa.registers import R0, R1, R2, R3
from repro.workloads.base import Workload


class RacyCounters(Workload):
    """Threads hammer a small set of shared counters without locks.

    Maximal coherence-visible racing: every increment is a load + ALU +
    store on a line another thread just wrote, so the streams are dense
    with RAW/WAR/WAW arcs. The TaintCheck oracle test runs on this.
    """

    name = "racy_counters"
    counters = 4

    def __init__(self, nthreads, scale=ScalePreset.TINY, seed=1):
        super().__init__(nthreads, scale, seed)
        self.increments = self.sized(tiny=30, small=120, paper=1000)
        self._base = self.galloc_lines(self.counters)

    def counter_addr(self, index: int) -> int:
        return self._base + (index % self.counters) * 64

    def thread_programs(self, apis):
        return [self._thread(apis[tid], tid) for tid in range(self.nthreads)]

    def _thread(self, api, tid):
        rng = self.thread_rng(tid)
        for i in range(self.increments):
            addr = self.counter_addr(rng.randrange(self.counters))
            value = yield from api.load(R0, addr)
            yield from api.alu(R0, R0)
            yield from api.store(addr, R0, value=(value + 1) & 0xFFFF)


class TaintPipeline(Workload):
    """Cross-thread taint flow: the Figure 3 remote-conflict scenario.

    Thread 0 taints a source buffer (syscall read) and copies it through
    registers into a shared relay; every other thread copies the relay
    onward into its own sink while thread 0 keeps overwriting the
    original source — the exact interleaving where a naively
    parallelized IT would lose the inherits-from metadata.
    """

    name = "taint_pipeline"

    def __init__(self, nthreads, scale=ScalePreset.TINY, seed=1):
        super().__init__(nthreads, scale, seed)
        self.rounds = self.sized(tiny=20, small=80, paper=500)
        self.source = self.galloc_lines(1)
        self.relay = self.galloc_lines(1)
        self.sinks = [self.galloc_lines(1) for _ in range(self.nthreads)]
        self.flag = self.galloc_lines(1)

    def thread_programs(self, apis):
        programs = [self._producer(apis[0])]
        programs.extend(
            self._consumer(apis[tid], tid) for tid in range(1, self.nthreads)
        )
        return programs

    def _producer(self, api):
        yield from api.syscall_read(self.source, 4)
        for round_no in range(1, self.rounds + 1):
            # reg <- source; relay <- reg  (IT condenses to mem_to_mem)
            yield from api.load(R1, self.source)
            yield from api.store(self.relay, R1, value=round_no)
            yield from api.store(self.flag, R1, value=round_no)
            # Overwrite the source: the remote conflict against consumers
            # that still inherit from `relay`'s metadata chain.
            yield from api.loadi(R2)
            yield from api.store(self.source, R2, value=round_no * 3)
            yield from api.syscall_read(self.source, 4)

    def _consumer(self, api, tid):
        sink = self.sinks[tid - 1]
        seen = 0
        spins = 0
        while seen < self.rounds and spins < self.rounds * 200:
            flag = yield from api.load(R0, self.flag)
            if flag <= seen:
                spins += 1
                yield from api.pause(8)
                continue
            seen = flag
            yield from api.load(R1, self.relay)
            yield from api.store(sink, R1, value=seen)


class HeapBugs(Workload):
    """Deliberate heap bugs: use-after-free and out-of-bounds access.

    Thread 0 allocates, shares, then frees a buffer; the peers keep
    reading it after the free — AddrCheck must flag unallocated accesses
    and the double free.
    """

    name = "heap_bugs"
    expected_violation_kinds = frozenset({"unallocated-access", "bad-free"})

    def __init__(self, nthreads, scale=ScalePreset.TINY, seed=1):
        super().__init__(nthreads, scale, seed)
        self.ptr_cell = self.galloc_lines(1)
        self.freed_flag = self.galloc_lines(1)
        self._barrier = self.make_barrier()

    def thread_programs(self, apis):
        programs = [self._owner(apis[0])]
        programs.extend(
            self._user(apis[tid]) for tid in range(1, self.nthreads)
        )
        return programs

    def _owner(self, api):
        buf = yield from api.malloc(128)
        for word in range(8):
            yield from api.store(buf + word * 4, R0, value=word)
        yield from api.store(self.ptr_cell, R0, value=buf)
        yield from self._barrier.wait(api)
        yield from api.free(buf)
        yield from api.store(self.freed_flag, R0, value=1)
        # Use after free by the owner itself (guaranteed violation).
        yield from api.load(R1, buf)
        yield from api.store(buf + 4, R1, value=99)
        # Double free (guaranteed bad-free violation).
        yield from api.free(buf)
        yield from self._barrier.wait(api)

    def _user(self, api):
        buf = 0
        while not buf:
            buf = yield from api.load(R0, self.ptr_cell)
            if not buf:
                yield from api.pause(16)
        yield from api.load(R1, buf)
        yield from self._barrier.wait(api)
        # Wait until the owner definitely freed, then read: use-after-free.
        freed = 0
        while not freed:
            freed = yield from api.load(R2, self.freed_flag)
            if not freed:
                yield from api.pause(16)
        yield from api.load(R3, buf + 8)
        yield from self._barrier.wait(api)


class TaintedJump(Workload):
    """A security exploit: network input flows into a jump target.

    Thread 0 reads attacker-controlled bytes; thread 1 picks the value up
    through shared memory and uses it as an indirect-jump target —
    TaintCheck must flag a tainted-critical-use on thread 1 even though
    the taint entered on thread 0.
    """

    name = "tainted_jump"
    expected_violation_kinds = frozenset({"tainted-critical-use"})

    def __init__(self, nthreads, scale=ScalePreset.TINY, seed=1):
        super().__init__(max(nthreads, 2), scale, seed)
        self.inbox = self.galloc_lines(1)
        self.handoff = self.galloc_lines(1)
        self.ready = self.galloc_lines(1)

    def thread_programs(self, apis):
        programs = [self._receiver(apis[0]), self._dispatcher(apis[1])]
        programs.extend(self._bystander(apis[tid])
                        for tid in range(2, self.nthreads))
        return programs

    def _receiver(self, api):
        yield from api.syscall_read(self.inbox, 16)
        target = yield from api.load(R0, self.inbox + 4)
        yield from api.store(self.handoff, R0, value=target or 0xBEEF)
        yield from api.store(self.ready, R0, value=1)

    def _dispatcher(self, api):
        ready = 0
        while not ready:
            ready = yield from api.load(R1, self.ready)
            if not ready:
                yield from api.pause(8)
        yield from api.load(R2, self.handoff)
        yield from api.critical_use(R2, kind="jump")

    def _bystander(self, api):
        for _ in range(10):
            yield from api.compute(5)


class DekkerPair(Workload):
    """Figure 5's Dekker pattern: Wr(A);Rd(B) || Wr(B);Rd(A).

    Under TSO both loads can bypass the buffered stores, creating the
    dependence cycle that forces metadata versioning. ``rounds``
    repetitions give the store buffers many chances to race.
    """

    name = "dekker"

    def __init__(self, nthreads, scale=ScalePreset.TINY, seed=1):
        super().__init__(max(nthreads, 2), scale, seed)
        self.rounds = self.sized(tiny=40, small=160, paper=1000)
        self.flag_a = self.galloc_lines(1)
        self.flag_b = self.galloc_lines(1)
        self.observed = self.galloc_lines(2)

    def thread_programs(self, apis):
        programs = [
            self._side(apis[0], self.flag_a, self.flag_b, self.observed),
            self._side(apis[1], self.flag_b, self.flag_a, self.observed + 64),
        ]
        programs.extend(self._filler(apis[tid])
                        for tid in range(2, self.nthreads))
        return programs

    def _side(self, api, mine, theirs, out):
        for round_no in range(1, self.rounds + 1):
            yield from api.loadi(R0)
            yield from api.store(mine, R0, value=round_no)
            value = yield from api.load(R1, theirs)
            yield from api.store(out, R1, value=value)
            yield from api.compute(3)

    def _filler(self, api):
        for _ in range(20):
            yield from api.compute(4)


class UnsyncCounters(Workload):
    """Two threads update one counter: one with the lock, one without —
    a textbook lock-discipline violation for LockSet."""

    name = "unsync_counters"
    expected_violation_kinds = frozenset({"data-race"})

    def __init__(self, nthreads, scale=ScalePreset.TINY, seed=1):
        super().__init__(max(nthreads, 2), scale, seed)
        self.counter = self.galloc_lines(1)
        self.lock = self.make_lock()
        self.rounds = self.sized(tiny=15, small=60, paper=300)

    def thread_programs(self, apis):
        programs = [self._locked(apis[0]), self._unlocked(apis[1])]
        programs.extend(self._locked(apis[tid])
                        for tid in range(2, self.nthreads))
        return programs

    def _locked(self, api):
        for _ in range(self.rounds):
            yield from self.lock.acquire(api)
            value = yield from api.load(R0, self.counter)
            yield from api.store(self.counter, R0, value=value + 1)
            yield from self.lock.release(api)

    def _unlocked(self, api):
        for _ in range(self.rounds):
            value = yield from api.load(R0, self.counter)
            yield from api.store(self.counter, R0, value=value + 1)
