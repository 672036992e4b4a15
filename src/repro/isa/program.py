"""Workload-facing program DSL.

A workload kernel is written as a Python generator over a
:class:`ThreadApi`::

    def kernel(api):
        v = yield from api.load(R1, addr)
        yield from api.alu(R2, R1)
        yield from api.store(addr + 4, R2, v + 1)

Every helper is a generator that yields :class:`~repro.isa.instructions.Record`
objects; the simulated core retires them one by one and ``send()``s load
results back. Synchronization primitives (:class:`SpinLock`,
:class:`Barrier`) are built from atomic-exchange spin loops, so locks
produce *real* cache-coherence traffic — and therefore real dependence
arcs — exactly as the paper's pthread-based benchmarks do.
"""

from __future__ import annotations

from repro.common.errors import WorkloadError
from repro.isa import instructions as ins
from repro.isa.instructions import HLEventKind, RecordKind
from repro.isa.registers import R12, R13, R14, R15

#: Registers reserved for DSL-internal use (lock words, barrier counters,
#: allocator header touches). Workload kernels should avoid them.
SCRATCH_REGS = (R12, R13, R14, R15)

#: Spin-wait backoff bounds (cycles) for locks and barriers.
_MIN_BACKOFF = 4
_MAX_BACKOFF = 64

#: HL-op value flag: suppress the ConflictAlert broadcast for this event
#: (the Section 7 "touch the allocated blocks instead" ablation).
_SUPPRESS_CA = 1


class ThreadApi:
    """Per-thread handle given to workload kernels.

    Binds a thread id to the process-wide OS runtime (heap allocator and
    system-call model) and provides generator helpers for every micro-op.
    """

    def __init__(self, tid: int, os_runtime=None):
        self.tid = tid
        self.os = os_runtime

    # -- plain instructions ------------------------------------------------

    def load(self, rd: int, addr: int, size: int = 4):
        """Load; returns the loaded value."""
        value = yield ins.load(rd, addr, size)
        return value

    def store(self, addr: int, rs: int, value: int = 0, size: int = 4):
        yield ins.store(addr, rs, value, size)

    def rmw(self, rd: int, addr: int, value: int, size: int = 4):
        """Atomic exchange; returns the old value."""
        old = yield ins.rmw(rd, addr, value, size)
        return old

    def movrr(self, rd: int, rs: int):
        yield ins.movrr(rd, rs)

    def alu(self, rd: int, rs1: int, rs2: int = None):
        yield ins.alu(rd, rs1, rs2)

    def loadi(self, rd: int):
        yield ins.loadi(rd)

    def nop(self):
        yield ins.nop()

    def pause(self, cycles: int):
        """Spin-wait hint: stall ``cycles`` cycles, logged as one record."""
        op = ins.nop()
        op.value = int(cycles)
        yield op

    def compute(self, count: int, rd: int = R12, rs: int = R12):
        """Emit ``count`` register-only ALU ops (models a compute burst)."""
        for _ in range(count):
            yield ins.alu(rd, rs)

    def loop_overhead(self, count: int = 4, rd: int = R12):
        """Loop bookkeeping: index arithmetic, compares, branch address
        computation. Real x86 loops spend a large share of dynamic
        instructions here; they carry no taint (immediates and unary
        updates), so Inheritance Tracking absorbs them all.
        """
        yield ins.loadi(rd)
        for _ in range(count - 1):
            yield ins.alu(rd, rd)

    def critical_use(self, rs: int, kind: str = "jump"):
        yield ins.critical_use(rs, kind)

    # -- wrapper-library high-level events ----------------------------------

    def malloc(self, nbytes: int):
        """Allocate ``nbytes`` from the process heap; returns the address.

        Emits the HL_BEGIN/HL_END pair the paper's wrapper library
        produces, plus the allocator's own header touches (the "free
        block information close to the boundaries" that makes free/access
        races *logical* races invisible to coherence).
        """
        if self.os is None:
            raise WorkloadError("ThreadApi has no OS runtime; cannot malloc")
        if nbytes <= 0:
            raise WorkloadError(f"malloc of non-positive size {nbytes}")
        use_ca = self.os.use_ca_for(nbytes)
        begin = ins.hl_begin(HLEventKind.MALLOC)
        if not use_ca:
            begin.value = _SUPPRESS_CA
        yield begin
        addr = self.os.heap_alloc(self.tid, nbytes)
        for op in self.os.allocator_touch_ops(addr, acquire=True):
            yield op
        end = ins.hl_end(HLEventKind.MALLOC, ranges=((addr, nbytes),))
        if not use_ca:
            end.value = _SUPPRESS_CA
        yield end
        if not use_ca:
            # Section 7 ablation: induce plain dependence arcs by touching
            # every cache block of the allocation instead of broadcasting.
            # The touches follow HL_END so that a remote access ordered
            # after a touch is also ordered after the lifeguard's
            # allocation metadata update.
            for op in self.os.touch_range_ops(addr, nbytes):
                yield op
        return addr

    def free(self, addr: int):
        """Release a heap block previously returned by :meth:`malloc`."""
        if self.os is None:
            raise WorkloadError("ThreadApi has no OS runtime; cannot free")
        nbytes = self.os.heap_block_size(addr)
        use_ca = self.os.use_ca_for(nbytes)
        begin = ins.hl_begin(HLEventKind.FREE, ranges=((addr, nbytes),))
        if not use_ca:
            begin.value = _SUPPRESS_CA
        yield begin
        for op in self.os.allocator_touch_ops(addr, acquire=False):
            yield op
        if not use_ca:
            for op in self.os.touch_range_ops(addr, nbytes):
                yield op
        self.os.heap_free(self.tid, addr)
        end = ins.hl_end(HLEventKind.FREE, ranges=((addr, nbytes),))
        if not use_ca:
            end.value = _SUPPRESS_CA
        yield end

    def syscall_read(self, buf_addr: int, nbytes: int, data: bytes = None):
        """``read()``-style system call: the (unmonitored) kernel fills
        ``buf_addr``; CA-Begin/CA-End records bracket the kernel activity
        so lifeguards can order their accesses against it (Section 5.4).
        """
        yield ins.hl_begin(HLEventKind.SYSCALL_READ, ranges=((buf_addr, nbytes),))
        if self.os is not None:
            self.os.kernel_fill(buf_addr, nbytes, data)
        yield ins.hl_end(HLEventKind.SYSCALL_READ, ranges=((buf_addr, nbytes),))

    def syscall_write(self, buf_addr: int, nbytes: int):
        """``write()``-style system call (kernel reads the buffer)."""
        yield ins.hl_begin(HLEventKind.SYSCALL_WRITE, ranges=((buf_addr, nbytes),))
        yield ins.hl_end(HLEventKind.SYSCALL_WRITE, ranges=((buf_addr, nbytes),))

    def syscall_other(self):
        """A system call with no monitored memory effect."""
        yield ins.hl_begin(HLEventKind.SYSCALL_OTHER)
        yield ins.hl_end(HLEventKind.SYSCALL_OTHER)


class SpinLock:
    """Test-and-test-and-set spin lock over one shared memory word.

    The acquire path issues an atomic exchange; on contention it spins on
    plain loads with exponential backoff, then retries the exchange.
    Successful acquire/release emit LOCK/UNLOCK high-level records so
    lock-discipline lifeguards (LockSet) see them.
    """

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        if addr % 4:
            raise WorkloadError(f"lock address {addr:#x} must be 4-byte aligned")
        self.addr = addr

    def acquire(self, api: ThreadApi):
        backoff = _MIN_BACKOFF
        while True:
            old = yield from api.rmw(R15, self.addr, 1)
            if old == 0:
                break
            while True:
                value = yield from api.load(R15, self.addr)
                if value == 0:
                    break
                yield from api.pause(backoff)
                backoff = min(backoff * 2, _MAX_BACKOFF)
        yield ins.hl_end(HLEventKind.LOCK, ranges=((self.addr, 4),))

    def release(self, api: ThreadApi):
        yield ins.hl_begin(HLEventKind.UNLOCK, ranges=((self.addr, 4),))
        yield from api.store(self.addr, R15, 0)


class Barrier:
    """Sense-reversing centralized barrier built on a :class:`SpinLock`.

    Uses three shared words laid out by the workload: a lock, an arrival
    counter and a global sense flag. Each participating thread keeps its
    local sense in Python state (thread-private, not monitored memory).
    """

    def __init__(self, base_addr: int, nthreads: int):
        if nthreads < 1:
            raise WorkloadError("barrier needs at least one thread")
        self.lock = SpinLock(base_addr)
        self.count_addr = base_addr + 4
        self.sense_addr = base_addr + 8
        self.nthreads = nthreads
        self._local_sense = {}

    #: Bytes of shared memory a barrier occupies.
    FOOTPRINT = 12

    def wait(self, api: ThreadApi):
        local = 1 - self._local_sense.get(api.tid, 0)
        self._local_sense[api.tid] = local
        yield from self.lock.acquire(api)
        count = yield from api.load(R14, self.count_addr)
        count += 1
        if count == self.nthreads:
            yield from api.store(self.count_addr, R14, 0)
            yield from api.store(self.sense_addr, R14, local)
            yield from self.lock.release(api)
        else:
            yield from api.store(self.count_addr, R14, count)
            yield from self.lock.release(api)
            backoff = _MIN_BACKOFF
            while True:
                value = yield from api.load(R14, self.sense_addr)
                if value == local:
                    break
                yield from api.pause(backoff)
                backoff = min(backoff * 2, _MAX_BACKOFF)


def run_program_sequentially(program):
    """Drive a kernel generator without a simulator, returning its ops.

    Loads read from a plain dict memory (default 0). This exists for unit
    tests and documentation examples that want to inspect the op stream a
    kernel produces without spinning up the full machine.
    """
    memory = {}
    ops = []
    gen = iter(program)
    try:
        op = next(gen)
        while True:
            ops.append(op)
            result = None
            if op.kind == RecordKind.LOAD:
                result = memory.get((op.addr, op.size), 0)
            elif op.kind == RecordKind.RMW:
                result = memory.get((op.addr, op.size), 0)
                memory[(op.addr, op.size)] = op.value
            elif op.kind == RecordKind.STORE:
                memory[(op.addr, op.size)] = op.value
            op = gen.send(result)
    except StopIteration:
        pass
    return ops
