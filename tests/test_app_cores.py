"""Direct unit tests for the application-side cores."""

import pytest

from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.common.config import LogBufferConfig, MemoryModel, SimulationConfig
from repro.cpu.cores import (
    AppCore,
    MonitoringHooks,
    NullCapture,
    StoreBufferDrainActor,
    TimeslicedAppCore,
    TsoStoreBuffer,
)
from repro.cpu.engine import Engine
from repro.enforce.progress import ProgressTable
from repro.isa.instructions import HLEventKind, OpKind
from repro.isa.program import ThreadApi
from repro.isa.registers import R0, R1
from repro.memory.coherence import CoherentMemorySystem
from repro.memory.mainmem import MainMemory

ADDR = 0x1000_0000


class AppHarness:
    def __init__(self, config=None, monitored=True, tso=False):
        self.config = config or SimulationConfig.for_threads(2)
        if tso:
            self.config = self.config.replace(memory_model=MemoryModel.TSO)
        self.engine = Engine()
        self.memory = MainMemory()
        self.memsys = CoherentMemorySystem(self.config, num_cores=2)
        self.hooks = MonitoringHooks()
        self.log = None
        if monitored:
            self.log = LogBuffer(self.engine, self.config.log_config, "log")
            self.capture = OrderCapture(0, self.config, self.log, {0: 0}, {})
        else:
            self.capture = NullCapture(0)

    def make_core(self, program, store_buffer=None):
        return AppCore(
            self.engine, "app0", core_id=0, tid=0, program=program,
            capture=self.capture, memsys=self.memsys, memory=self.memory,
            config=self.config, hooks=self.hooks, log=self.log,
            store_buffer=store_buffer)


class TestAppCore:
    def test_executes_and_commits_records(self):
        harness = AppHarness()

        def program(api):
            yield from api.store(ADDR, R0, value=7)
            value = yield from api.load(R1, ADDR)
            assert value == 7

        core = harness.make_core(program(ThreadApi(0)))
        core.start()
        harness.engine.run()
        assert core.finished
        assert core.instructions_retired == 3  # store, load, thread_exit
        assert harness.log.closed
        kinds = []
        while len(harness.log):
            kinds.append(harness.log.pop().kind.name)
        assert kinds == ["STORE", "LOAD", "THREAD_EXIT"]

    def test_memory_latency_charged_to_execute(self):
        harness = AppHarness(monitored=False)

        def program(api):
            yield from api.load(R0, ADDR)  # cold miss: ~98 cycles

        core = harness.make_core(program(ThreadApi(0)))
        core.start()
        harness.engine.run()
        assert core.buckets.get("execute") > harness.config.memory_latency

    def test_pause_costs_its_cycles(self):
        harness = AppHarness(monitored=False)

        def program(api):
            yield from api.pause(50)

        core = harness.make_core(program(ThreadApi(0)))
        core.start()
        total = harness.engine.run()
        assert total >= 50

    def test_log_full_stalls_the_core(self):
        config = SimulationConfig.for_threads(2).replace(
            log_config=LogBufferConfig(size_bytes=4))
        harness = AppHarness(config=config)

        def program(api):
            for _ in range(16):
                yield from api.nop()

        core = harness.make_core(program(ThreadApi(0)))
        core.start()
        consumed = []

        def drain():
            while len(harness.log):
                consumed.append(harness.log.pop())
            if not harness.log.closed:
                harness.engine.schedule(40, drain)

        harness.engine.schedule(40, drain)
        harness.engine.run()
        drain()
        assert core.buckets.get("wait_log", 0) > 0
        assert len(consumed) == 17  # 16 nops + thread exit

    def test_containment_waits_for_progress(self):
        harness = AppHarness()
        progress = ProgressTable(harness.engine, [0])
        harness.hooks.progress_table = progress
        harness.hooks.containment_kinds = frozenset(
            {HLEventKind.SYSCALL_WRITE})

        def program(api):
            yield from api.syscall_write(ADDR, 4)
            yield from api.nop()

        core = harness.make_core(program(ThreadApi(0)))
        core.start()
        # The lifeguard "processes" the begin record only at t=400.
        harness.engine.schedule(400, lambda: progress.publish(0, 1))
        total = harness.engine.run()
        assert total >= 400
        assert core.buckets.get("wait_containment") > 0


class TestTsoAppCore:
    def make_tso(self, program):
        harness = AppHarness(tso=True)
        buffer = TsoStoreBuffer(harness.engine,
                                harness.config.store_buffer_entries, "app0")
        core = harness.make_core(program, store_buffer=buffer)
        drain = StoreBufferDrainActor(
            harness.engine, "app0.drain", core_id=0, buffer=buffer,
            capture=harness.capture, memsys=harness.memsys,
            memory=harness.memory, log=harness.log)
        return harness, core, drain, buffer

    def test_stores_retire_fast_and_drain_later(self):
        observed = {}

        def program(api):
            yield from api.store(ADDR, R0, value=5)  # cold line: slow drain
            observed["value"] = yield from api.load(R1, ADDR)  # forwarded

        harness, core, drain, buffer = self.make_tso(program(ThreadApi(0)))
        core.start()
        drain.start()
        harness.engine.run()
        assert observed["value"] == 5
        assert harness.memory.read(ADDR, 4) == 5
        assert buffer.empty

    def test_rmw_acts_as_a_fence(self):
        def program(api):
            yield from api.store(ADDR, R0, value=1)
            old = yield from api.rmw(R1, ADDR, 2)
            assert old == 1  # the buffered store drained first

        harness, core, drain, _buffer = self.make_tso(program(ThreadApi(0)))
        core.start()
        drain.start()
        harness.engine.run()
        assert harness.memory.read(ADDR, 4) == 2

    def test_partial_overlap_stalls_until_drain(self):
        def program(api):
            yield from api.store(ADDR, R0, value=0x11223344, size=4)
            value = yield from api.load(R1, ADDR, size=1)  # partial
            assert value == 0x44

        harness, core, drain, _buffer = self.make_tso(program(ThreadApi(0)))
        core.start()
        drain.start()
        harness.engine.run()

    def test_records_commit_in_program_order_despite_drain_lag(self):
        def program(api):
            yield from api.store(ADDR, R0, value=1)
            yield from api.load(R1, ADDR + 64)

        harness, core, drain, _buffer = self.make_tso(program(ThreadApi(0)))
        core.start()
        drain.start()
        harness.engine.run()
        rids = []
        while len(harness.log):
            rids.append(harness.log.pop().rid)
        assert rids == sorted(rids)


class TestTimeslicedCore:
    def make(self, programs, quantum=8):
        config = SimulationConfig.for_threads(len(programs)).replace(
            timeslice_quantum=quantum)
        engine = Engine()
        memory = MainMemory()
        memsys = CoherentMemorySystem(config, num_cores=2)
        log = LogBuffer(engine, config.log_config, "log")
        captures = {tid: OrderCapture(tid, config, log, {}, {})
                    for tid in range(len(programs))}
        hooks = MonitoringHooks(progress_table=ProgressTable(
            engine, list(range(len(programs)))))
        core = TimeslicedAppCore(
            engine, "app", core_id=0,
            programs={tid: program for tid, program in enumerate(programs)},
            captures=captures, memsys=memsys, memory=memory, config=config,
            hooks=hooks, log=log)
        return engine, core, log

    def test_round_robin_interleaves_threads(self):
        def worker(api):
            for _ in range(20):
                yield from api.nop()

        engine, core, log = self.make(
            [worker(ThreadApi(0)), worker(ThreadApi(1))], quantum=5)
        core.start()
        engine.run()
        assert core.context_switches >= 3
        order = []
        while len(log):
            order.append(log.pop().tid)
        assert set(order) == {0, 1}
        # The interleaving must actually alternate at quantum boundaries.
        flips = sum(1 for a, b in zip(order, order[1:]) if a != b)
        assert flips >= 3

    def test_single_core_sharing_means_no_arcs(self):
        def writer(api):
            yield from api.store(ADDR, R0, value=1)

        def reader(api):
            yield from api.load(R0, ADDR)

        engine, core, log = self.make(
            [writer(ThreadApi(0)), reader(ThreadApi(1))])
        core.start()
        engine.run()
        while len(log):
            assert not log.pop().arcs

    def test_spin_pause_yields_the_cpu(self):
        released = {}

        def spinner(api):
            while not released:
                value = yield from api.load(R0, ADDR)
                if value:
                    released["done"] = True
                    break
                yield from api.pause(16)

        def releaser(api):
            yield from api.compute(4)
            yield from api.store(ADDR, R0, value=1)

        engine, core, _log = self.make(
            [spinner(ThreadApi(0)), releaser(ThreadApi(1))], quantum=1000)
        core.start()
        engine.run()
        assert released.get("done")
        # The spinner yielded well before burning a whole quantum.
        assert core.context_switches >= 2


class PickCheckedCore(TimeslicedAppCore):
    """A time-sliced core that checks its scheduling fast path.

    While the current thread keeps the core without a call to
    ``_pick_thread`` (quantum left, runnable, no containment), this asks
    ``_pick_thread`` anyway — side-effect free in that state — and
    requires the same decision: the same thread, no context switch.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slow_picks = 0
        self.fast_picks = 0
        self._picked = False

    def _pick_thread(self):
        self._picked = True
        self.slow_picks += 1
        return super()._pick_thread()

    def _next_op(self, tid):
        if not self._picked:
            self.fast_picks += 1
            assert TimeslicedAppCore._pick_thread(self) == (tid, False)
        self._picked = False
        return super()._next_op(tid)


class TestTimeslicedFastPath:
    """Each case pins the schedule (the tids of the log in order), the
    context switches and the cycle count that ``_pick_thread`` alone
    produced before the current thread could skip it."""

    @staticmethod
    def nops(count):
        def program(api):
            for _ in range(count):
                yield from api.nop()
        return program

    @staticmethod
    def writer(api):
        yield from api.syscall_write(ADDR, 4)
        for _ in range(3):
            yield from api.nop()

    def run(self, programs, quantum, release=None):
        config = SimulationConfig.for_threads(len(programs)).replace(
            timeslice_quantum=quantum)
        engine = Engine()
        log = LogBuffer(engine, config.log_config, "log")
        progress = ProgressTable(engine, list(range(len(programs))))
        core = PickCheckedCore(
            engine, "app", core_id=0,
            programs={tid: program(ThreadApi(tid))
                      for tid, program in enumerate(programs)},
            captures={tid: OrderCapture(tid, config, log, {}, {})
                      for tid in range(len(programs))},
            memsys=CoherentMemorySystem(config, num_cores=2),
            memory=MainMemory(), config=config,
            hooks=MonitoringHooks(
                progress_table=progress,
                containment_kinds=frozenset({HLEventKind.SYSCALL_WRITE})),
            log=log)
        if release is not None:
            # The lifeguard "processes" thread 0's syscall at `release`.
            engine.schedule(release, lambda: progress.publish(0, 10))
        core.start()
        total = engine.run()
        order = []
        while len(log):
            order.append(log.pop().tid)
        assert core.fast_picks > 0
        return order, core.context_switches, total, core

    def test_quantum_expiry_with_one_runnable_thread(self):
        order, switches, total, core = self.run(
            [self.nops(20), self.nops(2)], quantum=4)
        # Once thread 1 exits, thread 0 keeps the core across every
        # quantum expiry (each one goes through _pick_thread) without
        # counting a context switch.
        assert order == [0] * 4 + [1] * 3 + [0] * 17
        assert (switches, total) == (2, 424)
        assert core.slow_picks > 3

    def test_current_thread_blocked_by_containment(self):
        order, switches, total, _ = self.run(
            [self.writer, self.nops(6)], quantum=4, release=200)
        assert order == [0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0]
        assert (switches, total) == (4, 813)

    def test_only_thread_blocked_by_containment(self):
        order, switches, total, _ = self.run([self.writer], quantum=4,
                                             release=200)
        assert order == [0] * 6
        assert (switches, total) == (0, 205)

    def test_current_thread_exits_mid_quantum(self):
        order, switches, total, _ = self.run(
            [self.nops(1), self.nops(5)], quantum=8)
        assert order == [0, 0, 1, 1, 1, 1, 1, 1]
        assert (switches, total) == (1, 208)
