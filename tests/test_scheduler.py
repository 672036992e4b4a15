"""Calendar-queue scheduler tests: FIFO invariants, overflow promotion,
and budget/watchdog trips on exactly the cycle (and with exactly the
crash-report contents) the global ``(cycle, seq)`` heap it replaced
produced."""

import pytest

from repro.common.errors import DeadlockError, SimulationError, \
    SimulationTimeout
from repro.cpu.engine import _RING_SIZE, CoreActor, Engine, Watchdog


class UncomparableCallback:
    """A callback that refuses to be ordered: if the scheduler ever
    compares two entries down to the callback field, this blows up
    instead of silently producing an arbitrary order."""

    def __init__(self, tag, order):
        self.tag = tag
        self.order = order

    def __call__(self):
        self.order.append(self.tag)

    def _no_ordering(self, other):
        raise AssertionError("scheduler compared callback objects")

    __lt__ = __le__ = __gt__ = __ge__ = _no_ordering


class TestBucketFifo:
    def test_uncomparable_callbacks_same_cycle_fifo(self):
        engine = Engine()
        order = []
        for tag in range(10):
            engine.schedule(5, UncomparableCallback(tag, order))
        engine.run()
        assert order == list(range(10))

    def test_uncomparable_callbacks_same_cycle_fifo_overflow(self):
        # Far-future entries ride the overflow heap; its (cycle, seq)
        # prefix must always break ties before the callback is reached.
        engine = Engine()
        order = []
        for tag in range(10):
            engine.schedule(_RING_SIZE + 7, UncomparableCallback(tag, order))
        engine.run()
        assert engine.now == _RING_SIZE + 7
        assert order == list(range(10))

    def test_negative_delay_rejected_both_schedulers(self):
        # Both the ring path and the far-future overflow path.
        engine = Engine()
        for delay in (-1, -_RING_SIZE - 1):
            with pytest.raises(SimulationError):
                engine.schedule(delay, lambda: None)
        assert engine.pending_events == 0

    def test_promoted_event_precedes_same_cycle_late_schedule(self):
        # An event scheduled at t=0 for cycle 2000 (via the overflow
        # heap) was scheduled *earlier* than one scheduled at t=1990 for
        # the same cycle 2000 — promotion must preserve that FIFO order.
        engine = Engine()
        order = []
        engine.schedule(2000, lambda: order.append("far"))
        engine.schedule(1990, lambda: engine.schedule(
            10, lambda: order.append("late")))
        engine.run()
        assert engine.now == 2000
        assert order == ["far", "late"]


class TestOverflowPromotion:
    def test_empty_ring_fast_forwards_to_overflow_head(self):
        engine = Engine()
        fired = []
        engine.schedule(4 * _RING_SIZE, lambda: fired.append(engine.now))
        assert engine.pending_events == 1
        engine.run()
        assert fired == [4 * _RING_SIZE]
        assert engine.events_popped == 1

    def test_far_future_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(5000, lambda: fired.append(("b", engine.now)))
        engine.schedule(1500, lambda: fired.append(("a", engine.now)))
        engine.schedule(3, lambda: fired.append(("near", engine.now)))
        engine.run()
        assert fired == [("near", 3), ("a", 1500), ("b", 5000)]

    def test_pending_events_counts_ring_and_overflow(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.schedule(_RING_SIZE + 1, lambda: None)
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0


class Forever(CoreActor):
    """Delays forever in fixed strides (budget-tripping workhorse)."""

    def __init__(self, engine, name, stride):
        self.stride = stride
        super().__init__(engine, name)

    def step(self):
        return ("delay", self.stride, "x")


class SpinnerNoRetire(CoreActor):
    """Keeps the queue busy but never retires (livelock workhorse)."""

    def step(self):
        return ("delay", 10, "x")


class TestHeapParity:
    """The calendar queue must trip budgets and watchdogs on exactly the
    cycle — with exactly the crash-report contents — the heap did. The
    expected values are the heap scheduler's outcomes, which follow
    from the strides alone."""

    # Strides and budgets straddling the ring-wrap boundary at 1024.
    CASES = [(7, 100), (7, 1023), (7, 1024), (7, 1025),
             (13, 2 * _RING_SIZE + 5), (_RING_SIZE + 3, 3 * _RING_SIZE)]

    @pytest.mark.parametrize("stride,budget", CASES)
    def test_budget_trip_parity(self, stride, budget):
        engine = Engine()
        Forever(engine, "f", stride).start()
        with pytest.raises(SimulationTimeout) as exc:
            engine.run(max_cycles=budget)
        # The first step past the budget trips; every earlier step ran
        # (one queue service each).
        steps = budget // stride + 1
        trip = steps * stride
        assert (exc.value.cycle, exc.value.pending_events, str(exc.value),
                engine.now, engine.events_popped) == (
            trip, 1,
            f"simulation exceeded max_cycles={budget} at cycle {trip} "
            f"with 1 pending events",
            trip, steps)

    def test_budget_retrip_on_resume_parity(self):
        # Resuming with a still-exceeded budget must re-trip on the same
        # already-committed cycle, not silently execute the event.
        engine = Engine()
        Forever(engine, "f", 7).start()
        with pytest.raises(SimulationTimeout) as first:
            engine.run(max_cycles=100)
        with pytest.raises(SimulationTimeout) as second:
            engine.run(max_cycles=100)
        assert first.value.cycle == second.value.cycle == 105
        assert first.value.pending_events == second.value.pending_events == 1

    def test_livelock_trip_parity(self):
        engine = Engine(watchdog=Watchdog(window=50))
        SpinnerNoRetire(engine, "spin").start()
        with pytest.raises(DeadlockError) as exc:
            engine.run()
        assert exc.value.kind == "livelock"
        assert exc.value.waiting == {"spin": "not waiting (busy)"}
        assert str(exc.value) == (
            "livelock: no actor retired anything for 60 cycles (window=50) "
            "while events kept firing | waiting: spin: not waiting (busy)")
        assert engine.now == 60
