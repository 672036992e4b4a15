"""Unit tests for the discrete-event engine and actor framework."""

import pytest

from repro.common.errors import DeadlockError, SimulationError, \
    SimulationTimeout
from repro.cpu.engine import Condition, CoreActor, Engine, Watchdog, \
    find_cycle


class ScriptedActor(CoreActor):
    """Runs a list of step actions, recording when each executes."""

    def __init__(self, engine, name, script):
        super().__init__(engine, name)
        self.script = list(script)
        self.trace = []

    def step(self):
        if not self.script:
            return ("done",)
        action = self.script.pop(0)
        self.trace.append((self.engine.now, action))
        return action


class TestEngine:
    def test_time_advances_by_delays(self):
        engine = Engine()
        actor = ScriptedActor(engine, "a", [("delay", 5, "x"),
                                            ("delay", 3, "x")])
        actor.start()
        assert engine.run() == 8
        assert actor.buckets.get("x") == 8

    def test_zero_delay_steps_inline(self):
        engine = Engine()
        actor = ScriptedActor(engine, "a", [("delay", 0, "x")] * 100)
        actor.start()
        assert engine.run() == 0

    def test_ties_break_by_schedule_order(self):
        engine = Engine()
        order = []
        engine.schedule(5, lambda: order.append("first"))
        engine.schedule(5, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1, lambda: None)

    def test_max_cycles_guard(self):
        engine = Engine()
        class Forever(CoreActor):
            def step(self):
                return ("delay", 10, "x")
        Forever(engine, "f").start()
        with pytest.raises(SimulationError):
            engine.run(max_cycles=100)

    def test_max_cycles_raises_dedicated_timeout_with_state(self):
        engine = Engine()
        class Forever(CoreActor):
            def step(self):
                return ("delay", 10, "x")
        Forever(engine, "f").start()
        with pytest.raises(SimulationTimeout) as exc:
            engine.run(max_cycles=100)
        # The tripping event's time is committed and the event is NOT
        # discarded: the timeout is observable, not state-corrupting.
        assert exc.value.cycle == 110
        assert engine.now == 110
        assert exc.value.pending_events == 1
        assert engine.pending_events == 1

    def test_timeout_pending_events_agree_with_queue_and_crash_report(self):
        # SimulationTimeout accounting audit: the budget-tripping event
        # stays queued, pending_events counts it, and the crash
        # report sees exactly the same number.
        from repro.platform.results import crash_report

        engine = Engine()

        class Countdown(CoreActor):
            def __init__(self, e):
                super().__init__(e, "c")
                self.left = 5
            def step(self):
                if not self.left:
                    return ("done",)
                self.left -= 1
                return ("delay", 10, "x")

        actor = Countdown(engine)
        actor.start()
        with pytest.raises(SimulationTimeout) as exc:
            engine.run(max_cycles=25)
        assert exc.value.pending_events == engine.pending_events == 1
        assert engine.now == exc.value.cycle == 30
        report = crash_report(exc.value)
        assert report["pending_events"] == engine.pending_events

    def test_timeout_run_resumes_by_executing_tripping_event(self):
        # A second run() call with a larger (or no) budget must resume
        # from the committed time, execute the event that tripped the
        # budget, and complete without losing or duplicating work.
        engine = Engine()

        class Countdown(CoreActor):
            def __init__(self, e):
                super().__init__(e, "c")
                self.left = 5
                self.steps = []
            def step(self):
                if not self.left:
                    return ("done",)
                self.left -= 1
                self.steps.append(self.engine.now)
                return ("delay", 10, "x")

        actor = Countdown(engine)
        actor.start()
        with pytest.raises(SimulationTimeout):
            engine.run(max_cycles=25)
        assert engine.run() == 50  # resumes and completes
        assert actor.finished
        assert actor.steps == [0, 10, 20, 30, 40]  # no step lost/duplicated
        assert actor.buckets.get("x") == 50
        assert engine.pending_events == 0

    def test_unknown_action_raises(self):
        engine = Engine()
        ScriptedActor(engine, "a", [("bogus",)]).start()
        with pytest.raises(SimulationError):
            engine.run()


class TestStepProtocol:
    """``step()`` may return a bare ``int``: a delay charged to the
    actor's ``delay_bucket``, exactly like the ``("delay", n, bucket)``
    tuple."""

    DELAYS = [5, 0, 3, 1, 0, 2000, 7, 1023, 1024, 1]

    @staticmethod
    def run_script(script, delay_bucket=None):
        engine = Engine()
        actor = ScriptedActor(engine, "a", script)
        if delay_bucket is not None:
            actor.delay_bucket = delay_bucket
        actor.start()
        finish = engine.run()
        return finish, actor.buckets.as_dict(), engine.events_popped

    @pytest.mark.parametrize("bucket", [None, "execute"])
    def test_bare_int_is_a_delay_in_the_delay_bucket(self, bucket):
        expected_bucket = bucket or CoreActor.delay_bucket
        as_ints = self.run_script(self.DELAYS, delay_bucket=bucket)
        as_tuples = self.run_script(
            [("delay", cycles, expected_bucket) for cycles in self.DELAYS])
        assert as_ints == as_tuples
        assert as_ints[0] == sum(self.DELAYS)
        assert as_ints[1] == {expected_bucket: sum(self.DELAYS)}

    def test_negative_bare_int_is_rejected_like_the_tuple(self):
        for action in (-1, ("delay", -1, "useful")):
            with pytest.raises(ValueError, match="negative cycles"):
                self.run_script([action])

    @pytest.mark.parametrize("action", [True, False, None, 2.5, "delay",
                                        (), [], {}])
    def test_non_action_raises_simulation_error(self, action):
        with pytest.raises(SimulationError, match="unknown step action"):
            self.run_script([action])


class TestConditions:
    def test_wait_charges_bucket_on_wake(self):
        engine = Engine()
        condition = Condition("c")
        waiter = ScriptedActor(engine, "w",
                               [("wait", condition, "blocked", "test")])
        waiter.start()

        class Notifier(CoreActor):
            def __init__(self, e):
                super().__init__(e, "n")
                self.fired = False
            def step(self):
                if self.fired:
                    return ("done",)
                self.fired = True
                return ("delay", 10, "x")
            def on_finish(self):
                condition.notify_all(engine)

        Notifier(engine).start()
        engine.run()
        assert waiter.finished
        assert waiter.buckets.get("blocked") == 10

    def test_deadlock_reports_wait_reasons(self):
        engine = Engine()
        condition = Condition("never")
        ScriptedActor(engine, "stuck",
                      [("wait", condition, "b", "waiting forever")]).start()
        with pytest.raises(DeadlockError) as exc:
            engine.run()
        assert "stuck" in exc.value.waiting
        assert "waiting forever" in exc.value.waiting["stuck"]

    def test_spurious_wakeup_rewaits(self):
        engine = Engine()
        condition = Condition("c")

        class Rewaiter(CoreActor):
            def __init__(self, e):
                super().__init__(e, "r")
                self.attempts = 0
                self.ready = False
            def step(self):
                if self.ready:
                    return ("done",)
                self.attempts += 1
                return ("wait", condition, "b", "not ready")

        waiter = Rewaiter(engine)
        waiter.start()

        def wake_then_release():
            condition.notify_all(engine)  # spurious
            def release():
                waiter.ready = True
                condition.notify_all(engine)
            engine.schedule(5, release)

        engine.schedule(1, wake_then_release)
        engine.run()
        assert waiter.finished
        assert waiter.attempts == 2

    def test_notify_clears_waiters(self):
        engine = Engine()
        condition = Condition("c")

        class Parked(CoreActor):
            def __init__(self, e):
                super().__init__(e, "p")
                self.woken = False
            def step(self):
                if self.woken:
                    return ("done",)
                self.woken = True
                return ("wait", condition, "b", "parked")

        Parked(engine).start()
        engine.schedule(3, lambda: condition.notify_all(engine))
        engine.run()
        assert condition.waiter_count == 0

    def test_finish_time_recorded(self):
        engine = Engine()
        actor = ScriptedActor(engine, "a", [("delay", 7, "x")])
        actor.start()
        engine.run()
        assert actor.finish_time == 7

    def test_heap_drain_deadlock_reports_every_blocked_actor(self):
        engine = Engine()
        c1, c2 = Condition("one"), Condition("two")
        ScriptedActor(engine, "a", [("wait", c1, "b", "needs one")]).start()
        ScriptedActor(engine, "b", [("wait", c2, "b", "needs two")]).start()
        with pytest.raises(DeadlockError) as exc:
            engine.run()
        assert set(exc.value.waiting) == {"a", "b"}
        assert "needs one" in exc.value.waiting["a"]
        assert "needs two" in exc.value.waiting["b"]

    def test_wake_on_finished_actor_purges_waiter_list(self):
        engine = Engine()
        condition = Condition("c")

        class OneWait(CoreActor):
            def __init__(self, e):
                super().__init__(e, "w")
                self.woken = False
            def step(self):
                if self.woken:
                    return ("done",)
                self.woken = True
                return ("wait", condition, "b", "once")

        actor = OneWait(engine)
        actor.start()
        engine.schedule(1, lambda: condition.notify_all(engine))
        engine.run()
        assert actor.finished
        # A stale wake on the finished actor must not crash and must
        # leave it parked in no waiter list.
        condition.add_waiter(actor)
        actor.wait_condition = condition
        actor.wake()
        assert condition.waiter_count == 0
        assert actor.wait_condition is None


class TestWatchdogAndDiagnostics:
    """Livelock detection and wait-for-graph deadlock diagnosis."""

    def test_watchdog_catches_two_actor_spin_livelock(self):
        # Two actors poll each other's state forever: the heap never
        # drains, so classic deadlock detection is blind — only the
        # watchdog (no note_retire within the window) can see it.
        engine = Engine(watchdog=Watchdog(window=500))

        class Spinner(CoreActor):
            def step(self):
                return ("delay", 10, "spin")

        Spinner(engine, "s1").start()
        Spinner(engine, "s2").start()
        with pytest.raises(DeadlockError) as exc:
            engine.run(max_cycles=1_000_000)
        assert exc.value.kind == "livelock"
        assert set(exc.value.waiting) == {"s1", "s2"}
        assert "busy" in exc.value.waiting["s1"]

    def test_note_retire_keeps_watchdog_quiet(self):
        engine = Engine(watchdog=Watchdog(window=50))

        class Worker(CoreActor):
            def __init__(self, e):
                super().__init__(e, "w")
                self.left = 20
            def step(self):
                if not self.left:
                    return ("done",)
                self.left -= 1
                self.engine.note_retire()
                return ("delay", 40, "useful")

        Worker(engine).start()
        assert engine.run() == 800  # no spurious livelock

    def test_wait_for_graph_and_cycle_detection(self):
        engine = Engine()
        c1, c2 = Condition("one"), Condition("two")
        a = ScriptedActor(engine, "a", [("wait", c1, "b", "needs one")])
        b = ScriptedActor(engine, "b", [("wait", c2, "b", "needs two")])
        c1.owners = ["b"]  # only b ever notifies c1, and vice versa
        c2.owners = ["a"]
        a.start()
        b.start()
        with pytest.raises(DeadlockError) as exc:
            engine.run()
        graph = exc.value.graph
        assert graph["actor:a"] == ["cond:one"]
        assert graph["cond:one"] == ["actor:b"]
        cycle = exc.value.cycle
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert {"actor:a", "actor:b"} <= set(cycle)

    def test_find_cycle_on_acyclic_graph(self):
        assert find_cycle({"a": ["b"], "b": ["c"], "c": []}) is None
        cycle = find_cycle({"a": ["b"], "b": ["a"]})
        assert cycle[0] == cycle[-1] and set(cycle) == {"a", "b"}

    def test_unfinished_counter_tracks_actor_scan_exactly(self):
        # The live-actor dict the watchdog's liveness check tests must
        # hold exactly the unfinished actors, in registration order, at
        # every sampled event.
        engine = Engine()
        actors = [ScriptedActor(engine, f"a{i}", [("delay", 5 * (i + 1), "x")])
                  for i in range(4)]
        for actor in actors:
            actor.start()
        samples = []

        def sample():
            scan = [a for a in actors if not a.finished]
            samples.append((list(engine.live_actors), scan))
            if len(samples) < 20:
                engine.schedule(3, sample)

        engine.schedule(0, sample)
        engine.run()
        assert samples and all(live == scan for live, scan in samples)
        assert [len(live) for live, _ in samples[:8]] == [4, 4, 3, 3, 2, 1,
                                                          1, 0]
        assert not engine.live_actors

    def test_no_livelock_after_all_actors_finished(self):
        # Stray scheduled callbacks may keep the heap busy long past the
        # watchdog window after every actor finished; the pre-counter
        # scan (any(not a.finished)) stayed quiet here and the O(1)
        # counter must too.
        engine = Engine(watchdog=Watchdog(window=50))
        ScriptedActor(engine, "a", [("delay", 1, "x")]).start()

        ticks = []

        def tick(n):
            ticks.append(n)
            if n:
                engine.schedule(40, lambda: tick(n - 1))

        engine.schedule(2, lambda: tick(10))
        engine.run()  # must not raise livelock
        assert len(ticks) == 11

    def test_livelock_diagnostics_identical_shape(self):
        # The counter-based check fires with the same kind, message shape
        # and waiting-actor set as the scan-based one did.
        engine = Engine(watchdog=Watchdog(window=100))

        class Spinner(CoreActor):
            def step(self):
                return ("delay", 10, "spin")

        Spinner(engine, "s1").start()
        with pytest.raises(DeadlockError) as exc:
            engine.run(max_cycles=100_000)
        assert exc.value.kind == "livelock"
        assert "no actor retired anything" in str(exc.value)
        assert "window=100" in str(exc.value)
        assert set(exc.value.waiting) == {"s1"}

    def test_note_finish_double_call_raises(self):
        # Red/green for the double-finish guard: a second note_finish
        # used to corrupt the count of unfinished actors silently,
        # disabling the watchdog's livelock check and the deadlock
        # diagnosis.
        engine = Engine()
        actor = ScriptedActor(engine, "a", [("delay", 1, "x")])
        other = ScriptedActor(engine, "b", [("wait", Condition("c"), "b",
                                             "forever")])
        actor.start()
        other.start()
        with pytest.raises(DeadlockError):
            engine.run()
        assert list(engine.live_actors) == [other]
        with pytest.raises(SimulationError, match="note_finish called twice"):
            engine.note_finish(actor)
        assert list(engine.live_actors) == [other]  # not corrupted

    def test_note_finish_guard_keeps_watchdog_armed(self):
        # With a corrupted (negative) _unfinished the livelock check
        # `and self._unfinished` went falsy-or-wrong; the guard keeps the
        # counter exact so the watchdog still fires for remaining actors.
        engine = Engine(watchdog=Watchdog(window=100))

        class Spinner(CoreActor):
            def step(self):
                return ("delay", 10, "spin")

        done = ScriptedActor(engine, "d", [("delay", 1, "x")])
        done.start()
        Spinner(engine, "s").start()
        with pytest.raises(DeadlockError) as exc:
            engine.run(max_cycles=100_000)
        assert exc.value.kind == "livelock"
        with pytest.raises(SimulationError):
            engine.note_finish(done)

    def test_deadlock_error_str_renders_waiting_and_cycle(self):
        engine = Engine()
        condition = Condition("never", owners=[])
        ScriptedActor(engine, "stuck",
                      [("wait", condition, "b", "hopeless")]).start()
        with pytest.raises(DeadlockError) as exc:
            engine.run()
        text = str(exc.value)
        assert "waiting:" in text
        assert "stuck" in text and "hopeless" in text


class TestNotifyAllReentrancy:
    """Pin the notify_all semantics under reentrant waits and wakes."""

    def test_rewait_during_pass_not_renotified_by_same_pass(self):
        # A and B wait; one notify_all pass wakes both. A re-waits
        # immediately; B's wake must not re-trigger A within the pass —
        # A needs a *later* notify to be woken again.
        engine = Engine()
        condition = Condition("c")

        class Rewaiter(CoreActor):
            def __init__(self, e):
                super().__init__(e, "a")
                self.wakes = 0
                self.ready = False
            def step(self):
                if self.ready:
                    return ("done",)
                self.wakes += 1
                return ("wait", condition, "b", "not ready")

        class Bystander(CoreActor):
            def __init__(self, e):
                super().__init__(e, "b")
                self.woken = False
            def step(self):
                if self.woken:
                    return ("done",)
                self.woken = True
                return ("wait", condition, "b", "parked")

        a = Rewaiter(engine)
        b = Bystander(engine)
        a.start()
        b.start()
        engine.schedule(1, lambda: condition.notify_all(engine))

        def release():
            a.ready = True
            condition.notify_all(engine)
        engine.schedule(5, release)
        engine.run()
        assert a.finished and b.finished
        # Woken once per notify_all pass: the initial wait counts as the
        # first step, each pass wakes exactly once.
        assert a.wakes == 2
        assert condition.waiter_count == 0

    def test_synchronous_renotify_from_waiter_wakes_rewaiter_once(self):
        # B's wake synchronously notifies the same condition while A has
        # already re-waited: A must be woken exactly once more (not
        # stranded, not doubly woken).
        engine = Engine()
        condition = Condition("c")

        class Rewaiter(CoreActor):
            def __init__(self, e):
                super().__init__(e, "a")
                self.wakes = 0
                self.ready = False
            def step(self):
                if self.ready:
                    return ("done",)
                self.wakes += 1
                return ("wait", condition, "b", "not ready")

        a = Rewaiter(engine)

        class Renotifier(CoreActor):
            def __init__(self, e):
                super().__init__(e, "b")
                self.phase = 0
            def step(self):
                if self.phase == 0:
                    self.phase = 1
                    return ("wait", condition, "b", "parked")
                a.ready = True
                condition.notify_all(engine)  # reentrant: mid-_run
                return ("done",)

        # Waiter order in the list: a first, b second — a's wake runs
        # first and re-waits before b's reentrant notify fires.
        a.start()
        Renotifier(engine).start()
        engine.schedule(1, lambda: condition.notify_all(engine))
        engine.run()
        assert a.finished
        assert a.wakes == 2  # initial pass + b's reentrant notify
        assert condition.waiter_count == 0

    def test_duplicate_waiter_entries_do_not_double_run(self):
        # Red/green for the stale-wake guard: if an actor ends up
        # scheduled for two wakes (duplicate waiter-list entries), the
        # second wake used to re-enter _run() and double-execute the
        # state machine — here visibly finishing at the wrong time after
        # consuming the script twice as fast.
        engine = Engine()
        condition = Condition("c")
        actor = ScriptedActor(engine, "a", [("wait", condition, "b", "once"),
                                            ("delay", 5, "x")])
        actor.start()

        def duplicate_and_notify():
            condition.add_waiter(actor)  # duplicate entry
            condition.notify_all(engine)

        engine.schedule(1, duplicate_and_notify)
        assert engine.run() == 6
        assert actor.finished
        assert actor.finish_time == 6
        assert actor.buckets.get("x") == 5
        # Exactly three steps executed: wait, delay, done — no double-run.
        assert [t for t, _ in actor.trace] == [0, 1]

    def test_stale_wake_on_running_actor_is_noop(self):
        # A directly delivered stale wake (no wait in progress) must not
        # re-enter the state machine.
        engine = Engine()
        actor = ScriptedActor(engine, "a", [("delay", 5, "x"),
                                            ("delay", 5, "x")])
        actor.start()
        engine.schedule(2, actor.wake)  # actor is mid-delay, not waiting
        assert engine.run() == 10
        assert actor.buckets.get("x") == 10
        assert len(actor.trace) == 2


class TestPinnedOutcomes:
    """Exact step times, budget trips and watchdog verdicts of small runs."""

    def test_single_actor_pops_one_event_per_delay(self):
        engine = Engine()
        actor = ScriptedActor(engine, "a", [("delay", 5, "x")] * 20)
        actor.start()
        assert engine.run() == 100
        assert [t for t, _ in actor.trace] == list(range(0, 100, 5))
        assert actor.buckets.get("x") == 100
        # The start event plus one queue round-trip per delay.
        assert engine.events_popped == 21

    def test_interleaved_actors_step_times(self):
        engine = Engine()
        a = ScriptedActor(engine, "a",
                          [("delay", 3, "x"), ("delay", 7, "x"),
                           ("delay", 2, "x"), ("delay", 11, "x")])
        b = ScriptedActor(engine, "b",
                          [("delay", 5, "x"), ("delay", 5, "x"),
                           ("delay", 1, "x"), ("delay", 6, "x")])
        a.start()
        b.start()
        assert engine.run() == 23
        assert [t for t, _ in a.trace] == [0, 3, 10, 12]
        assert [t for t, _ in b.trace] == [0, 5, 10, 11]

    def test_equal_time_events_run_in_schedule_order(self):
        engine = Engine()
        order = []
        engine.schedule(5, lambda: order.append("scheduled"))

        class Stepper(CoreActor):
            def __init__(self, e):
                super().__init__(e, "s")
                self.left = 1
            def step(self):
                if not self.left:
                    order.append("actor-done")
                    return ("done",)
                self.left -= 1
                return ("delay", 5, "x")

        Stepper(engine).start()
        engine.run()
        assert order == ["scheduled", "actor-done"]

    def test_budget_trip(self):
        engine = Engine()

        class Forever(CoreActor):
            def step(self):
                return ("delay", 10, "x")

        Forever(engine, "f").start()
        with pytest.raises(SimulationTimeout) as exc:
            engine.run(max_cycles=100)
        assert (exc.value.cycle, exc.value.pending_events) == (110, 1)
        assert (engine.now, engine.pending_events) == (110, 1)

    def test_budget_trip_then_resume(self):
        engine = Engine()

        class Countdown(CoreActor):
            def __init__(self, e):
                super().__init__(e, "c")
                self.left = 5
                self.steps = []
            def step(self):
                if not self.left:
                    return ("done",)
                self.left -= 1
                self.steps.append(self.engine.now)
                return ("delay", 10, "x")

        actor = Countdown(engine)
        actor.start()
        with pytest.raises(SimulationTimeout):
            engine.run(max_cycles=25)
        assert engine.run() == 50
        assert actor.steps == [0, 10, 20, 30, 40]
        assert actor.buckets.get("x") == 50

    def test_livelock_window(self):
        engine = Engine(watchdog=Watchdog(window=100))

        class Spinner(CoreActor):
            def step(self):
                return ("delay", 10, "spin")

        Spinner(engine, "s1").start()
        with pytest.raises(DeadlockError) as exc:
            engine.run(max_cycles=100_000)
        assert exc.value.kind == "livelock"
        assert engine.now == 110
        assert str(exc.value) == (
            "livelock: no actor retired anything for 110 cycles "
            "(window=100) while events kept firing | waiting: s1: not "
            "waiting (busy)")

    def test_watchdog_quiet_when_retiring(self):
        engine = Engine(watchdog=Watchdog(window=50))

        class Worker(CoreActor):
            def __init__(self, e):
                super().__init__(e, "w")
                self.left = 20
            def step(self):
                if not self.left:
                    return ("done",)
                self.left -= 1
                self.engine.note_retire()
                return ("delay", 40, "useful")

        Worker(engine).start()
        assert engine.run() == 800

    def test_condition_wake(self):
        engine = Engine()
        condition = Condition("c")
        waiter = ScriptedActor(engine, "w",
                               [("wait", condition, "blocked", "t"),
                                ("delay", 4, "x")])
        waiter.start()

        class Notifier(CoreActor):
            def __init__(self, e):
                super().__init__(e, "n")
                self.fired = False
            def step(self):
                if self.fired:
                    return ("done",)
                self.fired = True
                return ("delay", 10, "y")
            def on_finish(self):
                condition.notify_all(engine)

        Notifier(engine).start()
        assert engine.run() == 14
        assert [(t, action[0]) for t, action in waiter.trace] == \
            [(0, "wait"), (10, "delay")]
        assert waiter.buckets.get("blocked") == 10
        assert waiter.buckets.get("x") == 4
        assert waiter.finish_time == 14
