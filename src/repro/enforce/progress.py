"""The shared progress table (Section 5.2).

``progress[t] = r`` advertises that lifeguard thread *t* has completely
processed every record with RID <= r **and** that no accelerator on
thread *t* still privately caches state created by those records — the
delayed-advertising contract of Section 4.2. A consumer holding an arc
``(t, i)`` may deliver its event once ``progress[t] >= i``.

In hardware each counter lives on its own cache line and consumers spin
on it; here waiters sleep on a per-thread condition that publishing
notifies, which has identical timing without simulated polling.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.common.errors import SimulationError
from repro.cpu.engine import Condition, Engine
from repro.trace.writer import tracer_for


class ProgressTable:
    """Per-thread advertised progress counters with waiter wake-up."""

    def __init__(self, engine: Engine, tids: Iterable[int], faults=None,
                 tracer=None):
        self.engine = engine
        self._values: Dict[int, int] = {tid: 0 for tid in tids}
        self._conditions: Dict[int, Condition] = {
            tid: Condition(f"progress[t{tid}]") for tid in self._values
        }
        #: Optional :class:`~repro.faults.FaultPlan` armed at ``progress``
        #: (a suppressed publish models a lost counter update).
        self.faults = faults
        #: Optional :class:`~repro.trace.TraceWriter` (``advert`` events),
        #: kept only if it records them.
        self.tracer = tracer_for(tracer, "advert")
        # Statistics
        self.publishes = 0

    def get(self, tid: int) -> int:
        return self._values[tid]

    def publish(self, tid: int, rid: int) -> None:
        """Advertise progress; monotone (stale publishes are ignored)."""
        if rid > self._values[tid]:
            if self.faults is not None:
                fault = self.faults.fire(
                    "progress", tid=tid,
                    context=f"publish progress[t{tid}]={rid}")
                if fault is not None:
                    return  # "suppress": the counter update is lost
            self._values[tid] = rid
            self.publishes += 1
            if self.tracer is not None:
                self.tracer.emit("advert", "publish", tid=tid, rid=rid)
            condition = self._conditions[tid]
            if condition.waiters:
                condition.notify_all(self.engine)

    def condition(self, tid: int) -> Condition:
        return self._conditions[tid]

    def satisfied(self, src_tid: int, src_rid: int) -> bool:
        value = self._values.get(src_tid)
        if value is None:
            raise SimulationError(f"arc references unknown thread {src_tid}")
        return value >= src_rid

    def first_unmet(self, arcs) -> Optional[Tuple[int, int]]:
        """The first unsatisfied (tid, rid) arc, or None if all are met."""
        values = self._values
        for src_tid, src_rid in arcs:
            value = values.get(src_tid)
            if value is None:
                raise SimulationError(
                    f"arc references unknown thread {src_tid}")
            if value < src_rid:
                return (src_tid, src_rid)
        return None

    def snapshot(self) -> Dict[int, int]:
        return dict(self._values)
