"""Deterministic, seeded fault injection for the monitoring pipeline.

ParaLog's central claim is that its order-enforcement machinery (arcs,
ConflictAlert barriers, delayed-advertising flushes, versioned metadata)
is deadlock-free and loss-free. A reproduction can only *argue* that
until something deliberately breaks an arc, loses a broadcast, or kills
a lifeguard core — then the enforcement layer must either diagnose the
damage loudly or provably tolerate it. A :class:`FaultPlan` is that
breaking hammer: a config-driven list of :class:`Fault` specs, armed at
well-defined hook points in the capture/enforce/consume pipeline.

Hook sites (each component receives the plan, or ``None``, at wiring):

========================  ====================================================
site                      armed inside
========================  ====================================================
``arc``                   :meth:`repro.capture.order_capture.OrderCapture.attach_conflicts`
``ca_mark``               :meth:`repro.capture.conflict_alert.CAHub.broadcast`
``log_append``            :meth:`repro.capture.log_buffer.LogBuffer.try_append`
``progress``              :meth:`repro.enforce.progress.ProgressTable.publish`
``lifeguard``             :meth:`repro.cpu.lifeguard_core.LifeguardCore.step`
``stall_flush``           :meth:`repro.cpu.lifeguard_core.LifeguardCore._stall_flush`
``worker``                :func:`repro.jobs.workers.pool_shim` (sweep workers)
========================  ====================================================

The ``worker`` site is the chaos harness for the sweep executor
(:mod:`repro.jobs`): it is armed inside the pool's *worker processes*,
which have no stable ids, so it is scoped with ``after``/``count``
(counted per worker process), never with ``tid``. Actions:
``worker:kill`` hard-exits the worker on its n-th job, ``worker:hang``
sleeps ``param`` (default 3600) seconds inside the job until the hard
deadline reaps it, and ``worker:corrupt_result`` mangles the result
value after its integrity digest was computed.

Determinism: injection decisions use the plan's *own*
``random.Random(seed)``, never the workload RNG, and a disabled plan
(``FaultPlan()`` with no faults) draws nothing at all — a run with an
empty plan is bit-for-bit identical to a run with no plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError

#: The hook-site names components may arm.
FAULT_SITES = ("arc", "ca_mark", "log_append", "progress",
               "lifeguard", "stall_flush",
               "worker")

#: The subset armed inside sweep worker processes (:mod:`repro.jobs`).
WORKER_FAULT_SITES = ("worker",)

#: Actions each site understands (checked at plan construction).
SITE_ACTIONS = {
    "arc": ("drop", "corrupt"),
    "ca_mark": ("drop", "delay"),
    "log_append": ("overflow", "drop"),
    "progress": ("suppress",),
    "lifeguard": ("stall", "kill"),
    "stall_flush": ("skip",),
    "worker": ("kill", "hang", "corrupt_result"),
}


@dataclass(frozen=True)
class Fault:
    """One injection spec: *what* to break, *where*, and *when*.

    ``site``/``action`` pick the hook point and the damage done there
    (see :data:`SITE_ACTIONS`). ``tid`` and ``name`` optionally restrict
    the fault to one thread or one named component. The fault arms after
    ``after`` eligible opportunities have passed, fires at most ``count``
    times, and — when ``probability`` < 1 — each armed opportunity fires
    with that probability using the plan's seeded RNG. ``param`` is an
    action-specific magnitude (delay cycles for ``ca_mark:delay``, RID
    skew for ``arc:corrupt``, stall cycles for ``lifeguard:stall``).
    """

    site: str
    action: str
    tid: Optional[int] = None
    name: Optional[str] = None
    after: int = 0
    count: int = 1
    probability: float = 1.0
    param: int = 0

    def __post_init__(self):
        if self.site not in SITE_ACTIONS:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}")
        if self.action not in SITE_ACTIONS[self.site]:
            raise ConfigurationError(
                f"site {self.site!r} supports actions "
                f"{SITE_ACTIONS[self.site]}, not {self.action!r}")
        if self.after < 0 or self.count < 1:
            raise ConfigurationError("after must be >= 0 and count >= 1")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError("probability must be in (0, 1]")

    def matches(self, tid: Optional[int], name: Optional[str]) -> bool:
        """Does this spec apply to the given thread/component?"""
        if self.tid is not None and tid != self.tid:
            return False
        if self.name is not None and name != self.name:
            return False
        return True

    def label(self) -> str:
        """Short human-readable site label for crash reports."""
        scope = ""
        if self.tid is not None:
            scope = f"@t{self.tid}"
        elif self.name is not None:
            scope = f"@{self.name}"
        return f"{self.site}:{self.action}{scope}"


@dataclass
class FaultPlan:
    """A seeded, deterministic set of faults to inject into one run.

    An empty plan is inert: components short-circuit before touching the
    RNG, so ``FaultPlan()`` reproduces an un-faulted run bit-for-bit.
    The plan records every injection it performs in :attr:`injected`
    (``(site_label, simulated_context)`` tuples) so a crash report can
    name the damage that caused a diagnosed hang.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0
    injected: List[Tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        self.faults = tuple(self.faults)
        self._rng = random.Random(self.seed)
        self._opportunities = [0] * len(self.faults)
        self._fired = [0] * len(self.faults)

    @property
    def enabled(self) -> bool:
        """True when at least one fault is configured."""
        return bool(self.faults)

    def fire(self, site: str, tid: Optional[int] = None,
             name: Optional[str] = None, context: str = "") -> Optional[Fault]:
        """Report one eligible opportunity at ``site``; maybe inject.

        Returns the matching :class:`Fault` to apply, or None. At most
        one fault fires per opportunity (the first match wins), and the
        decision sequence is fully determined by (plan seed, call
        sequence) — independent of wall clock and workload RNG.
        """
        for index, fault in enumerate(self.faults):
            if fault.site != site or not fault.matches(tid, name):
                continue
            self._opportunities[index] += 1
            if self._opportunities[index] <= fault.after:
                continue
            if self._fired[index] >= fault.count:
                continue
            if fault.probability < 1.0 and self._rng.random() >= fault.probability:
                continue
            self._fired[index] += 1
            self.injected.append((fault.label(), context))
            return fault
        return None

    def describe_injected(self) -> List[str]:
        """Flat ``site:action@scope (context)`` strings for reports."""
        return [f"{label} ({context})" if context else label
                for label, context in self.injected]


#: Numeric ``key=value`` modifiers of a fault spec and their types.
_NUMERIC_MODIFIERS = {"after": int, "count": int, "param": int, "tid": int,
                      "probability": float}


def parse_fault_spec(spec: str) -> Fault:
    """Parse a CLI fault spec into a :class:`Fault`.

    Grammar: ``SITE:ACTION[:MOD...]`` where each ``MOD`` is either a bare
    ``tN`` (thread restriction) or ``key=value`` for ``after``, ``count``,
    ``param``, ``probability`` (alias ``p``) or ``name``. Examples::

        arc:drop
        ca_mark:drop:t1
        log_append:overflow:t0:after=5:count=3
        lifeguard:stall:param=50000
    """
    parts = spec.split(":")
    if len(parts) < 2:
        raise ConfigurationError(
            f"fault spec {spec!r} must look like SITE:ACTION[:MOD...]")
    site, action = parts[0], parts[1]
    kwargs = {}
    for mod in parts[2:]:
        if not mod:
            continue
        if "=" in mod:
            name, _, value = mod.partition("=")
            key = {"p": "probability"}.get(name, name)
            if key == "name":
                kwargs[key] = value
                continue
            convert = _NUMERIC_MODIFIERS.get(key)
            if convert is None:
                raise ConfigurationError(
                    f"fault spec {spec!r}: unknown modifier {mod!r}")
            try:
                kwargs[key] = convert(value)
            except ValueError:
                raise ConfigurationError(
                    f"fault spec {spec!r}: modifier {name!r} needs "
                    f"{'a number' if convert is float else 'an integer'}, "
                    f"got {value!r}") from None
        elif mod.startswith("t") and mod[1:].isdigit():
            kwargs["tid"] = int(mod[1:])
        else:
            raise ConfigurationError(
                f"fault spec {spec!r}: unknown modifier {mod!r}")
    return Fault(site=site, action=action, **kwargs)
