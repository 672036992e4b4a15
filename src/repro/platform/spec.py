"""One run specification, shared by ``repro run`` and ``POST /runs``.

:class:`RunSpec` holds one simulation's fields and defaults, the checks
and their messages, the table of fields a scheme does not read, the
digest naming the simulation, and the launch through
:func:`~repro.platform.run_scheme`. ``repro diff`` stays outside: its
input is a racy-program seed, not a workload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple, Optional, Tuple

from repro.common.config import CaptureMode, MemoryModel, ScalePreset, \
    SimulationConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.cpu.engine import Watchdog
from repro.faults import exit_code_for
from repro.lifeguards import LIFEGUARDS
from repro.platform import MONITORED_SCHEMES, SCHEMES, RunResult, run_scheme
from repro.trace import parse_trace_filter
from repro.workloads import WORKLOADS, build_workload

#: The fields each scheme does not read, why, and the value its normal
#: form holds for each: the one table of them. ``POST /runs`` resets
#: them, so equal simulations share one digest, and ``repro run`` notes
#: each one set away from its default.
UNREAD_FIELDS = {
    "parallel": ("", {}),
    "none": ("no monitoring pipeline",
             {"lifeguard": None, "no_accel": False, "capture": "per_block"}),
    "timesliced": ("one core: no store buffer and no arcs",
                   {"memory_model": "sc", "capture": "per_block"}),
}


class RunOutcome(NamedTuple):
    """:meth:`RunSpec.execute`'s result, or its failure and exit code."""

    result: Optional[RunResult]
    error: Optional[SimulationError]
    exit_code: int


@dataclass(frozen=True)
class RunSpec:
    """One simulation; construction raises
    :class:`~repro.common.errors.ConfigurationError` on a bad field."""

    workload: str
    scheme: str = "parallel"
    lifeguard: Optional[str] = "taintcheck"
    seed: int = 1
    threads: int = 2
    scale: str = "tiny"
    memory_model: str = "sc"
    capture: str = "per_block"
    no_accel: bool = False
    max_cycles: Optional[int] = None
    watchdog: Optional[int] = None
    trace_filter: str = "all"

    def __post_init__(self):
        # Types first: a list is unhashable in the lookups below.
        for name in ("workload", "scheme", "lifeguard", "scale",
                     "memory_model", "capture", "trace_filter"):
            value = getattr(self, name)
            if not (isinstance(value, str)
                    or (value is None and name == "lifeguard")):
                raise ConfigurationError(f"{name!r} must be a string, "
                                         f"got {value!r}")
        if self.workload not in WORKLOADS:
            raise ConfigurationError(f"unknown workload {self.workload!r}; "
                                     f"see GET /scenarios")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}; "
                                     f"valid: {', '.join(SCHEMES)}")
        if not isinstance(self.no_accel, bool):
            raise ConfigurationError("'no_accel' must be a boolean")
        if (self.scheme in MONITORED_SCHEMES
                and self.lifeguard not in LIFEGUARDS):
            raise ConfigurationError(
                f"unknown lifeguard {self.lifeguard!r}; valid: "
                f"{', '.join(sorted(LIFEGUARDS))}")
        for name, enum_cls in (("scale", ScalePreset),
                               ("memory_model", MemoryModel),
                               ("capture", CaptureMode)):
            value = getattr(self, name)
            try:
                enum_cls(value)
            except ValueError:
                raise ConfigurationError(
                    f"unknown {name} {value!r}; valid: "
                    f"{', '.join(member.value for member in enum_cls)}") \
                    from None
        for name, minimum in (("seed", 0), ("threads", 1),
                              ("max_cycles", 1), ("watchdog", 1)):
            value = getattr(self, name)
            if value is None and name in ("max_cycles", "watchdog"):
                continue
            # bool is an int subclass, but `"seed": true` is a client bug.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name!r} must be an integer, "
                                         f"got {value!r}")
            if value < minimum:
                raise ConfigurationError(f"{name!r} must be >= {minimum}, "
                                         f"got {value}")
        parse_trace_filter(self.trace_filter)

    @classmethod
    def from_payload(cls, payload) -> "RunSpec":
        """The normal form of a ``POST /runs``-style dict, which must
        name a ``workload`` and no unknown field."""
        if not isinstance(payload, dict):
            raise ConfigurationError("run config must be a JSON object")
        unknown = sorted(set(payload) - set(SIM_FIELDS))
        if unknown:
            raise ConfigurationError(f"unknown run config fields {unknown}")
        if "workload" not in payload:
            raise ConfigurationError("run config needs a 'workload'")
        return cls(**payload).normalized()

    def ignored(self) -> Tuple[str, ...]:
        """The fields this scheme does not read that hold neither their
        default nor their normal-form value: what the CLI notes."""
        default = {field.name: field.default for field in fields(self)}
        unread = UNREAD_FIELDS[self.scheme][1]
        return tuple(name for name, normal in unread.items()
                     if getattr(self, name) not in (normal, default[name]))

    def normalized(self) -> "RunSpec":
        """This spec with every field its scheme does not read reset:
        equal simulations compare equal."""
        return replace(self, **UNREAD_FIELDS[self.scheme][1])

    def digest(self) -> str:
        """Short hex digest naming the simulation (the same for specs
        whose traces are byte-identical)."""
        encoded = json.dumps(asdict(self), separators=(",", ":"),
                             sort_keys=True)
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]

    def execute(self, *, tracer=None, fault_plan=None) -> RunOutcome:
        """Run the spec; a :class:`~repro.common.errors.SimulationError`
        is returned, not raised."""
        config = SimulationConfig.for_threads(
            self.threads, memory_model=MemoryModel(self.memory_model),
            capture_mode=CaptureMode(self.capture))
        workload = build_workload(self.workload, self.threads,
                                  ScalePreset(self.scale), self.seed)
        try:
            result = run_scheme(
                self.scheme, workload, LIFEGUARDS.get(self.lifeguard),
                config, no_accel=self.no_accel, fault_plan=fault_plan,
                watchdog=Watchdog(self.watchdog) if self.watchdog else None,
                max_cycles=self.max_cycles, tracer=tracer)
        except SimulationError as exc:
            return RunOutcome(None, exc, exit_code_for(exc))
        return RunOutcome(result, None, 0)


#: The spec's field names: what shapes the simulation and its trace.
SIM_FIELDS = tuple(field.name for field in fields(RunSpec))
