"""Simulated CPU: discrete-event engine, cores, and the OS model.

The engine schedules *actors* (application cores, lifeguard cores, TSO
store-buffer drains) on a calendar queue; blocking interactions (full/empty
log buffers, un-satisfied dependence arcs, ConflictAlert barriers,
metadata version waits) are :class:`~repro.cpu.engine.Condition` objects
with explicit wake-up notification, so the simulation never busy-steps
an idle core.
"""

from repro.cpu.engine import Condition, CoreActor, Engine
from repro.cpu.os_model import OSRuntime

__all__ = ["Condition", "CoreActor", "Engine", "OSRuntime"]
