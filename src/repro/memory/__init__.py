"""Simulated memory system.

A two-level cache hierarchy with private L1 data caches and a shared,
inclusive L2 with an in-cache directory (MESI). Besides timing, the
directory tracks per-line last-writer/readers tags — the reproduction's
stand-in for FDR-style per-cache-block (thread, record-id) tags — which
the order-capture layer turns into dependence arcs whenever an access
actually causes coherence traffic.
"""

from repro.memory.cache import SetAssocCache
from repro.memory.coherence import AccessResult, CoherentMemorySystem, Conflict
from repro.memory.mainmem import MainMemory

__all__ = [
    "AccessResult",
    "CoherentMemorySystem",
    "Conflict",
    "MainMemory",
    "SetAssocCache",
]
