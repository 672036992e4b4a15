"""MESI coherence with an in-L2 directory, plus dependence tagging.

This is the timing half of the memory system and the source of the
inter-thread dependence information ParaLog's order capture consumes
(Section 5.1). Every directory entry carries:

* ``last_writer`` — the ``(core, record-id)`` of the last store to the
  line, and
* ``readers`` — per-core record-ids of loads since that store.

These are the reproduction's per-cache-block FDR tags. An access returns
:class:`Conflict` tuples **only when it actually required coherence
traffic** (a miss, an upgrade, or an invalidation) — an L1 hit never
produces arcs, exactly like real coherence messages.

Tags of L2-evicted lines are preserved in a side table and restored on
re-fetch. This models FDR's conservative handling of evicted blocks:
dependence tracking stays lossless (a requirement for lifeguard metadata
correctness) while the timing of the eviction/refill is still simulated.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError
from repro.memory.cache import SetAssocCache

#: Extra latency to forward a line from a remote L1 (cache-to-cache).
REMOTE_TRANSFER_LATENCY = 4
#: Extra latency to invalidate remote sharers (flat, acks overlap).
INVALIDATION_LATENCY = 4

_MODIFIED = "M"
_EXCLUSIVE = "E"
_SHARED = "S"


class Conflict:
    """One coherence-visible dependence source for an access.

    ``core`` produced the conflicting access; ``rid`` is the per-block
    tag (the record id of that access) used in aggressive capture mode;
    ``is_writer`` distinguishes RAW/WAW sources from WAR sources.
    """

    __slots__ = ("core", "rid", "is_writer")

    def __init__(self, core: int, rid: int, is_writer: bool):
        self.core = core
        self.rid = rid
        self.is_writer = is_writer

    def __repr__(self):
        kind = "W" if self.is_writer else "R"
        return f"Conflict(core={self.core}, rid={self.rid}, {kind})"


class AccessResult:
    """Latency and conflict sources of one memory access.

    Conflict-free L1 hits all return one shared instance per memory
    system (:attr:`CoherentMemorySystem.l1_hit`), so callers must treat
    a result as read-only: never mutate ``conflicts`` or ``latency``.
    """

    __slots__ = ("latency", "conflicts")

    def __init__(self, latency: int, conflicts: Optional[List[Conflict]] = None):
        self.latency = latency
        self.conflicts = conflicts or []

    def __repr__(self):
        return f"AccessResult(latency={self.latency}, conflicts={self.conflicts})"


class _DirEntry:
    """Directory state for one line resident in the L2."""

    __slots__ = ("owner", "sharers", "last_writer", "readers")

    def __init__(self):
        self.owner: Optional[int] = None
        self.sharers = set()
        self.last_writer = None  # (core, rid) | None
        self.readers = {}  # core -> rid


class CoherentMemorySystem:
    """Private L1s + shared inclusive L2 with MESI and dependence tags."""

    def __init__(self, config: SimulationConfig, num_cores: int):
        self.config = config
        self.num_cores = num_cores
        self.line_bytes = config.line_bytes
        self._l1 = [SetAssocCache(config.l1_config) for _ in range(num_cores)]
        self._l2 = SetAssocCache(config.l2_config)
        # Latency constants hoisted off the per-access path (the config
        # objects are frozen; chasing two attribute levels per access is
        # pure overhead).
        self._l1_latency = config.l1_config.access_latency
        self._miss_latency = (config.l1_config.access_latency
                              + config.l2_config.access_latency)
        self._memory_latency = config.memory_latency
        #: The result of every L1 hit: hits cause no coherence traffic,
        #: hence no conflicts, and all cost the L1 latency. Shared and
        #: read-only (see :class:`AccessResult`), so a hit allocates
        #: nothing.
        self.l1_hit = AccessResult(self._l1_latency)
        self._evicted_tags = {}  # line -> (last_writer, readers)
        #: Optional TSO hook: called as f(write_core, line, reader_conflicts)
        #: and returns the set of reader cores whose WAR arcs should be
        #: *suppressed* (converted to metadata versioning).
        self.war_filter: Optional[Callable] = None
        # Aggregate per-core statistics (index = core id).
        self.l1_hits = [0] * num_cores
        self.l1_misses = [0] * num_cores
        self.l2_misses = [0] * num_cores

    # -- public API ---------------------------------------------------------

    def access(self, core: int, addr: int, size: int, is_write: bool,
               rid: int) -> AccessResult:
        """Perform one timed, coherence-tracked access.

        ``rid`` is the accessor's per-thread record id, stored into the
        line tags so later conflicting accesses can point their arcs at
        this instruction.
        """
        line_bytes = self.line_bytes
        line = addr // line_bytes
        if line != (addr + size - 1) // line_bytes:
            raise SimulationError(
                f"access crosses a line: addr={addr:#x} size={size}"
            )
        # An L1 hit is served here: it causes no coherence traffic, so
        # it only refreshes LRU, counts the hit and updates the line's
        # tags. Misses and S-state write upgrades take _read/_write.
        l1 = self._l1[core]
        state = l1.lookup(line)
        if is_write:
            if state != _MODIFIED and state != _EXCLUSIVE:
                return self._write(core, line, rid)
            self.l1_hits[core] += 1
            if state == _EXCLUSIVE:
                l1.update(line, _MODIFIED)
            entry = self._l2.lookup(line)
            if entry is None:
                raise SimulationError("inclusion violated: L1 hit without L2 entry")
            entry.last_writer = (core, rid)
            entry.readers.clear()
            entry.owner = core
            entry.sharers = {core}
            return self.l1_hit
        if state is None:
            return self._read(core, line, rid)
        self.l1_hits[core] += 1
        entry = self._l2.lookup(line)
        if entry is None:
            raise SimulationError("inclusion violated: L1 hit without L2 entry")
        entry.readers[core] = rid
        return self.l1_hit

    def line_state(self, core: int, addr: int) -> Optional[str]:
        """The MESI state of the line containing ``addr`` in ``core``'s L1."""
        return self._l1[core].lookup(addr // self.line_bytes, touch=False)

    def stats_snapshot(self) -> dict:
        return {
            "l1_hits": list(self.l1_hits),
            "l1_misses": list(self.l1_misses),
            "l2_misses": list(self.l2_misses),
        }

    # -- internals ----------------------------------------------------------

    def _dir_fetch(self, line: int):
        """Return (entry, extra_latency) for ``line``, fetching on L2 miss."""
        entry = self._l2.lookup(line)
        if entry is not None:
            return entry, 0
        entry = _DirEntry()
        saved = self._evicted_tags.pop(line, None)
        if saved is not None:
            entry.last_writer, entry.readers = saved
        evicted = self._l2.insert(line, entry)
        if evicted is not None:
            self._evict_l2(*evicted)
        return entry, self._memory_latency

    def _evict_l2(self, line: int, entry: _DirEntry) -> None:
        """Inclusive eviction: drop the line from every L1, preserve tags."""
        for core in entry.sharers:
            self._l1[core].invalidate(line)
        self._evicted_tags[line] = (entry.last_writer, dict(entry.readers))

    def _evict_l1(self, core: int, line: int, state: str) -> None:
        """An L1 victim leaves the sharer set; M data writes back to L2."""
        entry = self._l2.lookup(line, touch=False)
        if entry is None:
            return
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = None

    def _install_l1(self, core: int, line: int, state: str) -> None:
        evicted = self._l1[core].insert(line, state)
        if evicted is not None:
            self._evict_l1(core, *evicted)

    def _read(self, core: int, line: int, rid: int) -> AccessResult:
        """An L1 read miss."""
        conflicts: List[Conflict] = []
        self.l1_misses[core] += 1
        latency = self._miss_latency
        entry, extra = self._dir_fetch(line)
        if extra:
            self.l2_misses[core] += 1
        latency += extra

        if entry.owner is not None and entry.owner != core:
            # Dirty/exclusive elsewhere: forward and downgrade to shared.
            latency += REMOTE_TRANSFER_LATENCY
            self._l1[entry.owner].update(line, _SHARED)
            entry.owner = None
        if entry.last_writer is not None and entry.last_writer[0] != core:
            conflicts.append(Conflict(entry.last_writer[0], entry.last_writer[1], True))

        state = _EXCLUSIVE if not entry.sharers else _SHARED
        self._install_l1(core, line, state)
        entry.sharers.add(core)
        entry.owner = core if state == _EXCLUSIVE else entry.owner
        entry.readers[core] = rid
        return AccessResult(latency, conflicts)

    def _write(self, core: int, line: int, rid: int) -> AccessResult:
        """A shared upgrade or an outright miss: coherence traffic happens."""
        self.l1_misses[core] += 1
        latency = self._miss_latency
        entry, extra = self._dir_fetch(line)
        if extra:
            self.l2_misses[core] += 1
        latency += extra

        conflicts: List[Conflict] = []
        if entry.last_writer is not None and entry.last_writer[0] != core:
            conflicts.append(Conflict(entry.last_writer[0], entry.last_writer[1], True))
        reader_conflicts = [
            Conflict(rd_core, rd_rid, False)
            for rd_core, rd_rid in entry.readers.items()
            if rd_core != core
        ]
        if reader_conflicts and self.war_filter is not None:
            suppressed = self.war_filter(core, line, reader_conflicts)
            reader_conflicts = [
                c for c in reader_conflicts if c.core not in suppressed
            ]
        conflicts.extend(reader_conflicts)

        remote_copies = entry.sharers - {core}
        if remote_copies:
            latency += INVALIDATION_LATENCY
            for other in remote_copies:
                self._l1[other].invalidate(line)

        self._install_l1(core, line, _MODIFIED)
        entry.sharers = {core}
        entry.owner = core
        entry.last_writer = (core, rid)
        entry.readers.clear()
        return AccessResult(latency, conflicts)
