"""Set-associative tag array with LRU replacement.

Data values never live here (see :mod:`repro.memory.mainmem`); each entry
maps a line index to an arbitrary payload — a MESI state character for L1
caches, a directory entry object for the L2.

LRU is implemented with Python's insertion-ordered dicts: a touch deletes
and reinserts the key, making the first key of each set the LRU victim.
"""

from __future__ import annotations

from repro.common.config import CacheConfig


class SetAssocCache:
    """A tag store: line index -> payload, with per-set LRU replacement.

    :meth:`CoherentMemorySystem.access
    <repro.memory.coherence.CoherentMemorySystem.access>` serves L1 hits
    by reading ``_sets`` and ``_num_sets`` directly, with the same LRU
    touch as :meth:`lookup`.
    """

    __slots__ = ("config", "_sets", "_num_sets")

    def __init__(self, config: CacheConfig):
        self.config = config
        self._num_sets = config.num_sets
        # Sets are allocated lazily: workloads touch a tiny fraction of a
        # realistically-sized tag array, so eager allocation dominates
        # construction cost for short simulations.
        self._sets = {}

    def _set_for(self, line: int) -> dict:
        index = line % self._num_sets
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = {}
        return entries

    def lookup(self, line: int, touch: bool = True):
        """Return the payload for ``line`` or None; optionally refresh LRU."""
        entries = self._sets.get(line % self._num_sets)
        if entries is None:
            return None
        payload = entries.get(line)
        if payload is not None and touch:
            del entries[line]
            entries[line] = payload
        return payload

    def insert(self, line: int, payload):
        """Insert ``line``; returns the evicted ``(line, payload)`` or None."""
        entries = self._set_for(line)
        evicted = None
        if line in entries:
            del entries[line]
        elif len(entries) >= self.config.associativity:
            victim = next(iter(entries))
            evicted = (victim, entries.pop(victim))
        entries[line] = payload
        return evicted

    def update(self, line: int, payload) -> None:
        """Replace the payload of a resident line without touching LRU."""
        entries = self._sets.get(line % self._num_sets)
        if entries is not None and line in entries:
            entries[line] = payload

    def invalidate(self, line: int):
        """Drop ``line`` if present; returns the old payload or None."""
        entries = self._sets.get(line % self._num_sets)
        return entries.pop(line, None) if entries is not None else None

    def resident_lines(self):
        """Iterate over all (line, payload) pairs (test/debug helper)."""
        for entries in self._sets.values():
            yield from entries.items()

    def __len__(self):
        return sum(len(entries) for entries in self._sets.values())

    def __contains__(self, line: int) -> bool:
        entries = self._sets.get(line % self._num_sets)
        return entries is not None and line in entries
