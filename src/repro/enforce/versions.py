"""Versioned-metadata store for TSO monitoring (Section 5.5).

When a store record carries ``produce_versions``, the writer's lifeguard
copies the metadata about to be overwritten into this store *before*
applying its update; a load record carrying ``consume_version`` blocks
its lifeguard until the version exists, then analyses the load against
the copied metadata. Versions are tiny (one cache line of metadata) and
kept for the lifetime of the run; a version may be consumed by several
racing readers.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import SimulationError
from repro.cpu.engine import Condition, Engine


class VersionStore:
    """version id -> (app_addr, length, metadata snapshot)."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._versions: Dict[int, tuple] = {}
        self._conditions: Dict[int, Condition] = {}
        # Statistics
        self.produced = 0
        self.consumed = 0

    def produce(self, version_id: int, app_addr: int, length: int,
                snapshot) -> None:
        if version_id in self._versions:
            raise SimulationError(f"version {version_id} produced twice")
        self._versions[version_id] = (app_addr, length, snapshot)
        self.produced += 1
        condition = self._conditions.pop(version_id, None)
        if condition is not None:
            condition.notify_all(self.engine)

    def available(self, version_id: int) -> bool:
        return version_id in self._versions

    def condition(self, version_id: int) -> Condition:
        """A condition that fires when the version is produced."""
        condition = self._conditions.get(version_id)
        if condition is None:
            condition = Condition(f"version[{version_id}]")
            self._conditions[version_id] = condition
        return condition

    def consume(self, version_id: int) -> tuple:
        """Read a produced version (kept for other racing consumers)."""
        try:
            snapshot = self._versions[version_id]
        except KeyError:
            raise SimulationError(
                f"version {version_id} consumed before being produced"
            ) from None
        self.consumed += 1
        return snapshot
