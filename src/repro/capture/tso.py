"""TSO support: store buffers and metadata versioning (Section 5.5).

Under Total Store Ordering a load may retire while an older local store
is still in the store buffer. If a remote write to the loaded line
commits in that window, coherence order and program order form a cycle
(Figure 5's Dekker pattern), which would deadlock the order-enforcing
consumers. Recording the loaded *value* (as deterministic replay does)
is insufficient for lifeguards — TaintCheck needs the *metadata* of what
was read.

ParaLog's solution, reproduced here: the SC-violating R -> W arc is not
recorded. Instead the writer's lifeguard must *produce* a version — a
copy of the metadata about to be overwritten — and the reader's
lifeguard *consumes* it before analyzing the load. At capture time:

* the reader core, on receiving the invalidation, finds the still-
  uncommitted load record (it is uncommitted precisely because an older
  store is buffered — the SC-violation window) and annotates it with
  ``consume_version``;
* the writer's draining store record gets a matching entry in
  ``produce_versions``.

The :class:`TsoVersioner` plugs into the coherence layer's
``war_filter`` hook and performs both annotations synchronously.
"""

from __future__ import annotations

import itertools
from typing import Dict, Set

from repro.capture.events import Record
from repro.capture.order_capture import OrderCapture


class StoreBufferEntry:
    """One buffered store awaiting drain."""

    __slots__ = ("addr", "size", "value", "record")

    def __init__(self, addr: int, size: int, value: int, record: Record):
        self.addr = addr
        self.size = size
        self.value = value
        self.record = record

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr < addr + size and addr < self.addr + self.size

    def forwards(self, addr: int, size: int) -> bool:
        """Exact-match store-to-load forwarding."""
        return self.addr == addr and self.size == size


class TsoVersioner:
    """Converts SC-violating WAR conflicts into version annotations."""

    def __init__(self, line_bytes: int):
        self.line_bytes = line_bytes
        self._captures_by_core: Dict[int, OrderCapture] = {}
        self._version_ids = itertools.count(1)
        # Statistics
        self.versions_created = 0

    def register(self, core: int, capture: OrderCapture) -> None:
        self._captures_by_core[core] = capture

    def __call__(self, write_core: int, line: int, reader_conflicts) -> Set[int]:
        """The coherence layer's ``war_filter`` hook.

        Returns the set of reader cores whose WAR arcs must be
        suppressed because they were converted to versioning.
        """
        writer_capture = self._captures_by_core.get(write_core)
        if writer_capture is None or writer_capture.draining_record is None:
            return set()
        store_record = writer_capture.draining_record
        suppressed: Set[int] = set()
        for conflict in reader_conflicts:
            reader_capture = self._captures_by_core.get(conflict.core)
            if reader_capture is None:
                continue
            load_record = reader_capture.find_pending_load(line, self.line_bytes)
            if load_record is None:
                continue  # load already committed: it is SC-consistent
            if load_record.consume_version is not None:
                # A second remote write to the same line: the load keeps
                # consuming the first (oldest) version, which reflects the
                # metadata before *any* of the conflicting writes.
                suppressed.add(conflict.core)
                continue
            version_id = next(self._version_ids)
            line_addr = line * self.line_bytes
            load_record.consume_version = (version_id, line_addr, self.line_bytes)
            if store_record.produce_versions is None:
                store_record.produce_versions = []
            store_record.produce_versions.append(
                (version_id, line_addr, self.line_bytes)
            )
            self.versions_created += 1
            suppressed.add(conflict.core)
        return suppressed
