"""The per-thread circular event-log buffer.

Models LBA's log buffer in the shared L2: a fixed byte budget (64 KB by
default, ~1 byte per compressed record). The producing application core
stalls when a record does not fit; the consuming lifeguard core stalls
when the log is empty. Both directions are exposed as engine conditions
(``not_full`` / ``not_empty``) so stalled cores sleep instead of
polling.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.capture.events import (
    _BASE_RECORD_BYTES,
    _HIGHLEVEL_KINDS,
    Record,
    record_size_bytes,
)
from repro.common.config import LogBufferConfig
from repro.cpu.engine import Condition, Engine


class LogBuffer:
    """Bounded FIFO of event records with byte-occupancy accounting."""

    __slots__ = ("engine", "capacity_bytes", "name", "faults", "records_lost",
                 "_queue", "_sizes", "_occupied_bytes", "_encoder", "not_full",
                 "not_empty", "closed", "total_records", "total_bytes",
                 "peak_bytes")

    def __init__(self, engine: Engine, config: LogBufferConfig, name: str,
                 faults=None):
        self.engine = engine
        self.capacity_bytes = config.size_bytes
        self.name = name
        #: Optional :class:`~repro.faults.FaultPlan` armed at the
        #: ``log_append`` site (forced overflow / record loss).
        self.faults = faults
        #: Records silently lost to an injected ``log_append:drop`` fault.
        self.records_lost = 0
        # Records and their charged sizes, in parallel FIFOs (no
        # per-record entry tuple).
        self._queue = deque()
        self._sizes = deque()
        self._occupied_bytes = 0
        self._encoder = None
        if config.use_codec:
            from repro.capture.compression import RecordEncoder
            self._encoder = RecordEncoder()
        self.not_full = Condition(f"{name}.not_full")
        self.not_empty = Condition(f"{name}.not_empty")
        #: Set by the producing side when the thread exits, so a consumer
        #: finding the log empty can distinguish "stall" from "finished".
        self.closed = False
        # Lifetime statistics.
        self.total_records = 0
        self.total_bytes = 0
        self.peak_bytes = 0

    # -- producer side -------------------------------------------------------

    def try_append(self, record: Record) -> bool:
        """Append if it fits; returns False (and changes nothing) if full."""
        if self.faults is not None:
            fault = self.faults.fire(
                "log_append", tid=record.tid, name=self.name,
                context=f"{self.name} <- t{record.tid}#{record.rid}")
            if fault is not None:
                if fault.action == "overflow":
                    return False  # pretend the buffer is full
                # "drop": accept the record but lose it — trace loss.
                self.records_lost += 1
                return True
        encoder = self._encoder
        if encoder is not None:
            # Encode tentatively: a record that does not fit must leave
            # the encoder exactly as it was (delta contexts and stats).
            saved = encoder.snapshot()
            size = len(encoder.encode(record))
        elif (record.arcs or record.kind in _HIGHLEVEL_KINDS
              or record.consume_version is not None
              or record.produce_versions):
            size = record_size_bytes(record)
        else:
            size = _BASE_RECORD_BYTES  # the common case, sized inline
        if self._occupied_bytes + size > self.capacity_bytes:
            if encoder is not None:
                encoder.restore(saved)
            return False
        self._queue.append(record)
        self._sizes.append(size)
        self._occupied_bytes += size
        self.total_records += 1
        self.total_bytes += size
        if self._occupied_bytes > self.peak_bytes:
            self.peak_bytes = self._occupied_bytes
        self.not_empty.notify_all(self.engine)
        return True

    def close(self) -> None:
        """Producer signals no more records will ever arrive."""
        self.closed = True
        self.not_empty.notify_all(self.engine)

    # -- consumer side -------------------------------------------------------

    def peek(self) -> Optional[Record]:
        if not self._queue:
            return None
        return self._queue[0]

    def pop(self) -> Record:
        record = self._queue.popleft()
        self._occupied_bytes -= self._sizes.popleft()
        self.not_full.notify_all(self.engine)
        return record

    # -- introspection -------------------------------------------------------

    @property
    def occupied_bytes(self) -> int:
        return self._occupied_bytes

    def __len__(self):
        return len(self._queue)

    @property
    def drained(self) -> bool:
        """True once the producer closed the log and everything was consumed."""
        return self.closed and not self._queue
