"""Incremental ``tail -f``-style reader for live JSONL trace streams.

The flight recorder's ``stream`` mode writes one complete JSON line per
event and flushes after the trailing newline, so a concurrent reader
that only consumes *newline-terminated* lines never sees a torn event:
whatever sits after the last ``\\n`` is an in-flight write and must be
held back until more bytes arrive. :class:`TraceTail` implements
exactly that contract — it is the bridge between a live simulation's
trace file and anything that wants the events as they happen (the
``repro.serve`` SSE endpoint, a progress dashboard, a test asserting
live-tail equals post-hoc read).

Each :meth:`TraceTail.poll` returns the *new* complete events since the
previous poll as ``(raw_line, payload)`` pairs. The raw line is the
exact on-disk bytes (decoded UTF-8, no newline) so a consumer that
re-streams lines verbatim stays byte-identical to the file —
:func:`repro.trace.trace_hash` over the tailed payloads equals the hash
of ``read_trace(path)`` once the writer closes. Payloads are validated
(:func:`repro.trace.validate_event`); a malformed *complete* line means
real corruption (the writer never flushes half a line followed by a
newline) and raises ``ValueError`` rather than silently desyncing the
stream.

A file that shrinks under the reader (a retried job re-opening the
trace with ``"w"``) is detected as a truncation: the tail resets to the
new start of file and :attr:`TraceTail.truncations` increments, so a
server can tell its consumers the stream restarted instead of serving
a spliced half-old half-new sequence.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.trace.writer import _decode_line

#: ``poll`` reads at most this many bytes per call, so one poll of a
#: huge backlog cannot stall an event loop for unbounded time.
MAX_POLL_BYTES = 1 << 20


class TraceTail:
    """Follow a live JSONL trace file; see the module docstring."""

    __slots__ = ("path", "categories", "events_seen", "truncations",
                 "_handle", "_offset", "_pending")

    def __init__(self, path: str, *, categories=None):
        self.path = path
        #: Optional category filter (a set of category names); events in
        #: other categories are consumed but not returned.
        self.categories = frozenset(categories) if categories else None
        #: Complete events consumed so far (pre-filter).
        self.events_seen = 0
        #: Times the file shrank under us (writer restarted the trace).
        self.truncations = 0
        self._handle = None
        self._offset = 0  # bytes consumed into complete lines
        self._pending = b""  # bytes after the last newline, held back

    def poll(self) -> List[Tuple[str, dict]]:
        """Return new complete events as ``(raw_line, payload)`` pairs.

        Returns an empty list when the file does not exist yet or has
        no new complete line; call again later. Raises ``ValueError``
        on a malformed complete line (corruption, never a torn write).
        """
        if self._handle is None and not self._open():
            return []
        self._check_truncation()
        chunk = self._handle.read(MAX_POLL_BYTES)
        if not chunk:
            return []
        self._pending += chunk
        *complete, self._pending = self._pending.split(b"\n")
        out: List[Tuple[str, dict]] = []
        for raw in complete:
            self._offset += len(raw) + 1
            text = raw.decode("utf-8").strip()
            if not text:
                continue
            try:
                payload = _decode_line(text)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{self.path}: corrupt complete trace line at byte "
                    f"offset {self._offset - len(raw) - 1}: {exc}") from exc
            self.events_seen += 1
            if self.categories is None or payload["cat"] in self.categories:
                out.append((text, payload))
        return out

    def close(self) -> None:
        """Release the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceTail":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ------------------------------------------------------------

    def _open(self) -> bool:
        try:
            self._handle = open(self.path, "rb")
        except FileNotFoundError:
            return False
        self._offset = 0
        self._pending = b""
        return True

    def _size(self) -> Optional[int]:
        try:
            return os.fstat(self._handle.fileno()).st_size
        except OSError:
            return None

    def _check_truncation(self) -> None:
        size = self._size()
        if size is not None and size < self._offset + len(self._pending):
            # The writer re-opened the file with "w" (e.g. a retried
            # job): everything we streamed belongs to a dead attempt.
            self.truncations += 1
            self.events_seen = 0
            self._handle.seek(0)
            self._offset = 0
            self._pending = b""
