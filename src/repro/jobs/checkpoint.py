"""JSONL sweep checkpoints.

One line per *terminal* job result, appended as each job finishes, so
an interrupted sweep loses at most the jobs that were still in flight.
The format is the ``JobResult.to_json()`` dict; the ``job_id`` field
keys resume. Lines are append-only — if a job somehow appears twice
(e.g. a sweep re-run into the same file without ``resume``), the *last*
line wins, matching "latest run wins".

Durability is two-tier: every append is flushed to the OS immediately
(a dead *process* loses nothing), and an ``os.fsync`` lands every
:data:`FSYNC_EVERY` appends and on :meth:`CheckpointWriter.sync` /
:meth:`CheckpointWriter.close` (bounding what a dead *machine* can
lose). The sweep runner syncs explicitly on ``KeyboardInterrupt``, so
Ctrl-C mid-sweep never loses a buffered line.

Loading is tolerant by design: a sweep's workers get killed mid-write
on purpose (the chaos harness) and a previous coordinator may have died
holding the file, so a corrupt line anywhere in the file — torn tail,
damaged interior, or a line that parses but does not rebuild a
:class:`~repro.jobs.model.JobResult` whose value matches its digest —
is *skipped*, counted, warned about and reported on the ``jobs`` trace
category, never trusted and never fatal. The skipped job simply
re-runs; recomputing a deterministic cell is always safe, while
refusing to resume a 24-hour sweep over one bad line is not.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, Optional

from repro.jobs.model import JobResult

#: Appends between two ``os.fsync`` calls.
FSYNC_EVERY = 16


class CheckpointWriter:
    """Append-only JSONL writer for terminal job results."""

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._stream = open(path, "a")
        self._unsynced = 0

    def append(self, payload: dict) -> None:
        """Write one result line, flushed to the OS immediately and
        fsynced every :data:`FSYNC_EVERY` appends."""
        self._stream.write(json.dumps(payload, separators=(",", ":"),
                                      sort_keys=True))
        self._stream.write("\n")
        self._stream.flush()
        self._unsynced += 1
        if self._unsynced >= FSYNC_EVERY:
            self.sync()

    def sync(self) -> None:
        """Flush and fsync everything appended so far (called by the
        runner on ``KeyboardInterrupt`` before the abnormal exit)."""
        if self._stream is None:
            return
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self._unsynced = 0

    def close(self) -> None:
        """Sync and close the checkpoint file."""
        if self._stream is not None:
            self.sync()
            self._stream.close()
            self._stream = None


def load_checkpoint(path: str, tracer=None) -> Dict[str, JobResult]:
    """Read a checkpoint file into ``{job_id: JobResult}`` (each marked
    ``resumed``).

    A missing file is an empty checkpoint (first run of a sweep started
    with ``--resume`` unconditionally). A line is trusted only if
    :meth:`JobResult.from_json` accepts it, so lines written before
    checkpoints carried digests are rejected too. Rejected lines
    anywhere in the file are skipped and counted — reported via a
    ``UserWarning`` and, when ``tracer`` is given, a
    ``checkpoint_skipped`` event on the ``jobs`` category — and their
    jobs re-run; see the module docstring for why this never raises.
    """
    results: Dict[str, JobResult] = {}
    skipped = 0
    first_bad: Optional[int] = None
    if not os.path.exists(path):
        return results
    with open(path) as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            result = JobResult.from_json(json.loads(line), resumed=True)
        except (ValueError, KeyError, TypeError):
            skipped += 1
            if first_bad is None:
                first_bad = lineno
            continue
        results[result.job_id] = result
    if skipped:
        warnings.warn(
            f"{path}: skipped {skipped} corrupt checkpoint line(s) "
            f"(first at line {first_bad}); their jobs will re-run",
            UserWarning, stacklevel=2)
        if tracer is not None:
            tracer.emit("jobs", "checkpoint_skipped", path=path,
                        lines=skipped, first_line=first_bad)
    return results
