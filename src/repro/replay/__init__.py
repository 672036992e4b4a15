"""``repro.replay`` — record once, replay many.

The persistent trace-archive format (:mod:`repro.replay.format`) and
the replay engine (:mod:`repro.replay.engine`) split capture from
monitoring: one live run's captured inter-thread order is serialized to
a compact ``.plog`` file, then any of the four lifeguards — or all of
them, in parallel worker processes — re-monitors it from disk without
re-simulating the CMP. The replay-vs-live check is the replay leg of
:func:`repro.trace.diff.differential_check` (``replay=True``, swept by
``differential_sweep(..., replay=True)``).
"""

from repro.replay.engine import (
    ReplayResult,
    capture_archive,
    replay_all,
    replay_archive,
    replay_job,
    replay_payload,
)
from repro.replay.format import (
    ARCHIVE_ARC_CODEC,
    FORMAT_VERSION,
    MAGIC,
    TraceReader,
    canonical_json,
    config_digest,
    write_archive,
    write_manifest_json,
)

__all__ = [
    "ARCHIVE_ARC_CODEC",
    "FORMAT_VERSION",
    "MAGIC",
    "ReplayResult",
    "TraceReader",
    "canonical_json",
    "capture_archive",
    "config_digest",
    "replay_all",
    "replay_archive",
    "replay_job",
    "replay_payload",
    "write_archive",
    "write_manifest_json",
]
