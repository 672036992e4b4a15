"""Event capture: the application-side half of the monitoring platform.

Per-thread order-capture components stamp each retired micro-op as an
event record, attach inter-thread dependence arcs derived from coherence
conflicts (with RTR-style transitive reduction), and commit the records
into per-thread compressed log buffers. The ConflictAlert hub broadcasts
serializing records for high-level events, and the TSO versioner
converts SC-violating WAR arcs into metadata versioning annotations.
"""

from repro.capture.events import Record, RecordKind, record_size_bytes
from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.capture.conflict_alert import CAHub
from repro.capture.tso import StoreBufferEntry, TsoVersioner

__all__ = [
    "CAHub",
    "LogBuffer",
    "OrderCapture",
    "Record",
    "RecordKind",
    "StoreBufferEntry",
    "TsoVersioner",
    "record_size_bytes",
]
