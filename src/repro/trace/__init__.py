"""Flight-recorder tracing and cross-scheme differential checking.

:mod:`repro.trace.writer` holds the :class:`TraceWriter` every simulator
component can emit structured events into; :mod:`repro.trace.diff`
builds on it to replay one seeded program under all three schemes and
assert the paper's soundness claim (identical lifeguard verdicts,
equivalent serialized metadata-update orders) as an executable oracle.
"""

from repro.trace.tail import TraceTail
from repro.trace.writer import (
    CATEGORIES,
    DEFAULT_RING_EVENTS,
    TraceWriter,
    encode_event,
    open_trace,
    parse_trace_filter,
    read_trace,
    trace_hash,
    validate_event,
)

__all__ = [
    "CATEGORIES",
    "DEFAULT_RING_EVENTS",
    "TraceTail",
    "TraceWriter",
    "encode_event",
    "open_trace",
    "parse_trace_filter",
    "read_trace",
    "trace_hash",
    "validate_event",
]
