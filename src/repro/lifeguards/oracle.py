"""Sequential oracle for lifeguard correctness tests.

Replays a captured event trace in its global linearization order
(records are stamped with a monotone ``commit_time`` at the point they
become coherence-ordered) through a *fresh* lifeguard instance using
plain, unaccelerated event delivery. Under SC this order is a legal
sequential execution of the monitored program, so the parallel
monitoring platform — arcs, delayed advertising, CA barriers,
accelerators and all — must end with exactly the same metadata.

This is the testing backbone of the reproduction: any ordering bug
(a lost arc, a mis-flushed IT row, a CA barrier that releases too early)
shows up as a fingerprint mismatch.

The replay splits into a lifeguard-independent half and a per-lifeguard
half: :func:`linearize` and :func:`deliver` turn a trace into its
delivered-event stream, which :func:`replay_events` then feeds to one
lifeguard. A caller replaying one trace under several lifeguards (the
archive replay engine) builds the stream once and shares it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, List

from repro.accel.inheritance import passthrough_event
from repro.capture.events import Record
from repro.lifeguards.base import Lifeguard

_COHERENCE_ORDER = attrgetter("commit_time", "tid", "rid")


def linearize(trace: Iterable[Record]) -> List[Record]:
    """Sort a trace into its global coherence order."""
    records = [r for r in trace if r.commit_time is not None]
    records.sort(key=_COHERENCE_ORDER)
    return records


def deliver(ordered_records: Iterable[Record]) -> List[tuple]:
    """The unaccelerated delivered-event stream of ordered records.

    CA marks are dropped (they carry no lifeguard semantics of their
    own) and every other record becomes the one ``(name, record)``
    event the disabled-IT passthrough delivers
    (:func:`~repro.accel.inheritance.passthrough_event`), exactly as
    plain delivery hardware would hand it to any lifeguard. Nothing
    here depends on which lifeguard listens, so one stream serves any
    number of :func:`replay_events` calls; they never mutate it.
    """
    events: List[tuple] = []
    append = events.append
    for record in ordered_records:
        name = passthrough_event(record)  # None for a CA mark
        if name is not None:
            append((name, record))
    return events


def replay_events(events: Iterable[tuple],
                  lifeguard_factory: Callable[[], Lifeguard]) -> Lifeguard:
    """Feed a delivered-event stream to a fresh lifeguard; returns it.

    Delivery mirrors the live pipeline's: an allocator-internal memory
    access is dropped when the lifeguard does not monitor the allocator,
    and an event without a registered handler, or outside the
    lifeguard's delivery address range, is dropped before dispatch. A
    ``load_versioned`` event is handed over as a new tuple carrying the
    metadata snapshot the load observes, so ``events`` itself is never
    modified and may be shared between replays.
    """
    lifeguard = lifeguard_factory()
    handlers = lifeguard.handlers
    delivery_range = lifeguard.delivery_range
    skip_allocator = not lifeguard.monitors_allocator_internals
    for event in events:
        # Every event of the unaccelerated stream is ``(kind, record)``.
        kind, rec = event[0], event[1]
        if skip_allocator and rec.critical_kind == "allocator":
            continue  # only memory accesses carry the "allocator" mark
        handler = handlers.get(rec.hl_kind if kind == "hl" else kind)
        if handler is None:
            continue
        if (delivery_range is not None and kind != "hl"
                and not delivery_range[0] <= rec.addr < delivery_range[1]):
            continue
        if kind == "load_versioned":
            # The oracle replays in true coherence order, so the
            # "current" metadata *is* the version the load must see.
            snapshot = lifeguard.metadata.snapshot_range(rec.addr, rec.size)
            event = ("load_versioned", rec, (rec.addr, rec.size, snapshot))
        handler(event)
    return lifeguard


def replay(trace: Iterable[Record],
           lifeguard_factory: Callable[[], Lifeguard]) -> Lifeguard:
    """Replay a trace sequentially; returns the populated lifeguard.

    ``replay_events(deliver(linearize(trace)), ...)``: see
    :func:`replay_events` for the delivery contract.
    """
    return replay_events(deliver(linearize(trace)), lifeguard_factory)


def fingerprints_match(lhs: Lifeguard, rhs: Lifeguard) -> bool:
    """Are two lifeguards' semantic states identical?

    The answer comparing their ``metadata_fingerprint()`` dicts gives,
    read off the state directly: the metadata map chunk by chunk
    (:meth:`~repro.lifeguards.metadata.MetadataMap.same_state`), the
    register rows, and the ``(kind, tid)`` set of the violations.
    """
    return (lhs.registers == rhs.registers
            and {(v.kind, v.tid) for v in lhs.violations}
            == {(v.kind, v.tid) for v in rhs.violations}
            and lhs.metadata.same_state(rhs.metadata))
