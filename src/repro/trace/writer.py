"""The flight recorder: a cycle-stamped, append-only JSONL event trace.

Every instrumented component (engine actors, order capture, the
ConflictAlert hub, the progress table, the accelerators, the lifeguard
cores) emits structured events into one :class:`TraceWriter`. The writer
is deliberately dumb — it stamps, filters, encodes and stores — so that
the cost of *disabled* tracing is a single ``tracer is None`` check at
each emit site (the same contract the fault-injection hooks follow).
A component whose emits all fall in one category holds
``tracer_for(tracer, category)``, which is None when the writer filters
that category out, so a filtered category costs the same.

Three storage modes, freely combinable:

* **stream** — each event is written immediately as one compact JSON
  line and flushed, so ``tail -f trace.jsonl | jq .`` works while the
  simulation runs.
* **ring** — a bounded ``deque`` keeps only the last N events; crash
  reports embed :meth:`snapshot` so a post-mortem shows what the
  machine was doing right before it died.
* **keep** — every event is retained in :attr:`events` for in-process
  inspection (tests, the differential checker, golden traces).

Event schema: every event is a flat JSON object with at least

* ``cycle`` — the engine's simulated time at emission (0 before a
  simulation engine is attached),
* ``cat`` — one of :data:`CATEGORIES`,
* ``event`` — a short event name within the category,

plus event-specific scalar fields. Deliberately *not* recorded:
``commit_time`` stamps (they come from a process-global counter and
would make otherwise identical runs hash differently) and wall-clock
times. Two runs of the same seeded configuration therefore produce
bit-identical traces — :func:`trace_hash` turns that into a testable
invariant.
"""

from __future__ import annotations

import enum
import hashlib
import json
import warnings
from collections import deque
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.common.errors import ConfigurationError

#: Event categories, used for ``--trace-filter`` and ``wants()``.
#:
#: ======== ======================================================
#: engine   actor stall/wake/done, lifeguard record retirement
#: arc      dependence arc publish/reduce/stall, TSO versions
#: ca       ConflictAlert broadcast/mark/arrive/complete
#: advert   progress publishes, delayed-advertising holds/flushes
#: accel    IT absorb/condense, IF hit/miss, M-TLB hit/miss
#: meta     lifeguard metadata writes
#: jobs     parallel sweep executor: job start/done/retry/resume,
#:          timeouts, pool breakage/quarantine, pool->inline
#:          degradation, corrupt results
#: ======== ======================================================
CATEGORIES = ("engine", "arc", "ca", "advert", "accel", "meta", "jobs")

_CATEGORY_SET = frozenset(CATEGORIES)

#: Default ring capacity when a bounded buffer is requested without a size.
DEFAULT_RING_EVENTS = 256


def parse_trace_filter(spec: str) -> FrozenSet[str]:
    """Parse a ``--trace-filter`` value: comma-separated category names.

    ``"all"`` (or an empty string) selects every category. Unknown names
    raise :class:`~repro.common.errors.ConfigurationError` listing the
    valid set, even next to ``all``.
    """
    names = {part.strip() for part in spec.split(",") if part.strip()}
    unknown = sorted(names - _CATEGORY_SET - {"all"})
    if unknown:
        raise ConfigurationError(
            f"unknown trace categories {unknown}; "
            f"valid: {', '.join(CATEGORIES)} (or 'all')")
    if not names or "all" in names:
        return _CATEGORY_SET
    return frozenset(names)


#: Exact types that pass through :func:`_sanitize` unchanged. Exact-type
#: membership (not isinstance) is deliberate: an IntEnum *is* an int but
#: must still be sanitized to its name.
_PASSTHROUGH_TYPES = frozenset((int, float, str, bool, type(None)))


def _sanitize(value):
    """Coerce one field value to a JSON-stable scalar (or list thereof)."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_sanitize(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    return repr(value)


def _check_category(cat: str) -> None:
    """Raise ``ConfigurationError`` unless ``cat`` is a known category.

    Only the drop branches of :meth:`TraceWriter.emit` and
    :meth:`TraceWriter.wants` call this, so a kept event pays nothing
    for it.
    """
    if cat not in _CATEGORY_SET:
        raise ConfigurationError(
            f"unknown trace category {cat!r}; "
            f"valid: {', '.join(CATEGORIES)}")


def tracer_for(tracer: Optional[TraceWriter],
               cat: str) -> Optional[TraceWriter]:
    """``tracer`` if it records ``cat``, else None.

    A component whose emits all fall in one category keeps the result
    as its ``tracer`` at wiring time. Its ``tracer is not None`` checks
    then skip every filtered event before any payload is built, so a
    filtered category costs what ``tracer=None`` costs at its sites.
    """
    if tracer is not None and tracer.wants(cat):
        return tracer
    return None


class TraceWriter:
    """Collects flight-recorder events; see the module docstring.

    ``categories=None`` records every known category; otherwise only
    the named categories are kept and every other emit is a cheap
    set-miss. A category outside :data:`CATEGORIES` is never written:
    :meth:`emit` and :meth:`wants` raise
    :class:`~repro.common.errors.ConfigurationError` for it, so a trace
    file never holds a line :func:`read_trace` would reject.
    The simulation engine is attached by the platform wiring
    (:meth:`attach_engine`) so event ``cycle`` stamps follow simulated
    time; a writer used before/without an engine stamps cycle 0.
    """

    __slots__ = ("categories", "events", "_engine", "_ring", "_stream",
                 "_owns_stream", "emitted")

    def __init__(self, *, stream=None, categories: Optional[Iterable[str]] = None,
                 ring: int = 0, keep: bool = False):
        if categories is None:
            categories = _CATEGORY_SET
        else:
            categories = frozenset(categories)
            unknown = sorted(categories - _CATEGORY_SET)
            if unknown:
                raise ConfigurationError(
                    f"unknown trace categories {unknown}; "
                    f"valid: {', '.join(CATEGORIES)}")
        #: The recorded categories (every one of :data:`CATEGORIES` when
        #: the writer was built with ``categories=None``).
        self.categories = categories
        if ring < 0:
            raise ConfigurationError("trace ring size must be >= 0")
        self._ring = deque(maxlen=ring) if ring else None
        self._stream = stream
        self._owns_stream = False
        self.events: Optional[List[dict]] = [] if keep else None
        self._engine = None
        #: Total events recorded (post-filter), for tests and stats.
        self.emitted = 0

    @classmethod
    def to_path(cls, path: str, *, categories=None, ring: int = 0,
                keep: bool = False) -> "TraceWriter":
        """Open ``path`` for writing and stream events into it.

        The constructor runs (and validates its arguments) *before* the
        file is opened, so a bad category or ring size never leaks an
        open handle or leaves a stray empty trace file behind. The file
        is always UTF-8, regardless of platform locale, so a trace
        written on one machine and served from another is byte-identical.
        """
        writer = cls(stream=None, categories=categories, ring=ring, keep=keep)
        writer._stream = open(path, "w", encoding="utf-8")
        writer._owns_stream = True
        return writer

    # -- wiring ---------------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Bind the simulated clock; done by the platform wiring."""
        self._engine = engine

    def wants(self, cat: str) -> bool:
        """Would an event in ``cat`` be recorded? (Lets callers skip
        building expensive field payloads for filtered categories.)
        Raises ``ConfigurationError`` for an unknown category, as
        :meth:`emit` does."""
        if cat in self.categories:
            return True
        _check_category(cat)
        return False

    # -- the hot path ---------------------------------------------------------

    def emit(self, cat: str, event: str, **fields) -> None:
        """Record one event (dropped silently if ``cat`` is filtered;
        ``ConfigurationError`` if ``cat`` is not a known category).

        Zero-allocation contract: the kwargs dict that the call itself
        creates *is* the stored payload — no second dict is built and no
        per-event encoder is constructed. In stream mode the payload is
        encoded exactly once, written as one line and flushed. Field
        order in the payload is irrelevant: every encoder downstream
        (:func:`encode_event`, :func:`trace_hash`) sorts keys.
        """
        if cat not in self.categories:
            _check_category(cat)
            return
        payload: Dict[str, object] = fields
        passthrough = _PASSTHROUGH_TYPES
        if not passthrough.issuperset(map(type, payload.values())):
            for key, value in payload.items():
                if type(value) not in passthrough:
                    payload[key] = _sanitize(value)
        # A caller-supplied cycle stamp wins. ``cat`` and ``event`` are
        # parameters, so ``fields`` can never hold either key.
        if "cycle" not in payload:
            payload["cycle"] = self._engine.now if self._engine is not None else 0
        payload["cat"] = cat
        payload["event"] = event
        self.emitted += 1
        if self.events is not None:
            self.events.append(payload)
        if self._ring is not None:
            self._ring.append(payload)
        stream = self._stream
        if stream is not None:
            stream.write(encode_event(payload) + "\n")
            stream.flush()  # one whole line per emit: safe for tail -f

    # -- retrieval ------------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """The last-N events for crash reports (ring if bounded, else
        the kept tail, else empty)."""
        if self._ring is not None:
            return list(self._ring)
        if self.events is not None:
            return self.events[-DEFAULT_RING_EVENTS:]
        return []

    def close(self) -> None:
        """Close the stream if this writer opened it. A borrowed stream
        is left open; every line on it is already flushed."""
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None
            self._owns_stream = False


# -- encoding / verification helpers -----------------------------------------


#: The reference encoder for trace lines. Its ``encode`` rebuilds a C
#: encoder and a circular-reference ``markers`` dict on every call, so
#: it only encodes when the interpreter's ``json`` has no C accelerator.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

#: ``_ENCODER``'s options compiled once into the C encoder: compact
#: separators, sorted keys, ``ensure_ascii``, ``allow_nan`` and a
#: ``default`` that raises ``TypeError``. Output is byte-identical to
#: ``json.dumps(payload, separators=(",", ":"), sort_keys=True)``.
#: ``markers`` is ``None`` (no cycle check): events are flat, and a
#: dict shared across calls would keep the ids of a failed encode and
#: later report a false cycle for a new object at the same address.
_ITERENCODE = None if c_make_encoder is None else c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan)


def encode_event(payload: dict) -> str:
    """One event as a compact, key-sorted JSON line (no newline)."""
    if _ITERENCODE is None:
        return _ENCODER.encode(payload)
    return "".join(_ITERENCODE(payload, 0))


def validate_event(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a schema-valid event."""
    if not isinstance(payload, dict):
        raise ValueError(f"event is not an object: {payload!r}")
    for required in ("cycle", "cat", "event"):
        if required not in payload:
            raise ValueError(f"event missing {required!r}: {payload!r}")
    # bool is an int subclass, but cycle=True must not validate: it
    # encodes as "true" where an equal run stamps 1, poisoning
    # trace_hash comparisons with a schema-invalid event.
    if (isinstance(payload["cycle"], bool)
            or not isinstance(payload["cycle"], int)
            or payload["cycle"] < 0):
        raise ValueError(f"bad cycle stamp: {payload!r}")
    # The str check comes first: an unhashable cat (a list, a dict)
    # would make the set lookup raise TypeError instead.
    if (not isinstance(payload["cat"], str)
            or payload["cat"] not in _CATEGORY_SET):
        raise ValueError(f"unknown category {payload['cat']!r}: {payload!r}")
    if not isinstance(payload["event"], str) or not payload["event"]:
        raise ValueError(f"bad event name: {payload!r}")
    for key, value in payload.items():
        if not isinstance(key, str):
            raise ValueError(f"non-string field name {key!r}: {payload!r}")
        if not _json_scalar(value):
            raise ValueError(f"non-scalar field {key}={value!r}")


def _json_scalar(value) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, list):
        return all(_json_scalar(item) for item in value)
    return False


def trace_hash(events: Iterable[dict]) -> str:
    """SHA-256 over the canonical encoding of an event sequence.

    Two runs of the same seeded configuration must produce equal hashes
    (the determinism test); any hidden nondeterminism — dict-order
    iteration, id()-keyed structures, global counters leaking into
    events — shows up as a hash mismatch long before it poisons a
    benchmark comparison.
    """
    digest = hashlib.sha256()
    update = digest.update
    for payload in events:
        update((encode_event(payload) + "\n").encode())
    return digest.hexdigest()


#: The C scanner behind ``json.loads``: one call parses one value.
_SCAN_ONCE = json.decoder.JSONDecoder().scan_once


def _decode_line(line: str) -> dict:
    """Parse and validate one stripped trace line.

    Accepts and rejects exactly what ``validate_event(json.loads(line))``
    does, raising ``json.JSONDecodeError`` for a line that is not JSON
    and ``ValueError`` for one that is not a schema-valid event. The
    fast path calls the scanner directly and accepts only the common
    case: a flat object of scalars spanning the whole line whose stamps
    are valid. Everything else (a torn or trailing-data line, a BOM,
    list fields, any schema error) takes the reference path, so error
    types and messages are the reference's own.
    """
    try:
        payload, end = _SCAN_ONCE(line, 0)
    except (StopIteration, json.JSONDecodeError):
        payload, end = None, -1
    if (end == len(line) and type(payload) is dict
            and _PASSTHROUGH_TYPES.issuperset(map(type, payload.values()))
            and type(payload.get("cycle")) is int and payload["cycle"] >= 0
            and payload.get("cat") in _CATEGORY_SET
            and type(payload.get("event")) is str and payload["event"]):
        return payload
    payload = json.loads(line)
    validate_event(payload)
    return payload


def read_trace(path: str, *, tolerant_tail: bool = False) -> List[dict]:
    """Load a JSONL trace file (validating every line).

    ``tolerant_tail=False`` (the default, for completed traces) raises
    ``ValueError`` on any malformed line. ``tolerant_tail=True`` is for
    readers following a *live* ``stream``-mode trace: the writer flushes
    after every line, but a reader can still observe a torn final line —
    a partially flushed write, or a line cut short by a killed worker.
    Matching :func:`repro.jobs.checkpoint.load_checkpoint`'s torn-tail
    handling, such a final line is skipped, counted and warned about
    (``UserWarning``) instead of crashing the reader; a malformed line
    anywhere *before* the tail is corruption either way and still raises.
    """
    events = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    last_lineno = len(lines)
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = _decode_line(line)
        except json.JSONDecodeError as exc:
            if tolerant_tail and lineno == last_lineno:
                warnings.warn(
                    f"{path}:{lineno}: skipped torn final trace line "
                    f"(live stream mid-write?)", UserWarning, stacklevel=2)
                break
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        except ValueError:
            if tolerant_tail and lineno == last_lineno:
                warnings.warn(
                    f"{path}:{lineno}: skipped schema-invalid final trace "
                    f"line (live stream mid-write?)", UserWarning,
                    stacklevel=2)
                break
            raise
        events.append(payload)
    return events
