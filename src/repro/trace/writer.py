"""The flight recorder: a cycle-stamped, append-only JSONL event trace.

Every instrumented component (engine actors, order capture, the
ConflictAlert hub, the progress table, the accelerators, the lifeguard
cores) emits structured events into one :class:`TraceWriter`. The writer
is deliberately dumb — it stamps, filters, encodes and stores — so that
the cost of *disabled* tracing is a single ``is None`` check at each
emit site (the same contract the fault-injection hooks follow).

An emit site whose shape is fixed at wiring time (category, event name,
field names, and string fields such as the actor's name) holds the
emitter :meth:`TraceWriter.prepare` returns, which is None when the
writer filters that category out, so a filtered category costs the
same. The emitter takes the varying int fields positionally and fills a
line template compiled once per shape per process. :meth:`TraceWriter.emit`
is the general path, for events that carry strings or lists: the
ConflictAlert hub holds ``tracer_for(tracer, "ca")`` for those.

Three storage modes, freely combinable:

* **stream** — each event is written immediately as one compact JSON
  line, so ``tail -f trace.jsonl | jq .`` works while the simulation
  runs. A file opened by :meth:`TraceWriter.to_path` is unbuffered
  binary and gets exactly one ``write`` per line; a borrowed text
  stream (stdout, ``io.StringIO``) gets a ``write`` and a ``flush``.
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
``commit_time`` stamps (simulator bookkeeping for the oracle's
sequential linearization, not an event of the modeled hardware;
archives carry them) and wall-clock times. Two runs of the same seeded configuration therefore produce
bit-identical traces — :func:`trace_hash` turns that into a testable
invariant.
"""

from __future__ import annotations

import enum
import hashlib
import json
import sys
from collections import deque
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

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
#: jobs     parallel sweep executor: job start/done, timeouts,
#:          pool->inline degradation, sweep_done
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

    Only the drop branches of :meth:`TraceWriter.emit`,
    :meth:`TraceWriter.wants` and :meth:`TraceWriter.prepare` call this,
    so a kept event pays nothing for it.
    """
    if cat not in _CATEGORY_SET:
        raise ConfigurationError(
            f"unknown trace category {cat!r}; "
            f"valid: {', '.join(CATEGORIES)}")


def tracer_for(tracer: Optional[TraceWriter],
               cat: str) -> Optional[TraceWriter]:
    """``tracer`` if it records ``cat``, else None.

    A component whose general :meth:`~TraceWriter.emit` calls all fall
    in one category keeps the result as its ``tracer`` at wiring time.
    Its ``tracer is not None`` checks then skip every filtered event
    before any payload is built, so a filtered category costs what
    ``tracer=None`` costs at its sites.
    """
    if tracer is not None and tracer.wants(cat):
        return tracer
    return None


# The two line writers close over the stream, not the writer, so a
# writer never sits in a reference cycle: it (and any kept events) is
# freed as soon as it is dropped.


def _text_line_writer(stream):
    """Write one line to a borrowed text stream, then flush it."""
    def write_line(line: str) -> None:
        stream.write(line)
        stream.flush()
    return write_line


def _raw_line_writer(raw):
    """Write one line to an unbuffered binary file in one ``write``."""
    def write_line(line: str) -> None:
        data = line.encode()
        written = raw.write(data)
        while written < len(data):  # a short write must not tear the line
            written += raw.write(data[written:])
    return write_line


class TraceWriter:
    """Collects flight-recorder events; see the module docstring.

    ``categories=None`` records every known category; otherwise only
    the named categories are kept and every other emit is a cheap
    set-miss. A category outside :data:`CATEGORIES` is never written:
    :meth:`emit` and :meth:`wants` raise
    :class:`~repro.common.errors.ConfigurationError` for it, and so do
    :meth:`emit` and :meth:`prepare` for a ``cycle`` field, which only
    the writer stamps, so a trace file never holds a line
    :func:`read_trace` would reject. The simulation engine is attached
    by the platform wiring (:meth:`attach_engine`) so event ``cycle``
    stamps follow simulated time; a writer used before/without an
    engine stamps cycle 0.
    """

    __slots__ = ("categories", "events", "_engine", "_ring", "_stream",
                 "_owns_stream", "_write", "emitted")

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
        #: Writes one encoded line; None when no stream is attached.
        self._write = None if stream is None else _text_line_writer(stream)
        self.events: Optional[List[dict]] = [] if keep else None
        self._engine = None
        #: Total events recorded (post-filter), for tests and stats.
        self.emitted = 0

    @classmethod
    def to_path(cls, path: str, *, categories=None,
                ring: int = 0) -> "TraceWriter":
        """Open ``path`` for writing and stream events into it.

        The constructor runs (and validates its arguments) *before* the
        file is opened, so a bad category or ring size never leaks an
        open handle or leaves a stray empty trace file behind. The file
        is unbuffered binary: each emit hands the OS its whole line in
        one ``write``, so the line is visible to a reader before
        :meth:`emit` returns. Lines are ASCII with ``\n`` endings,
        regardless of platform locale or newline convention, so a trace
        written on one machine and served from another is byte-identical.
        """
        writer = cls(stream=None, categories=categories, ring=ring)
        writer._stream = open(path, "wb", buffering=0)
        writer._owns_stream = True
        writer._write = _raw_line_writer(writer._stream)
        return writer

    # -- wiring ---------------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Bind the simulated clock; done by the platform wiring."""
        self._engine = engine

    def detach_engine(self, engine) -> None:
        """Unbind ``engine``'s clock, if it is the bound one; a run's
        engine does this when the run completes, so the two do not keep
        each other alive. Later events stamp cycle 0."""
        if self._engine is engine:
            self._engine = None

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

    def prepare(self, cat: str, event: str, fields: Tuple[str, ...] = (),
                **static: str) -> Optional[Callable[..., None]]:
        """The emitter of one fixed-shape event, or None when the writer
        filters ``cat`` (``ConfigurationError`` for an unknown ``cat``,
        as :meth:`wants` raises).

        The shape is ``cat``, ``event``, the names of the varying
        ``fields`` and the ``static`` string fields. The emitter takes
        the varying values positionally, in ``fields`` order, and
        records exactly the event ``emit(cat, event, **static,
        **fields)`` would: same cycle stamp, same count, same kept and
        ring payload, and the same line, filled from the shape's
        template (see :func:`_shape_binder`). A value that is not an
        exact ``int`` takes :meth:`emit` itself.
        """
        if cat not in self.categories:
            _check_category(cat)
            return None
        key = (cat, event, tuple(fields), tuple(static.items()))
        bind = _SHAPES.get(key)
        if bind is None:
            bind = _SHAPES[key] = _shape_binder(cat, event, key[2], static)
        return bind(self)

    def emit(self, cat: str, event: str, **fields) -> None:
        """Record one event (dropped silently if ``cat`` is filtered;
        ``ConfigurationError`` if ``cat`` is not a known category or
        ``fields`` holds ``cycle``, which only the writer stamps).

        The general path: a fixed-shape site uses :meth:`prepare`.
        Zero-allocation contract: the kwargs dict that the call itself
        creates *is* the stored payload — no second dict is built and no
        per-event encoder is constructed. In stream mode the payload is
        encoded exactly once and reaches the stream as one line before
        this returns. Field order in the payload is irrelevant: every
        encoder downstream (:func:`encode_event`, :func:`trace_hash`)
        sorts keys.
        """
        if "cycle" in fields:
            raise ConfigurationError(
                f"trace event {cat}/{event}: the writer stamps 'cycle'; "
                f"a caller may not pass it")
        if cat not in self.categories:
            _check_category(cat)
            return
        payload: Dict[str, object] = fields
        passthrough = _PASSTHROUGH_TYPES
        if not passthrough.issuperset(map(type, payload.values())):
            for key, value in payload.items():
                if type(value) not in passthrough:
                    payload[key] = _sanitize(value)
        # ``cat`` and ``event`` are parameters, so ``fields`` can never
        # hold either key.
        payload["cycle"] = self._engine.now if self._engine is not None else 0
        payload["cat"] = cat
        payload["event"] = event
        self.emitted += 1
        if self.events is not None:
            self.events.append(payload)
        if self._ring is not None:
            self._ring.append(payload)
        write = self._write
        if write is not None:
            write(encode_event(payload) + "\n")  # safe for tail -f

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
            self._write = None
            self._owns_stream = False


def open_trace(target: Optional[str], trace_filter: str = "all", *,
               ring: int = 0) -> Optional[TraceWriter]:
    """The writer for ``--trace TARGET --trace-filter CATS``: ``-`` is
    stdout, a path is opened, and no target keeps just a ``ring`` (None
    when ``ring`` is 0). A bad filter raises before any file opens."""
    categories = parse_trace_filter(trace_filter)
    if target == "-":
        return TraceWriter(stream=sys.stdout, categories=categories,
                           ring=ring)
    if target:
        return TraceWriter.to_path(target, categories=categories, ring=ring)
    return TraceWriter(categories=categories, ring=ring) if ring else None


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


#: Shape key -> its compiled ``bind(writer)``. A shape is compiled once
#: per process and shared by every writer and component that prepares
#: it; keys are ``(cat, event, fields, static items)``, and the static
#: strings are actor and core names, so the set stays small.
_SHAPES: Dict[tuple, Callable] = {}

_RESERVED_FIELDS = frozenset(("cycle", "cat", "event"))

#: The emitter of one shape. ``{args}`` are the varying values
#: ``v0, v1, ...``; ``{not_ints}`` is true unless every one of them is
#: an exact int; ``{pairs}`` maps each field name to its value, and
#: ``{ordered}`` lists ``cycle`` and the values in the template's
#: sorted key order.
_EMITTER_SOURCE = """\
def bind(writer):
    def emit({args}):
        if {not_ints}:
            writer.emit(cat, event, **static, **dict(zip(fields, ({args}))))
            return
        engine = writer._engine
        cycle = 0 if engine is None else engine.now
        writer.emitted += 1
        events = writer.events
        ring = writer._ring
        if events is not None or ring is not None:
            payload = {{**static, {pairs}"cycle": cycle, "cat": cat,
                       "event": event}}
            if events is not None:
                events.append(payload)
            if ring is not None:
                ring.append(payload)
        write = writer._write
        if write is not None:
            write(template % ({ordered}))
    return emit
"""


def _shape_binder(cat: str, event: str, fields: Tuple[str, ...],
                  static: Dict[str, str]) -> Callable:
    """Compile one event shape into ``bind(writer) -> emitter``.

    The line template holds the shape's keys in sorted order, each
    static value already encoded by the trace encoder's own string
    function, and a ``%d`` for ``cycle`` and for each varying field.
    ``%d`` of an exact int is its ``repr``, which is how the encoder
    writes one, so a filled template is byte for byte the line
    :func:`encode_event` gives the same payload. Anything else (a bool,
    an IntEnum, a float, None) would fill differently, so the emitter
    hands it to :meth:`TraceWriter.emit`.
    """
    names = [*fields, *static]
    if (any(type(name) is not str for name in names)
            or len(set(names)) != len(names)
            or not _RESERVED_FIELDS.isdisjoint(names)):
        raise ConfigurationError(
            f"trace event {cat}/{event}: fields {names!r} must be distinct "
            f"strings, none of {', '.join(sorted(_RESERVED_FIELDS))}")
    if any(type(value) is not str for value in static.values()):
        raise ConfigurationError(
            f"trace event {cat}/{event}: static fields must be strings")
    # name -> its %d's variable, or its encoded fixed value
    slots = {name: f"v{index}" for index, name in enumerate(fields)}
    slots["cycle"] = "cycle"
    fixed = {name: encode_basestring_ascii(value)
             for name, value in (*static.items(), ("cat", cat),
                                 ("event", event))}
    keys = sorted((*slots, *fixed))
    template = "{%s}\n" % ",".join(
        (encode_basestring_ascii(name) + ":").replace("%", "%%")
        + ("%d" if name in slots else fixed[name].replace("%", "%%"))
        for name in keys)
    args = "".join(f"{slots[name]}, " for name in fields)
    source = _EMITTER_SOURCE.format(
        args=args,
        not_ints=" or ".join(f"{slots[name]}.__class__ is not int"
                             for name in fields) or "False",
        pairs="".join(f"{name!r}: {slots[name]}, " for name in fields),
        ordered="".join(f"{slots[name]}, " for name in keys
                        if name in slots))
    namespace = {"cat": cat, "event": event, "fields": fields,
                 "static": dict(static), "template": template}
    exec(source, namespace)
    return namespace["bind"]


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
    if end == len(line) and _plain_event(payload):
        return payload
    payload = json.loads(line)
    validate_event(payload)
    return payload


def _plain_event(payload) -> bool:
    """Is ``payload`` the common case: a dict of scalars (no list or
    object field) whose ``cycle``, ``cat`` and ``event`` are valid?
    Every such dict passes :func:`validate_event`."""
    return (type(payload) is dict
            and _PASSTHROUGH_TYPES.issuperset(map(type, payload.values()))
            and type(payload.get("cycle")) is int and payload["cycle"] >= 0
            and payload.get("cat") in _CATEGORY_SET
            and type(payload.get("event")) is str and payload["event"] != "")


def _is_valid_event(payload) -> bool:
    """:func:`validate_event` as a predicate, plain events first."""
    if _plain_event(payload):
        return True
    try:
        validate_event(payload)
    except ValueError:
        return False
    return True


def read_trace(path: str) -> List[dict]:
    """Load a complete JSONL trace file, validating every line; a
    malformed line raises ``ValueError`` naming ``path:lineno``. A live
    ``stream``-mode trace is followed with :class:`repro.trace.TraceTail`,
    which holds back a torn final line instead.

    A line ends at ``\n`` and nowhere else, as in :class:`TraceTail`
    and the writer; leading and trailing whitespace is stripped and a
    blank line is skipped. A file whose lines are all schema-valid
    events, one per line, is parsed in one ``json.loads`` call, which
    also shares each key string across all events. Anything else takes
    the per-line loop, the only path that raises, so every error is the
    per-line loop's own.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    if not all(line.startswith("{") for line in lines):
        return _read_lines(path, lines)
    count = len(lines)
    # No JSON string holds a raw "\n", so each line's "{" opens a
    # value. A valid event holds no object at any depth, so no "{" but
    # its first: none of those values nests in another, and with
    # ``count`` valid events element i is exactly line i.
    joined = "[" + ",\n".join(lines) + "]"
    del lines
    try:
        events = json.loads(joined)
    except (ValueError, RecursionError):
        events = None
    if (events is not None and len(events) == count
            and all(map(_is_valid_event, events))):
        return events
    del events
    # Every ",\n" in ``joined`` is a joint, so this rebuilds the lines.
    return _read_lines(path, joined[1:-1].split(",\n"))


def _read_lines(path: str, lines: List[str]) -> List[dict]:
    """The per-line reference loop of :func:`read_trace`."""
    events = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = _decode_line(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        events.append(payload)
    return events
