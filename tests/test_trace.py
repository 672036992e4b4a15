"""The flight recorder (repro.trace): writer unit tests, end-to-end
emission through all three platform schemes, and the "disabled tracing
is behavior-identical" contract."""

import enum
import functools
import hashlib
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConfigurationError,
    SimulationConfig,
    TaintCheck,
    TraceWriter,
    build_workload,
    parse_trace_filter,
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
    trace_hash,
)
from repro.trace import CATEGORIES, DEFAULT_RING_EVENTS, TraceTail, read_trace
from repro.trace.writer import (
    _SHAPES,
    _decode_line,
    encode_event,
    tracer_for,
    validate_event,
)


class TestTraceFilterParsing:
    def test_all_and_empty_select_everything(self):
        assert parse_trace_filter("all") == frozenset(CATEGORIES)
        assert parse_trace_filter("") == frozenset(CATEGORIES)
        assert parse_trace_filter("arc, all") == frozenset(CATEGORIES)

    def test_subset(self):
        assert parse_trace_filter("arc,ca") == frozenset({"arc", "ca"})
        assert parse_trace_filter(" engine ") == frozenset({"engine"})

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            parse_trace_filter("arc,bogus")
        with pytest.raises(ConfigurationError):
            TraceWriter(categories=("nope",))
        # naming `all` does not excuse a typo next to it
        with pytest.raises(ConfigurationError, match=r"\['bogus'\]"):
            parse_trace_filter("all,bogus")


class TestTraceWriterUnit:
    def test_category_filtering_and_wants(self):
        writer = TraceWriter(categories=("arc",), keep=True)
        writer.emit("arc", "publish", tid=0, rid=1)
        writer.emit("ca", "broadcast", ca=1)
        assert writer.wants("arc") and not writer.wants("ca")
        assert writer.emitted == 1
        assert [event["event"] for event in writer.events] == ["publish"]

    def test_ring_keeps_only_last_n(self):
        writer = TraceWriter(ring=4)
        for index in range(10):
            writer.emit("engine", "stall", index=index)
        tail = writer.snapshot()
        assert [event["index"] for event in tail] == [6, 7, 8, 9]

    def test_keep_mode_snapshot_is_bounded(self):
        writer = TraceWriter(keep=True)
        for index in range(DEFAULT_RING_EVENTS + 10):
            writer.emit("engine", "stall", index=index)
        assert len(writer.events) == DEFAULT_RING_EVENTS + 10
        assert len(writer.snapshot()) == DEFAULT_RING_EVENTS

    def test_stream_mode_is_line_buffered_json(self):
        stream = io.StringIO()
        writer = TraceWriter(stream=stream)
        writer.emit("meta", "write", addr=0x40000000, size=4)
        line = stream.getvalue()
        assert line.endswith("\n") and "\n" not in line[:-1]
        payload = json.loads(line)
        validate_event(payload)
        assert payload["cycle"] == 0  # no engine attached

    def test_fields_are_sanitized_to_scalars(self):
        from repro.capture.events import RecordKind
        writer = TraceWriter(keep=True)
        writer.emit("engine", "retire", kind=RecordKind.LOAD,
                    participants={2, 0, 1}, extra=object())
        event = writer.events[0]
        validate_event(event)
        assert event["kind"] == "LOAD"
        assert event["participants"] == [0, 1, 2]
        assert isinstance(event["extra"], str)

    def test_encoding_is_compact_and_key_sorted(self):
        line = encode_event({"event": "x", "cat": "arc", "cycle": 3})
        assert line == '{"cat":"arc","cycle":3,"event":"x"}'

    def test_validate_event_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_event({"cat": "arc", "event": "x"})  # no cycle
        with pytest.raises(ValueError):
            validate_event({"cycle": 1, "cat": "wat", "event": "x"})
        with pytest.raises(ValueError):
            validate_event({"cycle": 1, "cat": "arc", "event": ""})
        with pytest.raises(ValueError):
            validate_event({"cycle": 1, "cat": "arc", "event": "x",
                            "bad": {"nested": 1}})


def _run(scheme, tracer=None, **kwargs):
    workload = build_workload("swaptions", nthreads=2)
    config = SimulationConfig.for_threads(2)
    if scheme == "parallel":
        return run_parallel_monitoring(workload, TaintCheck, config,
                                       tracer=tracer, **kwargs)
    if scheme == "timesliced":
        return run_timesliced_monitoring(workload, TaintCheck, config,
                                         tracer=tracer, **kwargs)
    return run_no_monitoring(workload, config, tracer=tracer)


ALL_SCHEMES = ("parallel", "timesliced", "none")


class TestEndToEndEmission:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_event_is_schema_valid(self, scheme):
        tracer = TraceWriter(keep=True)
        _run(scheme, tracer=tracer)
        assert tracer.emitted == len(tracer.events) > 0
        for event in tracer.events:
            validate_event(event)

    def test_cycle_stamps_are_monotone(self):
        tracer = TraceWriter(keep=True)
        _run("parallel", tracer=tracer)
        cycles = [event["cycle"] for event in tracer.events]
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))

    def test_parallel_run_covers_the_paper_mechanisms(self):
        tracer = TraceWriter(keep=True)
        _run("parallel", tracer=tracer)
        seen = {(event["cat"], event["event"]) for event in tracer.events}
        for expected in (("engine", "retire"), ("arc", "publish"),
                         ("ca", "broadcast"), ("ca", "arrive"),
                         ("ca", "complete"), ("advert", "publish"),
                         ("accel", "mtlb_hit"), ("meta", "write")):
            assert expected in seen, f"no {expected} events emitted"

    def test_baseline_emits_only_engine_events(self):
        tracer = TraceWriter(keep=True)
        _run("none", tracer=tracer)
        assert {event["cat"] for event in tracer.events} == {"engine"}

    def test_category_filter_drops_other_categories(self):
        tracer = TraceWriter(categories=("ca",), keep=True)
        _run("parallel", tracer=tracer)
        assert tracer.events
        assert {event["cat"] for event in tracer.events} == {"ca"}

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = TraceWriter.to_path(path)
        _run("parallel", tracer=tracer)
        tracer.close()
        kept = TraceWriter(keep=True)
        _run("parallel", tracer=kept)
        loaded = read_trace(path)
        assert loaded == kept.events
        assert trace_hash(loaded) == trace_hash(kept.events)


class TestDisabledTracingIsBehaviorIdentical:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_traced_and_untraced_runs_agree(self, scheme):
        untraced = _run(scheme)
        tracer = TraceWriter(keep=True)
        traced = _run(scheme, tracer=tracer)
        assert traced.total_cycles == untraced.total_cycles
        assert traced.instructions == untraced.instructions
        assert traced.stats == untraced.stats
        assert ([(v.kind, v.tid, v.rid) for v in traced.violations]
                == [(v.kind, v.tid, v.rid) for v in untraced.violations])


@pytest.mark.slow
class TestDisabledTracingOverheadSmoke:
    def test_untraced_run_is_not_slower_than_traced(self):
        """Disabled tracing costs one ``tracer is None`` check per emit
        site. A full trace (all categories, kept in memory) does real
        work per event, so an *untraced* run taking longer than a traced
        one means disabled tracing is doing work it must not do. The
        1.5x margin absorbs scheduler noise."""
        import time

        def measure(tracer_factory):
            samples = []
            for _ in range(3):
                tracer = tracer_factory()
                start = time.perf_counter()
                _run("parallel", tracer=tracer)
                samples.append(time.perf_counter() - start)
            return sorted(samples)[1]  # median of 3

        untraced = measure(lambda: None)
        traced = measure(lambda: TraceWriter(keep=True))
        assert untraced <= traced * 1.5, (
            f"untraced {untraced:.3f}s vs traced {traced:.3f}s")


class TestCliTraceFlag:
    def test_run_trace_emits_valid_jsonl(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "trace.jsonl"
        code = main(["run", "swaptions", "--threads", "2",
                     "--trace", str(path), "--trace-filter", "arc,ca,engine"])
        assert code == 0
        events = read_trace(str(path))
        assert events
        assert {event["cat"] for event in events} <= {"arc", "ca", "engine"}

    def test_bad_trace_filter_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["run", "swaptions", "--threads", "2",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--trace-filter", "bogus"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err


class TestTornTailReads:
    """``read_trace`` is for completed traces: a torn final line is
    corruption there. A live stream is followed with ``TraceTail``."""

    def _write(self, tmp_path, lines, torn=None):
        path = tmp_path / "live.jsonl"
        body = "".join(encode_event(line) + "\n" for line in lines)
        if torn is not None:
            body += torn  # no trailing newline: a write in flight
        path.write_text(body, encoding="utf-8")
        return str(path)

    def test_strict_mode_still_raises_on_torn_tail(self, tmp_path):
        path = self._write(tmp_path,
                           [{"cycle": 1, "cat": "engine", "event": "stall"}],
                           torn='{"cycle":2,"cat":"eng')
        with pytest.raises(ValueError, match="not JSON"):
            read_trace(path)


class TestToPathHandleLeak:
    """Regression: ``to_path`` opened the file before the constructor
    validated its arguments, leaking the handle (and a stray empty
    file) when validation raised."""

    def test_bad_category_leaves_no_file_behind(self, tmp_path):
        path = tmp_path / "never.jsonl"
        with pytest.raises(ConfigurationError):
            TraceWriter.to_path(str(path), categories=("bogus",))
        assert not path.exists()

    def test_negative_ring_leaves_no_file_behind(self, tmp_path):
        path = tmp_path / "never.jsonl"
        with pytest.raises(ConfigurationError):
            TraceWriter.to_path(str(path), ring=-1)
        assert not path.exists()

    def test_traces_are_utf8_regardless_of_locale(self, tmp_path):
        path = tmp_path / "utf8.jsonl"
        tracer = TraceWriter.to_path(str(path))
        tracer.emit("engine", "note", detail="café → ✓")
        tracer.close()
        raw = path.read_bytes()
        # The escaped-or-raw representation is json's choice, but the
        # bytes must decode as UTF-8 whatever the platform locale says.
        assert json.loads(raw.decode("utf-8"))["detail"] == "café → ✓"
        events = read_trace(str(path))
        assert events[0]["detail"] == "café → ✓"


class TestBoolCycleStamp:
    """Regression: ``cycle=True`` passed validation (bool is an int
    subclass) but encodes as ``true`` where an equal run stamps ``1``,
    silently poisoning trace hashes."""

    def test_bool_cycle_rejected(self):
        with pytest.raises(ValueError, match="bad cycle stamp"):
            validate_event({"cycle": True, "cat": "engine", "event": "x"})
        with pytest.raises(ValueError, match="bad cycle stamp"):
            validate_event({"cycle": False, "cat": "engine", "event": "x"})

    def test_int_cycle_still_accepted(self):
        validate_event({"cycle": 0, "cat": "engine", "event": "x"})
        validate_event({"cycle": 1, "cat": "engine", "event": "x"})

    def test_bool_fields_elsewhere_stay_legal(self):
        # Only the cycle stamp is numeric-only; ordinary fields may
        # legitimately carry booleans.
        validate_event({"cycle": 1, "cat": "engine", "event": "x",
                        "resumed": True})


class TestSingleWritePath:
    """The deferred ``flush_every`` batching is gone: stream mode always
    encodes one line per emit and hands it to the stream before ``emit``
    returns (one ``write`` to a ``to_path`` file, ``write`` and
    ``flush`` to a borrowed stream)."""

    def test_flush_every_is_not_an_option(self, tmp_path):
        with pytest.raises(TypeError):
            TraceWriter(flush_every=2)
        with pytest.raises(TypeError):
            TraceWriter.to_path(str(tmp_path / "t.jsonl"), flush_every=2)
        assert not (tmp_path / "t.jsonl").exists()


class TestUnhashableCategory:
    """Regression: an unhashable ``cat`` (a list or an object) made
    ``validate_event`` raise ``TypeError`` from the category-set lookup
    instead of the ``ValueError`` every reader handles."""

    @pytest.mark.parametrize("cat", [["engine"], {}, {"engine": 1}])
    def test_validate_event_raises_value_error(self, cat):
        with pytest.raises(ValueError, match="unknown category"):
            validate_event({"cycle": 1, "cat": cat, "event": "x"})

    def _trace_ending_in_list_cat(self, tmp_path):
        good = encode_event({"cycle": 1, "cat": "engine", "event": "x"})
        path = tmp_path / "t.jsonl"
        path.write_text(f'{good}\n{{"cat":["engine"],"cycle":2,"event":"x"}}',
                        encoding="utf-8")
        return str(path)

    def test_strict_read_raises_value_error(self, tmp_path):
        path = self._trace_ending_in_list_cat(tmp_path)
        with pytest.raises(ValueError, match="unknown category"):
            read_trace(path)

    def test_tail_raises_value_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"cat":{},"cycle":1,"event":"x"}\n')
        with TraceTail(str(path)) as tail:
            with pytest.raises(ValueError, match="unknown category"):
                tail.poll()


def _reference_decode(line):
    payload = json.loads(line)
    validate_event(payload)
    return payload


def _outcome(decode, line):
    """What ``decode`` does with ``line``: the payload's repr (NaN-safe,
    and 1, 1.0 and true stay distinct) or the exception's type and text."""
    try:
        return "ok", repr(decode(line))
    except Exception as exc:
        return type(exc), str(exc)


_VALID = '{"cat":"engine","cycle":1,"event":"x"}'

#: Lines that probe every branch of the fast path and its fallback.
DECODER_CORPUS = [
    _VALID,
    '{"cycle":1,"cat":"engine","event":"x","tid":2,"ok":true,"v":null}',
    '{ "cycle" : 1 , "cat" : "ca" , "event" : "x" , "f" : 1.5e3 }',
    '{"cycle":2,"cat":"eng',                            # torn
    '{"cycle":2,"cat":"engine","event":"x"',            # torn at the end
    _VALID + " {}",                                     # trailing data
    _VALID + "x",
    _VALID + " ",
    " " + _VALID,
    "\ufeff" + _VALID,                                  # BOM
    '{"cycle":1,"cat":"engine","event":"x","v":NaN}',
    '{"cycle":1,"cat":"engine","event":"x","v":Infinity}',
    '{"cycle":1,"cat":"engine","event":"x","v":-Infinity}',
    '{"cycle":true,"cat":"engine","event":"x"}',
    '{"cycle":-1,"cat":"engine","event":"x"}',
    '{"cycle":1.0,"cat":"engine","event":"x"}',
    '{"cycle":"1","cat":"engine","event":"x"}',
    '{"cycle":NaN,"cat":"engine","event":"x"}',
    '{"cycle":1,"cat":"engine","event":""}',
    '{"cycle":1,"cat":"engine","event":7}',
    '{"cycle":1,"cat":"engine"}',
    '{"cat":"engine","event":"x"}',
    '{"cycle":1,"cat":"wat","event":"x"}',
    '{"cycle":1,"cat":null,"event":"x"}',
    '{"cycle":1,"cat":["engine"],"event":"x"}',
    '{"cycle":1,"cat":{},"event":"x"}',
    '{"cycle":1,"cat":"engine","event":"x","d":{"nested":1}}',
    '{"cycle":1,"cat":"engine","event":"x","l":[1,[2,["a",null]]]}',
    '{"cycle":1,"cat":"engine","event":"x","l":[{"a":1}]}',
    r'{"cycle":1,"cat":"engine","event":"caf\u00e9 \u2713"}',
    '{"cycle":1,"cat":"engine","event":"café ✓ 😀"}',
    '{"cycle":1,"cycle":-1,"cat":"engine","event":"x"}',
    '[1,2,3]',
    '"engine"',
    "1",
    "null",
    "{}",
    "",
    "not json at all",
]

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(alphabet=st.sampled_from('"\\/\n\r\t\x00\x1f\u2028é✓😀ab'))
            | st.text())
_FIELD_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4),
                             max_leaves=8)


@st.composite
def _valid_events(draw):
    fields = draw(st.dictionaries(
        st.text().filter(lambda key: key not in ("cycle", "cat", "event")),
        _FIELD_VALUES, max_size=5))
    return dict(fields, cycle=draw(st.integers(min_value=0)),
                cat=draw(st.sampled_from(CATEGORIES)),
                event=draw(st.text(min_size=1)))


class TestDecoderEquivalence:
    """``_decode_line`` must accept exactly the lines the reference
    ``validate_event(json.loads(line))`` accepts, return equal payloads,
    and raise the same exception with the same message."""

    @pytest.mark.parametrize("line", DECODER_CORPUS)
    def test_corpus(self, line):
        assert _outcome(_decode_line, line) == _outcome(_reference_decode, line)

    def test_corpus_covers_every_outcome(self):
        outcomes = {_outcome(_reference_decode, line)[0]
                    for line in DECODER_CORPUS}
        assert {"ok", ValueError, json.JSONDecodeError} <= outcomes

    @settings(max_examples=200, deadline=None)
    @given(_valid_events(), st.booleans())
    def test_schema_valid_events(self, event, compact):
        line = encode_event(event) if compact else json.dumps(event)
        assert _outcome(_decode_line, line) == _outcome(_reference_decode, line)
        assert _outcome(_decode_line, line)[0] == "ok"

    @settings(max_examples=200, deadline=None)
    @given(_valid_events(), st.integers(min_value=0))
    def test_torn_lines(self, event, cut):
        line = encode_event(event)
        line = line[:cut % (len(line) + 1)]
        assert _outcome(_decode_line, line) == _outcome(_reference_decode, line)

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, line):
        assert _outcome(_decode_line, line) == _outcome(_reference_decode, line)


_JSON_PAYLOADS = st.dictionaries(st.text(), _FIELD_VALUES, max_size=6)


class TestEncoderByteIdentity:
    """The cached C encoder writes exactly what ``json.dumps`` with the
    trace options writes."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert encode_event(payload) == json.dumps(
            payload, separators=(",", ":"), sort_keys=True)

    def test_non_finite_floats(self):
        payload = {"a": math.nan, "b": math.inf, "c": -math.inf}
        assert encode_event(payload) == '{"a":NaN,"b":Infinity,"c":-Infinity}'

    def test_non_serializable_value_raises_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_event({"cycle": 1, "x": object()})
        # A failed encode leaves no state behind.
        assert encode_event({"cycle": 1}) == '{"cycle":1}'


class TestUnknownCategoryIsNeverWritten:
    """Regression: with ``categories=None`` the writer wrote any
    category it was handed, so ``emit("bogus", ...)`` left a line that
    ``read_trace`` rejects, failing the whole file, and ``wants`` said
    yes to it."""

    @pytest.mark.parametrize("categories", [None, ("arc",)])
    def test_emit_raises_and_writes_nothing(self, categories):
        stream = io.StringIO()
        writer = TraceWriter(stream=stream, categories=categories, ring=4,
                             keep=True)
        with pytest.raises(ConfigurationError, match="'bogus'") as info:
            writer.emit("bogus", "x", tid=0)
        assert ", ".join(CATEGORIES) in str(info.value)
        assert stream.getvalue() == ""
        assert writer.emitted == 0
        assert writer.events == [] and writer.snapshot() == []

    @pytest.mark.parametrize("categories", [None, ("arc",)])
    def test_wants_agrees_with_emit(self, categories):
        writer = TraceWriter(categories=categories)
        with pytest.raises(ConfigurationError, match="'bogus'"):
            writer.wants("bogus")
        for cat in CATEGORIES:
            writer.emit(cat, "x")
        assert writer.emitted == sum(map(writer.wants, CATEGORIES))

    def test_none_means_every_known_category(self):
        assert TraceWriter().categories == frozenset(CATEGORIES)
        assert all(map(TraceWriter().wants, CATEGORIES))

    def test_file_stays_readable(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter.to_path(path)
        writer.emit("engine", "stall", index=0)
        with pytest.raises(ConfigurationError):
            writer.emit("bogus", "x")
        writer.emit("engine", "stall", index=1)
        writer.close()
        assert [event["index"] for event in read_trace(path)] == [0, 1]


class TestWiringTimeGating:
    """A component holds a prepared emitter, or the writer itself for
    the ConflictAlert hub's general emits, only when the writer records
    that category."""

    def test_tracer_for(self):
        writer = TraceWriter(categories=("arc",))
        assert tracer_for(writer, "arc") is writer
        assert tracer_for(writer, "accel") is None
        assert tracer_for(None, "arc") is None
        with pytest.raises(ConfigurationError):
            tracer_for(writer, "bogus")

    @pytest.mark.parametrize("category,keeps", [("accel", True),
                                                ("engine", False)])
    def test_single_category_components(self, category, keeps):
        from repro.accel import (IdempotentFilter, InheritanceTracking,
                                 MetadataTLB)
        from repro.capture.conflict_alert import CAHub
        from repro.common.config import LifeguardCostConfig
        from repro.cpu.engine import Engine
        from repro.enforce.progress import ProgressTable

        writer = TraceWriter(categories=(category,))
        it = InheritanceTracking(tracer=writer)
        iff = IdempotentFilter(tracer=writer)
        tlb = MetadataTLB(4, LifeguardCostConfig(), tracer=writer)
        emitters = [it._absorb_emit, it._condense_emit, iff._hit_emit,
                    iff._miss_emit, tlb._hit_emit, tlb._miss_emit]
        assert [emit is not None for emit in emitters] == [keeps] * 6
        assert it.bound_process() == (it.process if keeps
                                      else it._process_enabled)
        engine = Engine()
        assert ProgressTable(engine, [0], tracer=writer)._publish_emit \
            is None
        assert CAHub(engine, tracer=writer).tracer is None
        everything = TraceWriter()
        assert ProgressTable(engine, [0], tracer=everything)._publish_emit \
            is not None
        assert CAHub(engine, tracer=everything).tracer is everything


def _racy_run(seed, lifeguard, scheme, model, tracer=None):
    from repro.trace.diff import RacyProgram, lifeguard_factory

    program = RacyProgram.generate(seed)
    config = SimulationConfig.for_threads(2, memory_model=model)
    runner = (run_parallel_monitoring if scheme == "parallel"
              else run_timesliced_monitoring)
    return runner(program.workload(), lifeguard_factory(lifeguard), config,
                  keep_trace=True, tracer=tracer)


def _observable(result):
    return (result.total_cycles, result.instructions, result.app_buckets,
            result.lifeguard_buckets, result.stats,
            [(v.kind, v.tid, v.rid, v.detail) for v in result.violations])


class TestFilteringIsAnExactProjection:
    """A writer that records categories ``S`` keeps exactly the events
    of ``S`` an all-category writer keeps, in the same order, and the
    run it traces is the untraced run. Covers each single category, so
    the differential checker's ``("engine",)`` filter too."""

    @pytest.mark.parametrize("model", ["SC", "TSO"])
    @pytest.mark.parametrize("scheme", ["parallel", "timesliced"])
    @pytest.mark.parametrize("seed,lifeguard", [
        (1, "taintcheck"), (2, "memcheck"), (4, "lockset"),
        (5, "addrcheck")])
    def test_single_category_writers(self, seed, lifeguard, scheme, model):
        from repro.common.config import MemoryModel

        model = MemoryModel[model]
        untraced = _observable(_racy_run(seed, lifeguard, scheme, model))
        everything = TraceWriter(keep=True)
        assert _observable(_racy_run(seed, lifeguard, scheme, model,
                                     everything)) == untraced
        for category in CATEGORIES:
            writer = TraceWriter(categories=(category,), keep=True)
            result = _racy_run(seed, lifeguard, scheme, model, writer)
            projection = [event for event in everything.events
                          if event["cat"] == category]
            assert writer.events == projection, category
            assert trace_hash(writer.events) == trace_hash(projection)
            assert _observable(result) == untraced, category


def _drain(path):
    """Every event a ``TraceTail`` returns for a finished file."""
    events = []
    with TraceTail(path) as tail:
        while True:
            batch = tail.poll()
            if not batch:
                return events
            events.extend(payload for _, payload in batch)


class TestLineBoundaries:
    """``read_trace`` and ``TraceTail`` agree on what a line is: it ends
    at ``\\n`` only. ``str.splitlines`` also split on ``\\r``,
    ``\\x0c``, ``\\x85`` and U+2028, so the two readers disagreed on
    these files."""

    _EVENT = '{"cat":"engine","cycle":1,"event":"x"}'

    @pytest.mark.parametrize("body", [
        '{"cat":"engine","cycle":1,"event":"a\u2028b"}\n',
        '{"cat":"engine","cycle":1,"event":"a\x85b"}\n',
        _EVENT + "\r" + _EVENT + "\n",
        _EVENT + "\x0c" + _EVENT + "\n",
    ], ids=["u2028-in-string", "x85-in-string", "lone-cr", "form-feed"])
    def test_both_readers_agree(self, tmp_path, body):
        path = tmp_path / "t.jsonl"
        path.write_text(body, encoding="utf-8", newline="")
        outcomes = []
        for read in (read_trace, _drain):
            try:
                outcomes.append(("ok", read(str(path))))
            except ValueError:
                outcomes.append(("ValueError", None))
        assert outcomes[0] == outcomes[1]


def _reference_read(path):
    """The per-line loop every ``read_trace`` result must equal."""
    events = []
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        validate_event(payload)
        events.append(payload)
    return events


_FLAT_VALUES = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(alphabet=st.sampled_from('"\\{},[]\r\t\u2028é✓ab')))


@st.composite
def _flat_event_lines(draw):
    fields = draw(st.dictionaries(
        st.text(alphabet=st.sampled_from('"{},ab')).filter(
            lambda key: key not in ("cycle", "cat", "event")),
        _FLAT_VALUES, max_size=4))
    event = dict(fields, cycle=draw(st.integers(min_value=0)),
                 cat=draw(st.sampled_from(CATEGORIES)),
                 event=draw(st.text(min_size=1, max_size=4)))
    return encode_event(event) if draw(st.booleans()) else json.dumps(event)


_EVENT_LINES = _flat_event_lines() | _valid_events().map(encode_event)


def _split_at_a_comma(pair):
    """An event line cut into two lines at one of its commas, which is
    dropped: neither line is an event, but joined by a comma they are."""
    line, pick = pair
    commas = [index for index, char in enumerate(line) if char == ","]
    if not commas:
        return [line]
    cut = commas[pick % len(commas)]
    return [line[:cut], line[cut + 1:]]


#: Runs of lines of a trace file: valid events (flat or with list
#: fields), blank and whitespace-only lines, a BOM, two objects on one
#: line, a line torn at either end or split in two, non-object lines
#: and bad stamps.
_FILE_CHUNKS = st.one_of(
    _EVENT_LINES.map(lambda line: [line]),
    _EVENT_LINES.map(lambda line: [line + "\r"]),
    st.sampled_from(["", " ", "\t", "\r", "\x0c", "\x85", "\u2028 "]).map(
        lambda line: [line]),
    _EVENT_LINES.map(lambda line: ["\ufeff" + line]),
    st.tuples(_EVENT_LINES, st.sampled_from(["", " ", ","]),
              _EVENT_LINES).map(lambda parts: ["".join(parts)]),
    st.tuples(_EVENT_LINES, st.integers(min_value=0)).map(
        lambda pair: [pair[0][:pair[1] % (len(pair[0]) + 1)]]),
    st.tuples(_EVENT_LINES, st.integers(min_value=0)).map(
        lambda pair: [pair[0][pair[1] % (len(pair[0]) + 1):]]),
    st.tuples(_EVENT_LINES, st.integers(min_value=0)).map(_split_at_a_comma),
    st.sampled_from(["[1,2]", "1", "null", '"x"', "{}", "{", "}", ","]).map(
        lambda line: [line]),
    st.sampled_from(DECODER_CORPUS).map(lambda line: [line]),
)


class TestReadTraceMatchesPerLineLoop:
    """``read_trace`` returns exactly what the per-line reference loop
    returns, or raises the same exception type with the same message,
    whether it takes its one-call path or its per-line loop."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("whole-file") / "t.jsonl")

    def _check(self, path, lines, final_newline):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + ("\n" if final_newline else ""))
        assert _outcome(read_trace, path) == _outcome(_reference_read, path)

    @settings(max_examples=300, deadline=None)
    @given(chunks=st.lists(_FILE_CHUNKS, max_size=6),
           final_newline=st.booleans())
    def test_mixed_files(self, path, chunks, final_newline):
        self._check(path, sum(chunks, []), final_newline)

    def test_a_line_split_in_two_is_not_an_event(self, path):
        # Joined with commas, the two halves and the line of two events
        # parse as three events, one per line; the per-line loop rejects
        # the first half.
        event = '{"cat":"engine","cycle":1,"event":"x"}'
        halves = ['{"cat":"engine","cycle":1', '"event":"x"}']
        self._check(path, halves + [event + "," + event], True)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(_flat_event_lines(), max_size=8),
           final_newline=st.booleans())
    def test_files_of_plain_events(self, path, lines, final_newline):
        self._check(path, lines, final_newline)


def _tso_run_to_path(path):
    from repro.common.config import MemoryModel

    tracer = TraceWriter.to_path(path)
    try:
        run_parallel_monitoring(
            build_workload("swaptions", nthreads=4), TaintCheck,
            SimulationConfig.for_threads(4, memory_model=MemoryModel.TSO),
            tracer=tracer)
    finally:
        tracer.close()


class TestFileWriter:
    """``to_path`` writes the canonical encoding through one unbuffered
    ``write`` per line."""

    def test_file_bytes_are_the_canonical_encoding(self, tmp_path):
        path = str(tmp_path / "tso.jsonl")
        _tso_run_to_path(path)
        with open(path, "rb") as handle:
            raw = handle.read()
        events = read_trace(path)
        assert len(events) > 1000
        assert hashlib.sha256(raw).hexdigest() == trace_hash(events)

    def test_one_call_read_shares_key_strings(self, tmp_path):
        path = str(tmp_path / "tso.jsonl")
        _tso_run_to_path(path)
        first, *rest = read_trace(path)
        cycle_key = next(key for key in first if key == "cycle")
        assert all(next(key for key in event if key == "cycle")
                   is cycle_key for event in rest)

    def test_each_line_is_visible_when_emit_returns(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        writer = TraceWriter.to_path(path)
        written = 0
        try:
            with TraceTail(path) as tail:
                for index in range(5):
                    writer.emit("engine", "stall", index=index, note="é")
                    written += len(encode_event(
                        {"cat": "engine", "cycle": 0, "event": "stall",
                         "index": index, "note": "é"}) + "\n")
                    assert os.path.getsize(path) == written
                    assert [payload["index"]
                            for _, payload in tail.poll()] == [index]
        finally:
            writer.close()
        assert [event["index"] for event in read_trace(path)] == \
            list(range(5))

    def test_emit_after_close_writes_nothing(self, tmp_path):
        path = tmp_path / "closed.jsonl"
        writer = TraceWriter.to_path(str(path))
        writer.emit("engine", "stall")
        writer.close()
        writer.close()
        writer.emit("engine", "stall")
        assert len(read_trace(str(path))) == 1


class TestCallerCycleStamp:
    """Regression: ``emit`` wrote a caller's ``cycle`` unchecked, so
    ``emit("engine", "e", cycle=True)`` left a line that ``read_trace``
    and ``TraceTail`` reject. Only the writer stamps ``cycle``."""

    @pytest.mark.parametrize("categories", [None, ("arc",)])
    @pytest.mark.parametrize("cycle", [True, -3, "x", 5])
    def test_emit_raises_and_writes_nothing(self, cycle, categories):
        stream = io.StringIO()
        writer = TraceWriter(stream=stream, categories=categories, ring=4,
                             keep=True)
        with pytest.raises(ConfigurationError, match="cycle"):
            writer.emit("engine", "e", cycle=cycle)
        assert stream.getvalue() == ""
        assert writer.emitted == 0
        assert writer.events == [] and writer.snapshot() == []

    def test_prepare_rejects_a_cycle_field(self):
        writer = TraceWriter()
        with pytest.raises(ConfigurationError, match="cycle"):
            writer.prepare("engine", "e", ("cycle",))
        with pytest.raises(ConfigurationError, match="cycle"):
            writer.prepare("engine", "e", cycle="x")


class _ShapeRecorder(TraceWriter):
    """A kept writer that also records every shape prepared on it."""

    __slots__ = ("shapes",)

    def __init__(self):
        super().__init__(keep=True)
        self.shapes = set()

    def prepare(self, cat, event, fields=(), **static):
        self.shapes.add((cat, event, tuple(fields),
                         tuple(sorted(static.items()))))
        return super().prepare(cat, event, fields, **static)


def _traced_run(scheme, model, tracer):
    from repro.common.config import MemoryModel

    workload = build_workload("swaptions", nthreads=2)
    config = SimulationConfig.for_threads(2, memory_model=MemoryModel[model])
    if scheme == "none":
        return run_no_monitoring(workload, config, tracer=tracer)
    runner = (run_parallel_monitoring if scheme == "parallel"
              else run_timesliced_monitoring)
    return runner(workload, TaintCheck, config, tracer=tracer)


@functools.lru_cache(maxsize=None)
def _simulator_shapes():
    """Every shape a traced run of each scheme under SC and TSO
    prepares, the MemCheck-only ones included."""
    from repro.lifeguards import MemCheck

    recorder = _ShapeRecorder()
    for scheme in ALL_SCHEMES:
        for model in ("SC", "TSO"):
            _traced_run(scheme, model, recorder)
    run_parallel_monitoring(build_workload("swaptions", nthreads=2),
                            MemCheck, SimulationConfig.for_threads(2),
                            tracer=recorder)
    return tuple(sorted(recorder.shapes))


class _Clock:
    def __init__(self, now):
        self.now = now


class _Kind(enum.IntEnum):
    ONE = 1


#: Field values :meth:`TraceWriter.emit` writes differently from ``%d``.
_FALLBACK_VALUES = st.sampled_from([True, False, _Kind.ONE, None, 1.5,
                                    -0.0, math.inf])


def _emitted_both_ways(shape, rows, cycles):
    """Emit ``rows`` through ``shape``'s prepared emitter and through
    ``emit``; return both writers and their streams."""
    cat, event, fields, static = shape
    static = dict(static)
    sides = []
    for prepared in (True, False):
        stream = io.StringIO()
        writer = TraceWriter(stream=stream, ring=3, keep=True)
        emit = writer.prepare(cat, event, fields, **static)
        for values, cycle in zip(rows, cycles):
            writer.attach_engine(_Clock(cycle))
            if prepared:
                emit(*values)
            else:
                writer.emit(cat, event, **static, **dict(zip(fields, values)))
        sides.append((writer, stream.getvalue()))
    return sides


class TestPreparedEvents:
    """A prepared emitter records exactly what ``emit`` of the same
    fields records: the same line bytes, kept payload, ring payload,
    cycle stamp and count."""

    def test_the_simulator_prepares_every_converted_site(self):
        prepared = {(cat, event) for cat, event, _, _ in _simulator_shapes()}
        assert prepared >= {
            ("engine", "retire"), ("engine", "wake"), ("engine", "done"),
            ("advert", "hold"), ("advert", "refresh_flush"),
            ("advert", "publish"), ("meta", "write"), ("arc", "stall"),
            ("arc", "version_stall"), ("arc", "version_produce"),
            ("arc", "version_consume"), ("arc", "publish"),
            ("arc", "reduced"), ("ca", "stall"), ("accel", "it_absorb"),
            ("accel", "it_condense"), ("accel", "if_hit"),
            ("accel", "if_miss"), ("accel", "mtlb_hit"),
            ("accel", "mtlb_miss")}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_bytes_as_emit(self, data):
        shape = data.draw(st.sampled_from(_simulator_shapes()))
        width = len(shape[2])
        value = (st.integers() | st.integers(min_value=2**63)
                 | st.integers(max_value=-2**63))
        if width:
            value = value | _FALLBACK_VALUES
        rows = data.draw(st.lists(st.tuples(*[value] * width), min_size=1,
                                  max_size=5))
        cycles = data.draw(st.lists(st.integers(min_value=0),
                                    min_size=len(rows), max_size=len(rows)))
        (prepared, lines), (reference, expected) = _emitted_both_ways(
            shape, rows, cycles)
        assert lines == expected
        assert prepared.events == reference.events
        assert prepared.snapshot() == reference.snapshot()
        assert prepared.emitted == reference.emitted == len(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CATEGORIES), st.text(),
           st.lists(st.text(), max_size=3, unique=True),
           st.dictionaries(st.text(), st.text(), max_size=3),
           st.lists(st.integers(), min_size=3, max_size=3))
    def test_any_names_and_strings(self, cat, event, fields, static, values):
        fields = tuple(name for name in fields
                       if name not in ("cycle", "cat", "event"))
        static = {name: text for name, text in static.items()
                  if name not in (*fields, "cycle", "cat", "event", "self",
                                  "fields")}
        shape = (cat, event, fields, tuple(static.items()))
        rows = [tuple(values[:len(fields)])]
        (prepared, lines), (reference, expected) = _emitted_both_ways(
            shape, rows, [7])
        assert lines == expected
        assert prepared.events == reference.events

    def test_filtered_category_gives_none(self):
        for cat, event, fields, static in _simulator_shapes():
            others = [name for name in CATEGORIES if name != cat]
            writer = TraceWriter(categories=others)
            assert writer.prepare(cat, event, fields, **dict(static)) is None

    def test_unknown_category_raises_at_preparation(self):
        with pytest.raises(ConfigurationError, match="'bogus'"):
            TraceWriter().prepare("bogus", "x", ("rid",))
        with pytest.raises(ConfigurationError, match="'bogus'"):
            TraceWriter(categories=("arc",)).prepare("bogus", "x")

    @pytest.mark.parametrize("fields,static", [
        (("rid", "rid"), {}), (("cat",), {}), (("rid",), {"rid": "x"}),
        ((), {"actor": 3}), ((7,), {})])
    def test_malformed_shape_raises(self, fields, static):
        with pytest.raises(ConfigurationError):
            TraceWriter().prepare("engine", "x", fields, **static)

    def test_a_shape_compiles_once_per_process(self):
        first, second = TraceWriter(), TraceWriter(keep=True)
        shape = ("engine", "once", ("rid",))
        first.prepare(*shape, actor="a")
        compiled = dict(_SHAPES)
        second.prepare(*shape, actor="a")
        assert _SHAPES == compiled

    @pytest.mark.parametrize("model", ["SC", "TSO"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_file_stream_and_kept_runs_agree(self, scheme, model, tmp_path):
        path = tmp_path / "run.jsonl"
        to_file = TraceWriter.to_path(str(path))
        try:
            _traced_run(scheme, model, to_file)
        finally:
            to_file.close()
        stream = io.StringIO()
        _traced_run(scheme, model, TraceWriter(stream=stream))
        kept = TraceWriter(keep=True)
        _traced_run(scheme, model, kept)
        text = path.read_bytes().decode("ascii")
        assert text == stream.getvalue()
        assert text == "".join(encode_event(event) + "\n"
                               for event in kept.events)
        assert kept.events
