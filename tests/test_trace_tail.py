"""The live-tail reader (repro.trace.tail): torn-write hold-back,
shrink detection, and the acceptance check — a concurrent
tail of a *running* simulation equals the final ``read_trace`` result
byte for byte."""

import threading
import time

import pytest

from repro import (
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_parallel_monitoring,
    trace_hash,
)
from repro.trace import TraceTail, TraceWriter, read_trace
from repro.trace.writer import encode_event


def _line(cycle, cat="engine", event="stall", **fields):
    return encode_event(dict({"cycle": cycle, "cat": cat, "event": event},
                             **fields))


class TestTraceTailUnit:
    def test_missing_file_polls_empty(self, tmp_path):
        with TraceTail(str(tmp_path / "nope.jsonl")) as tail:
            assert tail.poll() == []
            assert tail.events_seen == 0

    def test_complete_lines_stream_through(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_line(1) + "\n" + _line(2) + "\n")
        with TraceTail(str(path)) as tail:
            events = tail.poll()
        assert [payload["cycle"] for _, payload in events] == [1, 2]
        assert [raw for raw, _ in events] == [_line(1), _line(2)]
        assert tail.events_seen == 2

    def test_torn_tail_is_held_back_until_completed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        torn = _line(2)
        with open(path, "w") as handle:
            handle.write(_line(1) + "\n" + torn[:10])
            handle.flush()
            with TraceTail(str(path)) as tail:
                first = tail.poll()
                assert [p["cycle"] for _, p in first] == [1]
                assert tail.poll() == []  # the torn half stays pending
                handle.write(torn[10:] + "\n")
                handle.flush()
                completed = tail.poll()
        assert [p["cycle"] for _, p in completed] == [2]

    def test_category_filter_consumes_but_does_not_return(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_line(1, cat="engine") + "\n"
                        + _line(2, cat="ca", event="broadcast") + "\n")
        with TraceTail(str(path), categories={"ca"}) as tail:
            events = tail.poll()
        assert [p["cat"] for _, p in events] == ["ca"]
        assert tail.events_seen == 2  # both consumed, one returned

    def test_corrupt_complete_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("definitely not json\n")
        with TraceTail(str(path)) as tail:
            with pytest.raises(ValueError, match="corrupt complete"):
                tail.poll()

    def test_shrinking_file_raises(self, tmp_path):
        """A trace only grows (every job runs once and appends), so a
        file that shrinks under the tail is damaged, like a corrupt
        complete line."""
        path = tmp_path / "t.jsonl"
        path.write_text(_line(1) + "\n" + _line(2) + "\n")
        with TraceTail(str(path)) as tail:
            assert len(tail.poll()) == 2
            path.write_text(_line(7) + "\n")
            with pytest.raises(ValueError, match="shrank"):
                tail.poll()


class TestUnknownCategoryNeverReachesTheTail:
    """Regression: a writer built with ``categories=None`` wrote an
    unknown category's line, and ``poll`` then raised on it, losing the
    valid lines read in the same poll (and ending a serve SSE stream)."""

    def test_valid_lines_around_a_rejected_emit_stream_through(
            self, tmp_path):
        from repro import ConfigurationError

        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter.to_path(path)
        writer.emit("engine", "stall", index=0)
        with pytest.raises(ConfigurationError, match="'bogus'"):
            writer.emit("bogus", "x")
        writer.emit("ca", "broadcast", index=1)
        writer.close()
        with TraceTail(path) as tail:
            events = tail.poll()
        assert [payload["index"] for _, payload in events] == [0, 1]
        assert [payload for _, payload in events] == read_trace(path)


class TestConcurrentLiveTail:
    def test_live_tail_equals_final_read_and_hashes_identically(
            self, tmp_path):
        """One thread simulates with a stream-mode tracer; another tails
        the growing file with ``TraceTail``. The tailed event
        sequence must equal (and hash identically to) the completed
        trace — the contract the SSE bridge is built on."""
        path = str(tmp_path / "live.jsonl")
        done = threading.Event()
        failure = []

        def simulate():
            tracer = TraceWriter.to_path(path)
            try:
                workload = build_workload("tainted_jump", 2, seed=7)
                run_parallel_monitoring(
                    workload, TaintCheck, SimulationConfig.for_threads(2),
                    tracer=tracer)
            except Exception as exc:  # pragma: no cover — surfaced below
                failure.append(exc)
            finally:
                tracer.close()
                done.set()

        thread = threading.Thread(target=simulate)
        thread.start()
        tailed = []
        with TraceTail(path) as tail:
            while not done.is_set():
                tailed.extend(tail.poll())
                time.sleep(0.001)
            while True:  # writer closed: drain the remainder
                events = tail.poll()
                if not events:
                    break
                tailed.extend(events)
        thread.join()
        assert not failure, failure
        final = read_trace(path)
        assert final, "simulation produced no trace"
        assert [payload for _, payload in tailed] == final
        assert (trace_hash(payload for _, payload in tailed)
                == trace_hash(final))
        # Raw fidelity: the tailed lines are the file's exact bytes.
        with open(path, encoding="utf-8") as handle:
            assert [raw for raw, _ in tailed] == \
                handle.read().splitlines()
