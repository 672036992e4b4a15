"""The monitoring service (repro.serve): config validation, the run
registry lifecycle + restart recovery, the REST endpoints, the SSE tail
bridge's byte-identity contract, REST-vs-CLI verdict/hash parity, and a
real ``repro serve`` process from start to Ctrl-C."""

import hashlib
import http.client
import json
import math
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import closing
from dataclasses import asdict, fields
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.common.errors import ConfigurationError
from repro.cpu.engine import CoreActor, Engine
from repro.faults import EXIT_ABNORMAL
from repro.lifeguards import LIFEGUARDS
from repro.platform import MONITORED_SCHEMES, SCHEMES
from repro.platform.spec import SIM_FIELDS, RunSpec
from repro.serve import (
    RunRegistry,
    parse_submission,
    scenario_library,
    start_in_thread,
)
from repro.serve import main as serve_main
from repro.trace import encode_event, read_trace, trace_hash
from repro.workloads import PAPER_BENCHMARKS, WORKLOADS
from tests.conftest import survivors


# -- pure helpers (no server) -------------------------------------------------


#: Any JSON value (``json.loads`` also accepts NaN and Infinity).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(), children, max_size=3)),
    max_leaves=6)

#: A run payload: a ``workload`` and any subset of the other fields,
#: each holding its default or any JSON value.
_SUBMISSIONS = st.fixed_dictionaries(
    {"workload": st.sampled_from(sorted(WORKLOADS)) | _JSON},
    optional=dict({field.name: st.just(field.default) | _JSON
                   for field in fields(RunSpec) if field.name != "workload"},
                  timeout=st.just(30) | _JSON))

#: A valid payload but for one field: each field's own check is reached.
_ONE_FIELD = st.builds(lambda name, value: {"workload": "lu", name: value},
                       st.sampled_from(SIM_FIELDS + ("timeout",)), _JSON)


class TestNormalizeRunConfig:
    """A ``POST /runs`` payload becomes a normalized RunSpec (plus the
    service's job timeout)."""

    def test_defaults_fill_in(self):
        spec = RunSpec.from_payload({"workload": "tainted_jump"})
        assert spec.scheme == "parallel"
        assert spec.lifeguard == "taintcheck"
        assert spec.seed == 1 and spec.threads == 2

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "workload"),
        ({"workload": "nope"}, "unknown workload"),
        ({"workload": "lu", "scheme": "bogus"}, "unknown scheme"),
        ({"workload": "lu", "lifeguard": "bogus"}, "unknown lifeguard"),
        ({"workload": "lu", "backend": "event"}, "unknown run config fields"),
        ({"workload": "lu", "scale": "huge"}, "unknown scale"),
        ({"workload": "lu", "seed": True}, "must be an integer"),
        ({"workload": "lu", "threads": 0}, "must be >= 1"),
        ({"workload": "lu", "timeout": -1}, "timeout"),
        ({"workload": "lu", "trace_filter": "bogus"}, "bogus"),
        ({"workload": "lu", "surprise": 1}, "unknown run config fields"),
        ({"workload": "lu", "executor": "pool"}, "unknown run config fields"),
        ({"workload": "lu", "timeout": math.nan}, "timeout"),
        ({"workload": "lu", "timeout": math.inf}, "timeout"),
        ({"workload": "lu", "retries": 0},
         r"unknown run config fields \['retries'\]"),
        # A field of the wrong JSON type used to escape as a TypeError
        # (unhashable) or an AttributeError: a 500.
        ({"workload": ["lu"]}, r"'workload' must be a string, got \['lu'\]"),
        ({"workload": "lu", "scheme": ["parallel"]},
         "'scheme' must be a string"),
        ({"workload": "lu", "lifeguard": ["x"]},
         "'lifeguard' must be a string"),
        ({"workload": "lu", "scheme": "none", "lifeguard": 1},
         "'lifeguard' must be a string"),
        ({"workload": "lu", "scale": {"tiny": 1}}, "'scale' must be a string"),
        ({"workload": "lu", "memory_model": ["sc"]},
         "'memory_model' must be a string"),
        ({"workload": "lu", "capture": None}, "'capture' must be a string"),
        ({"workload": "lu", "trace_filter": 5},
         "'trace_filter' must be a string, got 5"),
    ])
    def test_bad_configs_rejected(self, payload, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            parse_submission(payload)

    def test_scheme_none_clears_the_lifeguard(self):
        spec = RunSpec.from_payload({"workload": "lu", "scheme": "none",
                                     "lifeguard": "taintcheck"})
        assert spec.lifeguard is None

    def test_scheme_none_clears_no_accel(self):
        # An unmonitored run has no accelerators to turn off, so both
        # submissions describe one simulation and share one digest.
        plain = RunSpec.from_payload({"workload": "lu", "scheme": "none"})
        spec = RunSpec.from_payload({"workload": "lu", "scheme": "none",
                                     "no_accel": True})
        assert spec.no_accel is False
        assert spec.digest() == plain.digest()

    @pytest.mark.parametrize("scheme,ignored", [
        ("timesliced", {"memory_model": "tso"}),
        ("timesliced", {"capture": "per_core"}),
        ("timesliced", {"memory_model": "tso", "capture": "per_core"}),
        ("none", {"capture": "per_core"}),
    ])
    def test_fields_the_scheme_does_not_read_share_one_digest(
            self, scheme, ignored):
        # One time-sliced core has no store buffer and records no arcs,
        # and an unmonitored run captures nothing: 2-thread swaptions
        # runs the same cycles and trace hash either way.
        plain = RunSpec.from_payload({"workload": "swaptions",
                                      "scheme": scheme})
        spec = RunSpec.from_payload(dict(ignored, workload="swaptions",
                                         scheme=scheme))
        assert spec == plain
        assert spec.digest() == plain.digest()

    def test_unmonitored_keeps_the_memory_model(self):
        spec = RunSpec.from_payload({"workload": "swaptions",
                                     "scheme": "none",
                                     "memory_model": "tso"})
        assert spec.memory_model == "tso"

    def test_accepts_exactly_the_platform_schemes(self):
        for scheme in SCHEMES:
            spec = RunSpec.from_payload({"workload": "lu", "scheme": scheme})
            assert spec.scheme == scheme
        with pytest.raises(ConfigurationError,
                           match=f"valid: {', '.join(SCHEMES)}$"):
            RunSpec.from_payload({"workload": "lu", "scheme": "bogus"})

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_JSON, _SUBMISSIONS, _ONE_FIELD))
    def test_any_json_is_accepted_or_rejected_with_a_message(self, payload):
        """``POST /runs`` answers 400, never 500: whatever JSON arrives,
        ``parse_submission`` returns or raises ``ConfigurationError``."""
        try:
            parse_submission(payload)
        except ConfigurationError:
            pass

    def test_digest_covers_sim_fields_only(self):
        base, _ = parse_submission({"workload": "lu", "seed": 3})
        timed, timeout = parse_submission({"workload": "lu", "seed": 3,
                                           "timeout": 5})
        assert timeout == 5
        assert base.digest() == timed.digest()
        assert base.digest() != RunSpec.from_payload(
            {"workload": "lu", "seed": 4}).digest()


class TestScenarioLibrary:
    def test_full_cross_product(self):
        scenarios = scenario_library()
        # monitored schemes x lifeguards, plus one unmonitored entry.
        per_workload = len(MONITORED_SCHEMES) * len(LIFEGUARDS) + 1
        assert len(scenarios) == len(WORKLOADS) * per_workload
        assert {s["workload"] for s in scenarios} == set(WORKLOADS)
        assert {s["scheme"] for s in scenarios} == set(SCHEMES)
        unmonitored = [s for s in scenarios if s["scheme"] == "none"]
        assert all(s["lifeguard"] is None for s in unmonitored)

    def test_every_entry_is_a_valid_submission(self):
        # Entries used to carry `paper_suite`, which POST /runs rejects.
        for scenario in scenario_library():
            spec, timeout = parse_submission(scenario)
            assert {name: getattr(spec, name) for name in scenario} \
                == scenario
            assert timeout is None


# -- the registry without HTTP ------------------------------------------------


class TestRunRegistry:
    def _wait_terminal(self, registry, run_id, deadline=60.0):
        start = time.monotonic()
        while time.monotonic() - start < deadline:
            record = registry.get(run_id)
            if record["state"] in ("done", "failed"):
                return record
            time.sleep(0.02)
        raise AssertionError(f"run {run_id} never finished: "
                             f"{registry.get(run_id)}")

    def test_run_lifecycle_and_manifest(self, tmp_path):
        registry = RunRegistry(str(tmp_path), runners=1)
        try:
            manifest = registry.create({"workload": "tainted_jump",
                                        "seed": 7})
            assert manifest["state"] in ("queued", "running")
            record = self._wait_terminal(registry, manifest["id"])
        finally:
            registry.close()
        assert record["state"] == "done" and record["exit_code"] == 0
        result = record["result"]
        events = read_trace(record["trace_path"])
        assert result["trace_hash"] == trace_hash(events)
        assert result["trace_events"] == len(events)
        assert result["verdicts"]["kinds"] == {"tainted-critical-use": 1}
        # ... and the manifest persisted to disk says the same thing.
        with open(tmp_path / "runs" / record["id"] / "manifest.json") as f:
            assert json.load(f)["result"]["trace_hash"] \
                == result["trace_hash"]

    def test_restart_recovers_history_and_fails_interrupted_runs(
            self, tmp_path):
        registry = RunRegistry(str(tmp_path), runners=1)
        try:
            done_id = registry.create({"workload": "tainted_jump"})["id"]
            self._wait_terminal(registry, done_id)
        finally:
            registry.close()
        # Forge a manifest the previous server died holding.
        stuck_dir = tmp_path / "runs" / "r00044"
        stuck_dir.mkdir()
        stuck = {"id": "r00044", "state": "running",
                 "config": dict(asdict(RunSpec.from_payload(
                     {"workload": "lu"})), timeout=None),
                 "config_digest": "x", "trace_path": str(stuck_dir / "t"),
                 "created": "now", "started": "now", "finished": None,
                 "exit_code": None, "error": None, "attempts": 1,
                 "result": None}
        (stuck_dir / "manifest.json").write_text(json.dumps(stuck))
        reborn = RunRegistry(str(tmp_path), runners=1)
        try:
            assert reborn.get(done_id)["state"] == "done"
            recovered = reborn.get("r00044")
            assert recovered["state"] == "failed"
            assert recovered["exit_code"] == EXIT_ABNORMAL
            assert "restart" in recovered["error"]
            # Fresh ids continue after the highest recovered sequence.
            assert reborn.create({"workload": "tainted_jump"})["id"] \
                == "r00045"
        finally:
            reborn.close()

    @pytest.mark.parametrize("manifest", [
        {"id": "r00007", "state": "done"},
        {"id": "r00007", "state": "done", "config": "lu"},
        [],
    ], ids=["no-config", "config-not-object", "not-object"])
    def test_restart_skips_an_incomplete_manifest(self, tmp_path, manifest):
        """A manifest that parses but lacks a field the endpoints read
        is skipped like an unreadable one, so ``list()`` (``GET /runs``
        and ``GET /healthz``) keeps serving every other run."""
        registry = RunRegistry(str(tmp_path), runners=1)
        try:
            done_id = registry.create({"workload": "tainted_jump"})["id"]
            self._wait_terminal(registry, done_id)
        finally:
            registry.close()
        bad_dir = tmp_path / "runs" / "r00007"
        bad_dir.mkdir()
        (bad_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.warns(UserWarning, match="run manifest skipped"):
            reborn = RunRegistry(str(tmp_path), runners=1)
        try:
            assert [run["id"] for run in reborn.list()] == [done_id]
            assert reborn.get("r00007") is None
        finally:
            reborn.close()

    def test_pool_executor_timeout_maps_to_budget_exit_code(
            self, tmp_path):
        """A submission with a wall-clock timeout runs on the pool
        backend (inline cannot enforce one) and a blown budget surfaces
        as the jobs layer's timeout status / exit code 4."""
        registry = RunRegistry(str(tmp_path), runners=1)
        try:
            manifest = registry.create({"workload": "ocean",
                                        "scale": "small",
                                        "timeout": 0.05})
            record = self._wait_terminal(registry, manifest["id"],
                                         deadline=120.0)
        finally:
            registry.close()
        assert record["state"] == "failed"
        assert record["exit_code"] == 4

    def test_finished_runs_leave_no_machine_in_the_server(self, tmp_path):
        """A long-lived server must not pile up dead machines: once its
        runs are done, inline or in a worker process (``timeout``), no
        engine or core of theirs is alive in the server process, even
        with the cyclic garbage collector off."""
        def serve_runs():
            registry = RunRegistry(str(tmp_path), runners=1)
            try:
                ids = [registry.create(payload)["id"] for payload in (
                    {"workload": "tainted_jump"},
                    {"workload": "swaptions", "scheme": "timesliced"},
                    {"workload": "swaptions", "scheme": "none"},
                    {"workload": "tainted_jump", "timeout": 60},
                )]
                return [self._wait_terminal(registry, run_id)
                        for run_id in ids]
            finally:
                registry.close()

        records, alive = survivors(serve_runs, Engine, CoreActor)
        assert [record["state"] for record in records] == ["done"] * 4
        assert alive == []


# -- HTTP layer ---------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = start_in_thread(
        str(tmp_path_factory.mktemp("serve-data")), poll_interval=0.01)
    yield handle
    handle.stop()


def _get(url, timeout=30.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


def _post(url, payload, timeout=30.0):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


def _sse(url, timeout=60.0):
    """Collect a finite SSE stream into a list of (event, data) pairs."""
    frames = []
    event = None
    with urllib.request.urlopen(url, timeout=timeout) as response:
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                frames.append((event, line[len("data: "):]))
    return frames


def _wait_done(base, run_id, deadline=60.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        _status, manifest = _get(f"{base}/runs/{run_id}")
        if manifest["state"] in ("done", "failed"):
            return manifest
        time.sleep(0.02)
    raise AssertionError(f"run {run_id} never finished")


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _get(f"{server.url}/healthz")
        assert status == 200 and payload["ok"] is True

    def test_scenarios_endpoint(self, server):
        status, payload = _get(f"{server.url}/scenarios")
        assert status == 200
        assert payload["count"] == len(payload["scenarios"]) > 0
        assert payload["scenarios"] == scenario_library()
        assert payload["paper_suite"] == list(PAPER_BENCHMARKS)

    def test_unknown_endpoint_404(self, server):
        status, payload = _get(f"{server.url}/nope")
        assert status == 404 and "error" in payload

    def test_unknown_run_404(self, server):
        assert _get(f"{server.url}/runs/r99999")[0] == 404
        assert _get(f"{server.url}/runs/r99999/events")[0] == 404

    def test_wrong_method_405(self, server):
        status, _payload = _post(f"{server.url}/scenarios", {})
        assert status == 405

    def test_bad_config_400(self, server):
        status, payload = _post(f"{server.url}/runs",
                                {"workload": "bogus"})
        assert status == 400 and "unknown workload" in payload["error"]
        status, _ = _post(f"{server.url}/runs", {"workload": "lu",
                                                 "surprise": 1})
        assert status == 400

    def test_wrong_type_field_400(self, server):
        status, payload = _post(f"{server.url}/runs",
                                {"workload": "lu", "trace_filter": 5})
        assert status == 400
        assert payload["error"] == "'trace_filter' must be a string, got 5"

    def test_backend_field_rejected_400(self, server):
        status, payload = _post(f"{server.url}/runs",
                                {"workload": "lu", "backend": "event"})
        assert status == 400
        assert payload["error"] == "unknown run config fields ['backend']"

    def test_retries_field_rejected_400(self, server):
        # Every run executes once; the field went with the retries.
        status, payload = _post(f"{server.url}/runs",
                                {"workload": "lu", "retries": 0})
        assert status == 400
        assert payload["error"] == "unknown run config fields ['retries']"

    def test_executor_field_rejected_400(self, server):
        status, payload = _post(f"{server.url}/runs",
                                {"workload": "lu", "executor": "pool"})
        assert status == 400
        assert payload["error"] == "unknown run config fields ['executor']"

    @pytest.mark.parametrize("timeout", [math.nan, math.inf])
    def test_non_finite_timeout_400(self, server, timeout):
        # json.dumps writes NaN/Infinity, which json.loads accepts.
        status, payload = _post(f"{server.url}/runs",
                                {"workload": "lu", "timeout": timeout})
        assert status == 400 and "timeout" in payload["error"]

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/runs", data=b"not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        info.value.close()
        assert info.value.code == 400

    def test_submit_run_and_read_manifest(self, server):
        status, manifest = _post(f"{server.url}/runs",
                                 {"workload": "tainted_jump", "seed": 7})
        assert status == 201
        assert manifest["state"] in ("queued", "running")
        assert manifest["links"]["events"].endswith("/events")
        final = _wait_done(server.url, manifest["id"])
        assert final["state"] == "done" and final["exit_code"] == 0
        assert final["result"]["verdicts"]["count"] == 1
        listed = _get(f"{server.url}/runs")[1]["runs"]
        assert manifest["id"] in {run["id"] for run in listed}

    def test_no_accel_reaches_the_timesliced_scheme(self, server):
        # no_accel used to be dropped here: both runs simulated the
        # accelerated machine and wrote byte-identical traces.
        results = {}
        for no_accel in (False, True):
            _status, manifest = _post(
                f"{server.url}/runs",
                {"workload": "swaptions", "scheme": "timesliced",
                 "no_accel": no_accel})
            final = _wait_done(server.url, manifest["id"])
            assert final["state"] == "done" and final["exit_code"] == 0
            results[no_accel] = final["result"]
        assert results[False]["cycles"] == 21355
        assert results[True]["cycles"] == 35079
        assert results[True]["trace_hash"] != results[False]["trace_hash"]

    def test_sse_stream_is_byte_identical_to_the_trace(self, server):
        _status, manifest = _post(f"{server.url}/runs",
                                  {"workload": "tainted_jump", "seed": 11})
        run_id = manifest["id"]
        frames = _sse(f"{server.url}/runs/{run_id}/events")
        states = [json.loads(d)["state"] for e, d in frames
                  if e == "state"]
        trace_lines = [d for e, d in frames if e == "trace"]
        ends = [json.loads(d) for e, d in frames if e == "end"]
        assert len(ends) == 1 and ends[0]["state"] == "done"
        assert states[-1] == "done"
        # Byte-identity: hash of raw streamed lines == canonical hash of
        # re-parsed events == the manifest's post-run trace hash.
        digest = hashlib.sha256()
        for line in trace_lines:
            digest.update(line.encode("utf-8") + b"\n")
        manifest = _wait_done(server.url, run_id)
        assert digest.hexdigest() \
            == trace_hash(json.loads(line) for line in trace_lines) \
            == ends[0]["trace_hash"] \
            == manifest["result"]["trace_hash"]
        assert ends[0]["streamed_events"] \
            == manifest["result"]["trace_events"] == len(trace_lines)
        assert ends[0]["verdicts"]["kinds"] == {"tainted-critical-use": 1}

    def test_sse_filter_restricts_categories(self, server):
        _status, manifest = _post(f"{server.url}/runs",
                                  {"workload": "tainted_jump", "seed": 11})
        frames = _sse(
            f"{server.url}/runs/{manifest['id']}/events?filter=engine")
        cats = {json.loads(d)["cat"] for e, d in frames if e == "trace"}
        assert cats == {"engine"}
        end = next(json.loads(d) for e, d in frames if e == "end")
        assert end["filtered"] is True

    def test_sse_bad_filter_400(self, server):
        _status, manifest = _post(f"{server.url}/runs",
                                  {"workload": "tainted_jump"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(
                f"{server.url}/runs/{manifest['id']}/events?filter=bogus",
                timeout=30)
        info.value.close()
        assert info.value.code == 400

    def test_rest_run_matches_cli_run_bit_for_bit(self, server, tmp_path,
                                                  capsys):
        """The acceptance criterion: same seed over REST vs the batch
        CLI yields identical verdicts, thread by thread, and identical
        trace hashes."""
        seed = 13
        _status, manifest = _post(
            f"{server.url}/runs",
            {"workload": "tainted_jump", "seed": seed})
        rest = _wait_done(server.url, manifest["id"])["result"]

        cli_hash, cli_violations = _cli_run(seed, tmp_path, capsys)
        assert cli_hash == rest["trace_hash"]
        assert cli_violations == _violation_rows(rest["verdicts"])
        assert cli_violations  # the planted taint bug is detected


#: ``repro run`` prints each violation as ``  [kind] tN#rid detail``.
_VIOLATION_LINE = re.compile(r"^\s*\[([\w-]+)\] t(\d+)#(\d+) ", re.M)


def _cli_run(seed, tmp_path, capsys):
    """``repro run tainted_jump --seed SEED --trace FILE``, in process:
    the trace hash and the printed ``(kind, tid, rid)`` rows."""
    from repro.cli import main as cli_main

    trace = str(tmp_path / "cli.jsonl")
    assert cli_main(["run", "tainted_jump", "--seed", str(seed),
                     "--trace", trace]) == 0
    out = capsys.readouterr().out
    rows = [(kind, int(tid), int(rid))
            for kind, tid, rid in _VIOLATION_LINE.findall(out)]
    return trace_hash(read_trace(trace)), rows


def _violation_rows(verdicts):
    """A manifest's or end frame's violations as ``(kind, tid, rid)``."""
    return [(kind, tid, rid)
            for kind, tid, rid, _detail in verdicts["violations"]]


def _connection(url):
    split = urlsplit(url)
    return http.client.HTTPConnection(split.hostname, split.port, timeout=30)


def _json_reply(connection):
    """Read the response on ``connection``: (status, parsed JSON body)."""
    response = connection.getresponse()
    with response:
        return response.status, json.loads(response.read())


class TestHttpEdgeCases:
    @pytest.mark.parametrize("line", [
        b"GARBAGE", b"NOT AN HTTP REQUEST LINE", b"GET / extra HTTP/1.1",
        b"GET / HTTP/x.y"])
    def test_malformed_request_line_400(self, server, line):
        split = urlsplit(server.url)
        with socket.create_connection((split.hostname, split.port),
                                      timeout=30) as sock:
            sock.sendall(line + b"\r\n\r\n")
            with sock.makefile("rb") as reply:
                status_line = reply.readline()
        assert status_line.startswith(b"HTTP/1.1 400 ")

    def test_oversized_content_length_400(self, server):
        with closing(_connection(server.url)) as connection:
            # The head alone: the server must refuse before any body.
            connection.putrequest("POST", "/runs")
            connection.putheader("Content-Length", "2000000")
            connection.endheaders()
            status, payload = _json_reply(connection)
        assert status == 400
        assert payload == {"error": "bad Content-Length", "status": 400}

    def test_empty_body_400(self, server):
        with closing(_connection(server.url)) as connection:
            connection.request("POST", "/runs", body=b"")
            status, payload = _json_reply(connection)
        assert status == 400
        assert payload == {"error": "expected a JSON body", "status": 400}

    def test_non_utf8_body_400(self, server):
        # Used to escape as a UnicodeDecodeError: a 500.
        with closing(_connection(server.url)) as connection:
            connection.request("POST", "/runs", body=b"\x80{}")
            status, payload = _json_reply(connection)
        assert status == 400
        assert payload["error"].startswith("body is not valid JSON")

    def test_unsupported_method_501(self, server):
        # No route implements DELETE, so the server answers it as an
        # unsupported method, not as a wrong method on a known path.
        with closing(_connection(server.url)) as connection:
            connection.request("DELETE", "/runs")
            response = connection.getresponse()
            with response:
                assert response.status == 501

    def test_healthz_answers_while_a_stream_is_open(self, server):
        _status, manifest = _post(f"{server.url}/runs",
                                  {"workload": "ocean", "scale": "small"})
        run_id = manifest["id"]
        with urllib.request.urlopen(f"{server.url}/runs/{run_id}/events",
                                    timeout=120) as stream:
            for raw in stream:
                if raw.startswith(b"event: trace"):
                    break  # the run is producing; its stream is open
            status, payload = _get(f"{server.url}/healthz", timeout=10)
            assert status == 200 and payload["ok"] is True
            # The stream cannot end before its run does.
            assert _get(f"{server.url}/runs/{run_id}")[1]["state"] \
                == "running"
            rest = stream.read().decode("utf-8")
        end = json.loads(rest.rstrip().rsplit("data: ", 1)[1])
        assert end["state"] == "done" and end["exit_code"] == 0

    def test_filtered_stream_drains_a_large_backlog(self, server):
        """A filtered stream of a finished run ended at the first poll
        that returned no matching line, although ``TraceTail.poll``
        reads at most 1 MiB: matching lines after a 1 MiB stretch of
        other categories were never sent."""
        _status, manifest = _post(f"{server.url}/runs",
                                  {"workload": "tainted_jump", "seed": 5})
        final = _wait_done(server.url, manifest["id"])
        pad = encode_event({"cycle": 1, "cat": "ca", "event": "pad",
                            "detail": "x" * 200})
        marker = encode_event({"cycle": 2, "cat": "jobs",
                               "event": "marker"})
        with open(final["trace_path"], "a", encoding="utf-8") as trace:
            trace.write((pad + "\n") * 15000 + marker + "\n")
        frames = _sse(
            f"{server.url}/runs/{manifest['id']}/events?filter=jobs")
        assert [d for e, d in frames if e == "trace"][-1] == marker


class TestLifecycle:
    @staticmethod
    def _busy_socket():
        busy = socket.socket()
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        return busy

    @staticmethod
    def _runner_threads():
        return {thread for thread in threading.enumerate()
                if thread.name.startswith("serve-runner-")}

    def test_bind_failure_starts_no_dispatcher_threads(self, tmp_path):
        before = self._runner_threads()
        with self._busy_socket() as busy:
            with pytest.raises(OSError):
                start_in_thread(str(tmp_path),
                                port=busy.getsockname()[1])
        leaked = [thread.name for thread in self._runner_threads() - before
                  if thread.is_alive()]
        assert leaked == []

    def test_busy_port_exits_2(self, tmp_path, capsys):
        with self._busy_socket() as busy:
            port = busy.getsockname()[1]
            assert serve_main(["--port", str(port),
                               "--data-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro serve: cannot bind 127.0.0.1:{port}: ")
        assert err.count("\n") == 1

    def test_out_of_range_port_exits_2(self, tmp_path, capsys):
        assert serve_main(["--port", "70000",
                           "--data-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "repro serve: cannot bind 127.0.0.1:70000: ")

    def test_unusable_data_dir_exits_2(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert serve_main(["--port", "0",
                           "--data-dir", str(not_a_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: cannot create the data dir: ")
        assert str(not_a_dir) in err

    def test_zero_runners_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            serve_main(["--runners", "0", "--data-dir", str(tmp_path)])
        assert info.value.code == 2


class TestServeProcess:
    def test_submit_stream_and_interrupt_a_real_server(self, tmp_path,
                                                       capsys):
        """A ``repro serve`` process, end to end: it announces its port,
        streams a run's trace byte for byte as ``repro run --trace``
        writes it, and exits 0 on Ctrl-C with nothing left running."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        # A session of its own: every process the server starts joins
        # its process group, which must be empty once it has exited.
        with subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--data-dir", str(tmp_path / "data")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env, start_new_session=True) as proc:
            try:
                assert select.select([proc.stdout], [], [], 60)[0], \
                    "the server printed nothing for 60 s"
                first = proc.stdout.readline()
                match = re.match(r"serving on (http://\S+) ", first)
                assert match, f"no 'serving on' line: {first!r}"
                base = match.group(1)
                # The timeout runs the job in a worker process, which
                # must be gone too.
                status, manifest = _post(
                    f"{base}/runs",
                    {"workload": "tainted_jump", "seed": 7, "timeout": 120})
                assert status == 201
                frames = _sse(f"{base}/runs/{manifest['id']}/events",
                              timeout=120)
                final = _get(f"{base}/runs/{manifest['id']}")[1]
            finally:
                proc.send_signal(signal.SIGINT)
                try:
                    _out, err = proc.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    raise
        assert proc.returncode == 0
        assert "serve: interrupted, shutting down\n" in err
        assert "Traceback" not in err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

        trace_lines = [data for event, data in frames if event == "trace"]
        ends = [json.loads(data) for event, data in frames if event == "end"]
        assert len(ends) == 1 and ends[0]["state"] == "done"
        assert final["state"] == "done"
        digest = hashlib.sha256()
        for line in trace_lines:
            digest.update(line.encode("utf-8") + b"\n")
        cli_hash, cli_violations = _cli_run(7, tmp_path, capsys)
        assert digest.hexdigest() \
            == trace_hash(json.loads(line) for line in trace_lines) \
            == ends[0]["trace_hash"] == final["result"]["trace_hash"] \
            == cli_hash
        assert len(trace_lines) == final["result"]["trace_events"]
        assert cli_violations == _violation_rows(ends[0]["verdicts"])
        assert cli_violations
