"""The monitoring service (repro.serve): config validation, the run
registry lifecycle + restart recovery, the REST endpoints, the SSE tail
bridge's byte-identity contract, and REST-vs-CLI verdict/hash parity."""

import hashlib
import json
import math
import time
import urllib.error
import urllib.request

import pytest

from repro.common.errors import ConfigurationError
from repro.faults import EXIT_ABNORMAL
from repro.lifeguards import LIFEGUARDS
from repro.serve import (
    RunRegistry,
    normalize_run_config,
    run_digest,
    scenario_library,
    start_in_thread,
)
from repro.trace import read_trace, trace_hash
from repro.workloads import WORKLOADS


# -- pure helpers (no server) -------------------------------------------------


class TestNormalizeRunConfig:
    def test_defaults_fill_in(self):
        config = normalize_run_config({"workload": "tainted_jump"})
        assert config["scheme"] == "parallel"
        assert config["lifeguard"] == "taintcheck"
        assert config["seed"] == 1 and config["threads"] == 2

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
    ])
    def test_bad_configs_rejected(self, payload, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            normalize_run_config(payload)

    def test_scheme_none_clears_the_lifeguard(self):
        config = normalize_run_config({"workload": "lu", "scheme": "none",
                                       "lifeguard": "taintcheck"})
        assert config["lifeguard"] is None

    def test_digest_covers_sim_fields_only(self):
        base = normalize_run_config({"workload": "lu", "seed": 3})
        assert run_digest(base) == run_digest(dict(base, timeout=5,
                                                   retries=2))
        assert run_digest(base) != run_digest(dict(base, seed=4))


class TestScenarioLibrary:
    def test_full_cross_product(self):
        scenarios = scenario_library()
        # monitored schemes x lifeguards, plus one unmonitored entry.
        per_workload = 2 * len(LIFEGUARDS) + 1
        assert len(scenarios) == len(WORKLOADS) * per_workload
        assert {s["workload"] for s in scenarios} == set(WORKLOADS)
        unmonitored = [s for s in scenarios if s["scheme"] == "none"]
        assert all(s["lifeguard"] is None for s in unmonitored)


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
                 "config": normalize_run_config({"workload": "lu"}),
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

    def test_pool_executor_timeout_maps_to_budget_exit_code(
            self, tmp_path):
        """A submission with a wall-clock timeout runs on the pool
        backend (inline cannot enforce one) and a blown budget surfaces
        as the jobs layer's timeout status / exit code 4."""
        registry = RunRegistry(str(tmp_path), runners=1)
        try:
            manifest = registry.create({"workload": "ocean",
                                        "scale": "small",
                                        "timeout": 0.05, "retries": 0})
            record = self._wait_terminal(registry, manifest["id"],
                                         deadline=120.0)
        finally:
            registry.close()
        assert record["state"] == "failed"
        assert record["exit_code"] == 4


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
        return exc.code, json.loads(exc.read())


def _post(url, payload, timeout=30.0):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
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
        sample = payload["scenarios"][0]
        assert {"workload", "scheme", "lifeguard",
                "paper_suite"} <= set(sample)

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

    def test_backend_field_rejected_400(self, server):
        status, payload = _post(f"{server.url}/runs",
                                {"workload": "lu", "backend": "event"})
        assert status == 400
        assert payload["error"] == "unknown run config fields ['backend']"

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
        assert info.value.code == 400

    def test_rest_run_matches_cli_run_bit_for_bit(self, server, tmp_path,
                                                  capsys):
        """The acceptance criterion: same seed over REST vs the batch
        CLI yields identical verdict summaries and trace hashes."""
        from repro.cli import main as cli_main

        seed = 13
        _status, manifest = _post(
            f"{server.url}/runs",
            {"workload": "tainted_jump", "seed": seed})
        rest = _wait_done(server.url, manifest["id"])["result"]

        cli_trace = str(tmp_path / "cli.jsonl")
        assert cli_main(["run", "tainted_jump", "--seed", str(seed),
                         "--trace", cli_trace]) == 0
        out = capsys.readouterr().out
        assert trace_hash(read_trace(cli_trace)) == rest["trace_hash"]
        for kind, count in rest["verdicts"]["kinds"].items():
            assert out.count(f"[{kind}]") == count
