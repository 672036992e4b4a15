"""End-to-end smoke check for the monitoring service (CI ``serve-smoke``).

Exercises the whole online-monitoring promise in one pass:

1. start a real ``python -m repro serve`` subprocess (unless ``--url``
   points at one already running),
2. ``POST /runs`` a small Figure-5-style taint run (the
   ``tainted_jump`` planted-bug workload),
3. stream ``GET /runs/{id}/events`` until the ``end`` frame, collecting
   every ``trace`` data line verbatim,
4. assert the streamed sequence is byte-identical to the run's trace —
   the hash over the raw streamed lines, the hash over the re-parsed
   events, the ``end`` frame's ``trace_hash`` and the persisted
   manifest's ``trace_hash`` must all be equal, and
5. run the *same* seed through the batch CLI (``python -m repro run
   --trace``) and assert the CLI's trace hash and reported violations
   match the streamed verdict summary.

Exit code 0 on success, 1 on any mismatch. Run it locally with::

    PYTHONPATH=src python -m repro.serve.smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.trace import read_trace, trace_hash

#: The CLI prints violations as ``  [kind] t0#12 detail``.
_VIOLATION_LINE = re.compile(r"^\s*\[([\w-]+)\] t(\d+)#(\S+) ")

_SERVING_LINE = re.compile(r"serving on (http://\S+)")


def _http_json(url: str, payload: Optional[dict] = None,
               timeout: float = 30.0) -> dict:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def stream_sse(url: str, timeout: float = 120.0) \
        -> Tuple[List[str], Dict[str, object]]:
    """Collect a finite SSE stream: (raw trace lines, end payload)."""
    trace_lines: List[str] = []
    end_payload: Dict[str, object] = {}
    event = None
    with urllib.request.urlopen(url, timeout=timeout) as response:
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = line[len("data: "):]
                if event == "trace":
                    trace_lines.append(data)
                elif event == "end":
                    end_payload = json.loads(data)
    if not end_payload:
        raise AssertionError("SSE stream closed without an 'end' frame")
    return trace_lines, end_payload


def _wait_healthy(base_url: str, deadline: float = 30.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        try:
            _http_json(base_url + "/healthz", timeout=5)
            return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.2)
    raise AssertionError(f"server at {base_url} never became healthy")


def _spawn_server(data_dir: str, log_path: Optional[str]) \
        -> Tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--data-dir", data_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    first = proc.stdout.readline()
    match = _SERVING_LINE.search(first or "")
    if not match:
        proc.kill()
        raise AssertionError(f"server did not announce itself: {first!r}")
    log = open(log_path, "w", encoding="utf-8") if log_path else sys.stderr
    if log_path:
        log.write(first)

    def _pump() -> None:
        shutil.copyfileobj(proc.stdout, log)
        if log_path:
            log.close()

    threading.Thread(target=_pump, daemon=True).start()
    return proc, match.group(1).rstrip("/")


def _cli_reference(config: dict, trace_path: str) -> Tuple[str, Counter]:
    """Run the same seed through the batch CLI; returns (hash, verdicts)."""
    cmd = [sys.executable, "-m", "repro", "run", config["workload"],
           "--seed", str(config["seed"]),
           "--threads", str(config["threads"]),
           "--lifeguard", config["lifeguard"],
           "--scheme", config["scheme"],
           "--trace", trace_path]
    result = subprocess.run(cmd, capture_output=True, text=True, check=True)
    verdicts = Counter()
    for line in result.stdout.splitlines():
        match = _VIOLATION_LINE.match(line)
        if match:
            verdicts[(match.group(1), int(match.group(2)))] += 1
    return trace_hash(read_trace(trace_path)), verdicts


def run_smoke(base_url: Optional[str], data_dir: str,
              log_path: Optional[str], seed: int) -> int:
    """The whole smoke pass (module docstring steps 1-5); returns the
    process exit code."""
    proc = None
    if base_url is None:
        proc, base_url = _spawn_server(data_dir, log_path)
    try:
        _wait_healthy(base_url)

        scenarios = _http_json(base_url + "/scenarios")
        assert scenarios["count"] > 0, "empty scenario library"

        config = {"workload": "tainted_jump", "scheme": "parallel",
                  "lifeguard": "taintcheck", "seed": seed, "threads": 2}
        manifest = _http_json(base_url + "/runs", payload=config)
        run_id = manifest["id"]
        print(f"smoke: submitted {run_id} ({config['workload']} "
              f"seed {seed}) -> state {manifest['state']}")

        trace_lines, end = stream_sse(
            f"{base_url}/runs/{run_id}/events")
        assert end["state"] == "done", f"run ended {end['state']}: {end}"
        print(f"smoke: streamed {len(trace_lines)} trace events, "
              f"end frame verdicts: {end['verdicts']['kinds']}")

        # The streamed sequence must BE the trace, byte for byte: hash
        # the raw lines, re-parse and hash canonically, and compare to
        # both the end frame and the persisted manifest.
        raw_digest = hashlib.sha256()
        for line in trace_lines:
            raw_digest.update(line.encode("utf-8") + b"\n")
        streamed_hash = raw_digest.hexdigest()
        parsed_hash = trace_hash(json.loads(line) for line in trace_lines)
        final = _http_json(f"{base_url}/runs/{run_id}")
        assert final["state"] == "done", final["state"]
        manifest_hash = final["result"]["trace_hash"]
        assert streamed_hash == parsed_hash == end["trace_hash"] \
            == manifest_hash, (
            f"stream/manifest divergence: raw {streamed_hash}, "
            f"parsed {parsed_hash}, end {end['trace_hash']}, "
            f"manifest {manifest_hash}")
        assert len(trace_lines) == final["result"]["trace_events"]

        cli_hash, cli_verdicts = _cli_reference(
            config, trace_path=data_dir + "/cli_reference.jsonl")
        assert cli_hash == streamed_hash, (
            f"REST vs CLI trace divergence: {streamed_hash} vs {cli_hash}")
        sse_verdicts = Counter(
            (kind, tid) for kind, tid, _rid, _detail
            in end["verdicts"]["violations"])
        assert sse_verdicts == cli_verdicts, (
            f"REST vs CLI verdict divergence: {dict(sse_verdicts)} "
            f"vs {dict(cli_verdicts)}")
        assert sse_verdicts, "expected the planted taint bug to be detected"

        print(f"smoke: PASS — streamed == on-disk == CLI "
              f"(trace_hash {streamed_hash[:16]}..., "
              f"{sum(sse_verdicts.values())} violations)")
        return 0
    except AssertionError as exc:
        print(f"smoke: FAIL — {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


def main(argv=None) -> int:
    """CLI entry point for ``python -m repro.serve.smoke``."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.smoke",
        description="end-to-end serve smoke: REST submit, SSE stream, "
                    "byte-compare against a batch CLI run")
    parser.add_argument("--url", default=None,
                        help="use an already-running server instead of "
                             "spawning one")
    parser.add_argument("--data-dir", default=None,
                        help="server data dir (default: a fresh tempdir)")
    parser.add_argument("--server-log", default=None,
                        help="write the spawned server's output here")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.data_dir:
        return run_smoke(args.url, args.data_dir, args.server_log, args.seed)
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as data_dir:
        return run_smoke(args.url, data_dir, args.server_log, args.seed)


if __name__ == "__main__":
    sys.exit(main())
