"""The monitoring service: routes, the SSE tail bridge, lifecycles.

:class:`ServeApp` is the standard library's
:class:`http.server.ThreadingHTTPServer`: one thread per connection, one
request per connection (``Connection: close``), routed through a flat
regex table. Run state lives in
:class:`repro.serve.registry.RunRegistry` (whose dispatcher threads do
the actual simulating, via :mod:`repro.jobs`). The one interesting
handler is ``GET /runs/{id}/events``: it bridges the run's on-disk JSONL
flight-recorder stream to Server-Sent Events with
:class:`repro.trace.TraceTail`, following the Northroot JSONL→SSE
pattern — replay everything already on disk, then poll for new complete
lines until the run reaches a terminal state and the file is drained.
Trace lines are re-streamed **verbatim** (the SSE ``data:`` payload is
the exact file line), so a client hashing the streamed sequence with
:func:`repro.trace.trace_hash` reproduces the manifest's ``trace_hash``
bit for bit — the online stream *is* the trace.

``python -m repro serve`` exits 0 when interrupted (Ctrl-C) and 2 on a
bad flag or when its address cannot be bound or its data dir cannot be
created.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from repro.common.argtypes import positive_int
from repro.common.errors import ConfigurationError
from repro.serve.registry import RunRegistry
from repro.serve.scenarios import scenario_library
from repro.trace import TraceTail, parse_trace_filter
from repro.workloads import PAPER_BENCHMARKS

#: Seconds between tail polls while a followed run is still producing.
DEFAULT_POLL_INTERVAL = 0.05

#: A run config is a few hundred bytes; a larger body is refused.
MAX_BODY_BYTES = 1024 * 1024

#: Terminal run states: once reached, an SSE stream drains and ends.
_TERMINAL = frozenset({"done", "failed"})


class BadRequest(Exception):
    """An invalid request or payload; becomes a JSON 400."""


class ServeApp(ThreadingHTTPServer):
    """The HTTP service. Construction binds the socket and only then
    starts the run registry; ``serve_forever()`` serves, and
    ``server_close()`` (or leaving a ``with`` block) closes both."""

    def __init__(self, data_dir: str, *, host: str = "127.0.0.1",
                 port: int = 0, runners: int = 2,
                 poll_interval: float = DEFAULT_POLL_INTERVAL):
        self.registry = None  # a failed bind calls server_close()
        super().__init__((host, port), _Handler)
        self.host = host
        self.port = self.server_address[1]  # the bound port, for port=0
        self.poll_interval = poll_interval
        try:
            self.registry = RunRegistry(data_dir, runners=runners)
        except BaseException:
            self.server_close()
            raise

    @property
    def url(self) -> str:
        """The base URL clients reach this server at."""
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop ``serve_forever`` on its thread, then close everything."""
        self.shutdown()
        self.server_close()

    def server_close(self) -> None:
        """Close the socket and stop the dispatcher threads."""
        super().server_close()
        if self.registry is not None:
            self.registry.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # every response sends Connection: close
    default_request_version = "HTTP/1.1"  # a garbled line still gets a 400

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass  # no per-request log; a 500 prints its own line

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client hung up mid-response

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        split = urlsplit(self.path)
        path = unquote(split.path)
        self.query = {key: values[-1]
                      for key, values in parse_qs(split.query).items()}
        try:
            self.body = self._read_body()
            path_matched = False
            for route_method, pattern, handler in _ROUTES:
                match = pattern.match(path)
                if not match:
                    continue
                path_matched = True
                if route_method == method:
                    handler(self, *match.groups())
                    return
            if path_matched:
                self._send_error(405, f"method {method} not allowed here")
            else:
                self._send_error(404, f"no such endpoint: {path}")
        except BadRequest as exc:
            self._send_error(400, str(exc))
        except ConnectionError:
            raise
        except Exception as exc:  # noqa: BLE001 — keep serving
            print(f"serve: 500 on {path}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    # -- request and response bodies ------------------------------------------

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise BadRequest("bad Content-Length") from None
        if not 0 <= length <= MAX_BODY_BYTES:
            raise BadRequest("bad Content-Length")
        return self.rfile.read(length)

    def _json_body(self) -> object:
        if not self.body:
            raise BadRequest("expected a JSON body")
        try:
            return json.loads(self.body)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise BadRequest(f"body is not valid JSON: {exc}") from None

    def _send_head(self, status: int, headers: dict) -> None:
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Connection", "close")
        self.end_headers()

    def _send_json(self, status: int, payload: object) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n") \
            .encode("utf-8")
        self._send_head(status, {
            "Content-Type": "application/json; charset=utf-8",
            "Content-Length": str(len(body))})
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message, "status": status})

    # -- plain JSON handlers --------------------------------------------------

    def _get_healthz(self) -> None:
        self._send_json(200, {"ok": True,
                              "runs": len(self.server.registry.list())})

    def _get_scenarios(self) -> None:
        scenarios = scenario_library()
        self._send_json(200, {"count": len(scenarios),
                              "scenarios": scenarios,
                              "paper_suite": list(PAPER_BENCHMARKS)})

    def _get_runs(self) -> None:
        self._send_json(200, {"runs": self.server.registry.list()})

    def _post_runs(self) -> None:
        payload = self._json_body()
        try:
            manifest = self.server.registry.create(payload)
        except ConfigurationError as exc:
            raise BadRequest(str(exc)) from None
        manifest["links"] = {
            "self": f"/runs/{manifest['id']}",
            "events": f"/runs/{manifest['id']}/events",
        }
        self._send_json(201, manifest)

    def _get_run(self, run_id: str) -> None:
        manifest = self.server.registry.get(run_id)
        if manifest is None:
            self._send_error(404, f"no such run: {run_id}")
            return
        manifest["links"] = {"events": f"/runs/{run_id}/events"}
        self._send_json(200, manifest)

    # -- the SSE tail bridge --------------------------------------------------

    def _get_events(self, run_id: str) -> None:
        """Stream a run's verdicts + trace events live; see module doc."""
        registry = self.server.registry
        record = registry.get(run_id)
        if record is None:
            self._send_error(404, f"no such run: {run_id}")
            return
        categories = None
        if "filter" in self.query:
            try:
                categories = parse_trace_filter(self.query["filter"])
            except ConfigurationError as exc:
                raise BadRequest(str(exc)) from None
        self._send_head(200, {
            "Content-Type": "text/event-stream; charset=utf-8",
            "Cache-Control": "no-store"})  # the body ends at EOF
        streamed = 0
        last_state = None
        with TraceTail(record["trace_path"], categories=categories) as tail:
            while True:
                record = registry.get(run_id)
                frames = []
                if record["state"] != last_state:
                    last_state = record["state"]
                    frames.append(_sse_frame(
                        "state", f'{{"state":"{last_state}"}}'))
                seen = tail.events_seen
                events = tail.poll()
                frames.extend(_sse_frame("trace", raw) for raw, _ in events)
                streamed += len(events)
                if frames:
                    self.wfile.write(b"".join(frames))
                    self.wfile.flush()
                if last_state not in _TERMINAL:
                    time.sleep(self.server.poll_interval)
                elif tail.events_seen == seen:
                    break  # the run has ended and its file is drained
        end = {
            "state": record["state"],
            "exit_code": record["exit_code"],
            "error": record["error"],
            "streamed_events": streamed,
            "filtered": categories is not None,
        }
        result = record.get("result") or {}
        for key in ("trace_hash", "trace_events", "summary", "verdicts"):
            if key in result:
                end[key] = result[key]
        self.wfile.write(_sse_frame(
            "end", json.dumps(end, separators=(",", ":"), sort_keys=True)))


_ROUTES = (
    ("GET", re.compile(r"^/healthz$"), _Handler._get_healthz),
    ("GET", re.compile(r"^/scenarios$"), _Handler._get_scenarios),
    ("GET", re.compile(r"^/runs$"), _Handler._get_runs),
    ("POST", re.compile(r"^/runs$"), _Handler._post_runs),
    ("GET", re.compile(r"^/runs/([^/]+)$"), _Handler._get_run),
    ("GET", re.compile(r"^/runs/([^/]+)/events$"), _Handler._get_events),
)


def _sse_frame(event: str, data: str) -> bytes:
    """One SSE frame. ``data`` must be newline-free (JSONL lines are)."""
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")


def start_in_thread(data_dir: str, *, host: str = "127.0.0.1",
                    port: int = 0, runners: int = 2,
                    poll_interval: float = DEFAULT_POLL_INTERVAL) \
        -> ServeApp:
    """Bind a :class:`ServeApp` and serve it on a daemon thread; call
    its ``stop()`` to tear it down."""
    app = ServeApp(data_dir, host=host, port=port, runners=runners,
                   poll_interval=poll_interval)
    threading.Thread(target=app.serve_forever, name="repro-serve",
                     daemon=True).start()
    return app


# -- CLI entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="monitoring-as-a-service: REST job submission with "
                    "live SSE verdict/trace streaming",
        epilog="exit codes: 0 after Ctrl-C; 2 for a bad flag, an address "
               "that cannot be bound or a data dir that cannot be created")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8600,
                        help="bind port (default 8600; 0 picks a free one)")
    parser.add_argument("--data-dir", default="serve_data",
                        help="run directories + manifests land here "
                             "(default ./serve_data)")
    parser.add_argument("--runners", type=positive_int, default=2,
                        help="concurrent run dispatcher threads (default 2; "
                             "further submissions queue)")
    return parser


def main(argv=None) -> int:
    """``python -m repro serve``: run until interrupted."""
    args = build_parser().parse_args(argv)
    try:
        app = ServeApp(args.data_dir, host=args.host, port=args.port,
                       runners=args.runners)
    except (OSError, OverflowError) as exc:
        # A --data-dir error names its path; a bind error names no file.
        what = ("create the data dir" if getattr(exc, "filename", None)
                else f"bind {args.host}:{args.port}")
        print(f"repro serve: cannot {what}: {exc}", file=sys.stderr)
        return 2
    with app:
        # With --port 0 this line is how a client learns the port.
        print(f"serving on {app.url} (data dir: {app.registry.data_dir})",
              flush=True)
        try:
            app.serve_forever()
        except KeyboardInterrupt:
            print("serve: interrupted, shutting down", file=sys.stderr)
    return 0
