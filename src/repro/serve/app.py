"""The monitoring service: routes, the SSE tail bridge, lifecycles.

Request handling is a flat route table over :mod:`repro.serve.http`;
run state lives in :class:`repro.serve.registry.RunRegistry` (whose
dispatcher threads do the actual simulating, via :mod:`repro.jobs`).
The one interesting handler is ``GET /runs/{id}/events``: it bridges
the run's on-disk JSONL flight-recorder stream to Server-Sent Events
with :class:`repro.trace.TraceTail`, following the Northroot
JSONL→SSE pattern — replay everything already on disk, then poll for
new complete lines until the run reaches a terminal state and the file
is drained. Trace lines are re-streamed **verbatim** (the SSE ``data:``
payload is the exact file line), so a client hashing the streamed
sequence with :func:`repro.trace.trace_hash` reproduces the manifest's
``trace_hash`` bit for bit — the online stream *is* the trace.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
import threading
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.serve.http import (
    BadRequest,
    Request,
    error_response,
    json_response,
    read_request,
    sse_frame,
    sse_headers,
)
from repro.serve.registry import RunRegistry
from repro.serve.scenarios import scenario_library
from repro.trace import TraceTail, parse_trace_filter

#: Seconds between tail polls while a followed run is still producing.
DEFAULT_POLL_INTERVAL = 0.05

#: Terminal run states: once reached, an SSE stream drains and ends.
_TERMINAL = frozenset({"done", "failed"})


class ServeApp:
    """The HTTP application; bind with :meth:`start`."""

    def __init__(self, data_dir: str, *, host: str = "127.0.0.1",
                 port: int = 0, runners: int = 2,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 tracer=None):
        self.data_dir = data_dir
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.runners = runners
        self.poll_interval = poll_interval
        self.tracer = tracer
        self.registry: Optional[RunRegistry] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._routes = (
            ("GET", re.compile(r"^/healthz$"), self._get_healthz),
            ("GET", re.compile(r"^/scenarios$"), self._get_scenarios),
            ("GET", re.compile(r"^/runs$"), self._get_runs),
            ("POST", re.compile(r"^/runs$"), self._post_runs),
            ("GET", re.compile(r"^/runs/([^/]+)$"), self._get_run),
            ("GET", re.compile(r"^/runs/([^/]+)/events$"), self._get_events),
        )

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> int:
        """Bind the listening socket and start the run registry;
        returns the actual bound port (useful with ``port=0``)."""
        self.registry = RunRegistry(self.data_dir, runners=self.runners,
                                    tracer=self.tracer)
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the socket and stop the dispatcher threads."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.registry is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.registry.close)
            self.registry = None

    # -- connection handling --------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except BadRequest as exc:
                writer.write(error_response(400, str(exc)))
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                return
            except Exception as exc:  # noqa: BLE001 — keep serving
                print(f"serve: 500 on {getattr(request, 'path', '?')}: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                writer.write(error_response(
                    500, f"{type(exc).__name__}: {exc}"))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _dispatch(self, request: Request, writer) -> None:
        path_matched = False
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if not match:
                continue
            path_matched = True
            if request.method == method:
                await handler(request, writer, *match.groups())
                return
        if path_matched:
            writer.write(error_response(
                405, f"method {request.method} not allowed here"))
        else:
            writer.write(error_response(
                404, f"no such endpoint: {request.path}"))

    # -- plain JSON handlers --------------------------------------------------

    async def _get_healthz(self, request, writer) -> None:
        writer.write(json_response(200, {"ok": True, "runs": len(
            self.registry.list())}))

    async def _get_scenarios(self, request, writer) -> None:
        scenarios = scenario_library()
        writer.write(json_response(200, {"count": len(scenarios),
                                         "scenarios": scenarios}))

    async def _get_runs(self, request, writer) -> None:
        writer.write(json_response(200, {"runs": self.registry.list()}))

    async def _post_runs(self, request, writer) -> None:
        payload = request.json()
        try:
            manifest = self.registry.create(payload)
        except ConfigurationError as exc:
            raise BadRequest(str(exc)) from None
        manifest["links"] = {
            "self": f"/runs/{manifest['id']}",
            "events": f"/runs/{manifest['id']}/events",
        }
        writer.write(json_response(201, manifest))

    async def _get_run(self, request, writer, run_id: str) -> None:
        manifest = self.registry.get(run_id)
        if manifest is None:
            writer.write(error_response(404, f"no such run: {run_id}"))
            return
        manifest["links"] = {"events": f"/runs/{run_id}/events"}
        writer.write(json_response(200, manifest))

    # -- the SSE tail bridge --------------------------------------------------

    async def _get_events(self, request, writer, run_id: str) -> None:
        """Stream a run's verdicts + trace events live; see module doc."""
        record = self.registry.get(run_id)
        if record is None:
            writer.write(error_response(404, f"no such run: {run_id}"))
            return
        categories = None
        if "filter" in request.query:
            try:
                categories = parse_trace_filter(request.query["filter"])
            except ConfigurationError as exc:
                raise BadRequest(str(exc)) from None
        writer.write(sse_headers())
        await writer.drain()
        streamed = 0
        last_state = None
        with TraceTail(record["trace_path"], categories=categories) as tail:
            while True:
                record = self.registry.get(run_id)
                if record["state"] != last_state:
                    last_state = record["state"]
                    writer.write(sse_frame(
                        "state", f'{{"state":"{last_state}"}}'))
                for raw, _payload in tail.poll():
                    writer.write(sse_frame("trace", raw))
                    streamed += 1
                await writer.drain()
                if last_state in _TERMINAL:
                    while True:  # drain whatever landed after the state flip
                        events = tail.poll()
                        if not events:
                            break
                        for raw, _payload in events:
                            writer.write(sse_frame("trace", raw))
                            streamed += 1
                        await writer.drain()
                    break
                await asyncio.sleep(self.poll_interval)
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
            writer.write(sse_frame(
                "end", json.dumps(end, separators=(",", ":"),
                                  sort_keys=True)))
            await writer.drain()


# -- embedding helpers (tests, the smoke harness) -----------------------------


class ServerHandle:
    """A server running in a background thread; ``stop()`` to tear down."""

    def __init__(self, app: ServeApp, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.app = app
        self.loop = loop
        self.thread = thread

    @property
    def url(self) -> str:
        return f"http://{self.app.host}:{self.app.port}"

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.app.stop(),
                                         self.loop).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)


def start_in_thread(data_dir: str, *, host: str = "127.0.0.1",
                    port: int = 0, runners: int = 2,
                    poll_interval: float = DEFAULT_POLL_INTERVAL) \
        -> ServerHandle:
    """Run a :class:`ServeApp` on a daemon thread (its own event loop)."""
    started = threading.Event()
    failure: list = []
    holder: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        app = ServeApp(data_dir, host=host, port=port, runners=runners,
                       poll_interval=poll_interval)
        try:
            loop.run_until_complete(app.start())
        except Exception as exc:  # noqa: BLE001 — surface to the caller
            failure.append(exc)
            started.set()
            loop.close()
            return
        holder["app"], holder["loop"] = app, loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=15):
        raise RuntimeError("serve thread failed to start in time")
    if failure:
        raise failure[0]
    return ServerHandle(holder["app"], holder["loop"], thread)


# -- CLI entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="monitoring-as-a-service: REST job submission with "
                    "live SSE verdict/trace streaming")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8600,
                        help="bind port (default 8600; 0 picks a free one)")
    parser.add_argument("--data-dir", default="serve_data",
                        help="run directories + manifests land here "
                             "(default ./serve_data)")
    parser.add_argument("--runners", type=int, default=2,
                        help="concurrent run dispatcher threads (default 2; "
                             "further submissions queue)")
    return parser


def main(argv=None) -> int:
    """``python -m repro serve``: run until interrupted."""
    args = build_parser().parse_args(argv)

    async def _serve() -> None:
        app = ServeApp(args.data_dir, host=args.host, port=args.port,
                       runners=args.runners)
        port = await app.start()
        # The smoke harness parses this line to find the bound port.
        print(f"serving on http://{args.host}:{port} "
              f"(data dir: {app.registry.data_dir})", flush=True)
        try:
            await app.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await app.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down", file=sys.stderr)
    return 0
