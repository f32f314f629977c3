"""Asyncio HTTP plumbing of the job server.

The job server (:class:`repro.service.server.SimulationService`) is a
stdlib-only asyncio HTTP server: bind a socket, serve until a stop is
requested (SIGINT/SIGTERM or an embedder calling
:meth:`HttpServiceBase.request_stop`), then drain gracefully.  This
module holds that skeleton; what a request *does* lives in the
server's ``_route``.

The request parser is deliberately minimal (one request per
connection, ``Connection: close``): the protocol is JSON-over-HTTP
between our own client, agents and server, not a general web server.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
import threading

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpServiceBase:
    """Lifecycle + connection plumbing of one asyncio HTTP service.

    Subclasses implement::

        async def _route(method, path, body, writer)   # request logic
        async def _on_start()                          # build resources
        async def _on_drain()                          # graceful teardown

    ``_on_start`` runs once the socket is bound and listening (the
    server forks its local agents there; each closes its copy of
    ``_listener``).  ``_on_drain`` runs before the listening socket
    closes, so a draining service can keep answering the requests its
    own shutdown protocol needs (e.g. workers reporting their last
    results).
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8321) -> None:
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._server: asyncio.base_events.Server | None = None
        self._listener: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_requested: asyncio.Event | None = None
        self._drained = False
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------- lifecycle

    async def _on_start(self) -> None:
        """Build subclass resources; runs after the socket binds."""

    async def _on_drain(self) -> None:
        """Graceful teardown; runs before the socket closes."""

    async def start(self) -> None:
        """Bind the socket, build resources, install signal handlers."""
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        self._listener = socket.create_server((self.host, self.port))
        self._server = await asyncio.start_server(
            self._handle_connection, sock=self._listener)
        self.port = self._listener.getsockname()[1]
        await self._on_start()
        self._install_signal_handlers()
        self._ready.set()

    async def run_async(self) -> None:
        """Serve until a stop is requested, then drain and return."""
        try:
            await self.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        try:
            await self._stop_requested.wait()
        finally:
            await self.drain()
            self._loop = None

    def run(self) -> None:
        """Blocking entry point (``python -m repro.service ...``)."""
        asyncio.run(self.run_async())

    def start_in_thread(self) -> threading.Thread:
        """Run the service on a daemon thread (tests, embedding)."""
        thread = threading.Thread(target=self._run_quietly,
                                  name=type(self).__name__, daemon=True)
        thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("service did not start within 60s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}")
        return thread

    def _run_quietly(self) -> None:
        try:
            self.run()
        except BaseException:
            # run_async already recorded the startup error; a crash
            # after startup surfaces through the joined thread's logs
            pass

    def request_stop(self) -> None:
        """Thread-safe stop signal: begin the graceful drain."""
        loop = self._loop
        if loop is not None and self._stop_requested is not None:
            loop.call_soon_threadsafe(self._stop_requested.set)

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self._stop_requested.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return  # not the main thread: embedder owns signals

    async def drain(self) -> None:
        """Run the subclass teardown, then close the listening socket."""
        if self._drained:
            return
        self._drained = True
        await self._on_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------ HTTP

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    ValueError, ConnectionError):
                return
            self.on_request()
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:
            try:
                self._write_response(writer, 500,
                                     {"error": f"internal: {exc}"})
                await writer.drain()
            except Exception:
                pass
            print(f"service: request handler error: {exc!r}",
                  file=sys.stderr)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def on_request(self) -> None:
        """Hook: called once per successfully parsed request."""

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        raise NotImplementedError

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        request_line = await asyncio.wait_for(reader.readline(), timeout=30)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            if line in (b"\r\n", b"\n", b""):
                break
            name, __, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], headers, body

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        body: dict | str, *,
                        extra_headers: dict | None = None) -> None:
        if isinstance(body, str):
            payload = body.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            payload = (json.dumps(body, sort_keys=True) + "\n").encode()
            content_type = "application/json"
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(payload)}",
                "Connection: close"]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
