"""The one HTTP/1.1 server under every front end.

Stdlib only: one background thread runs an asyncio event loop; each
connection is a coroutine doing keep-alive HTTP/1.1 request parsing
(``readuntil`` for headers, ``readexactly`` for the body, a per-read
idle timeout so slow or hung clients cannot pin a connection forever,
and a bound on header and body size checked before anything is
allocated).  A front end subclasses :class:`HttpServer` and supplies
routing only — :meth:`HttpServer.respond`, the paths it lists in
``routes`` and, if it speaks another protocol over the same socket,
:meth:`HttpServer.upgrade`.  Everything a client can do wrong at the
connection level is answered here, once:

* a connection idle (or dribbling half a request) past
  ``conn_timeout_s`` is dropped and counted in ``n_timeouts``;
* a malformed request line or ``Content-Length`` is a JSON 400, a
  chunked body a JSON 400, oversized headers or body a JSON 413;
* a path the front end does not know is a JSON 404 listing ``routes``;
* a route that raises is a JSON 500 counted in ``n_errors`` — a broken
  route must not take the server (or the run it observes) down.

Every connection's socket reads land in one receive buffer of its own
(:data:`RECV_BUFFER_BYTES`, allocated once), which the stream reader
copies from.  asyncio's default socket transport allocates a fresh
256 KiB ``bytes`` for every read instead, and glibc can hand those pages
back and fault them in again on each one: about six minor faults per
16 KiB request on the event-loop thread.

:class:`~repro.streams.obs_server.ObservabilityServer` and
:class:`repro.serving.ServingServer` are the two front ends.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Any

from .telemetry import json_default

__all__ = ["HttpError", "HttpServer"]

_HTTP_CODES = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 415: "Unsupported Media Type",
    422: "Unprocessable Entity",
    426: "Upgrade Required", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: What a route answers: ``(status, payload, extra headers)``.
Reply = tuple[int, Any, dict[str, str]]

#: Bytes one socket read can return: the 256 KiB asyncio's selector
#: transport asks for per read, so a large body takes no more reads.
RECV_BUFFER_BYTES = 256 * 1024


class _BufferedStreamProtocol(
    asyncio.StreamReaderProtocol, asyncio.BufferedProtocol
):
    """A stream protocol the transport reads into through one reused
    buffer: the reader sees the same bytes as through ``data_received``,
    without a fresh allocation per read."""

    def __init__(self, reader, client_connected_cb, loop) -> None:
        super().__init__(reader, client_connected_cb, loop=loop)
        self._recv_buffer = memoryview(bytearray(RECV_BUFFER_BYTES))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._recv_buffer[:nbytes])


class HttpError(Exception):
    """Raised by a parser or a route to answer ``code`` with a JSON
    ``{"error": message}`` body."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class HttpServer:
    """Keep-alive HTTP/1.1 over asyncio on one daemon thread.

    ``port=0`` binds an ephemeral port; ``port`` holds the bound one
    once :meth:`start` returns.
    """

    #: Paths this front end answers, listed in the JSON 404.
    routes: tuple[str, ...] = ()
    thread_name = "httpd"

    def __init__(
        self, *, host: str, port: int, conn_timeout_s: float,
        max_body_bytes: int,
    ) -> None:
        if conn_timeout_s <= 0:
            raise ValueError("conn_timeout_s must be positive")
        self.host = host
        self.port = int(port)
        self.conn_timeout_s = float(conn_timeout_s)
        self.max_body_bytes = int(max_body_bytes)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self.n_requests = 0
        self.n_errors = 0
        self.n_timeouts = 0

    # -- what a front end supplies ----------------------------------------

    async def respond(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> Reply | None:
        """Answer one request; ``None`` means the path is unknown."""
        raise NotImplementedError

    async def upgrade(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        target: str, headers: dict[str, str],
    ) -> bool:
        """Take over a connection whose request carries an ``Upgrade``
        header; ``False`` answers it as an ordinary request."""
        return False

    # -- lifecycle --------------------------------------------------------

    def start(self, timeout_s: float = 10.0):
        """Bind and serve; returns once listening (no-op when running)."""
        if self._thread is not None:
            return self
        self._started.clear()
        self._start_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name=self.thread_name, daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("http loop failed to start in time")
        if self._start_error is not None:
            self._thread = None
            raise RuntimeError(
                f"http listener failed: {self._start_error!r}"
            )
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        def protocol() -> _BufferedStreamProtocol:
            return _BufferedStreamProtocol(
                asyncio.StreamReader(loop=loop), self._handle_conn, loop
            )

        try:
            server = loop.run_until_complete(
                loop.create_server(
                    protocol, self.host, self.port, family=socket.AF_INET
                )
            )
            self.port = server.sockets[0].getsockname()[1]
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            try:
                loop.run_until_complete(server.wait_closed())
                # Give in-flight connection handlers one pass to unwind,
                # then cancel stragglers so loop.close() is quiet.
                pending = [
                    t for t in asyncio.all_tasks(loop) if not t.done()
                ]
                for t in pending:
                    t.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:
                pass
            loop.close()

    # -- connection handling ----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.conn_timeout_s,
                    )
                except asyncio.TimeoutError:
                    self.n_timeouts += 1
                    break  # idle or hung client: just drop it
                except (
                    asyncio.IncompleteReadError, ConnectionError
                ):
                    break
                except HttpError as exc:
                    await self._send(
                        writer, exc.code, {"error": exc.message}, close=True
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                if "upgrade" in headers and await self.upgrade(
                    reader, writer, target, headers
                ):
                    return
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    reply = await self.respond(
                        method, target, headers, body
                    )
                except HttpError as exc:
                    reply = exc.code, {"error": exc.message}, {}
                except Exception as exc:
                    self.n_errors += 1
                    reply = 500, {"error": f"internal error: {exc!r}"}, {}
                if reply is None:
                    path = target.split("?", 1)[0]
                    reply = 404, {
                        "error": f"no such path: {path}",
                        "paths": list(self.routes),
                    }, {}
                self.n_requests += 1
                await self._send(writer, *reply, close=not keep_alive)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # stop() cancels the handlers of connections still open.  A
            # handler that ends cancelled makes the stream protocol's
            # done-callback print a traceback, so it returns normally.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                # stop() may cancel a handler that is already closing;
                # ending cancelled would log a traceback, as above.
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; None on clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise
        except asyncio.LimitOverrunError:  # the StreamReader's 64 KiB
            raise HttpError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise HttpError(400, f"malformed request line: {lines[0]!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                n = -1
            if n < 0:
                raise HttpError(400, f"bad content-length: {length!r}")
            if n > self.max_body_bytes:
                raise HttpError(
                    413, f"body of {n} bytes exceeds "
                         f"{self.max_body_bytes}"
                )
            if n:
                body = await reader.readexactly(n)
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            raise HttpError(400, "chunked bodies not supported")
        return method.upper(), target, headers, body

    async def _send(
        self, writer: asyncio.StreamWriter, code: int, payload: Any,
        extra_headers: dict[str, str] | None = None, *, close: bool = False,
    ) -> None:
        """Write one response: ``bytes``/``str`` raw (under the
        ``Content-Type`` among ``extra_headers``), anything else as JSON
        — numpy scalars included."""
        extra = extra_headers or {}
        if isinstance(payload, (bytes, str)):
            data = payload.encode() if isinstance(payload, str) else payload
            ctype = extra.get("Content-Type", "text/plain")
        else:
            data = json.dumps(
                payload, separators=(",", ":"), default=json_default
            ).encode()
            ctype = "application/json"
        head = [
            f"HTTP/1.1 {code} {_HTTP_CODES.get(code, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(data)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        head += [
            f"{k}: {v}" for k, v in extra.items() if k != "Content-Type"
        ]
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode() + data
        )
        await writer.drain()
