"""Asyncio HTTP/1.1 + WebSocket front end over :class:`PCAService`.

Stdlib only: one background thread runs an asyncio event loop; each
connection is a coroutine doing keep-alive HTTP/1.1 request parsing
(``readuntil`` for headers, ``readexactly`` for the body, a per-read
idle timeout so slow/hung clients cannot pin a connection forever).
The routes are a thin codec over the transport-independent service
core — all policy (admission, snapshot reads, readiness) lives in
:mod:`repro.serving.service`.  Row bodies arrive as JSON
(``application/json``) or as one binary block of :mod:`.codec`
(``application/octet-stream``); both reach the service as the same
rows.

The one thing this layer decides itself is *when* an ingest is routed:
an ingest whose tenant queue is already more than one lane block deep
is held (a non-blocking wait on the connection's own coroutine, at most
:data:`ACK_HOLD_MAX_S`) until the lane has caught up, so a closed-loop
client is paced by its acks to the rate the lane applies at instead of
filling the queue to the 429 bound.  Admission itself is untouched: a
hold that expires falls through to the same valve and queue checks.

Routes::

    GET  /live                             liveness
    GET  /ready                            readiness (503 when degraded)
    GET  /metrics                          Prometheus text exposition
    GET  /status                           full serving status JSON
    POST /v1/<tenant>/ingest               rows -> 202/429
    POST /v1/<tenant>/transform            rows -> coefficients
    POST /v1/<tenant>/reconstruction_error rows -> r^2 per row
    POST /v1/<tenant>/outlier_score        rows -> scores + flags
                                           (rows: {"rows": [[...], ...]}
                                           or an octet-stream block;
                                           malformed 400, other types 415)
    GET  /v1/<tenant>/eigenspectra[?top_k=&include_basis=]
    GET  /v1/<tenant>/snapshot             snapshot metadata only
    GET  /v1/<tenant>/events               WebSocket push (drift/health/
                                           snapshot/lane events)

Every 429 carries a ``Retry-After`` header (seconds, from the tenant
valve).  WebSocket is the minimal RFC 6455 server subset: text frames
out, close/ping handled in, client masking required.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import socket
import struct
import threading
import time
import urllib.parse
from typing import Any

from .codec import BlockCodecError, decode_block
from .service import PCAService

__all__ = ["ServingServer"]

#: Longest one ingest is held for its tenant's lane to catch up; after
#: that it is routed whatever the queue depth (and may be answered 429).
ACK_HOLD_MAX_S = 1.0
#: How often a held ingest looks at the queue depth again.
ACK_HOLD_POLL_S = 0.001

_WS_MAGIC = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

_HTTP_CODES = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 415: "Unsupported Media Type",
    422: "Unprocessable Entity",
    426: "Upgrade Required", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _BadRequest(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class ServingServer:
    """The network face of one :class:`PCAService` deployment."""

    def __init__(
        self,
        service: PCAService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        conn_timeout_s: float = 30.0,
        max_body_bytes: int = 16 * 1024 * 1024,
        ws_ping_interval_s: float = 15.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = int(port)  # 0 = ephemeral; real port set at start()
        self.conn_timeout_s = float(conn_timeout_s)
        self.max_body_bytes = int(max_body_bytes)
        self.ws_ping_interval_s = float(ws_ping_interval_s)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self.n_requests = 0
        self.n_ws_connections = 0

    # -- lifecycle --------------------------------------------------------

    def start(self, timeout_s: float = 10.0) -> "ServingServer":
        """Boot the service and the listener; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self.service.start()
        self._thread = threading.Thread(
            target=self._run_loop, name="serving-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("serving loop failed to start in time")
        if self._start_error is not None:
            raise RuntimeError(
                f"serving listener failed: {self._start_error!r}"
            )
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_conn, self.host, self.port,
                    family=socket.AF_INET,
                )
            )
            self._server = server
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
                    break  # idle keep-alive connection: just drop it
                except (
                    asyncio.IncompleteReadError, ConnectionError
                ):
                    break
                except asyncio.LimitOverrunError:
                    await self._send_json(
                        writer, 413, {"error": "headers too large"},
                        close=True,
                    )
                    break
                except _BadRequest as exc:
                    await self._send_json(
                        writer, exc.code, {"error": exc.message},
                        close=True,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                if self._is_ws_upgrade(headers):
                    await self._handle_websocket(
                        reader, writer, path, headers
                    )
                    return
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                label = self._route_label(path)
                if method == "POST" and label == "ingest":
                    await self._pace_ingest(path)
                t0 = time.perf_counter()
                code, payload, extra = self._route(
                    method, path, headers.get("content-type", ""), body
                )
                self.service.observe_latency(
                    label, time.perf_counter() - t0
                )
                self.n_requests += 1
                if isinstance(payload, (bytes, str)):
                    await self._send_raw(
                        writer, code, payload, extra,
                        close=not keep_alive,
                    )
                else:
                    await self._send_json(
                        writer, code, payload, extra_headers=extra,
                        close=not keep_alive,
                    )
                if not keep_alive:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; None on clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _BadRequest(400, f"malformed request line: {lines[0]!r}")
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
                raise _BadRequest(400, f"bad content-length: {length!r}")
            if n > self.max_body_bytes:
                raise _BadRequest(
                    413, f"body of {n} bytes exceeds "
                         f"{self.max_body_bytes}"
                )
            if n:
                body = await reader.readexactly(n)
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            raise _BadRequest(400, "chunked bodies not supported")
        return method.upper(), target, headers, body

    # -- routing ----------------------------------------------------------

    @staticmethod
    def _route_label(path: str) -> str:
        """Collapse tenant-specific paths to one histogram label."""
        parts = path.split("?", 1)[0].strip("/").split("/")
        if len(parts) == 3 and parts[0] == "v1":
            return parts[2]
        return "/" + "/".join(parts)

    async def _pace_ingest(self, path: str) -> None:
        """Hold an ingest while its tenant's queue is more than one lane
        block (``spec.max_block_rows``) deep.

        The lane pops at most that many rows per update, so at the
        threshold it still has a full block waiting when it finishes the
        current one: holding costs the lane nothing and keeps the
        backlog — memory and snapshot staleness — at a block or two.
        Only this connection waits; the loop keeps serving the others.
        """
        tenant = path.split("?", 1)[0].strip("/").split("/")[1]
        st = self.service.get_tenants().get(tenant)
        if st is None:
            return  # the route answers 404 (or auto-creates the tenant)
        limit = st.spec.max_block_rows
        if st.queue.depth_rows <= limit:
            return
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < ACK_HOLD_MAX_S:
            await asyncio.sleep(ACK_HOLD_POLL_S)
            if st.queue.depth_rows <= limit:
                break
        self.service.observe_ack_hold(st, time.perf_counter() - t0)

    def _route(
        self, method: str, target: str, content_type: str, body: bytes
    ) -> tuple[int, Any, dict[str, str]]:
        parsed = urllib.parse.urlsplit(target)
        path = parsed.path
        query = urllib.parse.parse_qs(parsed.query)
        svc = self.service
        try:
            if path in ("/live", "/healthz"):
                code, payload = svc.live()
                return code, payload, {}
            if path == "/ready":
                code, payload = svc.ready()
                extra = {}
                if code == 503 and "retry_after_s" in payload:
                    retry = payload["retry_after_s"]
                    extra["Retry-After"] = f"{max(retry, 0.001):.3f}"
                return code, payload, extra
            if path == "/metrics":
                return 200, svc.telemetry.metrics.to_prometheus(), {
                    "Content-Type": "text/plain; version=0.0.4",
                }
            if path == "/status":
                code, payload = svc.status()
                return code, payload, {}
            parts = path.strip("/").split("/")
            if len(parts) == 3 and parts[0] == "v1":
                return self._route_tenant(
                    method, parts[1], parts[2], content_type, body, query
                )
            return 404, {
                "error": "unknown path", "path": path,
                "hint": "see docs/serving.md for the API surface",
            }, {}
        except _BadRequest as exc:
            return exc.code, {"error": exc.message}, {}
        except Exception as exc:  # pragma: no cover - last-resort guard
            return 500, {"error": f"internal error: {exc!r}"}, {}

    def _route_tenant(
        self, method: str, tenant: str, op: str, content_type: str,
        body: bytes, query: dict[str, list[str]],
    ) -> tuple[int, Any, dict[str, str]]:
        svc = self.service
        post_ops = {
            "ingest", "transform", "reconstruction_error", "outlier_score",
        }
        if op in post_ops:
            if method != "POST":
                return 405, {"error": f"{op} requires POST"}, {
                    "Allow": "POST",
                }
            rows = self._parse_rows(content_type, body)
            if op == "ingest":
                code, payload = svc.ingest(tenant, rows)
            elif op == "transform":
                code, payload = svc.transform(tenant, rows)
            elif op == "reconstruction_error":
                code, payload = svc.reconstruction_error(tenant, rows)
            else:
                code, payload = svc.outlier_score(tenant, rows)
            extra = {}
            if code in (429, 503) and "retry_after_s" in payload:
                retry = payload.get("retry_after_s", 0.05)
                extra["Retry-After"] = f"{max(retry, 0.001):.3f}"
            return code, payload, extra
        if op == "eigenspectra":
            if method not in ("GET", "POST"):
                return 405, {"error": "eigenspectra requires GET"}, {
                    "Allow": "GET, POST",
                }
            top_k = None
            if "top_k" in query:
                try:
                    top_k = int(query["top_k"][0])
                except ValueError:
                    raise _BadRequest(400, "top_k must be an integer")
            include_basis = (
                query.get("include_basis", ["0"])[0].lower()
                in ("1", "true", "yes")
            )
            code, payload = svc.eigenspectra(
                tenant, top_k, include_basis=include_basis
            )
            return code, payload, {}
        if op == "snapshot":
            snap, err = svc._snapshot_or_error(tenant)
            if err is not None:
                return err[0], err[1], {}
            return 200, snap.meta(), {}
        if op == "events":
            return 426, {
                "error": "events is a WebSocket endpoint",
                "hint": "connect with an Upgrade: websocket handshake",
            }, {}
        return 404, {
            "error": "unknown operation", "tenant": tenant, "op": op,
        }, {}

    @staticmethod
    def _parse_rows(content_type: str, body: bytes):
        """The rows of any POST route, from either body encoding."""
        ctype = content_type.split(";", 1)[0].strip().lower()
        if ctype == "application/octet-stream":
            try:
                return decode_block(body)[0]
            except BlockCodecError as exc:
                raise _BadRequest(400, f"bad block body: {exc}")
        if ctype not in ("application/json", ""):
            raise _BadRequest(
                415, f"unsupported Content-Type {ctype!r}; send "
                     "application/json or application/octet-stream"
            )
        if not body:
            raise _BadRequest(400, "empty body; expected JSON")
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _BadRequest(400, f"bad JSON: {exc}")
        if isinstance(doc, dict):
            if "rows" not in doc:
                raise _BadRequest(422, 'missing "rows" field')
            return doc["rows"]
        if isinstance(doc, list):
            return doc
        raise _BadRequest(422, "expected {'rows': [[...]]} or a list")

    # -- responses --------------------------------------------------------

    async def _send_json(
        self, writer: asyncio.StreamWriter, code: int, payload: Any,
        extra_headers: dict[str, str] | None = None, *, close: bool = False,
    ) -> None:
        data = json.dumps(payload, separators=(",", ":")).encode()
        await self._send_bytes(
            writer, code, data, "application/json",
            extra_headers or {}, close,
        )

    async def _send_raw(
        self, writer: asyncio.StreamWriter, code: int, payload,
        extra_headers: dict[str, str], *, close: bool = False,
    ) -> None:
        data = payload.encode() if isinstance(payload, str) else payload
        ctype = extra_headers.pop("Content-Type", "text/plain")
        await self._send_bytes(
            writer, code, data, ctype, extra_headers, close
        )

    async def _send_bytes(
        self, writer, code, data: bytes, ctype: str,
        extra_headers: dict[str, str], close: bool,
    ) -> None:
        reason = _HTTP_CODES.get(code, "Unknown")
        head = [
            f"HTTP/1.1 {code} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(data)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for k, v in extra_headers.items():
            head.append(f"{k}: {v}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode() + data
        )
        await writer.drain()

    # -- WebSocket push ----------------------------------------------------

    @staticmethod
    def _is_ws_upgrade(headers: dict[str, str]) -> bool:
        return (
            "websocket" in headers.get("upgrade", "").lower()
            and "upgrade" in headers.get("connection", "").lower()
        )

    async def _handle_websocket(
        self, reader, writer, path: str, headers: dict[str, str]
    ) -> None:
        parts = path.split("?", 1)[0].strip("/").split("/")
        if len(parts) != 3 or parts[0] != "v1" or parts[2] != "events":
            await self._send_json(
                writer, 404,
                {"error": "unknown websocket path", "path": path},
                close=True,
            )
            return
        tenant = parts[1]
        key = headers.get("sec-websocket-key")
        if not key:
            await self._send_json(
                writer, 400, {"error": "missing Sec-WebSocket-Key"},
                close=True,
            )
            return
        accept = base64.b64encode(
            hashlib.sha1((key + _WS_MAGIC).encode()).digest()
        ).decode()
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept}\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        self.n_ws_connections += 1
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        sid = self.service.bus.subscribe(
            waker=lambda: loop.call_soon_threadsafe(wake.set)
        )
        reader_task = asyncio.ensure_future(self._ws_read_frame(reader))
        try:
            await self._ws_send_text(writer, json.dumps({
                "event": "subscribed", "tenant": tenant,
                "snapshot_version": self.service.cache.version(tenant),
            }))
            while True:
                wake_task = asyncio.ensure_future(wake.wait())
                done, _pending = await asyncio.wait(
                    {reader_task, wake_task},
                    timeout=self.ws_ping_interval_s,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:  # idle: keep the connection warm
                    wake_task.cancel()
                    await self._ws_send_frame(writer, 0x9, b"ping")
                    continue
                if reader_task in done:
                    wake_task.cancel()
                    opcode, payload = reader_task.result()
                    if opcode is None or opcode == 0x8:  # EOF / close
                        break
                    if opcode == 0x9:  # ping -> pong
                        await self._ws_send_frame(writer, 0xA, payload)
                    reader_task = asyncio.ensure_future(
                        self._ws_read_frame(reader)
                    )
                if wake_task in done or wake.is_set():
                    wake.clear()
                    for event in self.service.bus.drain(sid):
                        ev_tenant = event.get("tenant")
                        if ev_tenant is not None and ev_tenant != tenant:
                            continue
                        await self._ws_send_text(
                            writer, json.dumps(event)
                        )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self.service.bus.unsubscribe(sid)
            reader_task.cancel()
            try:
                await self._ws_send_frame(writer, 0x8, b"")
            except Exception:
                pass

    @staticmethod
    async def _ws_read_frame(reader):
        """One frame -> (opcode, payload); (None, b'') on EOF."""
        try:
            head = await reader.readexactly(2)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None, b""
        opcode = head[0] & 0x0F
        masked = bool(head[1] & 0x80)
        length = head[1] & 0x7F
        if length == 126:
            length = struct.unpack(
                ">H", await reader.readexactly(2)
            )[0]
        elif length == 127:
            length = struct.unpack(
                ">Q", await reader.readexactly(8)
            )[0]
        mask = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
        if masked and payload:
            payload = bytes(
                b ^ mask[i % 4] for i, b in enumerate(payload)
            )
        return opcode, payload

    @staticmethod
    async def _ws_send_frame(writer, opcode: int, payload: bytes) -> None:
        head = bytes([0x80 | opcode])
        n = len(payload)
        if n < 126:
            head += bytes([n])
        elif n < 1 << 16:
            head += bytes([126]) + struct.pack(">H", n)
        else:
            head += bytes([127]) + struct.pack(">Q", n)
        writer.write(head + payload)
        await writer.drain()

    async def _ws_send_text(self, writer, text: str) -> None:
        await self._ws_send_frame(writer, 0x1, text.encode())


def serve_forever(server: ServingServer) -> None:
    """Block until interrupted (the ``python -m repro serve`` loop)."""
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
