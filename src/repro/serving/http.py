"""HTTP/1.1 + WebSocket front end over :class:`PCAService`.

The connection loop, request parser, bounds, timeouts and response
writers are :class:`repro.streams.httpd.HttpServer`'s; this module
supplies the routes.  They are a thin codec over the
transport-independent service core — all policy (admission, snapshot
reads, readiness) lives in :mod:`repro.serving.service`.  Row bodies
arrive as JSON
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
    GET  /status                           full serving status JSON
    GET  /metrics                          Prometheus text exposition
    GET  /health                           rule-engine verdict (503 when
                                           CRITICAL)
    GET  /health/model[/<engine_id>]       per-tenant model-health
                                           snapshots (the four routes of
                                           repro.streams.obs_server)
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
import struct
import time
import urllib.parse

from ..streams.httpd import HttpError, HttpServer, Reply
from ..streams.obs_server import OBSERVABILITY_ROUTES, observability_reply
from .codec import BlockCodecError, decode_block
from .service import PCAService

__all__ = ["ServingServer"]

#: Longest one ingest is held for its tenant's lane to catch up; after
#: that it is routed whatever the queue depth (and may be answered 429).
ACK_HOLD_MAX_S = 1.0
#: How often a held ingest looks at the queue depth again.
ACK_HOLD_POLL_S = 0.001
#: Idle seconds after which an event-stream WebSocket is pinged.
WS_PING_INTERVAL_S = 15.0

_WS_MAGIC = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


class ServingServer(HttpServer):
    """The network face of one :class:`PCAService` deployment."""

    routes = (
        "/live", "/ready", "/status", *OBSERVABILITY_ROUTES,
        "/v1/<tenant>/ingest", "/v1/<tenant>/transform",
        "/v1/<tenant>/reconstruction_error", "/v1/<tenant>/outlier_score",
        "/v1/<tenant>/eigenspectra", "/v1/<tenant>/snapshot",
        "/v1/<tenant>/events",
    )
    thread_name = "serving-http"

    def __init__(
        self,
        service: PCAService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        conn_timeout_s: float = 30.0,
        max_body_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        super().__init__(
            host=host, port=port, conn_timeout_s=conn_timeout_s,
            max_body_bytes=max_body_bytes,
        )
        self.service = service
        self.n_ws_connections = 0

    # -- lifecycle --------------------------------------------------------

    def start(self, timeout_s: float = 10.0) -> "ServingServer":
        """Boot the service and the listener; returns once bound."""
        self.service.start()
        return super().start(timeout_s)

    def stop(self) -> None:
        super().stop()
        self.service.stop()

    # -- routing ----------------------------------------------------------

    async def respond(self, method, target, headers, body) -> Reply | None:
        label = self._route_label(target)
        if method == "POST" and label == "ingest":
            await self._pace_ingest(target)
        t0 = time.perf_counter()
        try:
            return self._route(
                method, target, headers.get("content-type", ""), body
            )
        finally:
            self.service.observe_latency(label, time.perf_counter() - t0)

    async def upgrade(self, reader, writer, target, headers) -> bool:
        if (
            "websocket" not in headers["upgrade"].lower()
            or "upgrade" not in headers.get("connection", "").lower()
        ):
            return False
        await self._handle_websocket(reader, writer, target, headers)
        return True

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
    ) -> Reply | None:
        parsed = urllib.parse.urlsplit(target)
        path = parsed.path
        query = urllib.parse.parse_qs(parsed.query)
        svc = self.service
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
        if path == "/status":
            code, payload = svc.status()
            return code, payload, {}
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "v1":
            return self._route_tenant(
                method, parts[1], parts[2], content_type, body, query
            )
        return observability_reply(path, svc.telemetry, svc.rule_engine)

    def _route_tenant(
        self, method: str, tenant: str, op: str, content_type: str,
        body: bytes, query: dict[str, list[str]],
    ) -> Reply:
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
                    raise HttpError(400, "top_k must be an integer")
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
                raise HttpError(400, f"bad block body: {exc}")
        if ctype not in ("application/json", ""):
            raise HttpError(
                415, f"unsupported Content-Type {ctype!r}; send "
                     "application/json or application/octet-stream"
            )
        if not body:
            raise HttpError(400, "empty body; expected JSON")
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"bad JSON: {exc}")
        if isinstance(doc, dict):
            if "rows" not in doc:
                raise HttpError(422, 'missing "rows" field')
            return doc["rows"]
        if isinstance(doc, list):
            return doc
        raise HttpError(422, "expected {'rows': [[...]]} or a list")

    # -- WebSocket push ----------------------------------------------------

    async def _handle_websocket(
        self, reader, writer, path: str, headers: dict[str, str]
    ) -> None:
        parts = path.split("?", 1)[0].strip("/").split("/")
        if len(parts) != 3 or parts[0] != "v1" or parts[2] != "events":
            await self._send(
                writer, 404,
                {"error": "unknown websocket path", "path": path},
                close=True,
            )
            return
        tenant = parts[1]
        key = headers.get("sec-websocket-key")
        if not key:
            await self._send(
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
                    timeout=WS_PING_INTERVAL_S,
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
