"""Blocking clients for the serving API (tests, smoke runs, benchmarks).

:class:`ServingClient` wraps one keep-alive ``http.client`` connection —
use one instance per thread.  Row blocks passed as ndarrays go out as
one binary block of :mod:`.codec` (``application/octet-stream``: no
float is printed or parsed on either end); Python lists go out as JSON.
Requests retry under a bounded budget (``max_retries``) on the one
backoff schedule of :mod:`repro.streams.retry`: connection resets are
retried only for idempotent requests (GETs and
the read-only query POSTs — an ingest that died mid-exchange may have
been applied, so it is never silently re-sent), and 429 shed replies
are retried honoring the server's ``Retry-After`` when ``retry_429``
is enabled.  :class:`WebSocketClient` is the matching minimal RFC 6455
client for the ``/v1/<tenant>/events`` push channel.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import os
import socket
import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..streams.retry import RetryBudget
from .codec import encode_block

__all__ = ["Reply", "ServingClient", "WebSocketClient"]

_WS_MAGIC = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


@dataclass(frozen=True)
class Reply:
    """One HTTP exchange: status code, parsed JSON body, raw headers."""

    code: int
    body: Any
    headers: dict[str, str]

    @property
    def ok(self) -> bool:
        return 200 <= self.code < 300

    @property
    def retry_after_s(self) -> float | None:
        v = self.headers.get("retry-after")
        return float(v) if v is not None else None


class ServingClient:
    """One keep-alive connection to a :class:`ServingServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 10.0,
        max_retries: int = 3,
        retry_429: bool = False,
        telemetry=None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.max_retries = int(max_retries)
        #: Opt-in: transparently wait out 429 sheds (honoring the
        #: server's ``Retry-After``) instead of returning them.  Off by
        #: default — load generators and admission tests must *see*
        #: their 429s.
        self.retry_429 = bool(retry_429)
        self.telemetry = telemetry
        self.n_retries = 0
        self._conn: http.client.HTTPConnection | None = None

    def _note_retry(self, kind: str) -> None:
        self.n_retries += 1
        if self.telemetry is not None:
            try:
                self.telemetry.metrics.counter(
                    "repro_client_retries_total", kind=kind
                ).inc()
            except Exception:
                pass

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        *,
        idempotent: bool | None = None,
    ) -> Reply:
        """One exchange, with bounded retries.

        ``payload`` is sent as JSON, or — when it already is ``bytes``
        — verbatim as ``application/octet-stream``.

        ``idempotent`` defaults to ``method == "GET"``.  A failure while
        *sending* is always safe to retry (the server never saw the
        request); a failure while *receiving* the response is retried
        only for idempotent requests — the server may have applied a
        non-idempotent one (e.g. an ingest) before the socket died, and
        re-sending would double-count its rows.
        """
        if idempotent is None:
            idempotent = method.upper() == "GET"
        body = None
        headers = {}
        if isinstance(payload, bytes):
            body = payload
            headers["Content-Type"] = "application/octet-stream"
        elif payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        budget = RetryBudget(self.max_retries, seed=0)
        while True:
            conn = self._connection()
            sent = False
            try:
                conn.request(method, path, body=body, headers=headers)
                sent = True
                resp = conn.getresponse()
                raw = resp.read()
            except (
                http.client.HTTPException, ConnectionError, OSError
            ):
                self.close()
                if sent and not idempotent:
                    raise
                if not budget.wait():
                    raise
                self._note_retry("reconnect")
                continue
            reply = self._decode(resp, raw)
            if reply.code == 429 and self.retry_429:
                floor = reply.retry_after_s
                if floor is None and isinstance(reply.body, dict):
                    floor = reply.body.get("retry_after_s")
                if budget.wait(float(floor or 0.0)):
                    self._note_retry("shed")
                    continue
            return reply

    @staticmethod
    def _decode(resp, raw: bytes) -> Reply:
        hdrs = {k.lower(): v for k, v in resp.getheaders()}
        try:
            doc = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            doc = raw.decode(errors="replace")
        return Reply(code=resp.status, body=doc, headers=hdrs)

    # -- the API surface ---------------------------------------------------

    def _post_rows(
        self, tenant: str, op: str, rows, *, idempotent: bool
    ) -> Reply:
        if isinstance(rows, np.ndarray):
            payload = encode_block(rows)
        else:
            payload = {"rows": rows}
        return self.request(
            "POST", f"/v1/{tenant}/{op}", payload, idempotent=idempotent
        )

    def ingest(self, tenant: str, rows) -> Reply:
        return self._post_rows(tenant, "ingest", rows, idempotent=False)

    def transform(self, tenant: str, rows) -> Reply:
        return self._post_rows(tenant, "transform", rows, idempotent=True)

    def reconstruction_error(self, tenant: str, rows) -> Reply:
        return self._post_rows(
            tenant, "reconstruction_error", rows, idempotent=True
        )

    def outlier_score(self, tenant: str, rows) -> Reply:
        return self._post_rows(
            tenant, "outlier_score", rows, idempotent=True
        )

    def eigenspectra(
        self, tenant: str, top_k: int | None = None,
        include_basis: bool = False,
    ) -> Reply:
        path = f"/v1/{tenant}/eigenspectra"
        params = []
        if top_k is not None:
            params.append(f"top_k={top_k}")
        if include_basis:
            params.append("include_basis=1")
        if params:
            path += "?" + "&".join(params)
        return self.request("GET", path)

    def snapshot(self, tenant: str) -> Reply:
        return self.request("GET", f"/v1/{tenant}/snapshot")

    def ready(self) -> Reply:
        return self.request("GET", "/ready")

    def live(self) -> Reply:
        return self.request("GET", "/live")

    def status(self) -> Reply:
        return self.request("GET", "/status")

    def metrics_text(self) -> str:
        reply = self.request("GET", "/metrics")
        return reply.body if isinstance(reply.body, str) else ""


class WebSocketClient:
    """Minimal RFC 6455 client for the events push channel."""

    def __init__(
        self, host: str, port: int, tenant: str, *,
        timeout_s: float = 10.0,
    ) -> None:
        self.tenant = tenant
        self._sock = socket.create_connection(
            (host, port), timeout=timeout_s
        )
        key = base64.b64encode(os.urandom(16)).decode()
        self._sock.sendall(
            (
                f"GET /v1/{tenant}/events HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        head = self._read_until(b"\r\n\r\n").decode("latin-1")
        if "101" not in head.split("\r\n")[0]:
            raise ConnectionError(f"handshake refused: {head.splitlines()[0]}")
        want = base64.b64encode(
            hashlib.sha1((key + _WS_MAGIC).encode()).digest()
        ).decode()
        if want not in head:
            raise ConnectionError("bad Sec-WebSocket-Accept")
        # NOTE: _read_until already parked any bytes that arrived after
        # the 101 header in self._buf — the first event frame often
        # rides the same TCP segment as the handshake reply.

    def _read_until(self, marker: bytes) -> bytes:
        data = b""
        while marker not in data:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("closed during handshake")
            data += chunk
        head, _, rest = data.partition(marker)
        self._buf = rest
        return head + marker

    def _read_exact(self, n: int) -> bytes:
        while len(self._buf) < n:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("connection closed")
            self._buf += chunk
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def recv_event(self) -> dict[str, Any] | None:
        """Next JSON event; None when the server closes. Answers pings."""
        while True:
            head = self._read_exact(2)
            opcode = head[0] & 0x0F
            length = head[1] & 0x7F
            if length == 126:
                length = struct.unpack(">H", self._read_exact(2))[0]
            elif length == 127:
                length = struct.unpack(">Q", self._read_exact(8))[0]
            payload = self._read_exact(length) if length else b""
            if opcode == 0x8:
                return None
            if opcode == 0x9:
                self._send_frame(0xA, payload)
                continue
            if opcode == 0xA:
                continue
            if opcode == 0x1:
                return json.loads(payload.decode())

    def _send_frame(self, opcode: int, payload: bytes) -> None:
        mask = os.urandom(4)
        head = bytes([0x80 | opcode])
        n = len(payload)
        if n < 126:
            head += bytes([0x80 | n])
        elif n < 1 << 16:
            head += bytes([0x80 | 126]) + struct.pack(">H", n)
        else:
            head += bytes([0x80 | 127]) + struct.pack(">Q", n)
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        self._sock.sendall(head + mask + masked)

    def close(self) -> None:
        try:
            self._send_frame(0x8, b"")
        except Exception:
            pass
        self._sock.close()

    def __enter__(self) -> "WebSocketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
