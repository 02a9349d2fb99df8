"""The HTTP transport contract, over both front ends.

``repro.streams.httpd.HttpServer`` is the one server in ``src/``;
``ObservabilityServer`` and ``ServingServer`` supply routes only.  Every
connection-level behaviour is therefore checked once, here, against
each of them over raw sockets: keep-alive reuse, ``Connection: close``,
the idle timeout, the 400s and 413s of the request parser, the JSON 404
that lists the routes, and the JSON 500 of a route that raises.
:class:`TestReceivePath` drives the reused per-connection receive buffer
with requests split, pipelined and larger than the buffer.
"""

from __future__ import annotations

import asyncio
import base64
import inspect
import json
import os
import pathlib
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    PCAService,
    ServingClient,
    ServingConfig,
    ServingServer,
    TenantSpec,
)
from repro.parallel import ParallelStreamingPCA
from repro.parallel.app import (
    build_parallel_pca_graph,
    engine_restart_supervisor,
)
from repro.parallel.pca_operator import StreamingPCAOperator
from repro.parallel.sync import SyncController
from repro.streams import (
    OBSERVABILITY_ROUTES,
    Batcher,
    GuardedVectorSource,
    ObservabilityServer,
    ReconnectingChannel,
    RestartFromCheckpoint,
    Split,
    TailingFileSource,
    TCPVectorSource,
    Telemetry,
    TelemetryConfig,
)
from repro.serving.codec import encode_block
from repro.streams import httpd
from repro.streams.retry import RetryBudget

CONN_TIMEOUT_S = 0.3


@pytest.fixture(params=["obs", "serving"])
def front_end(request):
    """``(server, its telemetry)``, started; both mount ``/metrics``."""
    if request.param == "obs":
        telemetry = Telemetry(TelemetryConfig())
        server = ObservabilityServer(
            telemetry, conn_timeout_s=CONN_TIMEOUT_S
        )
    else:
        service = PCAService(ServingConfig(n_lanes=1))
        telemetry = service.telemetry
        server = ServingServer(
            service, conn_timeout_s=CONN_TIMEOUT_S, max_body_bytes=4096
        )
    server.start()
    yield server, telemetry
    server.stop()


def _connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=5.0)


def _read_response(sock):
    """``(status, headers, JSON-or-text body)`` of the next response."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-response: {buf!r}"
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {
        name.lower(): value.strip()
        for name, value in (line.split(":", 1) for line in lines[1:])
    }
    while len(body) < int(headers["content-length"]):
        body += sock.recv(65536)
    if headers["content-type"] == "application/json":
        return status, headers, json.loads(body)
    return status, headers, body.decode()


def _parse_responses(buf: bytes) -> list[tuple[int, bytes]]:
    """``(status, body)`` of each complete response in ``buf``."""
    out = []
    while b"\r\n\r\n" in buf:
        head, _, rest = buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(
            int(line.split(":", 1)[1]) for line in lines[1:]
            if line.lower().startswith("content-length:")
        )
        if len(rest) < length:
            break
        out.append((int(lines[0].split(" ")[1]), rest[:length]))
        buf = rest[length:]
    return out


def _get(sock, path, *extra_headers):
    lines = [f"GET {path} HTTP/1.1", "Host: test", *extra_headers]
    sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode())
    return _read_response(sock)


def _closed_by_server(sock) -> bool:
    sock.settimeout(5.0)
    return sock.recv(1) == b""


class TestTransportContract:
    def test_keep_alive_connection_is_reused(self, front_end):
        server, _ = front_end
        with _connect(server) as sock:
            for _ in range(3):
                status, headers, _ = _get(sock, "/metrics")
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert headers["content-type"].startswith("text/plain")
        assert server.n_requests == 3

    def test_connection_close_is_honoured(self, front_end):
        server, _ = front_end
        with _connect(server) as sock:
            status, headers, _ = _get(sock, "/health", "Connection: close")
            assert status == 200
            assert headers["connection"] == "close"
            assert _closed_by_server(sock)

    def test_half_sent_request_is_dropped_and_counted(self, front_end):
        server, _ = front_end
        with _connect(server) as sock:
            sock.sendall(b"GET /metr")  # ... and go silent
            t0 = time.perf_counter()
            assert _closed_by_server(sock)
            assert time.perf_counter() - t0 >= CONN_TIMEOUT_S * 0.5
        assert server.n_timeouts == 1
        with _connect(server) as sock:  # still serving
            assert _get(sock, "/metrics")[0] == 200

    @pytest.mark.parametrize("request_bytes", [
        b"NONSENSE\r\n\r\n",
        b"GET /metrics HTTP/1.1\r\nContent-Length: nine\r\n\r\n",
        b"GET /metrics HTTP/1.1\r\nContent-Length: -9\r\n\r\n",
        b"POST /metrics HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ], ids=["request-line", "length-word", "length-negative", "chunked"])
    def test_malformed_request_gets_400(self, front_end, request_bytes):
        server, _ = front_end
        with _connect(server) as sock:
            sock.sendall(request_bytes)
            status, headers, body = _read_response(sock)
            assert status == 400 and "error" in body
            assert headers["connection"] == "close"
            assert _closed_by_server(sock)
        assert server.n_errors == 0

    def test_oversized_body_gets_413_before_it_is_read(self, front_end):
        server, _ = front_end
        too_big = server.max_body_bytes + 1
        with _connect(server) as sock:
            # Headers only: the bound is judged on the announced length.
            status, _, body = _get(
                sock, "/metrics", f"Content-Length: {too_big}"
            )
            assert status == 413 and str(too_big) in body["error"]
            assert _closed_by_server(sock)

    def test_oversized_headers_get_413(self, front_end):
        server, _ = front_end
        with _connect(server) as sock:
            # Stay under the 64 KiB header bound until the server has
            # taken everything in, then cross it with one small write:
            # nothing is left unread when it answers and closes.
            sock.sendall(b"GET /metrics HTTP/1.1\r\nX-Pad: " + b"a" * 65000)
            time.sleep(0.1)
            sock.sendall(b"a" * 1000)
            status, _, body = _read_response(sock)
            assert status == 413 and "headers" in body["error"]
            assert _closed_by_server(sock)

    def test_unknown_path_is_json_404_listing_routes(self, front_end):
        server, _ = front_end
        with _connect(server) as sock:
            status, _, body = _get(sock, "/no/such/thing?x=1")
            assert status == 404
            assert "/no/such/thing" in body["error"]
            assert body["paths"] == list(server.routes)
            assert set(OBSERVABILITY_ROUTES) <= set(body["paths"])
            # The connection survives a 404.
            assert _get(sock, "/health")[0] == 200
        assert server.n_errors == 0

    def test_raising_route_is_json_500_and_counted(
        self, front_end, monkeypatch
    ):
        server, telemetry = front_end

        def boom():
            raise RuntimeError("registry on fire")

        monkeypatch.setattr(telemetry, "to_prometheus", boom)
        with _connect(server) as sock:
            status, _, body = _get(sock, "/metrics")
            assert status == 500 and "registry on fire" in body["error"]
            assert server.n_errors == 1
            # A broken route takes neither the connection nor the
            # server down.
            assert _get(sock, "/health")[0] == 200
        assert server.n_errors == 1

    def test_stop_with_a_keep_alive_connection_open_is_quiet(
        self, front_end, capfd, caplog
    ):
        """stop() cancels the handler of a connection still open; that
        must not surface as asyncio's "Exception in callback" traceback
        (printed to stderr, or logged where pytest captures logging)."""
        server, _ = front_end
        if isinstance(server, ServingServer):
            server.service.add_tenant(TenantSpec("t", n_components=2))
            client = ServingClient(server.host, server.port)
            rows = np.random.default_rng(0).standard_normal((16, 8))
            assert client.ingest("t", rows).code == 202
        else:
            client = _connect(server)
            assert _get(client, "/metrics")[0] == 200
        with client:
            server.stop()
        output = capfd.readouterr().err + caplog.text
        assert "Exception in callback" not in output

    def test_stop_cancelling_a_handler_that_is_closing_is_quiet(
        self, front_end, monkeypatch
    ):
        """A handler parked in ``wait_closed`` when stop() cancels it
        ends quietly: the loop's exception handler records nothing."""
        server, _ = front_end
        parked = threading.Event()

        async def never_closed(writer):
            parked.set()
            await asyncio.Event().wait()

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", never_closed)
        recorded = []
        server._loop.set_exception_handler(
            lambda loop, context: recorded.append(context)
        )
        with _connect(server) as sock:
            assert _get(sock, "/health", "Connection: close")[0] == 200
            assert parked.wait(5.0)
            server.stop()
        assert recorded == []


@pytest.fixture
def serving_server():
    """A started ``ServingServer`` with tenant ``t`` and the default
    body bound (16 MiB)."""
    service = PCAService(ServingConfig(n_lanes=1))
    server = ServingServer(service, conn_timeout_s=5.0).start()
    service.add_tenant(TenantSpec("t", n_components=2))
    yield server
    server.stop()


class TestReceivePath:
    """Every connection reads through one reused buffer of
    ``httpd.RECV_BUFFER_BYTES``; a request may straddle reads any way."""

    def test_request_split_into_one_byte_sends(self, front_end):
        server, _ = front_end
        request = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
        with _connect(server) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                sock.sendall(request[i:i + 1])
            assert _read_response(sock)[0] == 200
            # The connection is intact for the next request.
            assert _get(sock, "/metrics")[0] == 200
        assert server.n_requests == 2

    def test_two_pipelined_requests_in_one_send(self, front_end):
        server, _ = front_end
        with _connect(server) as sock:
            sock.sendall(
                b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
                b"GET /metrics HTTP/1.1\r\nHost: test\r\n"
                b"Connection: close\r\n\r\n"
            )
            buf = b""
            while chunk := sock.recv(65536):
                buf += chunk
        responses = _parse_responses(buf)
        assert [code for code, _ in responses] == [200, 200]
        assert json.loads(responses[0][1])["status"]
        assert b"# TYPE" in responses[1][1]  # Prometheus text

    def test_oversized_headers_in_small_writes_get_413(self, front_end):
        server, _ = front_end
        with _connect(server) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nX-Pad: ")
            for _ in range(65):  # many reads, each well under the buffer
                sock.sendall(b"a" * 1000)
            time.sleep(0.1)
            sock.sendall(b"a" * 1000)
            status, _, body = _read_response(sock)
            assert status == 413 and "headers" in body["error"]
            assert _closed_by_server(sock)

    def test_body_larger_than_the_receive_buffer(
        self, serving_server, monkeypatch
    ):
        service = serving_server.service
        seen = []
        ingest = service.ingest

        def recording_ingest(tenant, rows):
            seen.append(rows)
            return ingest(tenant, rows)

        monkeypatch.setattr(service, "ingest", recording_ingest)
        rows = np.random.default_rng(1).standard_normal((2048, 64))
        body = encode_block(rows)
        assert len(body) > 1 << 20 >= 4 * httpd.RECV_BUFFER_BYTES
        with ServingClient(serving_server.host, serving_server.port) as c:
            assert c.ingest("t", rows).code == 202
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], rows)
        assert service.pool.drain()
        assert service.tenant("t").model.rows_applied == 2048

    def test_websocket_upgrade_after_a_keep_alive_request(
        self, serving_server
    ):
        key = base64.b64encode(os.urandom(16)).decode()
        with _connect(serving_server) as sock:
            status, headers, _ = _get(sock, "/live")
            assert status == 200 and headers["connection"] == "keep-alive"
            sock.sendall((
                "GET /v1/t/events HTTP/1.1\r\nHost: test\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode())
            buf = b""
            while b"\r\n\r\n" not in buf:
                buf += sock.recv(4096)
            head, _, frames = buf.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 101 ")
            while len(frames) < 2 or len(frames) < 2 + frames[1]:
                frames += sock.recv(4096)
            assert frames[0] == 0x81  # FIN + text, unmasked, < 126 bytes
            event = json.loads(frames[2:2 + frames[1]])
            assert event["event"] == "subscribed" and event["tenant"] == "t"
        assert serving_server.n_ws_connections == 1


_FAULT_PROBE = r"""
import json, socket, threading

import numpy as np

from repro.serving import PCAService, ServingConfig, ServingServer
from repro.serving.codec import encode_block


def minor_faults(tid):
    with open(f"/proc/self/task/{tid}/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[7])


server = ServingServer(PCAService(ServingConfig(n_lanes=1))).start()
tid = next(
    t.native_id for t in threading.enumerate() if t.name == "serving-http"
)
body = encode_block(np.zeros((64, 32)))  # 16 KiB
request = (
    "POST /v1/t/transform HTTP/1.1\r\nHost: probe\r\n"
    "Content-Type: application/octet-stream\r\n"
    f"Content-Length: {len(body)}\r\n\r\n"
).encode() + body
statuses = set()
with socket.create_connection((server.host, server.port)) as sock:
    replies = sock.makefile("rb")

    def post():
        sock.sendall(request)
        statuses.add(replies.readline().split()[1].decode())
        length = 0
        while (line := replies.readline()) != b"\r\n":
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        replies.read(length)

    for _ in range(50):
        post()
    before = minor_faults(tid)
    for _ in range(2000):
        post()
    after = minor_faults(tid)
server.stop()
print(json.dumps({
    "faults_per_request": (after - before) / 2000,
    "statuses": sorted(statuses),
}))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/task"
)
def test_receive_path_takes_no_page_faults_per_request():
    """A fresh server that never calibrates (the tenant is unknown, so
    every POST is a 404) answers 2 000 16 KiB POSTs; its event-loop
    thread must not fault a fresh receive buffer in for each read."""
    src = str(pathlib.Path(httpd.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], capture_output=True,
        text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["statuses"] == ["404"]
    assert out["faults_per_request"] < 1.0, out


_MONOTONIC = "<built-in function monotonic>"

#: Every setting of these constructors has a caller that varies it; a
#: value no caller varies is a module constant, not a parameter.
_PINNED_SIGNATURES = {
    "ObservabilityServer": (
        ObservabilityServer.__init__,
        "(self, telemetry, *, rule_engine=None, "
        "host: 'str' = '127.0.0.1', port: 'int' = 0, "
        "conn_timeout_s: 'float' = 10.0) -> 'None'",
    ),
    "ServingServer": (
        ServingServer.__init__,
        "(self, service: 'PCAService', *, host: 'str' = '127.0.0.1', "
        "port: 'int' = 0, conn_timeout_s: 'float' = 30.0, "
        "max_body_bytes: 'int' = 16777216) -> 'None'",
    ),
    "ServingConfig": (
        ServingConfig,
        "(n_lanes: 'int' = 2, auto_tenant_template: 'TenantSpec | None' "
        "= None, data_dir: 'str | None' = None, durability: 'str' = "
        "'async', wal_segment_bytes: 'int' = 4194304, "
        "checkpoint_every_publishes: 'int' = 8, "
        "checkpoint_interval_s: 'float' = 0.5) -> None",
    ),
    "ServingClient": (
        ServingClient.__init__,
        "(self, host: 'str', port: 'int', *, timeout_s: 'float' = 10.0, "
        "max_retries: 'int' = 3, retry_429: 'bool' = False, "
        "telemetry=None) -> 'None'",
    ),
    "RetryBudget": (
        RetryBudget.__init__,
        "(self, max_retries: 'int', seed: 'int') -> 'None'",
    ),
    "ReconnectingChannel": (
        ReconnectingChannel.__init__,
        "(self, addr: 'tuple[str, int]', hello: 'dict[str, Any]', *, "
        "max_retries: 'int' = 8, seed: 'int' = 0, "
        "flap_after: 'int | None' = None) -> 'None'",
    ),
    "TCPVectorSource": (
        TCPVectorSource.__init__,
        "(self, name: 'str', host: 'str', port: 'int', *, "
        "connect_timeout_s: 'float' = 10.0, max_retries: 'int' = 5, "
        "retry_seed: 'int' = 0, strict: 'bool' = False) -> 'None'",
    ),
    "TailingFileSource": (
        TailingFileSource.__init__,
        "(self, name: 'str', path: 'str | pathlib.Path', *, "
        "poll_interval_s: 'float' = 0.05, "
        "idle_timeout_s: 'float | None' = 10.0, "
        "strict: 'bool' = False) -> 'None'",
    ),
    "GuardedVectorSource": (
        GuardedVectorSource.__init__,
        "(self, name: 'str', stream: 'VectorStream', *, "
        "batch_size: 'int' = 0, quarantine: 'bool' = True, "
        "dlq: 'DeadLetterQueue | None' = None, "
        "expected_dim: 'int | None' = None, "
        "validator: 'Callable[[StreamTuple, int | None], str | None] "
        "| None' = None, max_rate_hz: 'float | None' = None, "
        f"clock: 'Callable[[], float]' = {_MONOTONIC}) -> 'None'",
    ),
    "Batcher": (
        Batcher.__init__,
        "(self, name: 'str', *, batch_size: 'int' = 64, "
        "timeout_s: 'float | None' = None, "
        f"clock: 'Callable[[], float]' = {_MONOTONIC}) -> 'None'",
    ),
    "ParallelStreamingPCA": (
        ParallelStreamingPCA.__init__,
        "(self, n_components: 'int', n_engines: 'int' = 4, *, "
        "alpha: 'float' = 0.999, "
        "estimator_kwargs: 'dict[str, Any] | None' = None, "
        "strategy: 'SyncStrategy | str' = 'ring', "
        "runtime: 'str' = 'synchronous', "
        "sync_gate_factor: 'float' = 1.5, "
        "split_strategy: 'str' = 'random', split_seed: 'int' = 0, "
        "collect_diagnostics: 'bool' = True, batch_size: 'int' = 0, "
        "timeout_s: 'float' = 300.0, "
        "supervisor: 'Supervisor | None' = None, "
        "stall_timeout_s: 'float | None' = None, "
        "mp_context: 'str | None' = None) -> 'None'",
    ),
    "build_parallel_pca_graph": (
        build_parallel_pca_graph,
        "(stream: 'VectorStream', n_engines: 'int', estimator_factory, *, "
        "strategy: 'SyncStrategy | str' = 'ring', "
        "split_strategy: 'str' = 'random', split_seed: 'int' = 0, "
        "sync_gate_factor: 'float' = 1.5, "
        "collect_diagnostics: 'bool' = True, "
        "batch_size: 'int' = 0, quarantine: 'bool' = False, "
        "shed_max_rate_hz: 'float | None' = None, "
        "stale_after: 'int | None' = None, quorum: 'int | None' = None, "
        "heartbeat_every: 'int' = 0, health: 'bool' = False, "
        "health_check_every: 'int' = 256) -> 'ParallelPCAApp'",
    ),
    "SyncController": (
        SyncController.__init__,
        "(self, name: 'str', n_engines: 'int', *, "
        "strategy: 'SyncStrategy | str' = 'ring', "
        "stale_after: 'int | None' = None, "
        "quorum: 'int | None' = None) -> 'None'",
    ),
    "StreamingPCAOperator": (
        StreamingPCAOperator.__init__,
        "(self, name: 'str', engine_id: 'int', "
        "estimator: 'RobustIncrementalPCA', *, "
        "sync_gate_factor: 'float' = 1.5, "
        "emit_diagnostics: 'bool' = True, "
        "heartbeat_every: 'int' = 0) -> 'None'",
    ),
    "Split": (
        Split.__init__,
        "(self, name: 'str', n_targets: 'int', *, "
        "strategy: 'str' = 'random', seed: 'int' = 0) -> 'None'",
    ),
    "RestartFromCheckpoint": (
        RestartFromCheckpoint,
        "(checkpoint_every: 'int' = 100, store: 'object | None' = None, "
        "max_restarts: 'int | None' = None) -> None",
    ),
    "engine_restart_supervisor": (
        engine_restart_supervisor,
        "(app: 'ParallelPCAApp', *, "
        "directory: 'str | pathlib.Path | None' = None, "
        "checkpoint_every: 'int' = 200, "
        "max_restarts: 'int | None' = None) -> 'Supervisor'",
    ),
}

#: Keywords these constructors no longer take: the sync throttle, the
#: snapshot tuples and the skip resume.  Passing one is a ``TypeError``.
_REMOVED_KEYWORDS = {
    "SyncController": ("min_interval",),
    "StreamingPCAOperator": ("snapshot_every",),
    "build_parallel_pca_graph": ("snapshot_every",),
    "RestartFromCheckpoint": ("resume",),
    "engine_restart_supervisor": ("resume",),
}


class TestFrontEndSurface:
    def test_constructor_signatures_are_pinned(self):
        drifted = {
            name: str(inspect.signature(target))
            for name, (target, expected) in _PINNED_SIGNATURES.items()
            if str(inspect.signature(target)) != expected
        }
        assert not drifted
        for name, keywords in _REMOVED_KEYWORDS.items():
            signature = inspect.signature(_PINNED_SIGNATURES[name][0])
            for keyword in keywords:
                with pytest.raises(TypeError, match=keyword):
                    signature.bind_partial(**{keyword: None})

    def test_conn_timeout_must_be_positive(self):
        service = PCAService(ServingConfig(n_lanes=1))
        with pytest.raises(ValueError):
            ServingServer(service, conn_timeout_s=0.0)

    def test_start_is_idempotent_and_stop_allows_restart(self):
        server = ObservabilityServer(Telemetry(TelemetryConfig()))
        assert server.start() is server.start()
        port = server.port
        server.stop()
        server.stop()  # harmless when not running
        with server:
            assert server.port == port
            with _connect(server) as sock:
                assert _get(sock, "/health")[0] == 200
