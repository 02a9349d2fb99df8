"""ClusterEngine: the coordinator with TCP-connected hosts as remote ends.

The process runtime scales the parallel PCA across the cores of one
machine; the paper's Figs 6–7 scale *out* — engines on separate hosts
exchanging sync tuples over the network.  :class:`ClusterEngine` is the
:class:`~repro.streams.engine.ThreadedEngine` coordinator (a subclass:
the run protocol is inherited unchanged) that keeps the sources, sinks
and control operators (split, sync controller) and places every other
operator on **engine hosts** — separate OS processes reached over real
TCP sockets speaking the length-prefixed framed protocol of
:mod:`repro.streams.wireproto`.  On localhost the hosts are
spawned processes (how the tests and ``python -m repro cluster`` run);
the protocol itself is host-agnostic.

Topology and transport
----------------------
The graph is cut into a star: every cross-host edge is relayed through
the coordinator (the PCA application has no engine↔engine edges, and a
star keeps membership, eviction and punctuation injection in one
place).  Each host holds one :class:`~repro.streams.wireproto.
ReconnectingChannel` to the coordinator:

* tuples travel as ``to_wire`` dicts inside coalesced ``"tuples"``
  frames — numpy blocks cross as raw buffers, never pickled;
* the receive side decodes with ``from_wire(..., allow_pickle=False)``
  and the ``register_wire_type`` allowlist: socket bytes are untrusted
  (see ``docs/robustness.md``);
* outbound traffic on both sides goes through an **unbounded deque
  drained by a dedicated sender thread**, so neither end ever blocks on
  a socket write while the peer is itself mid-write (the classic TCP
  backpressure deadlock cycle);
* the host channel redials with the ``network_sources`` backoff budget
  and re-sends its hello, and the coordinator's accept loop
  re-associates the stream by host id — a network flap costs a counted
  reconnect, not the run.

Remote graph execution
----------------------
Each host rebuilds a *local* graph around its operators — a channel
source feeding a demultiplexer that routes inbound tuples (data, sync
control, punctuation) to the right (operator, port), and a relay sink
forwarding every off-host emission — and runs it under an unmodified
:class:`~repro.streams.engine.SynchronousEngine` (deterministic, the
parity configuration).
The SyncController's ring merges, membership/eviction/quorum and
late-rejoin reseeding run unchanged over the wire: the controller only
ever sees tuples on ports.

Run-protocol delta
------------------
The transport's in-flight ledger is a pair of wire counters per link: a
host is quiet once its heartbeat says *quiesced* and the sent/received
tuple counts match in both directions (nothing in flight on the
sockets).  The final report additionally carries the host's channel
counters (see :attr:`ClusterEngine.cluster_stats`), and its operator
state arrives wire-encoded, merged under an ``h<id>`` process label.

A host that dies is detected by the per-tick liveness check.  With
``tolerate_host_loss=True`` (the chaos scenarios and the CLI kill runs)
the coordinator injects punctuation on the dead host's routes so the
controller's punctuation contract holds, drops (and counts) traffic
bound for it, and lets the SyncController's staleness eviction + quorum
carry the run — the paper's degraded-mode story over a real wire.
Without the flag a host death fails fast, matching the other engines.

After a death or a flap, frames that were in the kernel's socket
buffers may be lost (delivery is at-least-once across reconnects, see
:class:`~repro.streams.wireproto.ReconnectingChannel`); the
frozen-progress grace window then first nudges the hosts with an early
``finish`` (the loss may have swallowed end-of-stream punctuation) and,
if the counters stay frozen, accepts completion and records the residue
in ``cluster_stats["tuples_lost"]``.
"""

from __future__ import annotations

import ipaddress
import os
import socket
import threading
import time
import traceback
import uuid
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from .engine import _MAIN, SynchronousEngine, ThreadedEngine, _final_report
from .graph import Graph
from .operators import Operator, Sink, Source
from .shm import safe_mp_context
from .supervision import EngineAborted, OperatorFailure, Supervisor
from .telemetry import Telemetry
from .tuples import (
    StreamTuple,
    _decode_value,
    _encode_value,
    from_wire,
    reseed_sequence,
    to_wire,
)
from .wireproto import (
    FrameError,
    ReconnectingChannel,
    recv_frame,
    send_frame,
    wait_readable,
)

__all__ = ["ClusterEngine"]

#: Tuples per coalesced ``"tuples"`` frame.
_BATCH_MAX = 64

def _is_loopback_bind(host: str) -> bool:
    """Whether ``host`` binds only the loopback interface.

    ``""``/``"0.0.0.0"``/``"::"`` bind every interface; hostnames other
    than ``localhost`` are conservatively treated as non-loopback rather
    than resolved (resolution is racy and the answer gates a trust
    decision).
    """
    if host == "localhost":
        return True
    if not host:
        return False
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


#: Default redial budget for host channels (≈ 4 s worst case), matching
#: the reconnecting network sources' shape.
_DEFAULT_RECONNECT = {
    "max_retries": 10,
    "base_s": 0.05,
    "cap_s": 1.0,
    "jitter": 0.3,
}


# ---------------------------------------------------------------------------
# Host-side proxy operators
# ---------------------------------------------------------------------------


class _ChannelSource(Source):
    """Local source materializing the coordinator's frame stream.

    Every inbound tuple is wrapped in a control envelope carrying its
    demux output index: engines drive sources through ``submit(tup, 0)``
    only, so routing happens one hop downstream in :class:`_Demux`.
    Decoding is strict — ``allow_pickle=False`` — because these bytes
    arrived over TCP.
    """

    def __init__(
        self,
        name: str,
        channel: ReconnectingChannel,
        portmap: dict[tuple[str, int], int],
        counters: dict[str, int],
        stop: threading.Event,
    ) -> None:
        super().__init__(name, n_outputs=1)
        self._channel = channel
        self._portmap = portmap
        self._counters = counters
        self._stop = stop

    def generate(self):
        while not self._stop.is_set():
            msg = self._channel.recv(timeout_s=0.05)
            if msg is None:
                continue
            t = msg.get("t")
            if t == "tuples":
                for dst, port, wire in msg["items"]:
                    tup = from_wire(wire, allow_pickle=False)
                    out = self._portmap[(dst, int(port))]
                    self._counters["received"] += 1
                    yield StreamTuple.control(out=out, tup=tup)
            elif t == "finish":
                return


class _Demux(Operator):
    """Unwrap channel envelopes onto the right local (operator, port)."""

    def __init__(self, name: str, n_outputs: int) -> None:
        super().__init__(name, n_inputs=1, n_outputs=max(1, n_outputs))

    def process(self, tup: StreamTuple, port: int) -> None:
        self.submit(tup.payload["tup"], tup.payload["out"])


class _RelaySink(Sink):
    """Forward every off-host emission (and its punctuation) upstream.

    One input port per outgoing cross-host edge; tuples are wire-encoded
    here (with schema descriptors, so the receiver's registry never has
    to be warm) and drained to the socket by the host's sender thread.
    """

    def __init__(
        self,
        name: str,
        targets: list[tuple[str, int]],
        outq: deque,
        out_cv: threading.Condition,
    ) -> None:
        super().__init__(name, n_inputs=max(1, len(targets)))
        self._targets = targets
        self._outq = outq
        self._out_cv = out_cv

    def _forward(self, port: int, tup: StreamTuple) -> None:
        dst_name, dst_port = self._targets[port]
        item = (dst_name, dst_port, to_wire(tup, describe_schema=True))
        with self._out_cv:
            self._outq.append(item)
            self._out_cv.notify()

    def consume(self, tup: StreamTuple, port: int) -> None:
        self._forward(port, tup)

    def on_punctuation(self, port: int) -> None:
        # Sinks normally absorb punctuation; a relay must pass the
        # end-of-stream marker through so the remote consumer's
        # punctuation contract holds across the wire.
        self._forward(port, StreamTuple.punctuation())


# ---------------------------------------------------------------------------
# Host process
# ---------------------------------------------------------------------------


@dataclass
class _HostSpec:
    """Everything an engine host needs, picklable under any start method.

    The spec itself crosses the trusted ``multiprocessing`` spawn
    channel; only *tuple traffic* crosses TCP.
    """

    host_id: int
    addr: tuple[str, int]
    run_id: str
    ops: list[Operator]
    #: op name -> out port -> [(dst_loc, dst_name, dst_port)]
    routes: dict[str, dict[int, list[tuple[Any, str, int]]]]
    #: (op name, in port) pairs fed from off-host, in demux-port order.
    inbound: list[tuple[str, int]]
    policies: dict[str, Any] = field(default_factory=dict)
    metrics: bool = True
    flap_after: int | None = None
    reconnect: dict[str, Any] = field(default_factory=dict)


def _host_main(spec: _HostSpec) -> None:
    """Engine-host entry point (top-level: importable under spawn)."""
    reseed_sequence(spec.host_id + 1)
    channel = ReconnectingChannel(
        spec.addr,
        {"t": "hello", "host": spec.host_id, "run": spec.run_id},
        flap_after=spec.flap_after,
        seed=spec.host_id,
        **{**_DEFAULT_RECONNECT, **spec.reconnect},
    )
    try:
        channel.connect()
        _host_loop(spec, channel)
    except BaseException as exc:
        try:
            channel.send({
                "t": "error",
                "host": spec.host_id,
                "error": repr(exc),
                "traceback": traceback.format_exc(),
            })
        except Exception:
            pass
        raise SystemExit(1)
    finally:
        channel.close()


def _build_host_graph(
    spec: _HostSpec,
    channel: ReconnectingChannel,
    outq: deque,
    out_cv: threading.Condition,
    counters: dict[str, int],
    stop: threading.Event,
) -> Graph:
    hid = spec.host_id
    ops_by_name = {op.name: op for op in spec.ops}
    portmap = {key: i for i, key in enumerate(spec.inbound)}

    relay_targets: list[tuple[str, int]] = []
    local_edges: list[tuple[Operator, int, Operator, int]] = []
    relay_edges: list[tuple[Operator, int, int]] = []
    for op in spec.ops:
        for out_port, dests in spec.routes.get(op.name, {}).items():
            for dst_loc, dst_name, dst_port in dests:
                if dst_loc == hid:
                    local_edges.append(
                        (op, out_port, ops_by_name[dst_name], dst_port)
                    )
                else:
                    relay_edges.append((op, out_port, len(relay_targets)))
                    relay_targets.append((dst_name, dst_port))

    g = Graph(f"host{hid}")
    src = _ChannelSource(
        f"__chan_h{hid}", channel, portmap, counters, stop
    )
    demux = _Demux(f"__demux_h{hid}", len(spec.inbound))
    g.add(src)
    g.add(demux)
    for op in spec.ops:
        g.add(op)
    g.connect(src, demux)
    for (dst_name, dst_port), i in portmap.items():
        g.connect(
            demux, ops_by_name[dst_name], out_port=i, in_port=dst_port
        )
    for op, out_port, dst, dst_port in local_edges:
        g.connect(op, dst, out_port=out_port, in_port=dst_port)
    if relay_targets:
        relay = _RelaySink(f"__relay_h{hid}", relay_targets, outq, out_cv)
        g.add(relay)
        for op, out_port, in_port in relay_edges:
            g.connect(op, relay, out_port=out_port, in_port=in_port)
    return g


def _host_thread_failed(host_id: int, where: str) -> None:
    """Kill the host process after a daemon-thread failure.

    The sender/status threads are the host's only voice to the
    coordinator.  If one dies (typically ``channel.send`` exhausting its
    redial budget) while the engine thread keeps running, the host turns
    into a zombie: it keeps computing, its output silently never leaves
    the process, and the coordinator sees a live, never-quiescing host
    until the run timeout.  Exiting the whole process instead hands the
    failure to the coordinator's death detection, which either fails the
    run fast or (``tolerate_host_loss=True``) degrades it cleanly.
    """
    traceback.print_exc()
    print(
        f"host{host_id}: {where} thread failed; exiting so the "
        f"coordinator's death detection takes over",
        flush=True,
    )
    os._exit(1)


def _host_sender_loop(
    channel: ReconnectingChannel,
    outq: deque,
    out_cv: threading.Condition,
    counters: dict[str, int],
    stop: threading.Event,
    host_id: int,
) -> None:
    try:
        while True:
            batch: list = []
            with out_cv:
                while outq and len(batch) < _BATCH_MAX:
                    batch.append(outq.popleft())
                if not batch:
                    if stop.is_set():
                        return
                    out_cv.wait(timeout=0.05)
                    continue
            channel.send({"t": "tuples", "items": batch})
            counters["sent"] += len(batch)
    except BaseException:
        _host_thread_failed(host_id, "sender")


def _host_loop(spec: _HostSpec, channel: ReconnectingChannel) -> None:
    outq: deque = deque()
    out_cv = threading.Condition()
    counters = {"received": 0, "sent": 0}
    stop = threading.Event()
    sender_stop = threading.Event()

    graph = _build_host_graph(spec, channel, outq, out_cv, counters, stop)
    supervisor = (
        Supervisor(policies=spec.policies) if spec.policies else None
    )
    engine = SynchronousEngine(graph, supervisor=supervisor)

    sender = threading.Thread(
        target=_host_sender_loop,
        args=(channel, outq, out_cv, counters, sender_stop, spec.host_id),
        name=f"host{spec.host_id}-sender",
        daemon=True,
    )
    sender.start()

    def _status_loop() -> None:
        # Heartbeat: quiesce state + cumulative counters.  The counters
        # lag the sockets by design; the coordinator waits for equality.
        try:
            last = None
            while not stop.wait(0.03):
                state = (
                    all(op.is_closed for op in spec.ops),
                    counters["received"],
                    counters["sent"],
                )
                if state == last:
                    continue
                last = state
                channel.send({
                    "t": "status",
                    "host": spec.host_id,
                    "quiesced": state[0],
                    "received": state[1],
                    "sent": state[2],
                })
        except BaseException:
            _host_thread_failed(spec.host_id, "status")

    status = threading.Thread(
        target=_status_loop, name=f"host{spec.host_id}-status", daemon=True
    )
    status.start()

    try:
        engine.run()
    finally:
        stop.set()
        status.join(timeout=2.0)

    # Drain the outbound queue, then retire the sender before touching
    # the channel from this thread.
    deadline = time.perf_counter() + 30.0
    while outq and time.perf_counter() < deadline:
        time.sleep(0.005)
    sender_stop.set()
    with out_cv:
        out_cv.notify_all()
    sender.join(timeout=5.0)

    channel.send({
        "t": "done",
        "host": spec.host_id,
        **_final_report(
            spec.ops, supervisor, spec.metrics, encode=_encode_value
        ),
        "counters": dict(counters),
        "transport": channel.counters(),
    })


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _HostLink:
    """Coordinator-side state for one engine host."""

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self.sock: socket.socket | None = None
        self.cv = threading.Condition()
        self.outq: deque = deque()
        self.sent_to = 0
        self.received_from = 0
        self.report: dict[str, Any] = {}
        self.done: dict[str, Any] | None = None
        self.dead = False
        self.reconnects = 0
        self.dropped = 0
        self._ever_attached = False

    def enqueue(self, item: Any) -> None:
        with self.cv:
            if self.dead:
                self.dropped += 1
                return
            self.outq.append(item)
            self.cv.notify()

    def attach(self, sock: socket.socket) -> None:
        with self.cv:
            if self.sock is not None:
                try:
                    self.sock.close()
                except OSError:  # pragma: no cover - already dead
                    pass
            if self._ever_attached:
                # Any attach after the first is a reconnect, whether or
                # not the sender already tore down the dead socket (the
                # EPIPE may land before or after the redial arrives).
                self.reconnects += 1
            self._ever_attached = True
            self.sock = sock
            self.cv.notify_all()

    def mark_dead(self) -> int:
        """Flag the host dead; returns the dropped outbound backlog."""
        with self.cv:
            self.dead = True
            n = len(self.outq)
            self.dropped += n
            self.outq.clear()
            self.cv.notify_all()
        return n


class ClusterEngine(ThreadedEngine):
    """Coordinator of the multi-node TCP runtime.

    Parameters
    ----------
    graph:
        The application graph — unchanged operator code runs under
        every engine.
    main_ops:
        Operator names pinned to the coordinator (sources and sinks are
        always pinned).  Every unpinned operator is placed on an engine
        host, round-robin over ``n_hosts``.
    n_hosts:
        Engine-host process count; default one host per unpinned
        operator (the parallel-PCA runner passes ``n_hosts`` = engine
        count so each PCA engine gets its own host).
    bind_host / port:
        Coordinator listen address; port 0 picks a free port.
    tolerate_host_loss:
        ``False`` (default): a dying host fails the run fast, like a
        worker death without a restart policy.  ``True``: the run
        degrades — punctuation is injected on the dead host's routes,
        its traffic is dropped (counted), and the SyncController's
        eviction/quorum machinery owns correctness.
    flap_hosts:
        Chaos hook: ``{host_id: n_frames}`` makes that host's channel
        sever itself once after receiving ``n_frames`` frames,
        exercising the reconnect path.
    reconnect:
        Overrides for the hosts' redial budget
        (``max_retries``/``base_s``/``cap_s``/``jitter``).
    supervisor / telemetry / mp_context:
        As in the other engines.  Host-side operator failures surface as
        :class:`OperatorFailure`; host metrics shards merge back under
        ``process="h<id>"`` labels.
    """

    _runtime = "cluster"

    def __init__(
        self,
        graph: Graph,
        *,
        main_ops: Iterable[str] = (),
        n_hosts: int | None = None,
        bind_host: str = "127.0.0.1",
        port: int = 0,
        tolerate_host_loss: bool = False,
        flap_hosts: dict[int, int] | None = None,
        reconnect: dict[str, Any] | None = None,
        supervisor: Supervisor | None = None,
        telemetry: Telemetry | None = None,
        mp_context: str | None = None,
    ) -> None:
        if n_hosts is not None and n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        super().__init__(graph, supervisor=supervisor, telemetry=telemetry)
        self._tracer = None  # spans do not cross the wire
        self.bind_host = bind_host
        #: Pickled ``done`` payload values are only trusted on a
        #: loopback bind: the hello is authenticated by nothing stronger
        #: than the run_id, which travels in cleartext on the same
        #: connection — on a shared network an on-path observer could
        #: replay it and deliver a pickle.
        self._pickle_ok = _is_loopback_bind(bind_host)
        if not self._pickle_ok:
            warnings.warn(
                f"ClusterEngine bound to non-loopback {bind_host!r}: "
                f"pickled host-state payloads will be refused "
                f"(cleartext run_id is not an authentication boundary); "
                f"operator state that lacks a registered wire form will "
                f"fail to fold back",
                RuntimeWarning,
                stacklevel=2,
            )
        self.port = port
        self.tolerate_host_loss = tolerate_host_loss
        self.flap_hosts = dict(flap_hosts or {})
        self.reconnect = dict(reconnect or {})
        self._ctx = safe_mp_context(mp_context)

        if not self._place(main_ops, n_hosts):
            raise ValueError(
                "cluster runtime has no operators to place on hosts; "
                "use the synchronous/threaded runtime instead"
            )
        self._links: dict[int, _HostLink] = {
            hid: _HostLink(hid) for hid in self._remote_ops
        }
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._run_id = ""
        self._host_deaths = 0
        self._nudged = False
        self._lost = 0
        #: Wire/transport totals, populated at shutdown.
        self.cluster_stats: dict[str, int] = {}

    # -- placement views --------------------------------------------------

    @property
    def n_hosts(self) -> int:
        return len(self._remote_ops)

    def _inbound_for(self, hid: int) -> list[tuple[str, int]]:
        pairs: set[tuple[str, int]] = set()
        for op in self.graph.operators:
            src_loc = self._loc_of[op.name]
            for port in range(op.n_outputs):
                for dst, in_port in self.graph.successors(op, port):
                    if self._loc_of[dst.name] == hid and src_loc != hid:
                        pairs.add((dst.name, in_port))
        return sorted(pairs)

    def _build_spec(self, hid: int, addr: tuple[str, int]) -> _HostSpec:
        return _HostSpec(
            host_id=hid,
            addr=addr,
            run_id=self._run_id,
            inbound=self._inbound_for(hid),
            flap_after=self.flap_hosts.get(hid),
            reconnect=self.reconnect,
            **self._spec_fields(hid),
        )

    # -- seams: sending, probing ------------------------------------------

    def _send_remote(
        self, loc: int, dst_name: str, dst_port: int, tup: StreamTuple
    ) -> None:
        self._links[loc].enqueue(
            (dst_name, dst_port, to_wire(tup, describe_schema=True))
        )

    def _remote_depth(self, loc: int) -> int:
        return len(self._links[loc].outq)

    # -- sockets ----------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                conn.settimeout(5.0)
                hello = recv_frame(conn)
            except Exception:
                # The listener is the untrusted boundary: one garbage or
                # hostile connection must never take down the accept
                # thread (hosts could then never redial after a flap).
                # decode_frame maps malformed bytes to FrameError, but
                # nothing short of a broad except makes that guarantee
                # structural.
                conn.close()
                continue
            if (
                not hello
                or hello.get("t") != "hello"
                or hello.get("run") != self._run_id
                or hello.get("host") not in self._links
            ):
                # Wrong run id or malformed hello: not our host.
                conn.close()
                continue
            # Blocking from here on; the receiver polls with select so
            # the sender thread's sendall never hits a socket timeout.
            conn.settimeout(None)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            link = self._links[hello["host"]]
            link.attach(conn)
            t = threading.Thread(
                target=self._receiver_loop,
                args=(link, conn),
                name=f"cluster-recv-h{link.host_id}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
            if self.telemetry is not None:
                self.telemetry.events.append({
                    "ts": self.telemetry.now(),
                    "kind": "cluster_host_connected",
                    "host": link.host_id,
                    "reconnects": link.reconnects,
                })

    def _receiver_loop(self, link: _HostLink, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                if not wait_readable(conn, 0.2):
                    continue
                try:
                    msg = recv_frame(conn)
                except (ConnectionError, FrameError, OSError):
                    return  # reconnect (or death detection) takes over
                if msg is None:
                    return
                self._handle(link, msg)
        except EngineAborted:
            pass
        except BaseException as exc:  # pragma: no cover - defensive
            self._errors.append(exc)
            self._stop.set()

    def _handle(self, link: _HostLink, msg: dict) -> None:
        t = msg.get("t")
        if t == "tuples":
            for dst, port, wire in msg["items"]:
                tup = from_wire(wire, allow_pickle=False)
                loc = self._loc_of[dst]
                if loc == _MAIN:
                    self._inject(dst, tup, int(port))
                else:
                    # Star relay for host→host edges (unused by the PCA
                    # app, but the protocol supports arbitrary cuts).
                    self._links[loc].enqueue((dst, int(port), wire))
                # Counted once it is on the local ledger, so the two
                # never both read "nothing in flight" for this tuple.
                link.received_from += 1
        elif t == "status":
            link.report = msg
        elif t == "done":
            link.report = {
                "quiesced": True,
                "received": msg["counters"]["received"],
                "sent": msg["counters"]["sent"],
            }
            link.done = msg
        elif t == "error":
            self._errors.append(
                OperatorFailure(
                    f"host{link.host_id}",
                    RuntimeError(msg.get("error", "host error")),
                    msg.get("traceback", ""),
                )
            )
            self._stop.set()

    def _sender_loop(self, link: _HostLink) -> None:
        pending: list = []
        while True:
            if not pending:
                with link.cv:
                    while link.outq and len(pending) < _BATCH_MAX:
                        pending.append(link.outq.popleft())
                    if not pending:
                        if self._stop.is_set() or link.dead:
                            return
                        link.cv.wait(timeout=0.05)
                        continue
            # Split pending into tuple batches and control frames,
            # preserving order.
            frames: list[tuple[dict, int]] = []
            batch: list = []
            for item in pending:
                if isinstance(item, dict):
                    if batch:
                        frames.append(({"t": "tuples", "items": batch}, len(batch)))
                        batch = []
                    frames.append((item, 0))
                else:
                    batch.append(item)
            if batch:
                frames.append(({"t": "tuples", "items": batch}, len(batch)))
            for i, (frame, n_tuples) in enumerate(frames):
                if not self._send_one(link, frame):
                    # Host declared dead mid-send: drop the remainder.
                    link.dropped += sum(n for _, n in frames[i:])
                    pending = []
                    break
                link.sent_to += n_tuples
            else:
                pending = []

    def _send_one(self, link: _HostLink, frame: dict) -> bool:
        while True:
            with link.cv:
                sock = link.sock
                while sock is None:
                    if link.dead or self._stop.is_set():
                        return False
                    link.cv.wait(timeout=0.1)
                    sock = link.sock
            try:
                send_frame(sock, frame)
                return True
            except OSError:
                with link.cv:
                    if link.sock is sock:
                        try:
                            sock.close()
                        except OSError:  # pragma: no cover
                            pass
                        link.sock = None
                # Loop: wait for the accept loop to attach a fresh
                # socket (host redial) or for death detection.

    # -- host lifecycle ---------------------------------------------------

    def _start_remote(self) -> None:
        self._run_id = uuid.uuid4().hex
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.port))
        listener.listen(len(self._links) + 2)
        listener.settimeout(0.2)
        self._listener = listener
        addr = (self.bind_host, listener.getsockname()[1])

        self._accept = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._accept.start()
        for link in self._links.values():
            t = threading.Thread(
                target=self._sender_loop,
                args=(link,),
                name=f"cluster-send-h{link.host_id}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        for hid in self._links:
            self._procs[hid] = self._ctx.Process(
                target=_host_main,
                args=(self._build_spec(hid, addr),),
                name=f"repro-host{hid}",
                daemon=True,
            )
            self._procs[hid].start()

    def _supervise_remote(self) -> None:
        for hid, proc in self._procs.items():
            link = self._links[hid]
            if link.done is not None or link.dead or not self._died(hid):
                continue
            if not self.tolerate_host_loss:
                raise OperatorFailure(
                    f"host{hid}",
                    RuntimeError(
                        f"engine host exited with code {proc.exitcode}"
                    ),
                    "tolerate_host_loss=False",
                )
            self._host_deaths += 1
            dropped = link.mark_dead()
            if self.telemetry is not None:
                self.telemetry.events.append({
                    "ts": self.telemetry.now(),
                    "kind": "cluster_host_dead",
                    "host": hid,
                    "dropped": dropped,
                })
            # The dead host will never emit its punctuation; inject it on
            # every route out of its operators so the controller's and
            # sinks' punctuation contracts hold (eviction + quorum own
            # state correctness from here).
            for op in self._remote_ops[hid]:
                for dests in self._routes_for(op).values():
                    for dst_loc, dst_name, dst_port in dests:
                        punct = StreamTuple.punctuation()
                        if dst_loc == _MAIN:
                            self._inject(dst_name, punct, dst_port)
                        elif not self._links[dst_loc].dead:
                            self._send_remote(
                                dst_loc, dst_name, dst_port, punct
                            )

    def _live_links(self) -> list[_HostLink]:
        return [l for l in self._links.values() if not l.dead]

    # -- seams: quiescence, finish, stop ------------------------------------

    def _remote_quiet(self) -> bool:
        """Every live host quiesced and both wire counters balanced.

        Comparisons are ``>=`` on purpose: reconnect retries can
        duplicate a frame (at-least-once), so a receiver may count more
        tuples than the sender believes it sent.
        """
        return all(
            bool(link.report.get("quiesced"))
            and link.report.get("received", -1) >= link.sent_to
            and link.received_from >= link.report.get("sent", float("inf"))
            and not link.outq
            for link in self._live_links()
        )

    def _loss_signature(self, sources_done: bool, local_quiet: bool) -> Any:
        # Frames can be lost across a death or flap, so once either has
        # happened watch the *full* progress picture: wire counters plus
        # local-operator closure and tuple counts.
        if not sources_done or not (
            self._host_deaths or any(l.reconnects for l in self._links.values())
        ):
            return None
        return (
            tuple(
                (
                    link.host_id,
                    link.report.get("quiesced"),
                    link.report.get("received"),
                    link.report.get("sent"),
                    link.sent_to,
                    link.received_from,
                    len(link.outq),
                )
                for link in self._live_links()
            ),
            tuple(op.is_closed for op in self._local_ops),
            sum(op.tuples_in for op in self._local_ops),
            self._inflight,
        )

    def _accept_loss(self) -> bool:
        if not self._nudged:
            # The loss may have swallowed end-of-stream punctuation, in
            # which case no amount of waiting completes the run.  An
            # early "finish" makes every host's channel source return,
            # punctuating the host graph and, via the relays, the
            # coordinator's operators.
            self._nudged = True
            self._finish_remote()
            return False
        # Frozen again after the nudge: the residue is truly gone.
        for link in self._live_links():
            rep = link.report
            self._lost += max(0, link.sent_to - rep.get("received", 0))
            self._lost += max(0, rep.get("sent", 0) - link.received_from)
        return True

    def _remote_running(self) -> list[str]:
        return [
            f"h{hid} (to host {link.sent_to}/{link.report.get('received')}"
            f" received, from host {link.received_from}/"
            f"{link.report.get('sent')} sent)"
            for hid, link in self._links.items()
            if hid in self._procs and self._procs[hid].is_alive()
        ]

    def _finish_remote(self) -> None:
        for link in self._live_links():
            link.enqueue({"t": "finish"})

    def _reports_pending(self) -> list:
        return [l.host_id for l in self._live_links() if l.done is None]

    def _stop_remote(self) -> None:
        for hid, link in self._links.items():
            with link.cv:
                link.cv.notify_all()
            proc = self._procs.get(hid)
            if proc is not None:
                if link.done is None:
                    # Aborted run: nothing will tell this host to finish.
                    proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung
                    proc.terminate()
            with link.cv:
                if link.sock is not None:
                    try:
                        link.sock.close()
                    except OSError:  # pragma: no cover
                        pass
                    link.sock = None
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        for t in [self._accept] + self._threads:
            t.join(timeout=2.0)

    def _fold_reports(self) -> None:
        """Fold host results back into coordinator-side objects.

        ``done`` payload values may carry pickled attributes; decoding
        them with ``allow_pickle=True`` is a deliberate trust decision —
        the frame arrived on a connection whose hello echoed this run's
        random ``run_id``, which only processes we spawned were given.
        That holds **only on a loopback bind**: the run_id travels in
        cleartext, so on a shared network it authenticates nothing.  A
        non-loopback engine therefore decodes with
        ``allow_pickle=False`` (set in ``__init__``, with a warning) and
        a pickled attribute raises ``WireDecodeError`` instead of
        executing.  Data-plane frames stay pickle-free regardless.
        """
        links = self._links.values()
        totals = {
            "hosts": len(links),
            "host_deaths": self._host_deaths,
            "reconnects": sum(l.reconnects for l in links),
            "tuples_to_hosts": sum(l.sent_to for l in links),
            "tuples_from_hosts": sum(l.received_from for l in links),
            "tuples_dropped": sum(l.dropped for l in links),
            "tuples_lost": self._lost,
            "frames_in": 0,
            "frames_out": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        for link in links:
            if link.done is None:
                continue
            self._fold_report(
                f"h{link.host_id}",
                link.done,
                decode=lambda v: _decode_value(
                    v, allow_pickle=self._pickle_ok
                ),
            )
            for key in ("frames_in", "frames_out", "bytes_in", "bytes_out"):
                totals[key] += link.done.get("transport", {}).get(key, 0)
        self.cluster_stats = totals
