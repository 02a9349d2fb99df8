"""ClusterEngine: the coordinator with TCP-connected hosts as remote ends.

The paper treats fused vs distributed as a placement with two costs: a
local handoff or a network hop.  :class:`ClusterEngine` is the
:class:`~repro.streams.engine.ThreadedEngine` coordinator (a subclass:
the run protocol is inherited unchanged) that keeps the sources, sinks
and control operators (split, sync controller) and places every other
operator on **engine hosts** — separate OS processes reached over real
TCP sockets speaking the length-prefixed framed protocol of
:mod:`repro.streams.wireproto`.  It runs both remote runtimes:
``"process"`` (the hosts are local processes on loopback, one per PCA
engine, scaling across the cores of one machine) and ``"cluster"`` (the
paper's Figs 6–7 scale-out); the protocol itself is host-agnostic.

Topology and transport
----------------------
The graph is cut into a star: every cross-host edge is relayed through
the coordinator (the PCA application has no engine↔engine edges, and a
star keeps membership, eviction and punctuation injection in one
place).  Each host holds one :class:`~repro.streams.wireproto.
ReconnectingChannel` to the coordinator:

* tuples travel as ``to_wire`` dicts inside coalesced ``"tuples"``
  frames — numpy blocks cross as raw buffers, never pickled or copied;
* the receive side decodes with ``from_wire`` (no pickles) and the
  ``register_wire_type`` allowlist: socket bytes are untrusted (see
  ``docs/robustness.md``);
* outbound traffic on both sides goes through a deque drained by a
  dedicated sender thread, so neither end ever blocks on a socket write
  while the peer is itself mid-write (the classic TCP backpressure
  deadlock cycle);
* each link has a **data window** of :data:`_WINDOW_ROWS` rows: a data
  tuple for a host waits until the host has acked enough of the rows it
  was sent (hosts ack as they consume), which bounds the coordinator's
  memory and what a host death can lose.  Control tuples and
  punctuation never wait, so the sync cycle cannot deadlock on it;
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

A host that dies — or that stops making progress for ``stall_timeout_s``
and is terminated — is detected by the per-tick liveness check.  When
the supervisor gives one of its operators a
:class:`~repro.streams.supervision.RestartFromCheckpoint` policy the
host is respawned with ``resume=True``: its operators reload the
policy store's latest checkpoint, the new process re-attaches through
the hello handshake, whatever was still queued for the link goes to it,
and the punctuation its predecessor had been sent is sent again.  There
is no redelivery: loss is bounded by the window (rows sent, not yet
consumed) plus the operator state since the last checkpoint.  Otherwise,
with ``tolerate_host_loss=True`` (the chaos scenarios and the CLI kill
runs) the coordinator injects punctuation on the dead host's routes so
the controller's punctuation contract holds, drops (and counts) traffic
bound for it, and lets the SyncController's staleness eviction + quorum
carry the run — the paper's degraded-mode story over a real wire.
Without either a host death fails fast, matching the other engines.

After a death or a flap, frames that were in the kernel's socket
buffers may be lost (delivery is at-least-once across reconnects, see
:class:`~repro.streams.wireproto.ReconnectingChannel`); the
frozen-progress grace window then first nudges the hosts with an early
``finish`` (the loss may have swallowed end-of-stream punctuation) and,
if the counters stay frozen, accepts completion and records the residue
in ``cluster_stats["tuples_lost"]``.
"""

from __future__ import annotations

import ctypes
import glob
import ipaddress
import multiprocessing as mp
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

import numpy as np

from .engine import (
    _MAIN,
    SynchronousEngine,
    ThreadedEngine,
    _final_report,
    row_weight,
)
from .graph import Graph
from .operators import Operator, Sink, Source
from .supervision import (
    EngineAborted,
    OperatorFailure,
    RestartFromCheckpoint,
    StallDetected,
    Supervisor,
)
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

__all__ = ["ClusterEngine", "safe_mp_context"]

#: Tuples per coalesced ``"tuples"`` frame.
_BATCH_MAX = 64

#: Data rows a link may have queued or in flight and not yet consumed
#: by its host: eight 64-row blocks.  It also bounds each coordinator
#: inbox, so a remote run's coordinator holds a few windows of rows.
_WINDOW_ROWS = 8 * 64

#: A host acks once this many consumed rows are unacknowledged (and at
#: the end of every inbound frame), so the window refills while the
#: host still has rows to work on.
_ACK_ROWS = _WINDOW_ROWS // 4


def _close(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it: the shutdown wakes a thread
    blocked in ``select``/``accept`` on it, which a close alone does not."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # not connected, or already torn down
        pass
    sock.close()


def safe_mp_context(prefer: str | None = None):
    """A :mod:`multiprocessing` context that is safe to start *now*.

    ``fork`` is the cheapest start method but forking a multi-threaded
    process can deadlock the child on locks held by threads that do not
    survive the fork.  This helper picks ``fork`` only when the calling
    process is single-threaded, otherwise falls back to ``forkserver``
    (children fork from a clean single-threaded server) and finally
    ``spawn``.  Pass ``prefer`` to force a specific method (validated by
    :func:`multiprocessing.get_context`).
    """
    if prefer is not None:
        return mp.get_context(prefer)
    methods = mp.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return mp.get_context("fork")
    for method in ("forkserver", "spawn"):
        if method in methods:
            return mp.get_context(method)
    return mp.get_context()  # pragma: no cover - exotic platforms


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
    Decoding is strict (no pickles) because these bytes arrived over
    TCP.

    The engine resumes this generator only once the previous tuple is
    fully dispatched, so that is where a data tuple's rows count as
    consumed (``counters["consumed"]``); the sender thread, woken here,
    acks them to the coordinator.
    """

    def __init__(
        self,
        name: str,
        channel: ReconnectingChannel,
        portmap: dict[tuple[str, int], int],
        counters: dict[str, int],
        out_cv: threading.Condition,
        stop: threading.Event,
    ) -> None:
        super().__init__(name, n_outputs=1)
        self._channel = channel
        self._portmap = portmap
        self._counters = counters
        self._out_cv = out_cv
        self._stop = stop

    def _ack(self) -> None:
        with self._out_cv:
            self._out_cv.notify()

    def generate(self):
        counters = self._counters
        while not self._stop.is_set():
            msg = self._channel.recv(timeout_s=0.05)
            if msg is None:
                continue
            t = msg.get("t")
            if t == "tuples":
                unacked = 0
                for dst, port, wire in msg["items"]:
                    tup = from_wire(wire)
                    out = self._portmap[(dst, int(port))]
                    counters["received"] += 1
                    yield StreamTuple.control(out=out, tup=tup)
                    rows = row_weight(tup)
                    counters["consumed"] += rows
                    unacked += rows
                    if unacked >= _ACK_ROWS:
                        self._ack()
                        unacked = 0
                if unacked:
                    self._ack()
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
    here and drained to the socket by the host's sender thread.
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
        item = (dst_name, dst_port, to_wire(tup))
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
    #: A respawned host restores its operators from checkpoint first.
    resume: bool = False
    #: This host's share of the machine's cores, for its BLAS pool.
    blas_threads: int = 1


def _cap_blas_threads(n: int) -> None:
    """Cap this process's OpenBLAS pool at ``n`` threads.

    Every host inherits a pool sized for the whole machine, and OpenBLAS
    threads spin between calls: with two hosts on two cores, the block
    step's one ``eigh`` (69 × 69) measured 2.9 ms against 0.47 ms with
    one thread per host.  A no-op unless numpy runs its bundled OpenBLAS.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        set_threads = getattr(
            ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None
        )
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(n)


def _host_main(spec: _HostSpec) -> None:
    """Engine-host entry point (top-level: importable under spawn)."""
    _cap_blas_threads(spec.blas_threads)
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
        f"__chan_h{hid}", channel, portmap, counters, out_cv, stop
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
        acked = 0
        while True:
            batch: list = []
            with out_cv:
                while outq and len(batch) < _BATCH_MAX:
                    batch.append(outq.popleft())
                if not batch and counters["consumed"] == acked:
                    if stop.is_set():
                        return
                    out_cv.wait(timeout=0.05)
                    continue
                acked = counters["consumed"]
            # Every frame carries the cumulative ack; with nothing to
            # relay the frame is an ack alone.
            channel.send({"t": "tuples", "items": batch, "acked": acked})
            counters["sent"] += len(batch)
    except BaseException:
        _host_thread_failed(host_id, "sender")


def _restore_checkpoints(spec: _HostSpec) -> None:
    """Reload each restartable operator's last persisted snapshot (a
    respawned host, before its operators open)."""
    for op in spec.ops:
        policy = spec.policies.get(op.name)
        if (
            isinstance(policy, RestartFromCheckpoint)
            and policy.store is not None
            and hasattr(op, "restore_state")
        ):
            snap = policy.store.load_latest()
            if snap is not None:
                op.restore_state(snap)


def _host_loop(spec: _HostSpec, channel: ReconnectingChannel) -> None:
    outq: deque = deque()
    out_cv = threading.Condition()
    counters = {"received": 0, "sent": 0, "consumed": 0}
    stop = threading.Event()
    sender_stop = threading.Event()

    graph = _build_host_graph(spec, channel, outq, out_cv, counters, stop)
    if spec.resume:
        _restore_checkpoints(spec)
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
    """Coordinator-side state for one engine host.

    The wire counters (``sent_to``, ``received_from``, ``report``,
    ``acked``) describe the host's current *incarnation*; a respawn
    retires them and bumps :attr:`incarnation`, so frames still
    draining from the dead process cannot be mistaken for its
    successor's.
    """

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self.sock: socket.socket | None = None
        lock = threading.Lock()
        #: Wakes the sender thread: work queued, socket attached.
        self.cv = threading.Condition(lock)
        #: Wakes producers waiting for window credit.
        self.credit = threading.Condition(lock)
        #: ``(item, rows)``: a tuple triple or a control frame, and the
        #: rows it weighs against the window.
        self.outq: deque = deque()
        #: Data rows queued or sent and not yet acked — the window fill.
        self.outstanding = 0
        #: The host's cumulative consumed-row count, as last acked.
        self.acked = 0
        self.incarnation = 0
        self.sent_to = 0
        self.received_from = 0
        #: Wire counters of the incarnations before a respawn.
        self.retired_to = 0
        self.retired_from = 0
        self.report: dict[str, Any] = {}
        self.done: dict[str, Any] | None = None
        self.dead = False
        self.reconnects = 0
        self.dropped = 0
        self._ever_attached = False

    def enqueue(
        self, item: Any, rows: int = 0, stop: threading.Event | None = None
    ) -> None:
        """Queue ``item`` for the sender thread.

        With ``stop``, a data item (``rows > 0``) first waits for credit:
        it is admitted when it fits the window or nothing is outstanding
        (a block taller than the window goes alone), so the window fill
        never exceeds ``max(_WINDOW_ROWS, rows)``.  Control items never
        wait.
        """
        with self.cv:
            if stop is not None:
                while (
                    rows
                    and self.outstanding
                    and self.outstanding + rows > _WINDOW_ROWS
                    and not self.dead
                ):
                    if stop.is_set():
                        raise EngineAborted
                    self.credit.wait(timeout=0.05)
            if self.dead:
                self.dropped += 1
                return
            self.outq.append((item, rows))
            self.outstanding += rows
            self.cv.notify()

    def ack(self, acked: int) -> None:
        with self.cv:
            if acked > self.acked:
                self.outstanding = max(
                    0, self.outstanding - (acked - self.acked)
                )
                self.acked = acked
                self.credit.notify_all()

    def _restart_window(self) -> None:
        # Rows sent on a socket that is gone will never be acked: only
        # what is still queued stays outstanding.
        self.outstanding = sum(rows for _, rows in self.outq)
        self.credit.notify_all()

    def attach(self, sock: socket.socket) -> int:
        """Make ``sock`` the link's socket; returns the incarnation its
        frames belong to."""
        with self.cv:
            if self.sock is not None:
                _close(self.sock)
            if self._ever_attached:
                # Any attach after the first is a reconnect, whether or
                # not the sender already tore down the dead socket (the
                # EPIPE may land before or after the redial arrives).
                self.reconnects += 1
                self._restart_window()
            self._ever_attached = True
            self.sock = sock
            self.cv.notify_all()
            return self.incarnation

    def respawn(self) -> int:
        """Start a new incarnation.  What the dead one was sent and had
        not received is lost (returned, in tuples); what is still queued
        goes to its successor.  The old socket is left to its receiver
        thread, which drains it to EOF."""
        with self.cv:
            lost = max(0, self.sent_to - self.report.get("received", 0))
            self.incarnation += 1
            self.retired_to += self.sent_to
            self.retired_from += self.received_from
            self.sent_to = self.received_from = self.acked = 0
            self.report = {}
            self.sock = None
            self._ever_attached = False
            self._restart_window()
        return lost

    def mark_dead(self) -> int:
        """Flag the host dead; returns the dropped outbound backlog."""
        with self.cv:
            self.dead = True
            n = len(self.outq)
            self.dropped += n
            self.outq.clear()
            self.outstanding = 0
            self.cv.notify_all()
            self.credit.notify_all()
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
        What a dying host that no restart policy covers does to the run.
        ``False`` (default): it fails fast.  ``True``: the run degrades
        — punctuation is injected on the dead host's routes, its traffic
        is dropped (counted), and the SyncController's eviction/quorum
        machinery owns correctness.
    flap_hosts:
        Chaos hook: ``{host_id: n_frames}`` makes that host's channel
        sever itself once after receiving ``n_frames`` frames,
        exercising the reconnect path.
    reconnect:
        Overrides for the hosts' redial budget
        (``max_retries``/``base_s``/``cap_s``/``jitter``).
    supervisor:
        Coordinator-side supervisor.  Its *policies* (not the object —
        it holds locks) are shipped to the hosts, which run their own
        in-process supervisor; host stats merge back at shutdown.
        ``RestartFromCheckpoint`` policies additionally respawn a dead
        or wedged host from its checkpoint.
    telemetry:
        Host metrics shards merge back under ``process="h<id>"``
        labels; span tracing does not cross the wire.
    mp_context:
        Start-method name or ``None`` for :func:`safe_mp_context`; with
        restart policies ``None`` prefers ``forkserver``, because a
        respawn forks while coordinator threads are live.
    stall_timeout_s:
        Arm a :class:`~repro.streams.supervision.Watchdog` on
        coordinator-visible progress (local dispatches, frames from
        hosts).  When progress stops this long, a *wedged* host — alive
        but making no progress — that a restart policy covers is
        terminated and respawned like a dead one; with none to blame the
        run fails fast with :class:`StallDetected`.  Must exceed the
        slowest single-tuple processing time plus host start-up.
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
        stall_timeout_s: float | None = None,
    ) -> None:
        if n_hosts is not None and n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        super().__init__(
            graph,
            queue_size=_WINDOW_ROWS,
            supervisor=supervisor,
            stall_timeout_s=stall_timeout_s,
            telemetry=telemetry,
        )
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
        if (
            mp_context is None
            and supervisor is not None
            and any(
                isinstance(p, RestartFromCheckpoint)
                for p in supervisor.policies.values()
            )
            and "forkserver" in mp.get_all_start_methods()
        ):
            mp_context = "forkserver"
        self._ctx = safe_mp_context(mp_context)

        if not self._place(main_ops, n_hosts):
            raise ValueError(
                "cluster runtime has no operators to place on hosts; "
                "use the synchronous/threaded runtime instead"
            )
        self._links: dict[int, _HostLink] = {
            hid: _HostLink(hid) for hid in self._remote_ops
        }
        self._specs: dict[int, _HostSpec] = {}
        #: host → (operator, port) pairs it has been sent punctuation
        #: on, sent again to a respawned host.
        self._sent_puncts: dict[int, set[tuple[str, int]]] = {}
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
            blas_threads=max(1, (os.cpu_count() or 1) // self.n_hosts),
            **self._spec_fields(hid),
        )

    # -- seams: sending, probing ------------------------------------------

    def _send_remote(
        self, loc: int, dst_name: str, dst_port: int, tup: StreamTuple
    ) -> None:
        if tup.is_punctuation:
            self._sent_puncts.setdefault(loc, set()).add((dst_name, dst_port))
        self._links[loc].enqueue(
            (dst_name, dst_port, to_wire(tup)), row_weight(tup), self._stop
        )

    def _remote_depth(self, loc: int) -> int:
        return self._links[loc].outstanding

    def _remote_gauges(self) -> tuple[list[tuple[str, int, int]], int]:
        gauges = [
            (f"h{hid}", link.outstanding, _WINDOW_ROWS)
            for hid, link in self._links.items()
        ]
        return gauges, sum(depth for _, depth, _ in gauges)

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
            t = threading.Thread(
                target=self._receiver_loop,
                args=(link, conn, link.attach(conn)),
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

    def _receiver_loop(
        self, link: _HostLink, conn: socket.socket, incarnation: int
    ) -> None:
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
                self._handle(link, msg, incarnation == link.incarnation)
        except EngineAborted:
            pass
        except BaseException as exc:  # pragma: no cover - defensive
            self._errors.append(exc)
            self._stop.set()
        finally:
            _close(conn)

    def _handle(self, link: _HostLink, msg: dict, current: bool) -> None:
        """One frame from a host.  Frames a dead incarnation left in its
        socket (``current`` false) still deliver their tuples but no
        longer count on the link."""
        if self._watchdog is not None:
            self._watchdog.poke()
        t = msg.get("t")
        if t == "tuples":
            if current:
                link.ack(msg["acked"])
            for dst, port, wire in msg["items"]:
                tup = from_wire(wire)
                loc = self._loc_of[dst]
                if loc == _MAIN:
                    self._inject(dst, tup, int(port))
                else:
                    # Star relay for host→host edges (unused by the PCA
                    # app, but the protocol supports arbitrary cuts).
                    self._links[loc].enqueue(
                        (dst, int(port), wire), row_weight(tup)
                    )
                # Counted once it is on the local ledger, so the two
                # never both read "nothing in flight" for this tuple.
                if current:
                    link.received_from += 1
        elif t == "error":
            self._errors.append(
                OperatorFailure(
                    f"host{link.host_id}",
                    RuntimeError(msg.get("error", "host error")),
                    msg.get("traceback", ""),
                )
            )
            self._stop.set()
        elif not current:
            return
        elif t == "status":
            link.report = msg
        elif t == "done":
            link.report = {
                "quiesced": True,
                "received": msg["counters"]["received"],
                "sent": msg["counters"]["sent"],
            }
            link.done = msg

    def _sender_loop(self, link: _HostLink) -> None:
        pending: list = []
        while True:
            if not pending:
                with link.cv:
                    while link.outq and len(pending) < _BATCH_MAX:
                        pending.append(link.outq.popleft()[0])
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
                        _close(sock)
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

        # Hosts start before any coordinator thread: they dial into the
        # listen backlog, and a fork-context child never inherits a
        # thread's locks.
        self._specs = {hid: self._build_spec(hid, addr) for hid in self._links}
        for hid in self._links:
            self._start_host(hid)
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

    def _start_host(self, hid: int) -> None:
        self._procs[hid] = self._ctx.Process(
            target=_host_main,
            args=(self._specs[hid],),
            name=f"repro-host{hid}",
            daemon=True,
        )
        self._procs[hid].start()

    def _restart_policies(self, hid: int) -> list[tuple[str, Any]]:
        """(operator name, policy) for the host's restartable operators."""
        policies = self.supervisor.policies if self.supervisor else {}
        return [
            (op.name, policies[op.name])
            for op in self._remote_ops[hid]
            if isinstance(policies.get(op.name), RestartFromCheckpoint)
        ]

    def _restartable(self, hid: int) -> bool:
        return any(
            policy.max_restarts is None
            or self.supervisor.stats.restarts.get(name, 0)
            < policy.max_restarts
            for name, policy in self._restart_policies(hid)
        )

    def _respawn(self, hid: int) -> None:
        """Start a successor for dead host ``hid``, restored from its
        operators' checkpoints."""
        restarts = self.supervisor.stats.restarts
        for name, _ in self._restart_policies(hid):
            restarts[name] = restarts.get(name, 0) + 1
        link = self._links[hid]
        self._lost += link.respawn()
        self._specs[hid].resume = True
        self._start_host(hid)
        # Punctuation the predecessor consumed is gone with it.
        for dst_name, dst_port in sorted(self._sent_puncts.get(hid, ())):
            self._send_remote(
                hid, dst_name, dst_port, StreamTuple.punctuation()
            )

    def _on_stall(self, idle: float) -> None:
        """Recover from a wedged (alive but progress-free) host.

        A host stuck in a hung call never dies, so the liveness check
        never fires; the watchdog turns "no coordinator-visible progress
        for ``stall_timeout_s``" into a termination, and the death path
        respawns it from its checkpoint.  Without a restartable host to
        blame, failing fast beats hanging until the run timeout.
        """
        wedged = [
            hid for hid, proc in self._procs.items()
            if proc.is_alive()
            and self._links[hid].done is None
            and not self._links[hid].report.get("quiesced")
        ]
        killable = [hid for hid in wedged if self._restartable(hid)]
        if not killable:
            raise StallDetected(
                f"graph {self.graph.name!r}: no coordinator-visible "
                f"progress for {idle:.1f}s and no wedged host with a "
                f"RestartFromCheckpoint policy to recover "
                f"(wedged: {wedged})"
            )
        for hid in killable:
            proc = self._procs[hid]
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5.0)
        self._watchdog.poke()  # the kill is progress; the next tick respawns

    def _supervise_remote(self) -> None:
        for hid, proc in list(self._procs.items()):
            link = self._links[hid]
            if link.done is not None or link.dead or not self._died(hid):
                continue
            self._host_deaths += 1
            if self._restartable(hid):
                self._respawn(hid)
                continue
            if not self.tolerate_host_loss:
                raise OperatorFailure(
                    f"host{hid}",
                    RuntimeError(
                        f"engine host exited with code {proc.exitcode}"
                    ),
                    "no RestartFromCheckpoint policy covers this host "
                    "and tolerate_host_loss=False",
                )
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
                    _close(link.sock)
                    link.sock = None
        _close(self._listener)
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
            "tuples_to_hosts": sum(l.retired_to + l.sent_to for l in links),
            "tuples_from_hosts": sum(
                l.retired_from + l.received_from for l in links
            ),
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
