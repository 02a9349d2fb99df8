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
  deadlock cycle).  A host runs two threads, its engine and its sender;
  every frame the sender writes carries the host's state with it;
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

Run steps
---------
:class:`ClusterEngine` extends each step of the
:class:`~repro.streams.engine.ThreadedEngine` run loop through
``super()``: ``_wire`` adds the link emit to the operators with a
successor on a host; ``_start`` starts the hosts first; ``_tick`` adds
host liveness; ``_quiescent`` adds the link ledgers and the loss step;
``_complete`` sends ``finish`` and folds the hosts' final reports;
``_teardown`` stops the hosts.

A link's in-flight ledger is a pair of wire counters: a host is quiet
once its latest frame says *quiesced* and the sent/received tuple counts
match in both directions (nothing in flight on the sockets).  The final
report additionally carries the host's channel counters (see
:attr:`ClusterEngine.cluster_stats`), and its operator state arrives
wire-encoded, merged under an ``h<id>`` process label.

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
:class:`~repro.streams.wireproto.ReconnectingChannel`); the loss step
of quiescence then first nudges the hosts with an early ``finish`` (the
loss may have swallowed end-of-stream punctuation) and, if the progress
picture stays frozen, ends the run and records the residue in
``cluster_stats["tuples_lost"]``.
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
from copy import copy as _shallow_copy
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

import numpy as np

from .engine import SynchronousEngine, ThreadedEngine, row_weight
from .fusion import ProcessingElement
from .graph import Graph
from .operators import Operator, Sink, Source
from .supervision import (
    EngineAborted,
    OperatorFailure,
    RestartFromCheckpoint,
    StallDetected,
    Supervisor,
)
from .telemetry import Telemetry, operator_metric_samples
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

#: How long the progress picture must stay unchanged, after a host death
#: or a link flap, before the loss step acts (see
#: :meth:`ClusterEngine._loss_step`).
_LOSS_GRACE_S = 2.0

#: Location of the coordinator in route tables (hosts are ints).
_MAIN = "main"

#: Attributes never shipped to a host: runtime wiring (closures),
#: telemetry objects (hold locks), and probe callables.
_UNPICKLABLE_ATTRS = (
    "_emit", "_load_probe", "_latency_hist", "_telemetry",
    "_e2e_hist", "_watermark", "_health_monitor",
    "_state_lock",
)


def _sanitize(op: Operator) -> Operator:
    """A shallow copy of ``op`` safe to pickle into a host."""
    clone = _shallow_copy(op)
    for attr in _UNPICKLABLE_ATTRS:
        if hasattr(clone, attr):
            setattr(clone, attr, None)
    return clone


def _strip_payload(state: dict[str, Any]) -> dict[str, Any]:
    for attr in _UNPICKLABLE_ATTRS:
        state.pop(attr, None)
    return state


def _final_report(
    ops: Iterable[Operator], supervisor: Supervisor | None, metrics: bool
) -> dict[str, Any]:
    """What a host ships home at ``finish``: the wire-encoded state of
    its operators, its metrics shard and its supervision counters;
    :meth:`ClusterEngine._fold_report` is the receiving half."""
    ops = list(ops)
    return {
        "ops": {
            op.name: {
                k: _encode_value(v)
                for k, v in _strip_payload(dict(op.__dict__)).items()
            }
            for op in ops
        },
        "metrics": [
            (name, kind, dict(labels), float(value))
            for name, kind, labels, value in operator_metric_samples(ops)
        ] if metrics else [],
        "sup": asdict(supervisor.stats) if supervisor is not None else None,
    }


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
    ) -> None:
        super().__init__(name, n_outputs=1)
        self._channel = channel
        self._portmap = portmap
        self._counters = counters
        self._out_cv = out_cv

    def _ack(self) -> None:
        with self._out_cv:
            self._out_cv.notify()

    def generate(self):
        counters = self._counters
        while True:
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
        **_DEFAULT_RECONNECT,
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
    src = _ChannelSource(f"__chan_h{hid}", channel, portmap, counters, out_cv)
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


def _host_sender_loop(
    channel: ReconnectingChannel,
    outq: deque,
    out_cv: threading.Condition,
    counters: dict[str, int],
    ops: list[Operator],
    stop: threading.Event,
    host_id: int,
) -> None:
    """The host's one voice: relay, ack and report state in one frame.

    Every ``"tuples"`` frame carries up to :data:`_BATCH_MAX` relayed
    tuples, the cumulative ack of consumed rows, and the host's state:
    ``quiesced`` (every operator closed and everything it emitted in
    this frame or an earlier one), and the ``received``/``sent`` tuple
    counts the coordinator balances against its own.  A frame goes out
    when there is something to relay or the state changed (woken by the
    relay, by an ack, or within 30 ms); with nothing to relay it is a
    state frame alone.

    If this thread dies (typically ``channel.send`` exhausting its
    redial budget) while the engine thread keeps running, the host turns
    into a zombie: it keeps computing, its output silently never leaves
    the process, and the coordinator sees a live, never-quiescing host
    until the run timeout.  Exiting the whole process instead hands the
    failure to the coordinator's death detection, which either fails the
    run fast or (``tolerate_host_loss=True``) degrades it cleanly.
    """
    try:
        last = None
        while True:
            with out_cv:
                # Closure first: whatever a closed operator emitted is
                # already queued, so an empty queue after this batch
                # means the frame's ``sent`` covers all of it.
                closed = all(op.is_closed for op in ops)
                n = min(len(outq), _BATCH_MAX)
                batch = [outq.popleft() for _ in range(n)]
                state = (
                    closed and not outq,
                    counters["received"],
                    counters["sent"] + n,
                    counters["consumed"],
                )
                if not batch and state == last:
                    if stop.is_set():
                        return
                    out_cv.wait(timeout=0.03)
                    continue
            last = state
            quiesced, received, sent, acked = state
            channel.send({
                "t": "tuples", "items": batch, "acked": acked,
                "quiesced": quiesced, "received": received, "sent": sent,
            })
            counters["sent"] = sent
    except BaseException:
        traceback.print_exc()
        print(
            f"host{host_id}: sender thread failed; exiting so the "
            f"coordinator's death detection takes over",
            flush=True,
        )
        os._exit(1)


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

    graph = _build_host_graph(spec, channel, outq, out_cv, counters)
    if spec.resume:
        _restore_checkpoints(spec)
    supervisor = (
        Supervisor(policies=spec.policies) if spec.policies else None
    )
    engine = SynchronousEngine(graph, supervisor=supervisor)

    sender = threading.Thread(
        target=_host_sender_loop,
        args=(channel, outq, out_cv, counters, spec.ops, stop, spec.host_id),
        name=f"host{spec.host_id}-sender",
        daemon=True,
    )
    sender.start()
    engine.run()

    # Drain the outbound queue, then retire the sender before touching
    # the channel from this thread.
    deadline = time.perf_counter() + 30.0
    while outq and time.perf_counter() < deadline:
        time.sleep(0.005)
    stop.set()
    with out_cv:
        out_cv.notify_all()
    sender.join(timeout=5.0)

    channel.send({
        "t": "done",
        "host": spec.host_id,
        **_final_report(spec.ops, supervisor, spec.metrics),
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

        self._ops_by_name = {op.name: op for op in graph}
        if not self._place(main_ops, n_hosts):
            raise ValueError(
                "cluster runtime has no operators to place on hosts; "
                "use the synchronous/threaded runtime instead"
            )
        self._links: dict[int, _HostLink] = {
            hid: _HostLink(hid) for hid in self._remote_ops
        }
        self._specs: dict[int, _HostSpec] = {}
        #: host → its OS process: what :meth:`kill_remote` and
        #: :meth:`_died` act on.
        self._procs: dict[int, Any] = {}
        self._exit_seen: dict[int, float] = {}
        #: host → (operator, port) pairs it has been sent punctuation
        #: on, sent again to a respawned host.
        self._sent_puncts: dict[int, set[tuple[str, int]]] = {}
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._run_id = ""
        self._host_deaths = 0
        #: ``(since, picture)`` while the loss step watches a picture.
        self._frozen: tuple[float, Any] | None = None
        self._nudged = False
        self._lost = 0
        #: Wire/transport totals, populated at shutdown.
        self.cluster_stats: dict[str, int] = {}

    # -- placement ----------------------------------------------------------

    @property
    def n_hosts(self) -> int:
        return len(self._remote_ops)

    def _place(
        self, main_ops: Iterable[str], n_hosts: int | None
    ) -> list[ProcessingElement]:
        """Cut the graph between the coordinator and its hosts.

        PEs holding a source, a sink or an operator named in ``main_ops``
        stay here; the others are dealt round-robin over ``n_hosts``
        hosts (default: one each) and returned.
        """
        self.main_ops = set(main_ops)
        self._loc_of: dict[str, Any] = {op.name: _MAIN for op in self.graph}
        unknown = self.main_ops - set(self._loc_of)
        if unknown:
            raise ValueError(
                f"main_ops name unknown operators: {sorted(unknown)}"
            )
        self._main_pes, placed = [], []
        for pe in self.fusion.pes:
            pinned = any(
                isinstance(op, (Source, Sink)) or op.name in self.main_ops
                for op in pe.operators
            )
            (self._main_pes if pinned else placed).append(pe)
        n_hosts = len(placed) if n_hosts is None else min(n_hosts, len(placed))
        self._remote_ops: dict[int, list[Operator]] = {
            loc: [] for loc in range(n_hosts)
        }
        for i, pe in enumerate(placed):
            self._remote_ops[i % n_hosts].extend(pe.operators)
            for op in pe.operators:
                self._loc_of[op.name] = i % n_hosts
        self._local_ops = [
            op for op in self.graph if self._loc_of[op.name] == _MAIN
        ]
        return placed

    def _routes_for(
        self, op: Operator
    ) -> dict[int, list[tuple[Any, str, int]]]:
        """out port → ``[(location, operator name, in port)]``."""
        routes: dict[int, list[tuple[Any, str, int]]] = {}
        for port in range(op.n_outputs):
            entries = [
                (self._loc_of[dst.name], dst.name, in_port)
                for dst, in_port in self.graph.successors(op, port)
            ]
            if entries:
                routes[port] = entries
        return routes

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
        """Host ``hid``'s start-up spec: its operators, their routes and
        failure policies.  Only the *policies* cross — a supervisor
        holds locks — and the host runs its own in-process supervisor
        over them."""
        ops = self._remote_ops[hid]
        policies = self.supervisor.policies if self.supervisor else {}
        return _HostSpec(
            host_id=hid,
            addr=addr,
            run_id=self._run_id,
            ops=[_sanitize(op) for op in ops],
            routes={op.name: self._routes_for(op) for op in ops},
            inbound=self._inbound_for(hid),
            policies={
                op.name: policies[op.name] for op in ops if op.name in policies
            },
            metrics=(
                self.telemetry is not None and self.telemetry.config.metrics
            ),
            flap_after=self.flap_hosts.get(hid),
            blas_threads=max(1, (os.cpu_count() or 1) // self.n_hosts),
        )

    # -- sending, receiving, probing ----------------------------------------

    def _wire(self) -> None:
        """The local wiring, then the link emit on each local operator
        with a successor on a host; the others keep the plain emit."""
        super()._wire()
        for op in self._local_ops:
            remote = {
                port: hops
                for port, entries in self._routes_for(op).items()
                if (hops := [e for e in entries if e[0] != _MAIN])
            }
            if not remote:
                continue

            def emit(
                tup: StreamTuple, port: int, _local=op._emit, _remote=remote
            ) -> None:
                _local(tup, port)
                for loc, name, in_port in _remote.get(port, ()):
                    self._send(loc, name, in_port, tup)

            op.bind(emit)

    def _send(
        self, loc: int, dst_name: str, dst_port: int, tup: StreamTuple
    ) -> None:
        """Ship one tuple to an operator on host ``loc``; a data tuple
        first waits for window credit."""
        if tup.is_punctuation:
            self._sent_puncts.setdefault(loc, set()).add((dst_name, dst_port))
        self._links[loc].enqueue(
            (dst_name, dst_port, to_wire(tup)), row_weight(tup), self._stop
        )

    def _inject(self, dst_name: str, tup: StreamTuple, port: int) -> None:
        """Hand a tuple that arrived from a host to a local operator."""
        dst = self._ops_by_name[dst_name]
        self._put(self._pe_of[id(dst)].pe_id, dst, port, tup)

    def _depth(self, src: Operator, dst: Operator) -> int:
        loc = self._loc_of[dst.name]
        if loc == _MAIN:
            return super()._depth(src, dst)
        return self._links[loc].outstanding

    def _gauges(self) -> tuple[list[tuple[str, int, int]], int]:
        gauges, inflight = super()._gauges()
        links = [
            (f"h{hid}", link.outstanding, _WINDOW_ROWS)
            for hid, link in self._links.items()
        ]
        return gauges + links, inflight + sum(d for _, d, _ in links)

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
            self._spawn(
                f"cluster-recv-h{link.host_id}", self._receiver_loop,
                link, conn, link.attach(conn),
            )
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
                # Counters first, items after: until every item is on
                # the local ledger the link reads as not yet balanced.
                link.report = {
                    k: msg[k] for k in ("quiesced", "received", "sent")
                }
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
        elif t == "done" and current:
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

    def _start(self) -> None:
        """Start the hosts, then the local threads.

        Hosts start before any coordinator thread: they dial into the
        listen backlog, and a fork-context child never inherits a
        thread's locks.
        """
        self._run_id = uuid.uuid4().hex
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.port))
        listener.listen(len(self._links) + 2)
        listener.settimeout(0.2)
        self._listener = listener
        addr = (self.bind_host, listener.getsockname()[1])
        self._specs = {hid: self._build_spec(hid, addr) for hid in self._links}
        for hid in self._links:
            self._start_host(hid)
        self._accept = self._spawn("cluster-accept", self._accept_loop)
        for link in self._links.values():
            self._spawn(
                f"cluster-send-h{link.host_id}", self._sender_loop, link
            )
        super()._start()

    def _spawn(self, name: str, target, *args) -> threading.Thread:
        t = threading.Thread(target=target, args=args, name=name, daemon=True)
        t.start()
        self._threads.append(t)
        return t

    def _start_host(self, hid: int) -> None:
        self._procs[hid] = self._ctx.Process(
            target=_host_main,
            args=(self._specs[hid],),
            name=f"repro-host{hid}",
            daemon=True,
        )
        self._procs[hid].start()

    def kill_remote(self, loc: int) -> bool:
        """SIGKILL host ``loc`` (the chaos hook); whether a live process
        was there to kill."""
        proc = self._procs.get(loc)
        if proc is None or not proc.is_alive():
            return False
        proc.kill()
        return True

    def _died(self, loc: int) -> bool:
        """Whether host ``loc``'s process is gone for good.

        A clean exit (code 0) gets a 5 s grace first: its final report
        may still be in transit to the receiver.
        """
        proc = self._procs[loc]
        if proc.is_alive():
            self._exit_seen.pop(loc, None)
            return False
        if proc.exitcode == 0:
            first_seen = self._exit_seen.setdefault(loc, time.perf_counter())
            if time.perf_counter() - first_seen < 5.0:
                return False
        self._exit_seen.pop(loc, None)
        return True

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
            self._send(hid, dst_name, dst_port, StreamTuple.punctuation())

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

    def _tick(self) -> None:
        """The local step, then host liveness: a dead host is respawned
        from its checkpoint, fails the run, or (``tolerate_host_loss``)
        is dropped with punctuation injected on its routes."""
        super()._tick()
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
                            self._send(dst_loc, dst_name, dst_port, punct)

    def _live_links(self) -> list[_HostLink]:
        return [l for l in self._links.values() if not l.dead]

    # -- quiescence, completion, teardown -----------------------------------

    def _quiescent(self) -> bool:
        """Every live host quiesced, both wire counters of its link
        balanced, and the local step quiet — or the loss step ends the
        run.

        Link ledgers first: a tuple a host has signed off is already on
        the local one.  Comparisons are ``>=`` on purpose: reconnect
        retries can duplicate a frame (at-least-once), so a receiver may
        count more tuples than the sender believes it sent.
        """
        links_quiet = all(
            bool(link.report.get("quiesced"))
            and link.report.get("received", -1) >= link.sent_to
            and link.received_from >= link.report.get("sent", float("inf"))
            and not link.outq
            for link in self._live_links()
        )
        if super()._quiescent() and links_quiet:
            return True
        return self._loss_step()

    def _loss_step(self) -> bool:
        """Whether to end the run on counted loss.

        After a host death or a link flap, frames that were inside a
        dead socket are gone and the ledgers never balance again.  Once
        the sources are done, this step watches the whole progress
        picture — wire counters, local operator closure and tuple
        counts.  When it has stayed unchanged for :data:`_LOSS_GRACE_S`,
        the first freeze sends every live host an early ``finish`` (the
        loss may have swallowed an end-of-stream punctuation, which no
        window sees: it weighs nothing); a second freeze ends the run
        and counts the residue in ``cluster_stats["tuples_lost"]``.
        """
        if any(t.is_alive() for t in self._src_threads) or not (
            self._host_deaths or any(l.reconnects for l in self._links.values())
        ):
            self._frozen = None
            return False
        picture = (
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
        now = time.perf_counter()
        if self._frozen is None or self._frozen[1] != picture:
            self._frozen = (now, picture)
            return False
        if now - self._frozen[0] <= _LOSS_GRACE_S:
            return False
        self._frozen = None
        if not self._nudged:
            self._nudged = True
            for link in self._live_links():
                link.enqueue({"t": "finish"})
            return False
        for link in self._live_links():
            rep = link.report
            self._lost += max(0, link.sent_to - rep.get("received", 0))
            self._lost += max(0, rep.get("sent", 0) - link.received_from)
        return True

    def _running(self) -> list[str]:
        return super()._running() + [
            f"h{hid} (to host {link.sent_to}/{link.report.get('received')}"
            f" received, from host {link.received_from}/"
            f"{link.report.get('sent')} sent)"
            for hid, link in self._links.items()
            if hid in self._procs and self._procs[hid].is_alive()
        ]

    def _complete(self) -> None:
        """Raise ``finish`` here and on every live host, wait for the
        hosts' final reports, let the local runners drain, then fold the
        reports into the coordinator's objects."""
        self._finish.set()
        for link in self._live_links():
            link.enqueue({"t": "finish"})
        deadline = time.perf_counter() + 60.0
        while pending := [
            l.host_id for l in self._live_links() if l.done is None
        ]:
            self._tick()
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"hosts {pending} did not report final state"
                )
            time.sleep(0.002)
        super()._complete()
        self._fold_reports()

    def _teardown(self) -> None:
        super()._teardown()
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
        for t in self._threads:
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
            self._fold_report(f"h{link.host_id}", link.done)
            for key in ("frames_in", "frames_out", "bytes_in", "bytes_out"):
                totals[key] += link.done.get("transport", {}).get(key, 0)
        self.cluster_stats = totals

    def _fold_report(self, label: str, report: dict[str, Any]) -> None:
        """Fold one host's :func:`_final_report` into the coordinator's
        operators, telemetry and supervisor, so results and ``RunStats``
        read the same wherever an operator ran."""
        for name, state in report["ops"].items():
            op = self._ops_by_name.get(name)
            if op is None:
                continue
            op.__dict__.update(_strip_payload({
                k: _decode_value(v, allow_pickle=self._pickle_ok)
                for k, v in state.items()
            }))
        if self.telemetry is not None and report.get("metrics"):
            self.telemetry.merge_shard(label, report["metrics"])
        if self.supervisor is not None:
            for table, counts in (report.get("sup") or {}).items():
                mine = getattr(self.supervisor.stats, table)
                for name, n in counts.items():
                    mine[name] = mine.get(name, 0) + n
