"""ProcessEngine: the coordinator with worker processes as remote ends.

The paper's PEs run as separate OS processes placed across a cluster;
:class:`~repro.streams.engine.ThreadedEngine` shares one GIL-bound
interpreter, so CPU-bound operators (robust PCA updates at large ``d``)
cannot scale past one core.  :class:`ProcessEngine` is that coordinator
with compute PEs in **worker processes**: it subclasses
:class:`~repro.streams.engine.ThreadedEngine`, inherits the run protocol
unchanged, and adds only what is about its transport.

Placement model (hybrid, like the paper's coordinator + compute nodes)
----------------------------------------------------------------------
Processing elements that contain a ``Source`` or ``Sink``, or any
operator named in ``main_ops``, execute in the **coordinator process**
on the inherited PE threads; every other PE becomes a worker process.
For the parallel-PCA application this puts the source, batcher, split,
sync controller, and diagnostics sink in the coordinator and each PCA
engine in its own process — blocks make exactly one process hop, and
run results (controller state, collected diagnostics, operator counters)
are read from coordinator-side objects exactly as with the other
runtimes.

Transport (see :mod:`repro.streams.shm`)
----------------------------------------
* ``BLOCK_SCHEMA`` data tuples cross on **shared-memory rings**: one
  bounded SPSC ring per (producer process → consumer process) edge,
  created lazily when the first block reveals ``d`` and announced over
  the destination's command queue.  The consumer dispatches numpy views
  into the mapped slot — block payloads are never pickled.
* Everything else (scalar/control tuples, punctuation, engine control)
  crosses on bounded ``multiprocessing`` queues as explicit wire dicts
  (:func:`repro.streams.tuples.to_wire`), with blocking backpressure.

Ordering is FIFO *per transport*.  A producer's queue traffic can
overtake its in-flight ring blocks (and vice versa) — harmless for the
PCA sync protocol, whose control messages are order-tolerant — with one
exception that is **not** tolerable: punctuation.  A channel's
punctuation is therefore held back by the consumer until that
producer's ring has drained (the producer always publishes its blocks
before emitting punctuation, so the holdback is sufficient).

Run-protocol delta
------------------
The transport's in-flight ledger is one shared counter covering every
cross-process message; a worker is quiet once it has announced
``quiesced`` (all operators closed) and that counter is zero.  The
final report additionally carries the worker's transport counters and
ring names (see :attr:`ProcessEngine.transport_stats`).

A worker that dies mid-run is detected by the per-tick liveness check.
If the attached :class:`~repro.streams.supervision.Supervisor` gives any
of the worker's operators a
:class:`~repro.streams.supervision.RestartFromCheckpoint` policy, the
worker is respawned with ``resume=True`` — operators reload their last
snapshot from the policy's on-disk
:class:`~repro.io.checkpoint.CheckpointStore`, the unread contents of
the command queue and ring survive (both are process-external), and the
coordinator re-announces rings and re-sends any punctuation the dead
worker had already received.  Loss is bounded to tuples that were being
dispatched at the instant of death plus operator state since the last
checkpoint; their in-flight counts never clear, which is what the
frozen-progress grace window absorbs.  Without a restart policy a worker
death aborts the run with
:class:`~repro.streams.supervision.OperatorFailure`.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from .batcher import BLOCK_SCHEMA
from .engine import _MAIN, ThreadedEngine, _deliverer, _final_report
from .fusion import FusionPlan
from .graph import Graph
from .operators import Operator
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
    TupleKind,
    from_wire,
    reseed_sequence,
    to_wire,
    tuple_from_fields,
)
from .shm import (
    BlockRing,
    RingFull,
    ensure_shared_tracker,
    ring_name,
    safe_mp_context,
)

__all__ = ["ProcessEngine"]


def _loc_str(loc: Any) -> str:
    return _MAIN if loc == _MAIN else f"w{loc}"


def _unlink_segment(name: str) -> None:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    try:
        seg.close()
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with another unlink
        pass


def _add_inflight(inflight, n: int) -> None:
    with inflight.get_lock():
        inflight.value += n


# ---------------------------------------------------------------------------
# The two transport halves (used by the coordinator and by every worker)
# ---------------------------------------------------------------------------


class _TransportSender:
    """Routes outgoing tuples onto the right transport.

    ``BLOCK_SCHEMA`` data tuples that fit a ring slot go to the lazily
    created shared-memory ring for their destination process (announced
    over the destination's queue before first use); everything else is
    wire-encoded onto the destination's bounded queue.  Every message
    increments the shared in-flight counter before it is made visible.

    Queue-path tuples travel in ``"tuples"`` messages.  A worker's sender
    (``src_loc`` is a worker id) is single-threaded by construction, so
    it *coalesces*: its tuples accumulate in a per-destination pending
    list that :meth:`flush` ships as one message per loop iteration.  One
    queue put, one pickle header and one in-flight lock acquisition then
    cover the whole batch — this is what keeps the per-row diagnostics
    fan-in of an unbatched pipeline from dominating the coordinator (see
    docs/performance.md §8).  The coordinator's own sender is shared by
    several PE threads and ships one tuple per message; that is already
    off the block hot path there.  A worker also disowns the rings it
    creates and leaves unlinking them to the coordinator, which outlives
    it.
    """

    #: Pending-batch cap per destination before an eager flush.
    _COALESCE_MAX = 64

    def __init__(
        self,
        src_loc: Any,
        run_id: str,
        queues: Mapping[Any, Any],
        inflight,
        stop_check,
        idx_names: list[str],
        *,
        ring_slots: int,
        slot_rows: int,
    ) -> None:
        self.src_loc = src_loc
        self.is_worker = src_loc != _MAIN
        self.run_id = run_id
        self.queues = dict(queues)
        self.inflight = inflight
        self.stop_check = stop_check
        self.op_index = {name: i for i, name in enumerate(idx_names)}
        self.ring_slots = ring_slots
        self.slot_rows = slot_rows
        #: dst_loc -> [(dst_name, dst_port, wire), ...] awaiting flush.
        self._pending: dict[Any, list[tuple[str, int, dict]]] = {}
        self.rings: dict[Any, BlockRing] = {}
        self.counters = {
            "blocks_ring": 0,
            "blocks_queue": 0,
            "tuples_queue": 0,
            "tuple_batches": 0,
        }

    # -- in-flight helpers ----------------------------------------------

    def _inc(self, n: int = 1) -> None:
        _add_inflight(self.inflight, n)

    def _dec(self, n: int = 1) -> None:
        _add_inflight(self.inflight, -n)

    # -- queue path -----------------------------------------------------

    def _qput(self, dst_loc: Any, msg: dict) -> None:
        q = self.queues[dst_loc]
        while True:
            try:
                q.put(msg, timeout=0.05)
                return
            except queue.Full:
                if self.stop_check():
                    raise EngineAborted from None

    def send_raw(self, dst_loc: Any, msg: dict) -> None:
        """Send a non-tuple control message (no in-flight accounting)."""
        self._qput(dst_loc, msg)

    # -- ring path ------------------------------------------------------

    def _ring_for(self, dst_loc: Any, dim: int) -> BlockRing | None:
        ring = self.rings.get(dst_loc)
        if ring is not None:
            return ring if ring.dim == dim else None
        name = ring_name(
            self.run_id, _loc_str(self.src_loc), _loc_str(dst_loc)
        )
        ring = BlockRing(
            name,
            slots=self.ring_slots,
            slot_rows=self.slot_rows,
            dim=dim,
            create=True,
        )
        if self.is_worker:
            ring.disown()
        self.rings[dst_loc] = ring
        self.announce(dst_loc)
        return ring

    def announce(self, dst_loc: Any) -> None:
        """(Re-)announce the ring for ``dst_loc`` on its queue."""
        ring = self.rings.get(dst_loc)
        if ring is None:
            return
        self.send_raw(dst_loc, {
            "t": "ring",
            "src": self.src_loc,
            "name": ring.name,
            "slots": ring.slots,
            "rows": ring.slot_rows,
            "dim": ring.dim,
        })

    # -- the one entry point --------------------------------------------

    def send(
        self, dst_loc: Any, dst_name: str, dst_port: int, tup: StreamTuple
    ) -> None:
        if tup.is_data and tup.schema is BLOCK_SCHEMA:
            xs = tup.payload["xs"]
            if (
                isinstance(xs, np.ndarray)
                and xs.ndim == 2
                and xs.shape[0] <= self.slot_rows
            ):
                ring = self._ring_for(dst_loc, xs.shape[1])
                if ring is not None:
                    self._inc()
                    try:
                        ring.put(
                            self.op_index[dst_name],
                            dst_port,
                            xs,
                            tup.payload.get("seqs"),
                            tup.seq,
                            tup.event_ts,
                            should_abort=self.stop_check,
                            timeout_s=120.0,
                        )
                    except RingFull:
                        self._dec()
                        if self.stop_check():
                            raise EngineAborted from None
                        raise
                    self.counters["blocks_ring"] += 1
                    return
            # Oversized block or dimension change: visible fallback.
            self.counters["blocks_queue"] += 1
        else:
            self.counters["tuples_queue"] += 1
        # Counted here: the shared counter must cover the tuple from the
        # instant it leaves the operator, or the quiesce check could fire
        # while it sits in the pending list.
        self._inc()
        item = (dst_name, dst_port, to_wire(tup))
        if not self.is_worker:
            self._put_items(dst_loc, [item])
            return
        pending = self._pending.setdefault(dst_loc, [])
        pending.append(item)
        if len(pending) >= self._COALESCE_MAX:
            self._flush_dst(dst_loc)

    def _flush_dst(self, dst_loc: Any) -> None:
        items = self._pending.get(dst_loc)
        if items:
            self._pending[dst_loc] = []
            self._put_items(dst_loc, items)

    def _put_items(self, dst_loc: Any, items: list) -> None:
        self.counters["tuple_batches"] += 1
        try:
            self._qput(
                dst_loc,
                {"t": "tuples", "src": self.src_loc, "items": items},
            )
        except EngineAborted:
            self._dec(len(items))
            raise

    def flush(self) -> None:
        """Ship every pending coalesced batch (one message per dest)."""
        for dst_loc in list(self._pending):
            self._flush_dst(dst_loc)

    def close(self) -> None:
        for ring in self.rings.values():
            ring.close()
            if not self.is_worker:
                ring.unlink()


class _RingReceiver:
    """The receive half: inbound rings and punctuation holdback.

    ``deliver(op name, tuple, in port)`` hands a received tuple on.  With
    ``copy=False`` (workers: delivery is a synchronous dispatch) a block
    is delivered as views into its ring slot, released afterwards; with
    ``copy=True`` (coordinator: delivery is a put on a PE inbox) it is
    copied out first — one memcpy, still no pickling.  Every received
    message leaves the shared ``inflight`` counter here.
    """

    def __init__(self, idx_names, inflight, deliver, *, copy: bool) -> None:
        self.idx_names = idx_names
        self.inflight = inflight
        self.deliver = deliver
        self.copy = copy
        #: Keyed by segment name: a restarted producer creates a *new*
        #: segment for the same source, and both must keep draining.
        self.rings: dict[str, BlockRing] = {}
        self._rings_of: dict[Any, list[BlockRing]] = {}
        self.held: list[tuple[Any, str, int, StreamTuple]] = []

    def _src_has_blocks(self, src: Any) -> bool:
        return any(r.depth() > 0 for r in self._rings_of.get(src, ()))

    def idle(self) -> bool:
        return not self.held and all(
            r.depth() == 0 for r in self.rings.values()
        )

    def blocks_in(self) -> int:
        return sum(r.blocks_out for r in self.rings.values())

    def drain(self) -> bool:
        progressed = False
        for ring in self.rings.values():
            while True:
                item = ring.get()
                if item is None:
                    break
                _add_inflight(self.inflight, -1)
                xs, seqs = item.xs, item.seqs
                if self.copy:
                    xs, seqs = np.array(xs), np.array(seqs)
                    ring.release()
                tup = tuple_from_fields(
                    {"xs": xs, "seqs": seqs, "count": int(xs.shape[0])},
                    TupleKind.DATA,
                    BLOCK_SCHEMA,
                    item.tuple_seq,
                    item.event_ts,
                )
                try:
                    self.deliver(
                        self.idx_names[item.dst_idx], tup, item.dst_port
                    )
                finally:
                    # Views into the slot are valid only during delivery.
                    if not self.copy:
                        ring.release()
                progressed = True
        return progressed

    def release_held(self) -> bool:
        progressed = False
        remaining = []
        for src, name, port, tup in self.held:
            if self._src_has_blocks(src):
                remaining.append((src, name, port, tup))
                continue
            self.deliver(name, tup, port)
            progressed = True
        self.held[:] = remaining
        return progressed

    def _dispatch_wire(
        self, src: Any, dst: str, port: int, wire: dict
    ) -> None:
        tup = from_wire(wire)
        if tup.is_punctuation and self._src_has_blocks(src):
            # Punctuation holdback: this producer's blocks are still in
            # its ring; dispatching end-of-stream now would lose them.
            # Delivered by release_held() once the ring drains.
            self.held.append((src, dst, port, tup))
            return
        self.deliver(dst, tup, port)

    def handle(self, msg: dict) -> bool:
        """Take a ``tuples`` or ``ring`` message; ``False`` for others."""
        kind = msg["t"]
        if kind == "tuples":
            # One in-flight decrement for the whole batch.
            items = msg["items"]
            _add_inflight(self.inflight, -len(items))
            for dst, port, wire in items:
                self._dispatch_wire(msg["src"], dst, port, wire)
        elif kind == "ring":
            if msg["name"] not in self.rings:
                ring = BlockRing(
                    msg["name"],
                    slots=msg["slots"],
                    slot_rows=msg["rows"],
                    dim=msg["dim"],
                    create=False,
                )
                self.rings[msg["name"]] = ring
                self._rings_of.setdefault(msg["src"], []).append(ring)
        else:
            return False
        return True

    def close(self) -> None:
        for ring in self.rings.values():
            ring.close()


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


@dataclass
class _WorkerSpec:
    """Everything a worker process needs, picklable under any start method."""

    worker_id: int
    label: str
    ops: list[Operator]
    idx_names: list[str]
    #: op name -> out port -> [(dst_loc, dst_name, dst_port)]
    routes: dict[str, dict[int, list[tuple[Any, str, int]]]]
    cmd_q: Any
    main_q: Any
    peer_qs: dict[int, Any]
    inflight: Any
    stop_ev: Any
    finish_ev: Any
    run_id: str
    ring_slots: int
    slot_rows: int
    policies: dict[str, Any] = field(default_factory=dict)
    metrics: bool = True
    resume: bool = False


def _worker_main(spec: _WorkerSpec) -> None:
    """Worker process entry point (top-level: importable under spawn)."""
    try:
        _worker_loop(spec)
    except EngineAborted:
        pass
    except BaseException as exc:  # ship the failure to the coordinator
        try:
            spec.main_q.put(
                {
                    "t": "error",
                    "w": spec.worker_id,
                    "error": repr(exc),
                    "traceback": traceback.format_exc(),
                },
                timeout=5.0,
            )
        except Exception:
            pass
        spec.stop_ev.set()


def _worker_loop(spec: _WorkerSpec) -> None:
    reseed_sequence(spec.worker_id + 1)
    wid = spec.worker_id
    ops_by_name = {op.name: op for op in spec.ops}
    supervisor = Supervisor(policies=spec.policies) if spec.policies else None
    deliver = _deliverer(supervisor)

    sender = _TransportSender(
        wid,
        spec.run_id,
        {_MAIN: spec.main_q, **spec.peer_qs},
        spec.inflight,
        spec.stop_ev.is_set,
        spec.idx_names,
        ring_slots=spec.ring_slots,
        slot_rows=spec.slot_rows,
    )

    for op in spec.ops:
        op_routes = spec.routes.get(op.name, {})

        def emit(
            tup: StreamTuple,
            port: int,
            _routes: dict = op_routes,
        ) -> None:
            for dst_loc, dst_name, dst_port in _routes.get(port, ()):
                if dst_loc == wid:
                    deliver(ops_by_name[dst_name], tup, dst_port)
                else:
                    sender.send(dst_loc, dst_name, dst_port, tup)

        op.bind(emit)

    # Checkpoint resume: a restarted worker reloads each restartable
    # operator's last persisted snapshot before opening it.
    if spec.resume:
        for name, policy in spec.policies.items():
            if not isinstance(policy, RestartFromCheckpoint):
                continue
            if policy.store is None:
                continue
            op = ops_by_name.get(name)
            if op is None or not hasattr(op, "restore_state"):
                continue
            snap = policy.store.load_latest()
            if snap is not None:
                op.restore_state(snap)

    for op in spec.ops:
        op.open()

    recv = _RingReceiver(
        spec.idx_names,
        spec.inflight,
        lambda name, tup, port: deliver(ops_by_name[name], tup, port),
        copy=False,
    )
    quiesced_sent = False

    while not spec.stop_ev.is_set():
        progressed = recv.drain()
        try:
            # After ring progress there is usually more ring traffic
            # right behind; poll the command queue without the blocking
            # timeout so the pipeline never stalls on an idle syscall.
            if progressed:
                msg = spec.cmd_q.get_nowait()
            else:
                msg = spec.cmd_q.get(timeout=0.002)
        except queue.Empty:
            msg = None
        if msg is not None:
            # Anything it does not take is the "finish" wake-up sentinel.
            progressed = recv.handle(msg) or progressed
        if recv.held:
            progressed = recv.release_held() or progressed
        # Ship everything the iteration's dispatches emitted as one
        # batch per destination (bounded latency: one loop iteration).
        sender.flush()
        if not quiesced_sent and all(op.is_closed for op in spec.ops):
            spec.main_q.put({"t": "quiesced", "w": wid})
            quiesced_sent = True
        if spec.finish_ev.is_set() and not progressed and recv.idle():
            break

    if not spec.stop_ev.is_set():
        # The common final report, plus this transport's own counters.
        transport = dict(sender.counters)
        transport["blocks_ring_in"] = recv.blocks_in()
        spec.main_q.put({
            "t": "done",
            "w": wid,
            **_final_report(spec.ops, supervisor, spec.metrics),
            "transport": transport,
            "rings": [r.name for r in sender.rings.values()]
            + list(recv.rings),
        })
    recv.close()
    sender.close()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ProcessEngine(ThreadedEngine):
    """Multi-process runtime with shared-memory block transport.

    Parameters
    ----------
    graph:
        The application graph — unchanged operator code runs under
        every engine.
    fusion:
        PE assignment; default :meth:`FusionPlan.per_operator`.
    main_ops:
        Names of operators pinned to the coordinator process (sources
        and sinks are always pinned).  PEs containing only unpinned
        non-source/sink operators become worker processes.
    queue_size:
        Bound of each cross-process command queue (backpressure), in
        messages, and of each coordinator-side inbox, in rows.
    ring_slots / ring_slot_rows:
        Shared-memory ring geometry per transport edge: ``ring_slots``
        blocks of up to ``ring_slot_rows`` rows each.  Keep
        ``ring_slot_rows`` ≥ the upstream batch size or blocks fall back
        to the (pickled, counted) queue path.  See
        ``docs/performance.md``.
    mp_context:
        Start-method name (``"fork"``/``"forkserver"``/``"spawn"``) or
        ``None`` for :func:`repro.streams.shm.safe_mp_context`.  When a
        supervisor carries ``RestartFromCheckpoint`` policies the
        default prefers ``forkserver``: restarts fork from a clean
        server instead of the by-then multi-threaded coordinator.
    supervisor:
        Coordinator-side supervisor.  Its *policies* (not the object —
        it holds locks) are shipped to workers, which run their own
        in-process supervisor; worker stats merge back at shutdown.
        ``RestartFromCheckpoint`` policies additionally enable worker
        respawn on process death.
    telemetry:
        Coordinator telemetry.  Metrics and backpressure sampling work
        across processes (worker registries merge back as
        ``process``-labelled shards); span tracing does not propagate
        across the process boundary and is ignored.
    stall_timeout_s:
        Arm a :class:`~repro.streams.supervision.Watchdog` on
        coordinator-visible progress (local dispatches, worker
        messages, ring drains).  When progress stops for this long, a
        *wedged* worker — alive but making no progress, e.g. stuck in a
        hung syscall — covered by a ``RestartFromCheckpoint`` policy is
        terminated and respawned from its checkpoint, exactly like a
        crashed one; with no restartable worker to blame the run fails
        fast with :class:`StallDetected` instead of hanging until
        ``timeout_s``.  Must exceed the slowest single-tuple processing
        time plus worker startup.
    """

    _runtime = "process"

    def __init__(
        self,
        graph: Graph,
        *,
        fusion: FusionPlan | None = None,
        main_ops: Iterable[str] = (),
        queue_size: int = 256,
        ring_slots: int = 8,
        ring_slot_rows: int = 64,
        mp_context: str | None = None,
        supervisor: Supervisor | None = None,
        telemetry: Telemetry | None = None,
        stall_timeout_s: float | None = None,
    ) -> None:
        super().__init__(
            graph,
            fusion=fusion,
            queue_size=queue_size,
            supervisor=supervisor,
            stall_timeout_s=stall_timeout_s,
            telemetry=telemetry,
        )
        self._tracer = None  # spans do not cross the process boundary
        self.ring_slots = ring_slots
        self.ring_slot_rows = ring_slot_rows

        if mp_context is None and supervisor is not None and any(
            isinstance(p, RestartFromCheckpoint)
            for p in supervisor.policies.values()
        ):
            # Worker respawn happens while coordinator threads are live;
            # forking the coordinator then is unsafe.
            if "forkserver" in mp.get_all_start_methods():
                mp_context = "forkserver"
        self._ctx = safe_mp_context(mp_context)

        self._idx_names = [op.name for op in graph.operators]
        #: worker id → the PE it runs (one worker process per placed PE).
        self._worker_pes = dict(enumerate(self._place(main_ops)))

        # Cross-process state, populated by run().
        self._specs: dict[int, _WorkerSpec] = {}
        self._cmd_qs: dict[int, Any] = {}
        self._quiesced: set[int] = set()
        self._done: dict[int, dict] = {}
        self._worker_deaths = 0
        self._sent_puncts: dict[int, set[tuple[str, int]]] = {}
        self._worker_ring_names: set[str] = set()
        self._sender: _TransportSender | None = None
        self._recv: _RingReceiver | None = None
        #: Aggregated transport counters, merged from every process at
        #: shutdown.  ``blocks_queue`` staying 0 verifies the zero-copy
        #: hot path.
        self.transport_stats: dict[str, int] = {}

    @property
    def n_workers(self) -> int:
        """Worker processes this graph will run with."""
        return len(self._worker_pes)

    # -- seams: sending, probing ------------------------------------------

    def _send_remote(
        self, loc: int, dst_name: str, dst_port: int, tup: StreamTuple
    ) -> None:
        if tup.is_punctuation:
            # Remembered so a respawned worker can be told again.
            self._sent_puncts.setdefault(loc, set()).add((dst_name, dst_port))
        self._sender.send(loc, dst_name, dst_port, tup)

    def _remote_depth(self, wid: int) -> int:
        depth = 0
        try:
            depth += self._cmd_qs[wid].qsize()
        except (NotImplementedError, OSError):  # pragma: no cover - macOS
            pass
        if self._sender is not None:
            ring = self._sender.rings.get(wid)
            if ring is not None:
                depth += ring.depth()
        return depth

    def _remote_gauges(self) -> tuple[list[tuple[str, int, int]], int]:
        return [
            (
                f"w{wid}:{pe.label()}",
                self._remote_depth(wid),
                self.queue_size + self.ring_slots,
            )
            for wid, pe in self._worker_pes.items()
        ], max(self._wire_inflight.value, 0)

    # -- worker lifecycle ------------------------------------------------

    def _build_spec(self, wid: int) -> _WorkerSpec:
        return _WorkerSpec(
            worker_id=wid,
            label=self._worker_pes[wid].label(),
            idx_names=self._idx_names,
            cmd_q=self._cmd_qs[wid],
            main_q=self._main_q,
            peer_qs={
                w: q for w, q in self._cmd_qs.items() if w != wid
            },
            inflight=self._wire_inflight,
            stop_ev=self._stop_ev,
            finish_ev=self._finish_ev,
            run_id=self._run_id,
            ring_slots=self.ring_slots,
            slot_rows=self.ring_slot_rows,
            **self._spec_fields(wid),
        )

    def _start_worker(self, wid: int) -> None:
        spec = self._specs[wid]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(spec,),
            name=f"repro-{spec.label}",
            daemon=True,
        )
        proc.start()
        self._procs[wid] = proc

    def _restart_policies(self, wid: int) -> list[tuple[str, Any]]:
        """(operator name, policy) for the worker's restartable operators."""
        policies = self.supervisor.policies if self.supervisor else {}
        return [
            (op.name, policies[op.name])
            for op in self._remote_ops[wid]
            if isinstance(policies.get(op.name), RestartFromCheckpoint)
        ]

    def _restartable(self, wid: int) -> bool:
        return any(
            policy.max_restarts is None
            or self.supervisor.stats.restarts.get(name, 0)
            < policy.max_restarts
            for name, policy in self._restart_policies(wid)
        )

    def _supervise_remote(self) -> None:
        for wid, proc in list(self._procs.items()):
            if wid in self._done or not self._died(wid):
                continue
            # Worker process died before reporting done.
            self._worker_deaths += 1
            if not self._restartable(wid):
                raise OperatorFailure(
                    self._worker_pes[wid].label(),
                    RuntimeError(
                        f"worker process exited with code {proc.exitcode}"
                    ),
                    "no RestartFromCheckpoint policy covers this PE",
                )
            restarts = self.supervisor.stats.restarts
            for name, _ in self._restart_policies(wid):
                restarts[name] = restarts.get(name, 0) + 1
            self._quiesced.discard(wid)
            self._unpoison_cmd_queue(wid)
            self._specs[wid].resume = True
            self._start_worker(wid)
            # The new worker re-attaches the surviving queue/ring state;
            # re-announce coordinator rings and re-send punctuation the
            # dead worker had already consumed into local memory.
            self._sender.announce(wid)
            for dst_name, dst_port in sorted(
                self._sent_puncts.get(wid, ())
            ):
                self._sender.send(
                    wid, dst_name, dst_port, StreamTuple.punctuation()
                )

    def _unpoison_cmd_queue(self, wid: int) -> None:
        """Release the command queue's reader lock if the dead worker
        took it to the grave.

        ``Queue.get(timeout=...)`` holds the queue's shared ``_rlock``
        for the whole poll window, so a worker SIGKILLed while idle (the
        common case — the 2 ms poll dominates its loop) dies holding the
        lock.  The respawned worker then times out on every acquire and
        reads nothing, producers spin on Full, and the run livelocks
        until the graph timeout.  The dead worker was this queue's only
        reader, so an unavailable lock here can only be the victim's
        orphaned hold — force-release it.  (A kill landing inside
        ``_recv_bytes`` can still tear the byte stream mid-frame; that
        window is orders of magnitude narrower and surfaces as a decode
        error → another respawn, not a hang.)
        """
        rlock = getattr(self._cmd_qs.get(wid), "_rlock", None)
        if rlock is None:  # pragma: no cover - exotic Queue implementation
            return
        if rlock.acquire(block=False):
            rlock.release()
            return
        try:
            rlock.release()
        except ValueError:  # pragma: no cover - lost the (benign) race
            pass

    def _on_stall(self, idle: float) -> None:
        """Recover from a wedged (alive but progress-free) worker.

        A worker stuck in a hung syscall never dies, so the liveness
        check never fires; the watchdog converts "no coordinator-visible
        progress for ``stall_timeout_s``" into a worker termination, and
        the normal death path respawns it from its checkpoint.  Without
        a restartable worker to blame, failing fast beats hanging until
        the run timeout.
        """
        wedged = [
            wid for wid, proc in self._procs.items()
            if proc.is_alive()
            and wid not in self._quiesced and wid not in self._done
        ]
        killable = [wid for wid in wedged if self._restartable(wid)]
        if not killable:
            raise StallDetected(
                f"graph {self.graph.name!r}: no coordinator-visible "
                f"progress for {idle:.1f}s and no wedged worker with a "
                f"RestartFromCheckpoint policy to recover "
                f"(wedged: {wedged})"
            )
        for wid in killable:
            proc = self._procs[wid]
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5.0)
        self._watchdog.poke()  # the kill is progress; the next tick respawns

    # -- receiver thread -------------------------------------------------

    def _handle_main_msg(self, msg: dict) -> None:
        if self._watchdog is not None:
            self._watchdog.poke()
        if self._recv.handle(msg):
            return
        kind = msg["t"]
        if kind == "quiesced":
            self._quiesced.add(msg["w"])
        elif kind == "done":
            self._done[msg["w"]] = msg
            self._quiesced.add(msg["w"])
            self._worker_ring_names.update(msg.get("rings", ()))
        elif kind == "error":
            self._errors.append(
                OperatorFailure(
                    self._worker_pes[msg["w"]].label(),
                    RuntimeError(msg["error"]),
                    msg.get("traceback", ""),
                )
            )
            self._stop.set()
            self._stop_ev.set()

    def _receiver_loop(self) -> None:
        try:
            while True:
                progressed = self._recv.drain()
                try:
                    # Same no-stall poll as the worker loop: only block
                    # on the queue when the rings had nothing.
                    if progressed:
                        msg = self._main_q.get_nowait()
                    else:
                        msg = self._main_q.get(timeout=0.005)
                except queue.Empty:
                    msg = None
                if msg is not None:
                    self._handle_main_msg(msg)
                    progressed = True
                if self._recv.held:
                    self._recv.release_held()
                if self._recv_halt.is_set() and not progressed:
                    return
                if self._stop.is_set() and not progressed:
                    # Keep draining while workers are still alive so their
                    # final puts cannot block the abort path.
                    if all(not p.is_alive() for p in self._procs.values()):
                        return
        except EngineAborted:
            pass
        except BaseException as exc:  # pragma: no cover - defensive
            self._errors.append(exc)
            self._stop.set()
            self._stop_ev.set()

    # -- seams: start, quiescence, finish, stop ---------------------------

    def _start_remote(self) -> None:
        ctx = self._ctx
        ensure_shared_tracker()
        self._run_id = uuid.uuid4().hex[:8]
        self._stop_ev = ctx.Event()
        self._finish_ev = ctx.Event()
        self._wire_inflight = ctx.Value("q", 0)
        self._main_q = ctx.Queue(maxsize=max(self.queue_size * 4, 1024))
        self._cmd_qs = {
            wid: ctx.Queue(maxsize=self.queue_size)
            for wid in self._worker_pes
        }
        self._recv_halt = threading.Event()
        self._sender = _TransportSender(
            _MAIN,
            self._run_id,
            self._cmd_qs,
            self._wire_inflight,
            self._stop.is_set,
            self._idx_names,
            ring_slots=self.ring_slots,
            slot_rows=self.ring_slot_rows,
        )
        self._recv = _RingReceiver(
            self._idx_names, self._wire_inflight, self._inject, copy=True
        )
        # Specs are built (and, under spawn/forkserver, pickled) and the
        # workers started before any coordinator thread exists: worker
        # startup is spawn-safe by construction.
        self._specs = {wid: self._build_spec(wid) for wid in self._worker_pes}
        for wid in self._worker_pes:
            self._start_worker(wid)
        self._receiver = threading.Thread(
            target=self._receiver_loop, name="proc-receiver", daemon=True
        )
        self._receiver.start()

    def _workers_quiesced(self) -> bool:
        return set(self._worker_pes) <= self._quiesced

    def _remote_quiet(self) -> bool:
        return self._wire_inflight.value <= 0 and self._workers_quiesced()

    def _loss_signature(self, sources_done: bool, local_quiet: bool) -> Any:
        # A crash leaks the in-flight counts of messages that died inside
        # the worker; once everything else is quiet, a count that stays
        # frozen is that (bounded) crash loss.
        if local_quiet and self._worker_deaths and self._workers_quiesced():
            return self._wire_inflight.value
        return None

    def _remote_running(self) -> list[str]:
        return [f"w{w}" for w, p in self._procs.items() if p.is_alive()]

    def _finish_remote(self) -> None:
        self._finish_ev.set()
        for q in self._cmd_qs.values():
            try:
                q.put_nowait({"t": "finish"})  # wake-up sentinel
            except queue.Full:
                pass

    def _reports_pending(self) -> list:
        return sorted(set(self._worker_pes) - set(self._done))

    def _stop_remote(self) -> None:
        self._finish_ev.set()
        self._stop_ev.set()
        self._recv_halt.set()
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        self._receiver.join(timeout=5.0)
        self._sender.close()
        self._recv.close()
        for name in self._worker_ring_names | set(self._recv.rings):
            _unlink_segment(name)
        for q in list(self._cmd_qs.values()) + [self._main_q]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - platform quirks
                pass

    def _fold_reports(self) -> None:
        totals = dict(self._sender.counters)
        totals["blocks_ring_in"] = self._recv.blocks_in()
        for wid, msg in self._done.items():
            self._fold_report(f"w{wid}", msg)
            for key, value in msg["transport"].items():
                totals[key] += value
        self.transport_stats = totals
