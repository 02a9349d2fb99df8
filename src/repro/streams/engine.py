"""Runtimes that execute a dataflow graph.

One deterministic engine and one concurrent coordinator run the same
operators:

* :class:`SynchronousEngine` — single-threaded, deterministic: sources
  are interleaved round-robin and every emission is drained to quiescence
  before the next source tuple.  This is the engine of choice for tests
  and for algorithmic experiments where wall-clock time is irrelevant.
* :class:`ThreadedEngine` — one thread per processing element (see
  :mod:`repro.streams.fusion`), bounded inter-PE queues with
  backpressure, intra-PE edges as direct calls.  This realizes the
  paper's execution model: fused operators exchange tuples "in local
  memory", unfused ones pay a queue hop, sources run free and the split
  operator can observe downstream queue depths for load balancing.
  By default the graph places: its coordination plane in one PE, its
  shared group (:meth:`~repro.streams.graph.Graph.declare_shared`) in
  another, every other operator alone.  The Fig. 2 graph declares its
  PCA engines shared on the covariance route, where a block step is
  a few dozen short numpy calls and engine threads would only trade
  the GIL, and leaves them one thread each on the Gram route.

On every engine a sink (an operator with no outputs) runs on the thread
of whichever operator emits to it, one emitter at a time: it has no PE,
no inbox and no thread, so it never holds rows back and never closes a
backpressure cycle.

Every engine returns a :class:`RunStats` with per-operator tuple counters
(the profiling statistics the paper uses for placement tuning) plus the
failure/recovery counters of an attached
:class:`~repro.streams.supervision.Supervisor`, wherever the failure was
handled.

Run protocol (every concurrent runtime)
---------------------------------------
Completion is two-phase so no data or control tuple is ever lost:

1. **Quiesce** — every source thread has finished and every PE has all
   of its operators closed.  A PE whose operators closed keeps
   servicing its inbox (tuples may still race in from peers mid-close,
   e.g. a ``final`` state crossing a punctuation).
2. **Drain** — the coordinator additionally waits until nothing is in
   flight: the count of tuples enqueued but not yet fully dispatched is
   zero.  Only then does it raise ``finish``.  PE runners observe
   ``finish`` with an empty inbox, drain any stragglers, and exit.

Abort paths (operator error, timeout, stall) set the ``stop`` flag
instead, which unwinds every thread promptly without draining.

The loop is :meth:`ThreadedEngine.run` over five steps — start, tick,
quiescence, complete, teardown.  The runtimes that place operators on
engine hosts (``"process"``, ``"cluster"``) are
:class:`~repro.streams.clusterengine.ClusterEngine`, which extends each
step through ``super()``; placement alone decides whether an edge is a
queue hop or a network hop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .fusion import FusionPlan, ProcessingElement, is_sink
from .graph import Graph
from .operators import Operator, Source
from .profiling import enable_profiling, note_child_time
from .supervision import EngineAborted, StallDetected, Supervisor, Watchdog
from .telemetry import (
    BackpressureSampler,
    Telemetry,
    operator_counter_snapshot,
)
from .tuples import StreamTuple

__all__ = ["RunStats", "SynchronousEngine", "ThreadedEngine"]


@dataclass
class RunStats:
    """Execution summary of one graph run.

    Attributes
    ----------
    wall_time_s:
        Total run duration.
    tuples_in / tuples_out:
        Per-operator counters (name → count), including punctuation for
        ``tuples_out``.
    source_tuples:
        Tuples produced per source, with punctuation counted explicitly
        on the operator and excluded (see :attr:`Operator.punct_out`).
    failures / restarts / recovery_time_s:
        Supervision counters (name → count/seconds), populated when the
        engine ran with a :class:`~repro.streams.supervision.Supervisor`.
    """

    wall_time_s: float = 0.0
    tuples_in: dict[str, int] = field(default_factory=dict)
    tuples_out: dict[str, int] = field(default_factory=dict)
    source_tuples: dict[str, int] = field(default_factory=dict)
    #: Per-operator exclusive processing seconds (profiled runs only).
    processing_time_s: dict[str, float] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    restarts: dict[str, int] = field(default_factory=dict)
    recovery_time_s: dict[str, float] = field(default_factory=dict)

    def throughput(self) -> float:
        """Aggregate source tuples per second of wall time."""
        total = sum(self.source_tuples.values())
        if self.wall_time_s <= 0:
            return 0.0
        return total / self.wall_time_s

    def total_recoveries(self) -> int:
        """Failures repaired in-flight: one rollback each."""
        return sum(self.restarts.values())

    @classmethod
    def collect(
        cls,
        graph: Graph,
        wall_time_s: float,
        supervisor: Supervisor | None = None,
    ) -> "RunStats":
        # Thin view: the operators' own counters are the single source of
        # truth, read through the same snapshot helper the telemetry
        # registry collectors use (see repro.streams.telemetry).
        stats = cls(wall_time_s=wall_time_s)
        snap = operator_counter_snapshot(graph)
        stats.tuples_in = snap["tuples_in"]
        stats.tuples_out = snap["tuples_out"]
        stats.source_tuples = snap["source_tuples"]
        stats.processing_time_s = snap["processing_time_s"]
        if supervisor is not None:
            sup = supervisor.stats
            stats.failures = dict(sup.failures)
            stats.restarts = dict(sup.restarts)
            stats.recovery_time_s = dict(sup.recovery_time_s)
        return stats


def _unsupervised(op: Operator, tup: StreamTuple, port: int) -> None:
    op._dispatch(tup, port)


def _deliverer(
    supervisor: Supervisor | None,
) -> Callable[[Operator, StreamTuple, int], None]:
    """The one tuple-delivery call: under the supervisor's per-operator
    failure policy when there is one, fail-fast otherwise.  Bound once
    per engine (and per remote end), so the hot path carries no branch."""
    return supervisor.dispatch if supervisor is not None else _unsupervised


def _attach(
    telemetry: Telemetry | None,
    graph: Graph,
    fusion: FusionPlan | None,
    supervisor: Supervisor | None,
):
    """Expose graph and supervisor counters through ``telemetry``;
    returns the tracer to propagate spans with (``None``: tracing off)."""
    if telemetry is None:
        return None
    telemetry.attach_graph(graph, fusion=fusion)
    if supervisor is not None:
        telemetry.attach_supervisor(supervisor)
    return telemetry.tracer if telemetry.config.tracing else None


class SynchronousEngine:
    """Deterministic single-threaded runtime.

    Sources are polled round-robin; each produced tuple is fully drained
    (all downstream processing, including any control-loop traffic it
    triggers) before the next tuple enters.  Cycles are safe: the work
    list is a FIFO, so a sync round-trip simply enqueues more work until
    the loop quiesces.

    An optional :class:`~repro.streams.supervision.Supervisor` applies
    per-operator failure policies to every dispatch; an optional
    :class:`~repro.streams.telemetry.Telemetry` records metrics, sampled
    traces (a root span wraps each sampled source tuple's full drain),
    and structured events.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        profile: bool = False,
        supervisor: Supervisor | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        if profile:
            enable_profiling(graph.operators)
        self.supervisor = supervisor
        self.telemetry = telemetry
        self._deliver = _deliverer(supervisor)
        self._tracer = _attach(telemetry, graph, None, supervisor)
        self._work: deque[tuple[Operator, int, StreamTuple]] = deque()

    def _wire(self) -> None:
        tracer = self._tracer
        for op in self.graph:
            succ = {
                port: [
                    (dst, in_port, is_sink(dst))
                    for dst, in_port in self.graph.successors(op, port)
                ]
                for port in range(op.n_outputs)
            }

            def emit(
                tup: StreamTuple,
                port: int,
                _succ: dict[int, list[tuple[Operator, int, bool]]] = succ,
            ) -> None:
                if tracer is not None:
                    tracer.propagate(tup)
                for dst, in_port, inline in _succ.get(port, ()):
                    if inline:
                        self._dispatch(dst, tup, in_port)
                    else:
                        self._work.append((dst, in_port, tup))

            op.bind(emit)

    def _dispatch(self, dst: Operator, tup: StreamTuple, port: int) -> None:
        tracer = self._tracer
        if tracer is not None:
            ctx = tracer.ctx_of(tup)
            if ctx is not None:
                with tracer.dispatch_span(dst, tup, ctx):
                    self._deliver(dst, tup, port)
                return
        self._deliver(dst, tup, port)

    def _drain(self) -> None:
        while self._work:
            dst, port, tup = self._work.popleft()
            self._dispatch(dst, tup, port)

    def run(self) -> RunStats:
        """Execute to completion and return statistics."""
        self._wire()
        tracer = self._tracer
        if self.telemetry is not None:
            self.telemetry.run_started(
                engine="synchronous", graph=self.graph.name
            )
        start = time.perf_counter()
        for op in self.graph:
            op.open()
        generators = [(src, src.generate()) for src in self.graph.sources]
        active = list(generators)
        while active:
            still = []
            for src, gen in active:
                try:
                    tup = next(gen)
                except StopIteration:
                    src._complete()
                    self._drain()
                    continue
                root = (
                    tracer.maybe_start_root(src, tup)
                    if tracer is not None
                    else None
                )
                src.submit(tup, 0)
                self._drain()
                if root is not None:
                    # The root span covers the tuple's entire downstream
                    # drain (this engine is run-to-quiescence per tuple).
                    tracer.finish_span(root)
                still.append((src, gen))
            active = still
        self._drain()
        stats = RunStats.collect(
            self.graph, time.perf_counter() - start, self.supervisor
        )
        if self.telemetry is not None:
            self.telemetry.run_finished(stats)
        return stats


def row_weight(tup: StreamTuple) -> int:
    """What ``tup`` weighs against a row bound — a PE inbox's or a
    cluster link's window: a data block its ``count`` (at least 1), any
    other data tuple 1, control and punctuation nothing.  A weightless
    tuple never waits for room, so a control cycle (the sync loop)
    cannot deadlock on a bound."""
    if not tup.is_data:
        return 0
    payload = tup.payload
    return max(int(payload["count"]), 1) if "xs" in payload else 1


class _Inbox:
    """A PE's inbox: bounded in rows, handed over by the burst.

    * The depth (:meth:`qsize`) counts a tuple's :func:`row_weight` from
      its put until its dispatch has *finished* (:meth:`done`), so the
      rows a PE holds — queued or in hand — are what the bound limits.
    * A put is admitted whenever the depth is below the bound: a block
      larger than the whole bound passes (alone) instead of wedging, and
      the depth overshoots the bound by less than one block.  Control
      and punctuation weigh nothing and are always admitted.
    * :meth:`take` hands the consumer everything queued under one lock
      acquisition — one wake-up per backlog, not one per tuple — control
      tuples first, in their own order: a sync command is not held
      behind the data backlog of the operators that share the PE (the
      runner also takes control that arrives mid-batch,
      :meth:`take_control`).  Data and punctuation keep their order, so
      no edge's end overtakes its rows.
    * A producer blocked on a full inbox is woken once the depth has
      fallen to half the bound, so it refills in a burst too.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self._low = bound // 2
        self._items: deque[tuple[Operator, int, StreamTuple, int]] = deque()
        self._control: deque[tuple[Operator, int, StreamTuple, int]] = deque()
        self._rows = 0
        self._blocked = 0
        lock = threading.Lock()
        self._ready = threading.Condition(lock)
        self._room = threading.Condition(lock)

    def qsize(self) -> int:
        return self._rows

    def put(
        self, dst: Operator, port: int, tup: StreamTuple, timeout: float
    ) -> bool:
        """Queue one tuple; ``False`` if the inbox stayed full for
        ``timeout`` seconds."""
        rows = row_weight(tup)
        with self._room:
            if rows and self._rows >= self.bound:
                self._blocked += 1
                self._room.wait(timeout)
                self._blocked -= 1
                if self._rows >= self.bound:
                    return False
            (self._control if tup.is_control else self._items).append(
                (dst, port, tup, rows)
            )
            self._rows += rows
            self._ready.notify()
        return True

    def take(self, timeout: float = 0.0) -> deque:
        """Everything queued, control first, each kind in order — empty
        if nothing arrived within ``timeout``.  Each tuple stays on the
        depth until :meth:`done`."""
        with self._ready:
            if not self._items and not self._control and timeout:
                self._ready.wait(timeout)
            items, self._items = self._items, deque()
            if self._control:
                self._control.extend(items)
                items, self._control = self._control, deque()
        return items

    def take_control(self) -> deque:
        """The control tuples queued since the last take, in order."""
        with self._ready:
            items, self._control = self._control, deque()
        return items

    def done(self, rows: int) -> None:
        """A taken tuple of ``rows`` rows has been dispatched."""
        with self._room:
            self._rows -= rows
            if self._blocked and self._rows <= self._low:
                self._room.notify_all()


class _PERunner(threading.Thread):
    """Thread executing one processing element's inbox loop.

    Each wake-up takes the inbox's whole backlog and dispatches it in
    order, popping each tuple as it goes (a dispatched block is not kept
    alive to the end of the batch) and honouring ``stop`` between tuples;
    a control tuple queued meanwhile is dispatched before the next one.

    Completion follows the run protocol: when all of the PE's operators
    have closed the runner raises its ``quiesced`` flag but *keeps
    draining* the inbox, and only exits once the coordinator raises
    ``finish`` and the inbox is empty, or the engine aborts via ``stop``.
    """

    def __init__(
        self,
        pe: ProcessingElement,
        inbox: _Inbox,
        engine: "ThreadedEngine",
    ) -> None:
        super().__init__(name=f"pe-{pe.pe_id}", daemon=True)
        self.pe = pe
        self.inbox = inbox
        self.engine = engine
        self.quiesced = threading.Event()
        self._batch: deque = deque()

    def _check_quiesced(self) -> None:
        if not self.quiesced.is_set() and all(
            op.is_closed for op in self.pe.operators
        ):
            self.quiesced.set()

    def _dispatch_batch(self, stop: threading.Event | None) -> None:
        """Dispatch the taken batch in order; returns early, leaving the
        rest in ``_batch``, once ``stop`` (if given) is set.  Control
        tuples that arrive meanwhile go ahead of the rest of the batch."""
        eng, batch, inbox = self.engine, self._batch, self.inbox
        done = inbox.done
        while batch:
            if stop is not None and stop.is_set():
                return
            if inbox._control:
                batch.extendleft(reversed(inbox.take_control()))
            dst, port, tup, rows = batch.popleft()
            try:
                eng._dispatch(dst, tup, port)
            finally:
                done(rows)
                eng._tuple_done()

    def run(self) -> None:
        eng = self.engine
        stop, finish = eng._stop, eng._finish
        try:
            while not stop.is_set():
                self._batch = self.inbox.take(timeout=0.02)
                if not self._batch:
                    self._check_quiesced()
                    if finish.is_set():
                        break
                    continue
                self._dispatch_batch(stop)
                self._check_quiesced()
        except EngineAborted:
            pass
        except BaseException as exc:
            eng._errors.append(exc)
            stop.set()
        finally:
            self._drain_remaining()
            # Never leave the coordinator waiting on a dead runner.
            self.quiesced.set()

    def _drain_remaining(self) -> None:
        """Process stragglers left at exit time: the rest of the batch
        in hand, then the inbox.

        On the normal path the coordinator guarantees the inbox is empty
        before ``finish``, so this is a no-op; it matters when the loop
        exits through ``stop`` after a graceful completion race, keeping
        the no-tuple-lost guarantee.  After an operator error the run is
        aborting anyway, so the backlog is dropped.
        """
        eng = self.engine
        if eng._errors:
            return
        try:
            while True:
                if not self._batch:
                    self._batch = self.inbox.take()
                    if not self._batch:
                        return
                self._dispatch_batch(None)
        except EngineAborted:
            pass
        except BaseException as exc:
            eng._errors.append(exc)
            eng._stop.set()


class _SourceRunner(threading.Thread):
    """Thread driving one source to exhaustion."""

    def __init__(
        self,
        src: Source,
        errors: list[BaseException],
        stop: threading.Event,
        tracer=None,
    ) -> None:
        super().__init__(name=f"src-{src.name}", daemon=True)
        self.src = src
        self.errors = errors
        self.stop = stop
        self.tracer = tracer

    def run(self) -> None:
        tracer = self.tracer
        try:
            for tup in self.src.generate():
                if self.stop.is_set():
                    return
                root = (
                    tracer.maybe_start_root(self.src, tup)
                    if tracer is not None
                    else None
                )
                self.src.submit(tup, 0)
                if root is not None:
                    # Root span = emission incl. any backpressure block;
                    # downstream child spans close in their own threads.
                    tracer.finish_span(root)
            self.src._complete()
        except EngineAborted:
            pass
        except BaseException as exc:
            self.errors.append(exc)
            self.stop.set()



class ThreadedEngine:
    """Multi-threaded runtime with operator fusion and backpressure.

    Parameters
    ----------
    graph:
        The application graph.
    fusion:
        PE assignment; default the graph's own — its declared
        coordination plane (:attr:`Graph.main_ops`) in one PE, its
        shared group (:attr:`Graph.shared_ops`) in another, every other
        operator but the sinks in a PE of its own.
    queue_size:
        Bound of each inter-PE queue (backpressure) in **rows**
        (:func:`row_weight`), counted until a tuple's dispatch has
        finished, so what a PE can hold does not grow with the batch
        size; the backpressure sampler and the stall report read the
        same unit.  Control tuples weigh
        nothing and never wait, so control loops cannot deadlock on it.
    supervisor:
        Optional :class:`~repro.streams.supervision.Supervisor` applying
        per-operator failure policies (fail-fast or checkpoint-restart)
        to every dispatch; without one the engine is fail-fast.
    stall_timeout_s:
        Arm the deadlock/stall watchdog: if no tuple is enqueued or
        dispatched for this long while work remains, the run aborts with
        :class:`~repro.streams.supervision.StallDetected` and a per-PE
        queue report instead of waiting for ``timeout_s``.  Must exceed
        the slowest single-tuple processing time; ``None`` disables.
    telemetry:
        Optional :class:`~repro.streams.telemetry.Telemetry`: per-PE
        metrics views, sampled traces across queue hops, and (when
        ``sampler_interval_s`` is set) a background backpressure sampler
        recording queue depth / in-flight / throughput over time.
    """

    #: Name in the ``run_start`` telemetry event.
    _runtime = "threaded"

    def __init__(
        self,
        graph: Graph,
        *,
        fusion: FusionPlan | None = None,
        queue_size: int = 4096,
        profile: bool = False,
        supervisor: Supervisor | None = None,
        stall_timeout_s: float | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self._profile = profile
        if profile:
            enable_profiling(graph.operators)
        self.fusion = fusion or FusionPlan.from_groups(
            graph, [graph.main_ops, graph.shared_ops]
        )
        self.fusion.validate(graph)
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self.queue_size = queue_size
        self.supervisor = supervisor
        self.telemetry = telemetry
        self._deliver = _deliverer(supervisor)
        self._tracer = _attach(telemetry, graph, self.fusion, supervisor)
        self._watchdog = (
            Watchdog(stall_timeout_s) if stall_timeout_s is not None else None
        )
        # What runs in this process: every PE and operator, unless a
        # subclass places some of them elsewhere.
        self._main_pes = list(self.fusion.pes)
        self._local_ops = list(graph.operators)
        self._inboxes: dict[int, _Inbox] = {}
        self._pe_of: dict[int, ProcessingElement] = {}
        self._sink_locks: dict[int, threading.Lock] = {}
        self._pe_of_id: dict[int, str] = {}
        self._stop = threading.Event()
        self._finish = threading.Event()
        self._errors: list[BaseException] = []
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._src_threads: list[_SourceRunner] = []
        self._runners: list[_PERunner] = []
        self._sampler: BackpressureSampler | None = None

    # -- in-flight accounting -------------------------------------------

    def _tuple_done(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
        if self._watchdog is not None:
            self._watchdog.poke()

    def _dispatch(self, dst: Operator, tup: StreamTuple, port: int) -> None:
        tracer = self._tracer
        if tracer is not None:
            ctx = tracer.ctx_of(tup)
            if ctx is not None:
                with tracer.dispatch_span(dst, tup, ctx):
                    self._deliver(dst, tup, port)
                return
        self._deliver(dst, tup, port)

    def _to_sink(self, sink: Operator, tup: StreamTuple, port: int) -> None:
        """Dispatch to ``sink`` on the calling thread, one emitter at a
        time; waiting for another emitter is not the caller's work."""
        started = time.perf_counter() if self._profile else 0.0
        with self._sink_locks[id(sink)]:
            if self._profile:
                note_child_time(time.perf_counter() - started)
            self._dispatch(sink, tup, port)

    def _put(
        self, pe_id: int, dst: Operator, port: int, tup: StreamTuple
    ) -> None:
        """Blocking put that aborts promptly when the engine stops."""
        inbox = self._inboxes[pe_id]
        if self._tracer is not None and self._tracer.ctx_of(tup) is not None:
            # Queue-wait clock starts now, so the span includes any time
            # this producer spends blocked on a full inbox.
            self._tracer.note_enqueued(tup, self._pe_of_id[pe_id])
        with self._inflight_lock:
            self._inflight += 1
        started = time.perf_counter() if self._profile else 0.0
        while not inbox.put(dst, port, tup, timeout=0.05):
            if self._stop.is_set():
                with self._inflight_lock:
                    self._inflight -= 1
                raise EngineAborted
        if self._profile:
            # Waiting on a full inbox is backpressure, not the emitting
            # operator's work.
            note_child_time(time.perf_counter() - started)
        if self._watchdog is not None:
            self._watchdog.poke()

    # -- wiring ---------------------------------------------------------

    def _wire(self) -> None:
        """Give every PE here an inbox and every sink here a lock, and
        bind every local operator's emit over its successors in this
        process."""
        tracer = self._tracer
        for pe in self._main_pes:
            self._inboxes[pe.pe_id] = _Inbox(self.queue_size)
            self._pe_of_id[pe.pe_id] = pe.label()
            for op in pe.operators:
                self._pe_of[id(op)] = pe
        self._sink_locks = {
            id(op): threading.Lock() for op in self._local_ops if is_sink(op)
        }

        for op in self._local_ops:
            local: dict[int, list[tuple[Operator, int]]] = {}
            for port in range(op.n_outputs):
                for dst, in_port in self.graph.successors(op, port):
                    # A successor placed off this process is not ours.
                    if id(dst) in self._pe_of or id(dst) in self._sink_locks:
                        local.setdefault(port, []).append((dst, in_port))

            def emit(
                tup: StreamTuple,
                port: int,
                _succ: dict[int, list[tuple[Operator, int]]] = local,
                _my_pe: ProcessingElement | None = self._pe_of.get(id(op)),
            ) -> None:
                if tracer is not None:
                    tracer.propagate(tup)
                for dst, in_port in _succ.get(port, ()):
                    dst_pe = self._pe_of.get(id(dst))
                    if dst_pe is None:
                        self._to_sink(dst, tup, in_port)
                    elif dst_pe is _my_pe:
                        # Fused edge: zero-copy, same-thread call.
                        self._dispatch(dst, tup, in_port)
                    else:
                        self._put(dst_pe.pe_id, dst, in_port, tup)

            op.bind(emit)

    def _on_stall(self, stalled_s: float) -> None:
        lines = [
            f"graph {self.graph.name!r} stalled: no progress for "
            f"{stalled_s:.1f}s with work outstanding (suspected full-queue "
            f"backpressure cycle or deadlock); per-PE inbox depths:"
        ]
        for pe in self._main_pes:
            depth = self._inboxes[pe.pe_id].qsize()
            lines.append(f"  {pe.label()}: {depth}/{self.queue_size}")
        raise StallDetected("\n".join(lines))

    # -- the run protocol -----------------------------------------------

    def run(self, *, timeout_s: float = 300.0) -> RunStats:
        """Execute to completion; raises on errors, stall, or timeout.

        Fail-fast on errors: the first unhandled operator exception (after
        any supervisor policy) stops every thread and is re-raised
        immediately instead of waiting for the timeout.  Normal
        completion follows the two-phase quiesce → drain → finish
        protocol described in the module docstring.
        """
        if self.telemetry is not None:
            self.telemetry.run_started(
                engine=self._runtime, graph=self.graph.name
            )
        start = time.perf_counter()
        self._wire()
        self._start()
        deadline = start + timeout_s
        try:
            while True:
                self._tick()
                if self._quiescent():
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError(
                        f"graph {self.graph.name!r} did not finish within "
                        f"{timeout_s}s (still running: {self._running()})"
                    )
                time.sleep(0.002)
            self._complete()
        finally:
            self._teardown()
        stats = RunStats.collect(
            self.graph, time.perf_counter() - start, self.supervisor
        )
        if self.telemetry is not None:
            self.telemetry.run_finished(stats)
        return stats

    def _start(self) -> None:
        """Open the local operators, then start one thread per source
        and one per PE (a pure-source PE is its source's thread)."""
        for op in self._local_ops:
            op.open()
        self._runners = [
            _PERunner(pe, self._inboxes[pe.pe_id], self)
            for pe in self._main_pes
            if not all(isinstance(op, Source) for op in pe.operators)
        ]
        self._src_threads = [
            _SourceRunner(src, self._errors, self._stop, self._tracer)
            for src in self.graph.sources
        ]
        self._sampler = self._start_sampler()
        if self._watchdog is not None:
            self._watchdog.poke()
        for t in self._src_threads + self._runners:
            t.start()

    def _tick(self) -> None:
        """One supervision step: first error, then the stall watchdog."""
        if self._errors:
            raise self._errors[0]
        if self._watchdog is not None:
            stalled = self._watchdog.stalled_for()
            if stalled is not None:
                self._on_stall(stalled)

    def _quiescent(self) -> bool:
        """Every source done, every PE quiesced, nothing in flight."""
        return (
            not any(t.is_alive() for t in self._src_threads)
            and all(r.quiesced.is_set() for r in self._runners)
            and self._inflight == 0
        )

    def _running(self) -> list[str]:
        """What the timeout message names as still running."""
        return [
            t.name for t in self._src_threads + self._runners if t.is_alive()
        ]

    def _complete(self) -> None:
        """Raise ``finish``: every PE runner drains its inbox and exits."""
        self._finish.set()
        for t in self._runners:
            t.join(timeout=5.0)
        if self._errors:
            raise self._errors[0]

    def _teardown(self) -> None:
        """Unwind every thread; after an abort, without draining."""
        self._finish.set()
        self._stop.set()
        for t in self._src_threads + self._runners:
            t.join(timeout=1.0)
        if self._sampler is not None:
            self._sampler.stop()

    def _gauges(self) -> tuple[list[tuple[str, int, int]], int]:
        """``(label, depth, bound)`` per queue the backpressure sampler
        watches, and the tuples in flight."""
        per_pe = [
            (pe.label(), self._inboxes[pe.pe_id].qsize(), self.queue_size)
            for pe in self._main_pes
        ]
        return per_pe, self._inflight

    def _start_sampler(self) -> BackpressureSampler | None:
        tel = self.telemetry
        if tel is None or tel.config.sampler_interval_s is None:
            return None

        def probe():
            gauges, inflight = self._gauges()
            dispatched = sum(op.tuples_in for op in self._local_ops)
            return gauges, inflight, dispatched

        sampler = BackpressureSampler(
            tel, probe, interval_s=tel.config.sampler_interval_s
        )
        sampler.start()
        return sampler
