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

:class:`ThreadedEngine` is also the coordinator of the runtimes that
place operators outside this process:
:class:`~repro.streams.clusterengine.ClusterEngine` (engine hosts behind
TCP — local processes for ``"process"``, the multi-node cluster for
``"cluster"``) subclasses it and overrides only the *transport seams*
listed on the class — what crosses the boundary changes with the
deployment, the run protocol does not.

Every engine returns a :class:`RunStats` with per-operator tuple counters
(the profiling statistics the paper uses for placement tuning) plus the
failure/recovery counters of an attached
:class:`~repro.streams.supervision.Supervisor`, wherever the failure was
handled.

Run protocol (every concurrent runtime)
---------------------------------------
Completion is two-phase so no data or control tuple is ever lost:

1. **Quiesce** — every source thread has finished, every local PE has
   all of its operators closed, and every remote end reports the same.
   A PE whose operators closed keeps servicing its inbox (tuples may
   still race in from peers mid-close, e.g. a ``final`` state crossing a
   punctuation).
2. **Drain** — the coordinator additionally waits until nothing is in
   flight: the local count of tuples enqueued but not yet fully
   dispatched is zero and the transport says the same of its own
   ledger.  Only then does it raise ``finish``.  PE runners observe
   ``finish`` with an empty inbox, drain any stragglers, and exit;
   remote ends answer with a final report (operator state, metrics
   shard, supervision counters) that is folded into the coordinator's
   own objects, so results read the same under every runtime.

Abort paths (operator error, remote-end death without a recovery policy,
timeout, stall) set the ``stop`` flag instead, which unwinds every
thread promptly without draining.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from copy import copy as _shallow_copy
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable

from .fusion import FusionPlan, ProcessingElement
from .graph import Graph
from .operators import Operator, Sink, Source
from .profiling import enable_profiling, note_child_time
from .split import Split
from .supervision import EngineAborted, StallDetected, Supervisor, Watchdog
from .telemetry import (
    BackpressureSampler,
    Telemetry,
    operator_counter_snapshot,
    operator_metric_samples,
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
    failures / retries / skipped_tuples / restarts / recovery_time_s:
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
    retries: dict[str, int] = field(default_factory=dict)
    skipped_tuples: dict[str, int] = field(default_factory=dict)
    restarts: dict[str, int] = field(default_factory=dict)
    recovery_time_s: dict[str, float] = field(default_factory=dict)

    def throughput(self) -> float:
        """Aggregate source tuples per second of wall time."""
        total = sum(self.source_tuples.values())
        if self.wall_time_s <= 0:
            return 0.0
        return total / self.wall_time_s

    def total_recoveries(self) -> int:
        """Failures repaired in-flight (retries + skips + restarts)."""
        return (
            sum(self.retries.values())
            + sum(self.skipped_tuples.values())
            + sum(self.restarts.values())
        )

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
            stats.retries = dict(sup.retries)
            stats.skipped_tuples = dict(sup.skipped_tuples)
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
            successors = {
                port: self.graph.successors(op, port)
                for port in range(op.n_outputs)
            }

            def emit(
                tup: StreamTuple,
                port: int,
                _succ: dict[int, list[tuple[Operator, int]]] = successors,
            ) -> None:
                if tracer is not None:
                    tracer.propagate(tup)
                for dst, in_port in _succ.get(port, ()):
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
      acquisition — one wake-up per backlog, not one per tuple.
    * A producer blocked on a full inbox is woken once the depth has
      fallen to half the bound, so it refills in a burst too.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self._low = bound // 2
        self._items: deque[tuple[Operator, int, StreamTuple, int]] = deque()
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
            self._items.append((dst, port, tup, rows))
            self._rows += rows
            self._ready.notify()
        return True

    def take(self, timeout: float = 0.0) -> deque:
        """Everything queued, in order — empty if nothing arrived within
        ``timeout``.  Each tuple stays on the depth until :meth:`done`."""
        with self._ready:
            if not self._items and timeout:
                self._ready.wait(timeout)
            items, self._items = self._items, deque()
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
    alive to the end of the batch) and honouring ``stop`` between tuples.

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
        rest in ``_batch``, once ``stop`` (if given) is set."""
        eng, batch, done = self.engine, self._batch, self.inbox.done
        while batch:
            if stop is not None and stop.is_set():
                return
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


# ---------------------------------------------------------------------------
# What crosses to a remote end and back, whatever the transport
# ---------------------------------------------------------------------------

#: Location of the coordinator in route tables (remote ends are ints).
_MAIN = "main"

#: Attributes never shipped across the process boundary: runtime wiring
#: (closures), telemetry objects (hold locks), and probe callables.
_UNPICKLABLE_ATTRS = (
    "_emit", "_load_probe", "_latency_hist", "_telemetry",
    "_e2e_hist", "_watermark", "_health_monitor",
    "_state_lock",
)


def _sanitize(op: Operator) -> Operator:
    """A shallow copy of ``op`` safe to pickle into a remote end."""
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
    ops: Iterable[Operator],
    supervisor: Supervisor | None,
    metrics: bool,
    encode: Callable[[Any], Any] | None = None,
) -> dict[str, Any]:
    """What a remote end ships home at ``finish``: the state of its
    operators, its metrics shard and its supervision counters.
    ``encode`` makes attribute values fit the transport (TCP frames);
    :meth:`ThreadedEngine._fold_report` is the receiving half."""
    ops = list(ops)
    states = {op.name: _strip_payload(dict(op.__dict__)) for op in ops}
    if encode is not None:
        states = {
            name: {k: encode(v) for k, v in state.items()}
            for name, state in states.items()
        }
    return {
        "ops": states,
        "metrics": [
            (name, kind, dict(labels), float(value))
            for name, kind, labels, value in operator_metric_samples(ops)
        ] if metrics else [],
        "sup": asdict(supervisor.stats) if supervisor is not None else None,
    }


class _FrozenProgress:
    """Grace window for counters that may never balance again.

    After a remote end dies or a link flaps, messages that were inside
    it are gone and the in-flight ledger keeps their count forever.
    :meth:`frozen` answers whether the progress signature the transport
    reports has stayed the same for :attr:`GRACE_S`; ``None`` (nothing
    lost, keep waiting for exact quiescence) and every change restart
    the clock, as does a positive answer.
    """

    GRACE_S = 2.0

    def __init__(self) -> None:
        self._since: tuple[float, Any] | None = None

    def frozen(self, signature: Any) -> bool:
        now = time.perf_counter()
        if signature is None:
            self._since = None
        elif self._since is None or self._since[1] != signature:
            self._since = (now, signature)
        elif now - self._since[0] > self.GRACE_S:
            self._since = None
            return True
        return False


class ThreadedEngine:
    """Multi-threaded runtime with operator fusion and backpressure.

    Parameters
    ----------
    graph:
        The application graph.
    fusion:
        PE assignment; default :meth:`FusionPlan.per_operator`.
    queue_size:
        Bound of each inter-PE queue (backpressure) in **rows**
        (:func:`row_weight`), counted until a tuple's dispatch has
        finished, so what a PE can hold does not grow with the batch
        size; the ``least_loaded`` probe, the backpressure sampler and
        the stall report read the same unit.  Control tuples weigh
        nothing and never wait, so control loops cannot deadlock on it.
    supervisor:
        Optional :class:`~repro.streams.supervision.Supervisor` applying
        per-operator failure policies (retry / skip / checkpoint-restart)
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

    Transport seams
    ---------------
    A subclass that places operators on remote ends (:meth:`_place`)
    overrides these and nothing else of the run protocol; here, with
    every operator local, they do nothing (``_on_stall`` raises
    :class:`StallDetected` with the per-PE queue report):

    ``_start_remote`` / ``_stop_remote``
        create the transport and start the remote ends / tear both down;
    ``_send_remote`` / ``_remote_depth``
        ship one tuple to a remote operator / backlog towards a remote
        end (load-balancing probe);
    ``_supervise_remote`` / ``_on_stall``
        per-tick liveness check (:meth:`_died` is the common part), and
        what to do when the watchdog sees no progress — each repairs
        what a policy covers, raises otherwise;
    ``_procs``
        remote end → its OS process, filled by ``_start_remote``: what
        :meth:`kill_remote` (the chaos hook) and :meth:`_died` act on;
    ``_remote_quiet`` / ``_loss_signature`` / ``_accept_loss``
        the remote half of the quiescence predicate, and what to watch
        and do when loss makes exact quiescence unreachable;
    ``_finish_remote`` / ``_reports_pending`` / ``_fold_reports``
        raise ``finish`` remotely, name the ends whose final report is
        outstanding, fold the reports (:meth:`_fold_report` is the
        common part);
    ``_remote_running`` / ``_remote_gauges``
        names for the timeout message / rows for the backpressure
        sampler.
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
        self.fusion = fusion or FusionPlan.per_operator(graph)
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
        self._ops_by_name = {op.name: op for op in graph}
        # Placement: everything is local until _place() says otherwise.
        self._loc_of: dict[str, Any] = {op.name: _MAIN for op in graph}
        self._main_pes = list(self.fusion.pes)
        self._local_ops = list(graph.operators)
        self._remote_ops: dict[int, list[Operator]] = {}
        self._inboxes: dict[int, _Inbox] = {}
        self._pe_of: dict[int, ProcessingElement] = {}
        self._pe_of_id: dict[int, str] = {}
        self._stop = threading.Event()
        self._finish = threading.Event()
        self._errors: list[BaseException] = []
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._procs: dict[int, Any] = {}
        self._exit_seen: dict[int, float] = {}

    # -- placement --------------------------------------------------------

    def _place(
        self, main_ops: Iterable[str], n_ends: int | None = None
    ) -> list[ProcessingElement]:
        """Cut the graph between the coordinator and its remote ends.

        PEs holding a source, a sink or an operator named in ``main_ops``
        stay here; the others are dealt round-robin over ``n_ends``
        remote ends (default: one each) and returned.
        """
        self.main_ops = set(main_ops)
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
        n_ends = len(placed) if n_ends is None else min(n_ends, len(placed))
        self._remote_ops = {loc: [] for loc in range(n_ends)}
        for i, pe in enumerate(placed):
            self._remote_ops[i % n_ends].extend(pe.operators)
            for op in pe.operators:
                self._loc_of[op.name] = i % n_ends
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

    def _spec_fields(self, loc: int) -> dict[str, Any]:
        """The transport-independent part of a remote end's start-up
        spec: its operators, their routes and failure policies.  Only
        the *policies* cross — a supervisor holds locks — and the remote
        end runs its own in-process supervisor over them."""
        ops = self._remote_ops[loc]
        policies = self.supervisor.policies if self.supervisor else {}
        return {
            "ops": [_sanitize(op) for op in ops],
            "routes": {op.name: self._routes_for(op) for op in ops},
            "policies": {
                op.name: policies[op.name] for op in ops if op.name in policies
            },
            "metrics": (
                self.telemetry is not None and self.telemetry.config.metrics
            ),
        }

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

    def _inject(self, dst_name: str, tup: StreamTuple, port: int) -> None:
        """Hand a tuple that arrived from a remote end to a local operator."""
        dst = self._ops_by_name[dst_name]
        self._put(self._pe_of[id(dst)].pe_id, dst, port, tup)

    # -- wiring ---------------------------------------------------------

    def _wire(self) -> None:
        tracer = self._tracer
        for pe in self._main_pes:
            self._inboxes[pe.pe_id] = _Inbox(self.queue_size)
            self._pe_of_id[pe.pe_id] = pe.label()
            for op in pe.operators:
                self._pe_of[id(op)] = pe

        for op in self._local_ops:
            local: dict[int, list[tuple[Operator, int]]] = {}
            remote: dict[int, list[tuple[Any, str, int]]] = {}
            for port, entries in self._routes_for(op).items():
                for loc, name, in_port in entries:
                    if loc == _MAIN:
                        local.setdefault(port, []).append(
                            (self._ops_by_name[name], in_port)
                        )
                    else:
                        remote.setdefault(port, []).append(
                            (loc, name, in_port)
                        )

            def emit(
                tup: StreamTuple,
                port: int,
                _succ: dict[int, list[tuple[Operator, int]]] = local,
                _my_pe: ProcessingElement = self._pe_of[id(op)],
            ) -> None:
                if tracer is not None:
                    tracer.propagate(tup)
                for dst, in_port in _succ.get(port, ()):
                    dst_pe = self._pe_of[id(dst)]
                    if dst_pe is _my_pe:
                        # Fused edge: zero-copy, same-thread call.
                        self._dispatch(dst, tup, in_port)
                    else:
                        self._put(dst_pe.pe_id, dst, in_port, tup)

            # Only operators with an off-process successor pay for the
            # transport seam; an all-local graph binds the plain emit.
            op.bind(self._remote_emit(emit, remote) if remote else emit)

            if isinstance(op, Split):
                op.set_load_probe(self._make_probe(op))

    def _remote_emit(self, local_emit, remote):
        def emit(tup: StreamTuple, port: int) -> None:
            local_emit(tup, port)
            for loc, name, in_port in remote.get(port, ()):
                self._send_remote(loc, name, in_port, tup)

        return emit

    def _make_probe(self, split: Split):
        def probe(port: int) -> int:
            succ = self.graph.successors(split, port)
            if not succ:
                return 0
            dst = succ[0][0]
            loc = self._loc_of[dst.name]
            if loc != _MAIN:
                return self._remote_depth(loc)
            dst_pe = self._pe_of[id(dst)]
            if dst_pe is self._pe_of[id(split)]:
                return 0
            return self._inboxes[dst_pe.pe_id].qsize()

        return probe

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

    # -- transport seams: a thread-only run has no remote ends ----------

    def _start_remote(self) -> None:
        pass

    def _stop_remote(self) -> None:
        pass

    def _send_remote(
        self, loc: int, dst_name: str, dst_port: int, tup: StreamTuple
    ) -> None:
        raise NotImplementedError

    def _remote_depth(self, loc: int) -> int:
        raise NotImplementedError

    def _supervise_remote(self) -> None:
        pass

    def _remote_quiet(self) -> bool:
        return True

    def _loss_signature(self, sources_done: bool, local_quiet: bool) -> Any:
        return None

    def _accept_loss(self) -> bool:
        return True

    def _finish_remote(self) -> None:
        pass

    def _reports_pending(self) -> list:
        return []

    def _fold_reports(self) -> None:
        pass

    def _remote_running(self) -> list[str]:
        return []

    def _remote_gauges(self) -> tuple[list[tuple[str, int, int]], int]:
        return [], 0

    # -- the run protocol -----------------------------------------------

    def run(self, *, timeout_s: float = 300.0) -> RunStats:
        """Execute to completion; raises on errors, stall, or timeout.

        Fail-fast on errors: the first unhandled operator exception (after
        any supervisor policy) or unrecoverable remote-end failure stops
        every thread and is re-raised immediately instead of waiting for
        the timeout.  Normal completion follows the two-phase quiesce →
        drain → finish protocol described in the module docstring.
        """
        errors = self._errors
        if self.telemetry is not None:
            self.telemetry.run_started(
                engine=self._runtime, graph=self.graph.name
            )
        start = time.perf_counter()
        self._wire()
        # Remote ends start before any local thread does: forking a
        # multi-threaded coordinator is unsafe.
        self._start_remote()
        for op in self._local_ops:
            op.open()

        runners = [
            _PERunner(pe, self._inboxes[pe.pe_id], self)
            for pe in self._main_pes
            # pure-source PEs are driven by source runners
            if not all(isinstance(op, Source) for op in pe.operators)
        ]
        src_threads = [
            _SourceRunner(src, errors, self._stop, self._tracer)
            for src in self.graph.sources
        ]
        threads = src_threads + runners
        sampler = self._start_sampler()
        if self._watchdog is not None:
            self._watchdog.poke()
        for t in threads:
            t.start()

        deadline = start + timeout_s
        grace = _FrozenProgress()
        try:
            while True:
                self._tick()
                # Remote ledger first: a tuple it has signed off is
                # already on the local one.
                remote_quiet = self._remote_quiet()
                sources_done = not any(t.is_alive() for t in src_threads)
                local_quiet = (
                    sources_done
                    and all(r.quiesced.is_set() for r in runners)
                    and self._inflight == 0
                )
                if local_quiet and remote_quiet:
                    break
                if grace.frozen(
                    self._loss_signature(sources_done, local_quiet)
                ) and self._accept_loss():
                    break
                if time.perf_counter() > deadline:
                    running = [
                        t.name for t in threads if t.is_alive()
                    ] + self._remote_running()
                    raise RuntimeError(
                        f"graph {self.graph.name!r} did not finish within "
                        f"{timeout_s}s (still running: {running})"
                    )
                time.sleep(0.002)

            # Global quiescence: raise finish everywhere, collect the
            # remote ends' final reports.
            self._finish.set()
            self._finish_remote()
            report_deadline = time.perf_counter() + 60.0
            while self._reports_pending():
                self._tick()
                if time.perf_counter() > report_deadline:
                    raise RuntimeError(
                        f"remote ends {self._reports_pending()} did not "
                        f"report final state"
                    )
                time.sleep(0.002)
            for t in runners:
                t.join(timeout=5.0)
            if errors:
                raise errors[0]
        finally:
            self._finish.set()
            self._stop.set()
            for t in threads:
                t.join(timeout=1.0)
            self._stop_remote()
            if sampler is not None:
                sampler.stop()
        self._fold_reports()
        stats = RunStats.collect(
            self.graph, time.perf_counter() - start, self.supervisor
        )
        if self.telemetry is not None:
            self.telemetry.run_finished(stats)
        return stats

    def _tick(self) -> None:
        """One supervision step: first error, remote liveness, stall."""
        if self._errors:
            raise self._errors[0]
        self._supervise_remote()
        if self._watchdog is not None:
            stalled = self._watchdog.stalled_for()
            if stalled is not None:
                self._on_stall(stalled)

    def kill_remote(self, loc: int) -> bool:
        """SIGKILL remote end ``loc`` (the chaos hook); whether a live
        process was there to kill."""
        proc = self._procs.get(loc)
        if proc is None or not proc.is_alive():
            return False
        proc.kill()
        return True

    def _died(self, loc: int) -> bool:
        """Whether remote end ``loc``'s process is gone for good.

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

    def _fold_report(
        self,
        label: str,
        report: dict[str, Any],
        decode: Callable[[Any], Any] | None = None,
    ) -> None:
        """Fold one remote end's :func:`_final_report` into the
        coordinator-side operators, telemetry and supervisor, so results
        and ``RunStats`` read the same wherever an operator ran."""
        for name, state in report["ops"].items():
            op = self._ops_by_name.get(name)
            if op is None:
                continue
            if decode is not None:
                state = {k: decode(v) for k, v in state.items()}
            op.__dict__.update(_strip_payload(dict(state)))
        if self.telemetry is not None and report.get("metrics"):
            self.telemetry.merge_shard(label, report["metrics"])
        if self.supervisor is not None:
            for table, counts in (report.get("sup") or {}).items():
                mine = getattr(self.supervisor.stats, table)
                for name, n in counts.items():
                    mine[name] = mine.get(name, 0) + n

    def _start_sampler(self) -> BackpressureSampler | None:
        tel = self.telemetry
        if tel is None or tel.config.sampler_interval_s is None:
            return None

        def probe():
            per_pe = [
                (
                    pe.label(),
                    self._inboxes[pe.pe_id].qsize(),
                    self.queue_size,
                )
                for pe in self._main_pes
            ]
            remote, remote_inflight = self._remote_gauges()
            dispatched = sum(op.tuples_in for op in self._local_ops)
            return per_pe + remote, self._inflight + remote_inflight, dispatched

        sampler = BackpressureSampler(
            tel, probe, interval_s=tel.config.sampler_interval_s
        )
        sampler.start()
        return sampler
