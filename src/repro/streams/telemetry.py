"""Unified telemetry: metrics registry, tuple tracing, backpressure sampling.

The paper relies on InfoSphere's profiling tools to measure "the
performance of each component and the data channels traffic" (§III-D)
and feeds those measurements into the fusion/placement optimization.
This module is that observability layer for our reproduction, one level
up from the ad-hoc counters of :class:`~repro.streams.engine.RunStats`:

* :class:`MetricsRegistry` — thread-safe counters, gauges, and
  fixed-bucket histograms (p50/p95/p99 summaries), labelled per operator
  and per processing element.  Cheap *collectors* read existing
  operator-side counters at export time, so the hot path pays nothing
  for metrics and there is exactly one source of truth: the operator's
  own counter attributes.
* :class:`Tracer` — span-based tuple tracing.  A sampled source tuple
  (default 1-in-N) starts a *root span*; the trace context propagates
  through fused synchronous dispatch chains (thread-local current span),
  through :class:`~repro.streams.split.Split` fan-out (the forwarded
  tuple keeps its context), and across
  :class:`~repro.streams.engine.ThreadedEngine` queue hops (contexts are
  keyed by the globally unique ``StreamTuple.seq``, which crosses the
  queue with the tuple; the wait itself becomes a ``queue`` span).
* :class:`BackpressureSampler` — a background thread that periodically
  records per-PE queue depth, the global in-flight count, and
  throughput, so backpressure is visible *over time* instead of only in
  a post-mortem stall report.
* Exporters — :meth:`Telemetry.to_prometheus` (Prometheus text
  format), :meth:`Telemetry.write_jsonl` (structured event log incl. a
  final metrics snapshot), and :func:`repro.streams.telemetry_report.render_report`
  (human-readable run report; also ``python -m repro telemetry <log>``).

Overhead tiers (see ``benchmarks/bench_telemetry_overhead.py``):

========================  =============================================
``TelemetryConfig``       per-tuple cost
========================  =============================================
metrics only (default)    ~zero — counters are read at export time
``timing=True``           one ``perf_counter`` pair per dispatch
``tracing=True``          one dict probe per dispatch; spans only for
                          the sampled 1-in-N traces
========================  =============================================
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .graph import Graph
    from .operators import Operator
    from .tuples import StreamTuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "EventLog",
    "WatermarkTracker",
    "BackpressureSampler",
    "TelemetryConfig",
    "Telemetry",
    "load_events",
    "operator_counter_snapshot",
    "operator_metric_samples",
    "DEFAULT_LATENCY_BUCKETS",
]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: Exponential latency buckets in seconds, 1 µs … 10 s.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def json_default(obj: Any):
    """``json.dumps(default=)`` for values that are not JSON-native:
    numpy scalars as floats, anything else as its ``str``."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing value (per label set).

    Incremented by the instrumented component itself; components that
    already keep their own counters are exposed through registry
    *collectors* instead, so the count is never kept twice.
    """

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n

    def read(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value; either set directly or computed by ``fn``."""

    __slots__ = ("name", "labels", "value", "fn")
    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        fn: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value: float = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = float(value)

    def read(self) -> float:
        return float(self.fn()) if self.fn is not None else self.value


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``observe`` takes a per-histogram lock: the registry advertises
    thread safety, and histograms *are* shared across threads — the same
    ``(name, labels)`` pair handed to two PEs, or an e2e-latency
    histogram observed from a sink while an exporter reads it.  The lock
    is uncontended in the common single-writer case (a few tens of ns);
    exporters read without it and tolerate a slightly stale view.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "min", "max", "_lock")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        buckets: Iterable[float] | None = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("bucket bounds must be a sorted non-empty list")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_right(self.buckets, value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile estimate, ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            lo = self.buckets[i - 1] if i > 0 else max(min(self.min, self.buckets[0]), 0.0)
            hi = self.buckets[i] if i < len(self.buckets) else max(self.max, self.buckets[-1])
            if cum + c >= rank:
                frac = (rank - cum) / c
                return lo + frac * (hi - lo)
            cum += c
        return self.max  # pragma: no cover - unreachable

    def summary(self) -> dict[str, float]:
        """Mean and p50/p95/p99 for reports and the metrics snapshot."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


@dataclass(frozen=True)
class _Sample:
    """One exported metric value (collector output)."""

    name: str
    kind: str  # "counter" | "gauge"
    labels: Mapping[str, str]
    value: float


class MetricsRegistry:
    """Thread-safe home of every metric in a run.

    Metrics come from two places: *objects* handed out by
    :meth:`counter` / :meth:`gauge` / :meth:`histogram` (get-or-create by
    ``(name, labels)``), and *collectors* — callables registered with
    :meth:`register_collector` that yield ``(name, kind, labels, value)``
    at export time.  Collectors are how pre-existing counters (operator
    ``tuples_in``, supervisor stats, split per-target counts) are exposed
    without double bookkeeping.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        self._collectors: list[Callable[[], Iterable[tuple]]] = []
        self._lock = threading.Lock()

    # -- creation --------------------------------------------------------

    def _get_or_create(self, cls, name: str, labels, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, {k: str(v) for k, v in labels.items()}, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r}{dict(labels)!r} already registered "
                    f"as {type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(
        self, name: str, fn: Callable[[], float] | None = None, **labels: Any
    ) -> Gauge:
        g = self._get_or_create(Gauge, name, labels)
        if fn is not None:
            g.fn = fn
        return g

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None, **labels: Any
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def register_collector(
        self, fn: Callable[[], Iterable[tuple]]
    ) -> None:
        """Register ``fn() -> iterable of (name, kind, labels, value)``."""
        with self._lock:
            self._collectors.append(fn)

    # -- export ----------------------------------------------------------

    def collect(self) -> list[_Sample | Histogram]:
        """All current values: scalar samples plus histogram objects."""
        out: list[_Sample | Histogram] = []
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        for m in metrics:
            if isinstance(m, Histogram):
                out.append(m)
            else:
                out.append(_Sample(m.name, m.kind, m.labels, m.read()))
        for fn in collectors:
            for name, kind, labels, value in fn():
                out.append(_Sample(name, kind, labels, float(value)))
        return out

    def value(self, name: str, **labels: Any) -> float | None:
        """Look up one scalar value from a full collection (tests, reports)."""
        want = _label_key(labels)
        for s in self.collect():
            if isinstance(s, _Sample) and s.name == name and _label_key(s.labels) == want:
                return s.value
        return None

    def to_prometheus(self) -> str:
        """Render every metric in the Prometheus text exposition format."""
        samples = self.collect()
        by_name: dict[str, list] = {}
        kinds: dict[str, str] = {}
        for s in samples:
            by_name.setdefault(s.name, []).append(s)
            kinds[s.name] = s.kind
        lines: list[str] = []
        for name in sorted(by_name):
            lines.append(f"# TYPE {name} {kinds[name]}")
            for s in sorted(
                by_name[name], key=lambda m: _label_key(m.labels)
            ):
                if isinstance(s, Histogram):
                    cum = 0
                    for bound, c in zip(s.buckets, s.counts):
                        cum += c
                        labels = dict(s.labels, le=repr(bound))
                        lines.append(
                            f"{name}_bucket{_fmt_labels(labels)} {cum}"
                        )
                    lines.append(
                        f"{name}_bucket{_fmt_labels(dict(s.labels, le='+Inf'))} "
                        f"{s.count}"
                    )
                    lines.append(
                        f"{name}_sum{_fmt_labels(s.labels)} {s.sum:.9g}"
                    )
                    lines.append(
                        f"{name}_count{_fmt_labels(s.labels)} {s.count}"
                    )
                else:
                    value = s.value
                    text = repr(value) if isinstance(value, float) else str(value)
                    lines.append(f"{name}{_fmt_labels(s.labels)} {text}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-able dump of every metric (for the ``metrics`` event)."""
        out = []
        for s in self.collect():
            if isinstance(s, Histogram):
                out.append({
                    "name": s.name, "kind": "histogram", "labels": s.labels,
                    **s.summary(),
                })
            else:
                out.append({
                    "name": s.name, "kind": s.kind,
                    "labels": dict(s.labels), "value": s.value,
                })
        return out


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


class EventLog:
    """Bounded, thread-safe list of structured telemetry events.

    Every event is a JSON-able dict with at least ``ts`` (seconds since
    telemetry start, monotonic) and ``kind`` (``run_start``, ``span``,
    ``sample``, ``supervision``, ``sync``, ``health``,
    ``health_verdict``, ``run_end``, ``metrics``).
    """

    def __init__(self, max_events: int = 200_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self.n_dropped = 0
        self._events: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def append(self, event: dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.n_dropped += 1
                return
            self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._events)


# ---------------------------------------------------------------------------
# Watermarks
# ---------------------------------------------------------------------------


class WatermarkTracker:
    """Low-watermark state of one terminal operator (sink).

    ``note`` is called per delivered tuple with its source-stamped
    ``event_ts``; :meth:`lag` is read at scrape time as the
    ``repro_watermark_lag_seconds`` gauge.  The watermark is the maximum
    event time this sink has *completed* — because derived tuples carry
    the minimum event time of their inputs (see
    :mod:`repro.streams.tuples`), every observation stamped at or before
    it has been fully processed here.  Lock-free on purpose: ``note``
    writes a single float, torn reads are impossible for Python floats,
    and the gauge tolerates a one-tuple-stale view.

    **Clock skew.**  Event times are wall-clock stamps from the
    *producing* host (see ``stamp_event_time``); on the cluster runtime
    that is a different machine.  A producer clock running ahead of this
    host makes ``time.time() - event_ts`` negative — clamping that to
    0.0 silently (the old behaviour) corrupts every latency reading
    derived from it with no signal.  The tracker therefore records the
    most negative raw lag ever observed and exposes it signed via
    :meth:`skew` (the ``repro_clock_skew_seconds`` gauge: 0.0 = clocks
    consistent, negative = producer ahead by at least that much), and
    warns once when it first exceeds :data:`SKEW_WARN_THRESHOLD_S`.
    A producer clock running *behind* inflates lag instead and is
    indistinguishable from genuine latency — the gauge bounds the error
    in one direction only, which is exactly what NTP-disciplined hosts
    need monitored.
    """

    #: Warn-once threshold on the observed negative raw lag (seconds).
    SKEW_WARN_THRESHOLD_S = 0.25

    __slots__ = ("watermark_ts", "n_noted", "min_raw_lag_s", "_skew_warned")

    def __init__(self) -> None:
        #: Max event_ts seen (epoch seconds); None before the first tuple.
        self.watermark_ts: float | None = None
        self.n_noted = 0
        #: Most negative (now - event_ts) observed; 0.0 when clocks are
        #: consistent.
        self.min_raw_lag_s = 0.0
        self._skew_warned = False

    def note(self, event_ts: float, raw_lag: float | None = None) -> None:
        wm = self.watermark_ts
        if wm is None or event_ts > wm:
            self.watermark_ts = event_ts
        self.n_noted += 1
        if raw_lag is not None and raw_lag < self.min_raw_lag_s:
            self.min_raw_lag_s = raw_lag
            if (
                not self._skew_warned
                and raw_lag < -self.SKEW_WARN_THRESHOLD_S
            ):
                self._skew_warned = True
                import warnings

                warnings.warn(
                    f"event time from the future: tuple stamped "
                    f"{-raw_lag:.3f}s ahead of this host's clock — "
                    f"producer/consumer clocks are skewed; e2e-latency "
                    f"and watermark-lag readings are untrustworthy "
                    f"beyond that bound (repro_clock_skew_seconds)",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def lag(self) -> float:
        """Seconds between now and the watermark (0.0 before any tuple).

        Clamped at 0.0 — a negative value means clock skew, not negative
        lag, and is reported via :meth:`skew` instead.
        """
        wm = self.watermark_ts
        if wm is None:
            return 0.0
        return max(0.0, time.time() - wm)

    def skew(self) -> float:
        """Signed clock-skew bound: most negative raw lag observed.

        0.0 when producer clocks never ran ahead of this host; negative
        values mean at least that much producer-ahead skew exists and
        latency readings are biased by up to its magnitude.
        """
        return min(0.0, self.min_raw_lag_s)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed unit of work inside a trace."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    span_kind: str  # "root" | "dispatch" | "queue" | "merge"
    t_start: float
    t_end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_event(self) -> dict[str, Any]:
        return {
            "ts": self.t_start,
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "span_kind": self.span_kind,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration_s": self.t_end - self.t_start,
            **self.attrs,
        }


class _TraceCtx:
    """What rides along with a traced tuple (by ``seq``)."""

    __slots__ = ("trace_id", "parent_span_id")

    def __init__(self, trace_id: int, parent_span_id: int) -> None:
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id


class Tracer:
    """Sampled span tracing with cross-thread context propagation.

    Contexts are keyed by the globally unique ``StreamTuple.seq``; the
    same key works for fused (same-thread) edges, ``Split`` fan-out (the
    forwarded tuple object is unchanged), and ``ThreadedEngine`` queue
    hops (the tuple object crosses the queue).  Derived tuples created by
    an operator during a traced dispatch inherit the *current* span via a
    thread-local, so traces survive ``Functor``-style re-emission too.

    Live-context tables are cleared by :meth:`reset` (called from
    ``Telemetry.run_finished``), so no per-thread or per-run state leaks
    between runs; ``max_live`` bounds the tables during a run.
    """

    def __init__(
        self,
        events: EventLog,
        *,
        sample_every: int = 128,
        clock: Callable[[], float] = time.perf_counter,
        max_live: int = 100_000,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.events = events
        self._clock = clock
        self.max_live = max_live
        self._live: dict[int, _TraceCtx] = {}
        self._enqueued: dict[int, tuple[float, str]] = {}
        self._tls = threading.local()
        self._ids_lock = threading.Lock()
        self._next_id = 0
        self._n_source = 0
        self.n_traces = 0

    # -- ids -------------------------------------------------------------

    def _new_id(self) -> int:
        with self._ids_lock:
            self._next_id += 1
            return self._next_id

    # -- context plumbing ------------------------------------------------

    def ctx_of(self, tup: "StreamTuple") -> _TraceCtx | None:
        return self._live.get(tup.seq)

    def current_ctx(self) -> _TraceCtx | None:
        return getattr(self._tls, "current", None)

    def propagate(self, tup: "StreamTuple") -> None:
        """Tag ``tup`` with the active span's context (emit-time hook).

        A tuple *forwarded* during a traced dispatch (``Split``/``Union``
        re-emit the same object) is re-parented to the forwarding span so
        waterfalls show true causality; a tuple already owned by a
        *different* trace is left alone.
        """
        ctx = getattr(self._tls, "current", None)
        if ctx is None:
            return
        existing = self._live.get(tup.seq)
        if existing is not None:
            if existing.trace_id == ctx.trace_id:
                self._live[tup.seq] = ctx
            return
        if len(self._live) < self.max_live:
            self._live[tup.seq] = ctx

    # -- root spans ------------------------------------------------------

    def maybe_start_root(
        self, op: "Operator", tup: "StreamTuple"
    ) -> Span | None:
        """Start a root span for every ``sample_every``-th source tuple."""
        if not tup.is_data:
            return None
        with self._ids_lock:
            self._n_source += 1
            if (self._n_source - 1) % self.sample_every:
                return None
        trace_id = self._new_id()
        span = Span(
            trace_id=trace_id,
            span_id=self._new_id(),
            parent_id=None,
            name=op.name,
            span_kind="root",
            t_start=self._clock(),
            attrs={"op": op.name, "seq": tup.seq},
        )
        self.n_traces += 1
        if len(self._live) < self.max_live:
            self._live[tup.seq] = _TraceCtx(trace_id, span.span_id)
        return span

    def finish_span(self, span: Span) -> None:
        span.t_end = self._clock()
        self.events.append(span.to_event())

    # -- queue hops ------------------------------------------------------

    def note_enqueued(self, tup: "StreamTuple", pe_label: str) -> None:
        """Record queue entry for a traced tuple (threaded engine)."""
        if tup.seq in self._live and len(self._enqueued) < self.max_live:
            self._enqueued[tup.seq] = (self._clock(), pe_label)

    # -- dispatch spans --------------------------------------------------

    @contextmanager
    def dispatch_span(
        self, op: "Operator", tup: "StreamTuple", ctx: _TraceCtx
    ) -> Iterator[Span]:
        """Wrap one dispatch of a traced tuple in a child span.

        If the tuple crossed a queue since it was tagged, a ``queue``
        span covering the wait is emitted first and becomes the dispatch
        span's parent, so waterfalls show where time was spent.
        """
        parent_id = ctx.parent_span_id
        queued = self._enqueued.pop(tup.seq, None)
        now = self._clock()
        if queued is not None:
            t_enq, pe_label = queued
            qspan = Span(
                trace_id=ctx.trace_id,
                span_id=self._new_id(),
                parent_id=parent_id,
                name=f"queue:{pe_label}",
                span_kind="queue",
                t_start=t_enq,
                t_end=now,
                attrs={"pe": pe_label, "seq": tup.seq},
            )
            self.events.append(qspan.to_event())
            parent_id = qspan.span_id
        span = Span(
            trace_id=ctx.trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            name=op.name,
            span_kind="dispatch",
            t_start=now,
            attrs={"op": op.name, "seq": tup.seq},
        )
        prev = getattr(self._tls, "current", None)
        self._tls.current = _TraceCtx(ctx.trace_id, span.span_id)
        try:
            yield span
        finally:
            self._tls.current = prev
            self.finish_span(span)

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Drop all live contexts (between runs; prevents state leaks)."""
        self._live.clear()
        self._enqueued.clear()
        self._tls = threading.local()


# ---------------------------------------------------------------------------
# Backpressure sampler
# ---------------------------------------------------------------------------


class BackpressureSampler(threading.Thread):
    """Background thread recording queue depth / in-flight / throughput.

    ``probe`` returns the instantaneous engine state:
    ``(per_pe, inflight, total_dispatched)`` where ``per_pe`` is a list
    of ``(pe_label, depth, capacity)``.  Each tick emits one ``sample``
    event per PE plus one engine-wide sample, and updates the matching
    gauges so a mid-run Prometheus scrape sees the same numbers.
    """

    def __init__(
        self,
        telemetry: "Telemetry",
        probe: Callable[[], tuple[list[tuple[str, int, int]], int, int]],
        *,
        interval_s: float = 0.05,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        super().__init__(name="telemetry-sampler", daemon=True)
        self.telemetry = telemetry
        self.probe = probe
        self.interval_s = interval_s
        self.n_samples = 0
        # NB: not named _stop — threading.Thread has a private _stop().
        self._halt = threading.Event()
        self._last_dispatched = 0
        self._last_t = telemetry.now()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            self.sample()
        self.sample()  # final sample at shutdown: capture the drain state

    def sample(self) -> None:
        tel = self.telemetry
        try:
            per_pe, inflight, dispatched = self.probe()
        except Exception:  # engine tearing down mid-probe
            return
        now = tel.now()
        dt = max(now - self._last_t, 1e-9)
        rate = (dispatched - self._last_dispatched) / dt
        self._last_dispatched = dispatched
        self._last_t = now
        for label, depth, capacity in per_pe:
            tel.metrics.gauge("repro_queue_depth", pe=label).set(depth)
            tel.events.append({
                "ts": now, "kind": "sample", "pe": label,
                "depth": depth, "capacity": capacity,
            })
        tel.metrics.gauge("repro_inflight_tuples").set(inflight)
        tel.metrics.gauge("repro_dispatch_rate_tps").set(rate)
        tel.events.append({
            "ts": now, "kind": "sample", "pe": None,
            "inflight": inflight, "dispatched_total": dispatched,
            "throughput_tps": rate,
        })
        self.n_samples += 1


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryConfig:
    """What the telemetry layer records.

    Attributes
    ----------
    metrics:
        Counter/gauge views over operators (≈zero per-tuple cost).
    timing:
        Per-dispatch exclusive-time histograms (enables profiled
        dispatch; one ``perf_counter`` pair per delivery).
    tracing:
        Sampled span tracing (one dict probe per dispatch; spans only on
        sampled traces).
    trace_sample_every:
        Trace 1 source tuple in this many (the first is always traced).
    sampler_interval_s:
        Backpressure sampling period for the threaded engine; ``None``
        disables the sampler thread.
    max_events:
        Event-log bound; excess events are counted, not stored.
    """

    metrics: bool = True
    timing: bool = False
    tracing: bool = False
    trace_sample_every: int = 128
    sampler_interval_s: float | None = None
    max_events: int = 200_000

    def __post_init__(self) -> None:
        if self.trace_sample_every < 1:
            raise ValueError("trace_sample_every must be >= 1")
        if self.sampler_interval_s is not None and self.sampler_interval_s <= 0:
            raise ValueError("sampler_interval_s must be positive")


class Telemetry:
    """One run's worth of metrics, traces, and events.

    Pass an instance to either engine (``telemetry=...``); it may be
    shared across runs (metrics accumulate, trace state is reset at each
    ``run_finished``).
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.metrics = MetricsRegistry()
        self.events = EventLog(max_events=self.config.max_events)
        self.tracer = Tracer(
            self.events, sample_every=self.config.trace_sample_every
        )
        self._t0 = time.perf_counter()
        self.tracer._clock = self.now
        if self.config.metrics:
            # Dropped telemetry events are themselves a telemetry signal:
            # a saturated event log silently losing data is exactly what
            # an operator scraping /metrics needs to notice.
            self.metrics.register_collector(
                lambda: (
                    ("repro_events_dropped_total", "counter", {},
                     self.events.n_dropped),
                )
            )

    def now(self) -> float:
        """Seconds since this telemetry object was created (monotonic)."""
        return time.perf_counter() - self._t0

    # -- wiring ----------------------------------------------------------

    def attach_graph(self, graph: "Graph", fusion=None) -> None:
        """Expose a graph's own counters through the registry.

        Registers one collector that reads every operator's counter
        attributes at export time (single source of truth), installs
        per-dispatch latency histograms when ``timing`` is on, and gives
        telemetry-aware operators (``bind_telemetry`` hook, e.g. the
        sync controller) a reference to this object.
        """
        from .operators import Source

        pe_of: dict[str, str] = {}
        if fusion is not None:
            for pe in fusion.pes:
                for op in pe.operators:
                    pe_of[op.name] = str(pe.pe_id)

        operators = list(graph)

        def collect() -> Iterator[tuple]:
            return operator_metric_samples(operators, pe_of)

        if self.config.metrics:
            self.metrics.register_collector(collect)
            # End-to-end observability on terminal operators: sinks get
            # an ingest→sink latency histogram and a watermark tracker
            # driven from Operator._dispatch_inner (a single attribute
            # check per tuple when not installed).
            for op in operators:
                if op.n_outputs != 0 or isinstance(op, Source):
                    continue
                op._e2e_hist = self.metrics.histogram(
                    "repro_e2e_latency_seconds", sink=op.name
                )
                tracker = WatermarkTracker()
                op._watermark = tracker
                self.metrics.gauge(
                    "repro_watermark_lag_seconds", tracker.lag, sink=op.name
                )
                self.metrics.gauge(
                    "repro_clock_skew_seconds", tracker.skew, sink=op.name
                )
        if self.config.timing:
            from .profiling import enable_profiling

            enable_profiling(operators)
            for op in operators:
                if isinstance(op, Source):
                    continue
                op._latency_hist = self.metrics.histogram(
                    "repro_dispatch_seconds", operator=op.name
                )
        for op in operators:
            hook = getattr(op, "bind_telemetry", None)
            if hook is not None:
                hook(self)

    def attach_supervisor(self, supervisor) -> None:
        """Expose supervision counters and route its events here."""
        supervisor.telemetry = self
        stats = supervisor.stats

        def collect() -> Iterator[tuple]:
            for metric, table in (
                ("repro_failures_total", stats.failures),
                ("repro_restarts_total", stats.restarts),
                ("repro_recovery_seconds_total", stats.recovery_time_s),
            ):
                for name, value in table.items():
                    yield (metric, "counter", {"operator": name}, value)

        if self.config.metrics:
            self.metrics.register_collector(collect)

    def merge_shard(
        self,
        process_label: str,
        samples: Iterable[tuple],
    ) -> None:
        """Merge a per-process metrics shard into this registry.

        The remote runtimes' engine hosts each run their own
        :class:`MetricsRegistry`; at shutdown every host ships
        ``registry → collect → (name, kind, labels, value)`` rows back to
        the coordinator, which re-exposes them here with a
        ``process=<label>`` label.  The shard is a *labelled breakdown*
        of the run totals (the coordinator's own operator collector
        reports the authoritative per-operator totals after host state
        is merged back) — aggregations across processes should filter on
        the ``process`` label rather than sum both views.
        """
        frozen = [
            (name, kind, dict(labels, process=process_label), value)
            for name, kind, labels, value in samples
        ]
        if self.config.metrics and frozen:
            self.metrics.register_collector(lambda: iter(frozen))

    # -- run lifecycle ---------------------------------------------------

    def run_started(self, *, engine: str, graph: str) -> None:
        self.events.append({
            "ts": self.now(), "kind": "run_start",
            "engine": engine, "graph": graph,
            "unix_time": time.time(),
        })

    def run_finished(self, stats=None, **extra: Any) -> None:
        event = {"ts": self.now(), "kind": "run_end", **extra}
        if stats is not None:
            event["wall_time_s"] = stats.wall_time_s
            event["throughput_tps"] = stats.throughput()
        self.events.append(event)
        self.tracer.reset()

    # -- exporters -------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text-format export of every metric."""
        return self.metrics.to_prometheus()

    def write_jsonl(self, path) -> int:
        """Write the event log (plus a final metrics snapshot) as JSONL.

        Returns the number of lines written.  Values that are not
        JSON-native (numpy scalars) are coerced via ``float``/``str``.
        """
        events = self.events.events()
        events.append({
            "ts": self.now(), "kind": "metrics",
            "n_dropped_events": self.events.n_dropped,
            "metrics": self.metrics.snapshot(),
        })

        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event, default=json_default) + "\n")
        return len(events)

    def render_report(self, **kwargs) -> str:
        """Human-readable run report (see ``telemetry_report``)."""
        from .telemetry_report import render_report

        events = self.events.events()
        events.append({
            "ts": self.now(), "kind": "metrics",
            "metrics": self.metrics.snapshot(),
        })
        return render_report(events, **kwargs)


def load_events(path, *, strict: bool = False) -> list[dict[str, Any]]:
    """Load a JSONL event log written by :meth:`Telemetry.write_jsonl`.

    Real logs get truncated (a killed run, a partial upload), so by
    default unparseable lines are skipped and surfaced as a synthetic
    ``{"kind": "load_error", "n_bad_lines": N}`` event appended at the
    end — reports can warn without the loader throwing away the ~all
    good lines around one torn write.  ``strict=True`` restores the
    raise-on-garbage behaviour.
    """
    events = []
    n_bad = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                if strict:
                    raise
                n_bad += 1
                continue
            if not isinstance(event, dict):
                if strict:
                    raise TypeError(f"event line is not an object: {line!r}")
                n_bad += 1
                continue
            events.append(event)
    if n_bad:
        events.append({"kind": "load_error", "n_bad_lines": n_bad})
    return events


# ---------------------------------------------------------------------------
# Shared counter snapshot (RunStats is a thin view over this)
# ---------------------------------------------------------------------------


def operator_metric_samples(
    operators: Iterable["Operator"],
    pe_of: Mapping[str, str] | None = None,
) -> Iterator[tuple]:
    """Metric samples for a set of operators: the one collector body.

    Yields ``(name, kind, labels, value)`` rows for every operator's own
    counters (plus the Split/Batcher specials).  Used both by
    :meth:`Telemetry.attach_graph` (coordinator-side collector) and by
    engine hosts building their per-process metrics shard — the
    sample schema is identical on both sides by construction.
    """
    from .batcher import Batcher
    from .split import Split

    pe_of = pe_of or {}
    for op in operators:
        labels = {"operator": op.name}
        if op.name in pe_of:
            labels["pe"] = pe_of[op.name]
        yield ("repro_tuples_in_total", "counter", labels, op.tuples_in)
        yield ("repro_tuples_out_total", "counter", labels, op.tuples_out)
        yield ("repro_punct_out_total", "counter", labels, op.punct_out)
        if op._profiled:
            yield ("repro_exclusive_seconds_total", "counter",
                   labels, op.processing_time_s)
        if isinstance(op, Split):
            for t, n in enumerate(op.sent_per_target):
                yield ("repro_split_sent_total", "counter",
                       dict(labels, target=str(t)), int(n))
        if isinstance(op, Batcher):
            yield ("repro_batch_achieved_size", "gauge",
                   labels, op.achieved_batch_size())
            for reason, n in op.flush_counts.items():
                yield ("repro_batch_flush_total", "counter",
                       dict(labels, reason=reason), int(n))
        # Resilience counters are duck-typed: guarded and network sources
        # expose ``n_quarantined``, a source with the load-shed valve
        # armed ``n_shed``/``n_trips``/``state`` (the ``breaker`` metric
        # names predate the valve), reconnecting sources ``n_reconnects``.
        n_quarantined = getattr(op, "n_quarantined", None)
        if n_quarantined is not None:
            yield ("repro_dlq_total", "counter", labels, int(n_quarantined))
        n_shed = getattr(op, "n_shed", None)
        if n_shed is not None:
            yield ("repro_shed_total", "counter", labels, int(n_shed))
            yield ("repro_breaker_trips_total", "counter",
                   labels, int(getattr(op, "n_trips", 0)))
            yield ("repro_breaker_open", "gauge", labels,
                   1.0 if getattr(op, "state", "closed") == "open" else 0.0)
        n_reconnects = getattr(op, "n_reconnects", None)
        if n_reconnects is not None:
            yield ("repro_source_reconnects_total", "counter",
                   labels, int(n_reconnects))


def operator_counter_snapshot(graph: "Graph") -> dict[str, dict[str, Any]]:
    """Read every operator's counters once.

    This is the *single* read path for per-operator counters: both
    :meth:`RunStats.collect <repro.streams.engine.RunStats.collect>` and
    the registry collectors installed by :meth:`Telemetry.attach_graph`
    read the same operator attributes — counts are never kept twice.
    """
    from .operators import Source

    snap: dict[str, dict[str, Any]] = {
        "tuples_in": {}, "tuples_out": {}, "source_tuples": {},
        "processing_time_s": {},
    }
    for op in graph:
        snap["tuples_in"][op.name] = op.tuples_in
        snap["tuples_out"][op.name] = op.tuples_out
        if op._profiled:
            snap["processing_time_s"][op.name] = op.processing_time_s
        if isinstance(op, Source):
            # tuples_out includes punctuation; sources count emitted
            # punctuation explicitly, so extra markers (window markers,
            # early EOS on one port) are not miscounted.
            snap["source_tuples"][op.name] = max(
                op.tuples_out - op.punct_out, 0
            )
    return snap
