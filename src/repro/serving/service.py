"""The tenant-facing service: admission, queries, health, telemetry.

:class:`PCAService` is the transport-independent core of the serving
layer — the HTTP/WebSocket front end in :mod:`repro.serving.http` is a
thin codec over it, and tests can drive it directly.  It enforces the
three-plane separation the ROADMAP asks for:

* **ingestion** — :meth:`ingest` runs admission (per-tenant
  :class:`~repro.streams.resilience.LoadShedValve`, then queue bound)
  and enqueues; it never touches a model.
* **compute** — the :class:`~.pool.EnginePool` lanes drain queues and
  publish snapshots; the service only observes.
* **query** — :meth:`transform` / :meth:`reconstruction_error` /
  :meth:`outlier_score` / :meth:`eigenspectra` read *only* the
  :class:`~.snapshots.EigenbasisCache`; they cannot block on a model
  lock because they never reach for one.

Every response is ``(status, payload)`` with HTTP semantics:
202 admitted, 200 answered, 404 unknown tenant, 409 no snapshot yet,
422 bad rows, 429 shed (with ``retry_after_s``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..streams.health import HealthRuleEngine, default_rules
from ..streams.telemetry import (
    BackpressureSampler,
    Telemetry,
    TelemetryConfig,
)
from .pool import EnginePool
from .snapshots import EigenbasisCache
from .tenancy import QueueFull, TenantSpec, TenantState

__all__ = ["EventBus", "PCAService", "ServingConfig"]

#: Seconds between the backpressure sampler's reads of the lane queues.
SAMPLER_INTERVAL_S = 0.1


class _ServingRuleEngine(HealthRuleEngine):
    """Rule engine whose monitor/membership views track the live pool.

    The base class freezes ``monitors`` and ``controller`` at
    construction; tenants and lanes come and go, so this subclass
    refreshes both from the service before every snapshot.  Works
    unchanged wherever a :class:`HealthRuleEngine` is expected — the
    ``/health`` routes of :mod:`repro.streams.obs_server`, which
    :class:`~.http.ServingServer` mounts, included.
    """

    def __init__(self, service: "PCAService") -> None:
        super().__init__(
            service.telemetry, monitors=(), controller=None,
            rules=default_rules(),
        )
        self._service = service

    def snapshot(self):
        self.monitors = self._service._live_monitors()
        self.controller = self._service.pool.membership
        return super().snapshot()


@dataclass
class ServingConfig:
    """Knobs of one serving deployment."""

    #: Engine lanes, fixed for the service's lifetime; a dead lane is
    #: replaced in its own slot.
    n_lanes: int = 2
    #: Tenants unknown at ingest time are auto-created from this
    #: template when set (name is filled in); ``None`` → 404.
    auto_tenant_template: TenantSpec | None = None
    #: Root of the durability plane (WAL + checkpoints + tenant specs);
    #: ``None`` keeps the pre-durability behaviour: memory only, state
    #: lost on restart.
    data_dir: str | None = None
    #: WAL ack mode: ``none`` (buffered), ``async`` (survives process
    #: death), ``fsync`` (survives power loss).  See docs/serving.md.
    durability: str = "async"
    wal_segment_bytes: int = 4 << 20
    checkpoint_every_publishes: int = 8
    checkpoint_interval_s: float = 0.5


class EventBus:
    """Fan-out of serving events to subscribers (the WS push channel).

    Publishers are arbitrary threads (lanes, the pool, the service);
    subscribers are bounded per-subscriber queues drained by whoever
    registered them.  A slow subscriber drops its *own* oldest events —
    counted, never blocking the publisher.
    """

    def __init__(self, *, max_queue: int = 256) -> None:
        self.max_queue = int(max_queue)
        self._subs: dict[int, list] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._wakers: dict[int, Any] = {}
        self.n_published = 0
        self.n_dropped = 0

    def subscribe(self, waker=None) -> int:
        """Register a subscriber; ``waker()`` (if given) is called after
        each delivery — e.g. ``loop.call_soon_threadsafe`` bridging into
        asyncio."""
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            self._subs[sid] = []
            if waker is not None:
                self._wakers[sid] = waker
            return sid

    def unsubscribe(self, sid: int) -> None:
        with self._lock:
            self._subs.pop(sid, None)
            self._wakers.pop(sid, None)

    def publish(self, event: dict[str, Any]) -> None:
        with self._lock:
            self.n_published += 1
            for sid, q in self._subs.items():
                q.append(event)
                if len(q) > self.max_queue:
                    q.pop(0)
                    self.n_dropped += 1
            wakers = list(self._wakers.values())
        for wake in wakers:
            try:
                wake()
            except Exception:
                pass

    def drain(self, sid: int) -> list[dict[str, Any]]:
        """Take every pending event for subscriber ``sid``."""
        with self._lock:
            q = self._subs.get(sid)
            if not q:
                return []
            out, self._subs[sid] = q, []
            return out


class PCAService:
    """Multi-tenant streaming-PCA service (transport-independent core)."""

    def __init__(self, config: ServingConfig | None = None) -> None:
        self.config = config or ServingConfig()
        self.telemetry = Telemetry(
            TelemetryConfig(metrics=True, timing=False, tracing=False)
        )
        self.cache = EigenbasisCache()
        self.bus = EventBus()
        self._tenants: dict[str, TenantState] = {}
        self._tenants_lock = threading.Lock()
        self.pool = EnginePool(
            self.cache,
            self.get_tenants,
            n_lanes=self.config.n_lanes,
            on_event=self._pool_event,
        )
        self.sampler: BackpressureSampler | None = None
        self.rule_engine = _ServingRuleEngine(self)
        self._started = False
        self.durability = None
        if self.config.data_dir is not None:
            from .durability import DurabilityPlane

            self.durability = DurabilityPlane(
                self.config.data_dir,
                durability=self.config.durability,
                segment_max_bytes=self.config.wal_segment_bytes,
                checkpoint_every_publishes=(
                    self.config.checkpoint_every_publishes
                ),
                checkpoint_interval_s=self.config.checkpoint_interval_s,
                telemetry=self.telemetry,
            )
        self._register_metrics()
        self.cache.add_listener(self._on_snapshot)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.pool.start()
        if self.durability is not None:
            # Recovery runs on its own thread: /ready answers 503 with
            # replay progress while checkpoints load and WAL tails
            # replay; ingest is refused until recovery completes.
            self.durability.attach(self)
        self.sampler = BackpressureSampler(
            self.telemetry,
            self.pool.backpressure_probe,
            interval_s=SAMPLER_INTERVAL_S,
        )
        self.sampler.start()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self.sampler is not None:
            self.sampler.stop()
        self.pool.stop()
        if self.durability is not None:
            # Final publish per tenant so the shutdown checkpoint covers
            # everything applied, then flush the checkpointer and close
            # the WALs.
            for st in self.get_tenants().values():
                if st.model.is_initialized:
                    st.model.publish(self.cache)
            self.durability.stop()

    # -- tenants ----------------------------------------------------------

    def get_tenants(self) -> dict[str, TenantState]:
        with self._tenants_lock:
            return dict(self._tenants)

    def add_tenant(
        self, spec: TenantSpec, *, persist: bool = True
    ) -> TenantState:
        with self._tenants_lock:
            if spec.name in self._tenants:
                raise ValueError(f"tenant {spec.name!r} already exists")
            st = TenantState(spec)
            st.valve.bind_telemetry(
                self.telemetry, f"serving/{spec.name}"
            )
            self._tenants[spec.name] = st
        if persist and self.durability is not None:
            # The spec goes to disk so recovery can re-create the tenant
            # before a single client reconnects (persist=False on the
            # recovery path itself — the spec is already there).
            self.durability.save_spec(spec)
        self.bus.publish({"event": "tenant_added", "tenant": spec.name})
        return st

    def tenant_exists(self, name: str) -> bool:
        with self._tenants_lock:
            return name in self._tenants

    def tenant(self, name: str) -> TenantState | None:
        with self._tenants_lock:
            st = self._tenants.get(name)
        if st is None and self.config.auto_tenant_template is not None:
            tmpl = self.config.auto_tenant_template
            try:
                spec = TenantSpec(
                    **{**tmpl.__dict__, "name": name}
                )
                return self.add_tenant(spec)
            except ValueError:
                with self._tenants_lock:
                    return self._tenants.get(name)
        return st

    def _live_monitors(self):
        return [
            st.model.monitor
            for st in self.get_tenants().values()
            if st.model.monitor is not None
        ]

    # -- ingestion plane ---------------------------------------------------

    def ingest(self, tenant: str, rows) -> tuple[int, dict[str, Any]]:
        """Admit a block of rows into ``tenant``'s lane.

        Admission order: valve first (rate shed → 429 + retry-after),
        then the queue bound (429, full).  Admitted rows are counted
        into ``rows_accepted`` *before* enqueue, so the zero-loss
        invariant is checkable: ``rows_accepted == rows_applied +
        queued`` at any quiet point.
        """
        if self._recovering():
            # Replay order must not interleave with fresh traffic.
            return 503, {
                "error": "recovering",
                "tenant": tenant,
                "reason": "recovering",
                "retry_after_s": 0.25,
                "recovery": self.durability.recovery.progress(),
            }
        st = self.tenant(tenant)
        if st is None:
            return 404, {"error": "unknown tenant", "tenant": tenant}
        self._count(tenant, "ingest")
        try:
            x = np.asarray(rows, dtype=np.float64)
            if x.ndim == 1:
                x = x[None, :]
            if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
                raise ValueError(f"expected (k, d) rows, got {x.shape}")
        except (TypeError, ValueError) as exc:
            return 422, {"error": f"bad rows: {exc}", "tenant": tenant}
        n = int(x.shape[0])
        if not st.valve.admit_n(n):
            st.note_shed(n)
            return 429, {
                "error": "shedding",
                "tenant": tenant,
                "reason": "rate",
                "rows": n,
                "retry_after_s": st.valve.retry_after_s(),
            }
        if self.durability is not None:
            # WAL-ahead ordering: capacity is checked *before* the WAL
            # append, and a logged block is force-pushed — once a record
            # is durable its rows must reach the model, so the queue may
            # overshoot by the in-flight race window but never drops.
            if st.queue.depth_rows + n > st.queue.capacity_rows:
                st.note_rejected_full(n)
                return 429, {
                    "error": "shedding",
                    "tenant": tenant,
                    "reason": "queue_full",
                    "rows": n,
                    "retry_after_s": 0.05,
                }
            try:
                seq = self.durability.append(tenant, x)
            except OSError as exc:
                # Disk trouble must fail the request, not fake an ack.
                return 503, {
                    "error": f"wal append failed: {exc}",
                    "tenant": tenant,
                    "reason": "wal_error",
                    "retry_after_s": 0.5,
                }
            depth = st.queue.push(x, seq, force=True)
        else:
            seq = -1
            try:
                depth = st.queue.push(x)
            except QueueFull:
                st.note_rejected_full(n)
                return 429, {
                    "error": "shedding",
                    "tenant": tenant,
                    "reason": "queue_full",
                    "rows": n,
                    "retry_after_s": 0.05,
                }
        st.note_accepted(n)
        self.pool.wake(tenant)
        ack: dict[str, Any] = {
            "accepted_rows": n,
            "tenant": tenant,
            "queue_depth_rows": depth,
            "snapshot_version": self.cache.version(tenant),
        }
        if self.durability is not None:
            ack["wal_seq"] = seq
            ack["durability"] = self.durability.durability
        return 202, ack

    # -- query plane (snapshot-only, lock-free) ----------------------------

    def _snapshot_or_error(self, tenant: str):
        if self.tenant(tenant) is None and self.cache.peek(tenant) is None:
            return None, (
                404, {"error": "unknown tenant", "tenant": tenant}
            )
        snap = self.cache.get(tenant)
        if snap is None:
            return None, (409, {
                "error": "no snapshot published yet",
                "tenant": tenant,
                "hint": "ingest more rows; first snapshot follows "
                        "model initialization",
            })
        return snap, None

    def _query(self, tenant: str, route: str, fn):
        self._count(tenant, route)
        snap, err = self._snapshot_or_error(tenant)
        if err is not None:
            return err
        try:
            body = fn(snap)
        except ValueError as exc:
            return 422, {"error": str(exc), "tenant": tenant}
        return 200, {**snap.meta(), **body}

    def transform(self, tenant: str, rows):
        return self._query(tenant, "transform", lambda s: {
            "coefficients": s.transform(rows).tolist(),
        })

    def reconstruction_error(self, tenant: str, rows):
        return self._query(tenant, "reconstruction_error", lambda s: {
            "reconstruction_error": s.reconstruction_error(rows).tolist(),
        })

    def outlier_score(self, tenant: str, rows):
        def run(s):
            t, flags = s.outlier_score(rows)
            return {
                "scores": t.tolist(),
                "is_outlier": flags.tolist(),
                "outlier_t": s.outlier_t,
            }
        return self._query(tenant, "outlier_score", run)

    def eigenspectra(
        self, tenant: str, top_k: int | None = None,
        include_basis: bool = False,
    ):
        return self._query(tenant, "eigenspectra", lambda s: {
            "spectra": s.eigenspectra(top_k, include_basis=include_basis),
        })

    # -- health plane ------------------------------------------------------

    def _recovering(self) -> bool:
        return (
            self.durability is not None
            and self.durability.recovery is not None
            and not self.durability.recovery.done.is_set()
        )

    def ready(self) -> tuple[int, dict[str, Any]]:
        """Readiness: every lane live, health not CRITICAL, and
        — when a durability plane is attached — startup recovery done.

        During recovery the 503 body carries the per-tenant replay
        progress (checkpoint version loaded, WAL records replayed /
        total), so an orchestrator's probe log *is* the recovery trace.
        """
        live = len(self.pool.live_lane_ids())
        desired = self.pool.n_lanes
        verdict = self.rule_engine.evaluate()
        recovering = self._recovering()
        ok = (
            self._started and live >= desired
            and verdict.status != "CRITICAL"
            and not recovering
        )
        body: dict[str, Any] = {
            "ready": ok,
            "started": self._started,
            "live_lanes": live,
            "desired_lanes": desired,
            "health_status": verdict.status,
            "firing": verdict.firing,
        }
        if recovering:
            body["recovering"] = True
            body["retry_after_s"] = 0.25
            body["recovery"] = self.durability.recovery.progress()
        elif self.durability is not None and self.durability.recovery:
            body["recovering"] = False
            body["recovery_duration_s"] = (
                self.durability.recovery.duration_s
            )
        return (200 if ok else 503), body

    def live(self) -> tuple[int, dict[str, Any]]:
        """Liveness: the process serves requests (pool may be degraded)."""
        return 200, {"live": True, "started": self._started}

    def status(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "tenants": {
                name: st.stats()
                for name, st in sorted(self.get_tenants().items())
            },
            "lanes": self.pool.lanes_snapshot(),
            "cache": self.cache.stats(),
            "bus": {
                "published": self.bus.n_published,
                "dropped": self.bus.n_dropped,
            },
            "health": self.rule_engine.snapshot(),
            "durability": (
                self.durability.status()
                if self.durability is not None else None
            ),
        }

    # -- events & metrics --------------------------------------------------

    def _pool_event(self, kind: str, **payload: Any) -> None:
        self.telemetry.events.append({
            "ts": self.telemetry.now(), "kind": f"serving_{kind}", **payload,
        })
        self.bus.publish({"event": kind, **payload})

    def _on_snapshot(self, snap) -> None:
        self.bus.publish({
            "event": "snapshot",
            "tenant": snap.tenant,
            "version": snap.version,
            "model_rows": snap.rows_applied,
            "n_components": snap.n_components,
        })

    def observe_latency(self, route: str, seconds: float) -> None:
        """Record one request's wall time (p50/p95/p99 via summary())."""
        self.telemetry.metrics.histogram(
            "repro_serving_request_seconds", route=route
        ).observe(seconds)

    def observe_ack_hold(self, st: TenantState, seconds: float) -> None:
        """Record one ingest the front end held back for ``seconds`` to
        pace its client to the lane (see :mod:`repro.serving.http`)."""
        st.note_ack_hold(seconds)
        self.telemetry.metrics.histogram(
            "repro_serving_ack_hold_seconds"
        ).observe(seconds)

    def _count(self, tenant: str, route: str) -> None:
        self.telemetry.metrics.counter(
            "repro_serving_requests_total", route=route
        ).inc()

    def _register_metrics(self) -> None:
        """Expose serving state through one registry collector.

        Collector, not live gauges: the counters already live on the
        tenant/queue/cache objects, so export reads them at scrape time
        (single source of truth, no double bookkeeping).
        """

        def _serving_samples():
            samples = []
            for name, st in self.get_tenants().items():
                t = {"tenant": name}
                samples.append((
                    "repro_serving_queue_depth", "gauge", t,
                    st.queue.depth_rows,
                ))
                snap = self.cache.peek(name)
                samples.append((
                    "repro_serving_snapshot_age_seconds", "gauge", t,
                    snap.age_s() if snap is not None else -1.0,
                ))
                samples.append((
                    "repro_serving_snapshot_version", "gauge", t,
                    self.cache.version(name),
                ))
                samples.append((
                    "repro_serving_rows_accepted_total", "counter", t,
                    st.rows_accepted,
                ))
                samples.append((
                    "repro_serving_rows_shed_total", "counter", t,
                    st.rows_shed + st.rows_rejected_full,
                ))
                samples.append((
                    "repro_serving_ack_holds_total", "counter", t,
                    st.ack_holds,
                ))
            samples.append((
                "repro_serving_live_lanes", "gauge", {},
                len(self.pool.live_lane_ids()),
            ))
            stats = self.cache.stats()
            samples.append((
                "repro_serving_cache_hits_total", "counter", {},
                stats["n_hits"],
            ))
            samples.append((
                "repro_serving_cache_misses_total", "counter", {},
                stats["n_misses"],
            ))
            if self.durability is not None:
                dur = self.durability.status()
                for name, t in dur["tenants"].items():
                    labels = {"tenant": name}
                    age = t["checkpoint_age_s"]
                    samples.append((
                        "repro_checkpoint_age_seconds", "gauge", labels,
                        age if age is not None else -1.0,
                    ))
                    if t["wal"] is not None:
                        samples.append((
                            "repro_wal_size_bytes", "gauge", labels,
                            t["wal"]["size_bytes"],
                        ))
            return samples

        self.telemetry.metrics.register_collector(_serving_samples)
        # Created now so /metrics shows the series at zero holds too.
        self.telemetry.metrics.histogram("repro_serving_ack_hold_seconds")

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """Per-route p50/p95/p99 from the request histograms."""
        out: dict[str, dict[str, float]] = {}
        reg = self.telemetry.metrics
        for (name, labels), metric in list(reg._metrics.items()):
            if name != "repro_serving_request_seconds":
                continue
            summary = metric.summary()
            if summary:
                out[dict(labels).get("route", "?")] = summary
        return out
