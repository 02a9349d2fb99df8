"""The shared compute pool: engine lanes, membership, elastic scaling.

An :class:`EnginePool` owns N *lanes* — daemon threads that drain the
ingest queues of the tenants the :class:`~.tenancy.TenantRouter`
assigns to them, fold blocks into the tenant models, and publish
eigenbasis snapshots on the tenant's cadence.  The pool exposes:

* a ``membership`` adapter shaped like the sync controller's peer table
  (``peers`` / ``quorum`` / ``stats``), so the existing
  :class:`~repro.streams.health.HealthRuleEngine` rules — peer-evicted,
  quorum-lost — apply to lanes unchanged;
* a ``backpressure_probe`` in the exact shape
  :class:`~repro.streams.telemetry.BackpressureSampler` expects, so
  per-lane queue depth lands on the standard ``repro_queue_depth``
  gauges; and
* the chaos hooks (:meth:`EngineLane.kill`) the serving contract test
  uses to prove 503-then-recover.

The :class:`ElasticController` closes the loop: it respawns dead lanes
(the rejoin/reseed path) and scales the pool between ``min_lanes`` and
``max_lanes`` off the sampled queue-depth gauges with consecutive-tick
hysteresis.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from .snapshots import EigenbasisCache
from .tenancy import TenantRouter, TenantState

__all__ = ["ElasticController", "EngineLane", "EnginePool"]


class _LaneKilled(Exception):
    """Raised inside a lane's loop by the chaos kill hook."""


@dataclass
class _PoolStats:
    """Membership-shaped counters (HealthRuleEngine reads these)."""

    n_evictions: int = 0
    n_rejoins: int = 0


@dataclass
class _LanePeer:
    """One row of the membership table the health rules inspect."""

    engine: int
    alive: bool = True
    last_seen: float = 0.0


class EngineLane(threading.Thread):
    """One pool worker: drains its assigned tenants' ingest queues.

    The loop is at-least-once: a block is popped, applied, and only an
    *applied* block is gone — any failure (including a chaos kill landing
    mid-loop) requeues the in-flight block at the front of the queue
    before the lane dies, so admitted rows are never lost.
    """

    def __init__(self, lane_id: int, pool: "EnginePool") -> None:
        super().__init__(name=f"serving-lane-{lane_id}", daemon=True)
        self.lane_id = int(lane_id)
        self.pool = pool
        self.alive = True
        self._halt = threading.Event()
        self._killed = threading.Event()
        self.rows_processed = 0
        self.blocks_processed = 0

    def stop(self) -> None:
        """Graceful retirement (scale-down): finish the current block."""
        self._halt.set()

    def kill(self) -> None:
        """Chaos hook: die uncleanly at the next loop checkpoint."""
        self._killed.set()

    def _check_killed(self) -> None:
        if self._killed.is_set():
            raise _LaneKilled(f"lane {self.lane_id} killed")

    def run(self) -> None:  # noqa: C901 - one linear drain loop
        pool = self.pool
        try:
            while not self._halt.is_set():
                self._check_killed()
                worked = False
                for tenant in pool.tenants_for(self.lane_id):
                    self._check_killed()
                    worked |= self._drain_one(tenant)
                if not worked:
                    pool.work_event.wait(pool.idle_wait_s)
                    pool.work_event.clear()
        except _LaneKilled:
            self.alive = False
            pool.note_lane_death(self.lane_id, reason="killed")
            return
        except Exception as exc:  # unexpected: same recovery path
            self.alive = False
            pool.note_lane_death(self.lane_id, reason=repr(exc))
            return
        self.alive = False

    def _drain_one(self, tenant: TenantState) -> bool:
        """Apply at most one block of ``tenant``'s queue; True if it did."""
        if tenant.needs_reseed:
            # Previous owner died mid-update: never trust the in-place
            # state — rebuild from the latest *published* snapshot.
            snap = self.pool.cache.peek(tenant.name)
            tenant.model.reseed(snap)
            tenant.needs_reseed = False
            self.pool.emit(
                "tenant_reseeded",
                tenant=tenant.name,
                lane=self.lane_id,
                from_version=snap.version if snap is not None else 0,
            )
        popped = tenant.queue.pop_block(tenant.spec.max_block_rows)
        if popped is None:
            if tenant.model.should_publish():
                self._publish(tenant)
            return False
        block, wal_seq = popped
        try:
            tenant.model.apply_block(block, wal_seq=wal_seq)
        except BaseException:
            tenant.queue.requeue_front(block, wal_seq)
            raise
        self.rows_processed += int(block.shape[0])
        self.blocks_processed += 1
        if tenant.model.should_publish():
            self._publish(tenant)
        return True

    def _publish(self, tenant: TenantState) -> None:
        snap = tenant.model.publish(self.pool.cache)
        if snap is not None:
            self.pool.emit(
                "snapshot_published",
                tenant=tenant.name,
                lane=self.lane_id,
                version=snap.version,
                model_rows=snap.rows_applied,
            )


class EnginePool:
    """Owns the lanes and the tenant → lane placement.

    ``get_tenants`` decouples the pool from the service: it returns the
    live ``{name: TenantState}`` map on every drain pass, so tenants
    added after the pool started are picked up without coordination.
    """

    def __init__(
        self,
        cache: EigenbasisCache,
        get_tenants: Callable[[], dict[str, TenantState]],
        *,
        n_lanes: int = 2,
        idle_wait_s: float = 0.02,
        on_event: Callable[..., None] | None = None,
    ) -> None:
        if n_lanes < 1:
            raise ValueError("n_lanes must be >= 1")
        self.cache = cache
        self.get_tenants = get_tenants
        self.router = TenantRouter()
        self.idle_wait_s = float(idle_wait_s)
        self._on_event = on_event
        self.desired_lanes = int(n_lanes)
        self.stats = _PoolStats()
        self.work_event = threading.Event()
        self._lock = threading.Lock()
        self._lanes: dict[int, EngineLane] = {}
        self._next_lane_id = 0
        self._started = False

    # -- events -----------------------------------------------------------

    def emit(self, kind: str, **payload: Any) -> None:
        if self._on_event is not None:
            try:
                self._on_event(kind, **payload)
            except Exception:
                pass

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            self._started = True
            for _ in range(self.desired_lanes - len(self._lanes)):
                self._spawn_locked()

    def stop(self) -> None:
        with self._lock:
            lanes = list(self._lanes.values())
            self._started = False
        for lane in lanes:
            lane.stop()
        self.work_event.set()
        for lane in lanes:
            lane.join(timeout=5.0)

    def _spawn_locked(self) -> EngineLane:
        lane_id = self._next_lane_id
        self._next_lane_id += 1
        lane = EngineLane(lane_id, self)
        self._lanes[lane_id] = lane
        lane.start()
        return lane

    # -- placement --------------------------------------------------------

    def live_lane_ids(self) -> list[int]:
        with self._lock:
            return [
                lid for lid, lane in self._lanes.items()
                if lane.alive and lane.is_alive()
            ]

    def tenants_for(self, lane_id: int) -> list[TenantState]:
        """The tenants lane ``lane_id`` currently owns (stable order)."""
        live = self.live_lane_ids()
        if lane_id not in live:
            return []
        tenants = self.get_tenants()
        return [
            st for name, st in sorted(tenants.items())
            if self.router.lane_of(name, live) == lane_id
        ]

    def lane_of(self, tenant: str) -> int | None:
        live = self.live_lane_ids()
        return self.router.lane_of(tenant, live) if live else None

    # -- death & recovery --------------------------------------------------

    def note_lane_death(self, lane_id: int, *, reason: str) -> None:
        """A lane died uncleanly: evict it, mark its tenants dirty."""
        with self._lock:
            lane = self._lanes.get(lane_id)
            if lane is None:
                return
            self.stats.n_evictions += 1
        for name, st in self.get_tenants().items():
            # Any tenant the dead lane *could* have been updating must be
            # reseeded by its next owner; ownership at death time is what
            # matters, but the dead lane is already out of live_lane_ids,
            # so recompute against the pre-death set.
            with self._lock:
                pre_death = [
                    lid for lid, ln in self._lanes.items()
                    if (ln.alive and ln.is_alive()) or lid == lane_id
                ]
            if self.router.lane_of(name, pre_death) == lane_id:
                st.needs_reseed = True
        self.emit("lane_dead", lane=lane_id, reason=reason)
        self.work_event.set()

    def respawn_dead(self) -> int:
        """Replace dead lanes up to ``desired_lanes`` (the rejoin path)."""
        spawned = 0
        with self._lock:
            if not self._started:
                return 0
            for lid, lane in list(self._lanes.items()):
                if not lane.alive or not lane.is_alive():
                    del self._lanes[lid]
            while len(self._lanes) < self.desired_lanes:
                lane = self._spawn_locked()
                self.stats.n_rejoins += 1
                spawned += 1
                self.emit("lane_respawned", lane=lane.lane_id)
        if spawned:
            self.work_event.set()
        return spawned

    def scale_to(self, n: int) -> int:
        """Elastic resize to ``n`` lanes; returns the delta applied."""
        n = max(1, int(n))
        with self._lock:
            if not self._started:
                self.desired_lanes = n
                return 0
            delta = 0
            self.desired_lanes = n
            live = [
                (lid, ln) for lid, ln in sorted(self._lanes.items())
                if ln.alive and ln.is_alive()
            ]
            while len(live) + delta < n:
                self._spawn_locked()
                delta += 1
            retired = []
            while len(live) > n:
                lid, lane = live.pop()  # retire the newest lanes first
                retired.append(lane)
                del self._lanes[lid]
                delta -= 1
        for lane in retired:
            lane.stop()
        if delta:
            self.work_event.set()
            self.emit(
                "pool_scaled", desired=n, delta=delta,
                live=len(self.live_lane_ids()),
            )
        return delta

    # -- telemetry & health surfaces --------------------------------------

    def backpressure_probe(self):
        """``(per_pe, inflight, dispatched)`` for BackpressureSampler."""
        tenants = self.get_tenants()
        live = self.live_lane_ids()
        depth_by_lane: dict[int, int] = {lid: 0 for lid in live}
        inflight = 0
        dispatched = 0
        for name, st in tenants.items():
            depth = st.queue.depth_rows
            inflight += depth
            dispatched += st.queue.rows_popped
            if live:
                depth_by_lane[self.router.lane_of(name, live)] += depth
        per_pe = [
            (f"lane-{lid}", depth, sum(
                st.queue.capacity_rows for st in tenants.values()
            ) or 1)
            for lid, depth in sorted(depth_by_lane.items())
        ]
        return per_pe, inflight, dispatched

    @property
    def membership(self) -> "_Membership":
        """Sync-controller-shaped view for :class:`HealthRuleEngine`."""
        with self._lock:
            peers = {
                lid: _LanePeer(engine=lid, alive=lane.alive and lane.is_alive())
                for lid, lane in self._lanes.items()
            }
            desired = self.desired_lanes
        # Numeric quorum, like the sync controller's: a majority of the
        # desired lane count.  The quorum-lost rule fires (critical)
        # when live peers drop below it.
        quorum = desired // 2 + 1
        return _Membership(peers=peers, quorum=quorum, stats=self.stats)

    def lanes_snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            lanes = list(self._lanes.values())
        return [
            {
                "lane": lane.lane_id,
                "alive": lane.alive and lane.is_alive(),
                "rows_processed": lane.rows_processed,
                "blocks_processed": lane.blocks_processed,
            }
            for lane in lanes
        ]

    def queue_depth_rows(self) -> int:
        return sum(
            st.queue.depth_rows for st in self.get_tenants().values()
        )

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Block until every queue is empty (tests/shutdown); True if so."""
        import time as _time

        deadline = _time.monotonic() + timeout_s
        self.work_event.set()
        while _time.monotonic() < deadline:
            if self.queue_depth_rows() == 0:
                return True
            self.work_event.set()
            _time.sleep(0.01)
        return self.queue_depth_rows() == 0


@dataclass
class _Membership:
    """Duck-typed stand-in for the sync controller in health rules."""

    peers: dict[int, _LanePeer]
    quorum: bool
    stats: _PoolStats = field(default_factory=_PoolStats)


class ElasticController(threading.Thread):
    """Scales the pool off sampled backpressure, and respawns the dead.

    Each tick it (1) replaces dead lanes immediately — recovery never
    waits for hysteresis — and (2) reads the per-lane
    ``repro_queue_depth`` gauges the
    :class:`~repro.streams.telemetry.BackpressureSampler` maintains
    (falling back to a direct pool probe when no telemetry is wired).
    Total depth above ``high_watermark_rows`` for ``hysteresis_ticks``
    consecutive ticks adds a lane (up to ``max_lanes``); depth below
    ``low_watermark_rows`` for the same streak removes one (down to
    ``min_lanes``).
    """

    def __init__(
        self,
        pool: EnginePool,
        *,
        telemetry=None,
        min_lanes: int = 1,
        max_lanes: int = 8,
        high_watermark_rows: int = 4096,
        low_watermark_rows: int = 256,
        hysteresis_ticks: int = 3,
        interval_s: float = 0.25,
    ) -> None:
        if min_lanes < 1 or max_lanes < min_lanes:
            raise ValueError("need 1 <= min_lanes <= max_lanes")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        super().__init__(name="serving-elastic", daemon=True)
        self.pool = pool
        self.telemetry = telemetry
        self.min_lanes = int(min_lanes)
        self.max_lanes = int(max_lanes)
        self.high_watermark_rows = int(high_watermark_rows)
        self.low_watermark_rows = int(low_watermark_rows)
        self.hysteresis_ticks = int(hysteresis_ticks)
        self.interval_s = float(interval_s)
        self._halt = threading.Event()
        self._high_streak = 0
        self._low_streak = 0
        self.n_ticks = 0
        self.n_scale_ups = 0
        self.n_scale_downs = 0
        self.n_respawns = 0

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)

    def _sampled_depth(self) -> int:
        """Total queue depth, preferring the sampler's gauges."""
        tel = self.telemetry
        if tel is not None:
            try:
                total, seen = 0.0, False
                for lid in self.pool.live_lane_ids():
                    v = tel.metrics.value(
                        "repro_queue_depth", pe=f"lane-{lid}"
                    )
                    if v is not None:
                        total += v
                        seen = True
                if seen:
                    return int(total)
            except Exception:
                pass
        return self.pool.queue_depth_rows()

    def tick(self) -> None:
        self.n_ticks += 1
        self.n_respawns += self.pool.respawn_dead()
        depth = self._sampled_depth()
        live = len(self.pool.live_lane_ids())
        if depth >= self.high_watermark_rows:
            self._high_streak += 1
            self._low_streak = 0
        elif depth <= self.low_watermark_rows:
            self._low_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = self._low_streak = 0
        if (
            self._high_streak >= self.hysteresis_ticks
            and live < self.max_lanes
        ):
            self.pool.scale_to(live + 1)
            self.n_scale_ups += 1
            self._high_streak = 0
        elif (
            self._low_streak >= self.hysteresis_ticks
            and live > self.min_lanes
        ):
            self.pool.scale_to(live - 1)
            self.n_scale_downs += 1
            self._low_streak = 0

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # controller must outlive transient races
                pass

    def snapshot(self) -> dict[str, Any]:
        return {
            "ticks": self.n_ticks,
            "scale_ups": self.n_scale_ups,
            "scale_downs": self.n_scale_downs,
            "respawns": self.n_respawns,
            "live_lanes": len(self.pool.live_lane_ids()),
            "desired_lanes": self.pool.desired_lanes,
            "min_lanes": self.min_lanes,
            "max_lanes": self.max_lanes,
        }
