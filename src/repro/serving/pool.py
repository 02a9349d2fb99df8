"""The shared compute pool: fixed engine lanes and their membership.

An :class:`EnginePool` owns ``n_lanes`` *lanes* — daemon threads, one
per slot, fixed at construction.  Lane ``i`` owns tenant ``t`` when
``crc32(t) % n_lanes == i``; it drains its tenants' ingest queues, folds
blocks into the tenant models, and publishes eigenbasis snapshots on
the tenant's cadence.  Each lane sleeps on its own ``wake`` event, and
:meth:`EnginePool.wake` sets only the owner's, so an idle lane costs
nothing.  A lane that dies is replaced in the same slot after
:data:`RESPAWN_DELAY_S`; its replacement reseeds the slot's tenants.
The pool exposes:

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
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from .snapshots import EigenbasisCache
from .tenancy import TenantState

__all__ = ["EngineLane", "EnginePool"]

#: Seconds a dead lane's slot stays empty before the pool refills it;
#: long enough for a ``/ready`` probe to see the 503.
RESPAWN_DELAY_S = 0.25
#: Longest an idle lane sleeps before it looks at its queues again.
IDLE_WAIT_S = 0.02


def _slot(tenant: str, n_lanes: int) -> int:
    """The lane slot that owns ``tenant`` (the same in every process)."""
    return zlib.crc32(tenant.encode()) % n_lanes


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
        #: Set when one of this lane's tenants has work (or to stop it).
        self.wake = threading.Event()
        self._halt = threading.Event()
        self._killed = threading.Event()
        self.rows_processed = 0
        self.blocks_processed = 0

    def stop(self) -> None:
        """Graceful retirement: finish the current block."""
        self._halt.set()
        self.wake.set()

    def kill(self) -> None:
        """Chaos hook: die uncleanly at the next loop checkpoint."""
        self._killed.set()
        self.wake.set()

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
                    self.wake.wait(IDLE_WAIT_S)
                    self.wake.clear()
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
        tenant.queue.applied(block.shape[0])
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
    """Owns the lanes, one per slot, and the tenant → slot placement.

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
        on_event: Callable[..., None] | None = None,
    ) -> None:
        if n_lanes < 1:
            raise ValueError("n_lanes must be >= 1")
        self.cache = cache
        self.get_tenants = get_tenants
        self._on_event = on_event
        self.n_lanes = int(n_lanes)
        self.stats = _PoolStats()
        self._lock = threading.Lock()
        self._lanes: dict[int, EngineLane] = {}
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
            for slot in range(self.n_lanes):
                if slot not in self._lanes:
                    self._spawn_locked(slot)

    def stop(self) -> None:
        with self._lock:
            lanes = list(self._lanes.values())
            self._started = False
        for lane in lanes:
            lane.stop()
        for lane in lanes:
            lane.join(timeout=5.0)

    def _spawn_locked(self, slot: int) -> None:
        lane = EngineLane(slot, self)
        self._lanes[slot] = lane
        lane.start()

    # -- placement --------------------------------------------------------

    def live_lane_ids(self) -> list[int]:
        with self._lock:
            return [
                lid for lid, lane in self._lanes.items()
                if lane.alive and lane.is_alive()
            ]

    def tenants_for(self, slot: int) -> list[TenantState]:
        """The tenants lane ``slot`` owns (stable order)."""
        return [
            st for name, st in sorted(self.get_tenants().items())
            if _slot(name, self.n_lanes) == slot
        ]

    def wake(self, tenant: str) -> None:
        """Tell the lane that owns ``tenant`` it has work."""
        lane = self._lanes.get(_slot(tenant, self.n_lanes))
        if lane is not None:
            lane.wake.set()

    # -- death & recovery --------------------------------------------------

    def note_lane_death(self, slot: int, *, reason: str) -> None:
        """A lane died uncleanly: evict it, mark its tenants dirty, and
        refill its slot after :data:`RESPAWN_DELAY_S`."""
        with self._lock:
            self.stats.n_evictions += 1
        # Any tenant the dead lane could have been updating is reseeded
        # by the replacement before it applies anything.
        for st in self.tenants_for(slot):
            st.needs_reseed = True
        self.emit("lane_dead", lane=slot, reason=reason)
        timer = threading.Timer(RESPAWN_DELAY_S, self._respawn, (slot,))
        timer.daemon = True
        timer.start()

    def _respawn(self, slot: int) -> None:
        with self._lock:
            if not self._started or self._lanes[slot].alive:
                return
            self._spawn_locked(slot)
            self.stats.n_rejoins += 1
        self.emit("lane_respawned", lane=slot)

    # -- telemetry & health surfaces --------------------------------------

    def backpressure_probe(self):
        """``(per_pe, inflight, dispatched)`` for BackpressureSampler."""
        tenants = self.get_tenants()
        depth_by_lane = [0] * self.n_lanes
        inflight = 0
        dispatched = 0
        for name, st in tenants.items():
            depth = st.queue.depth_rows
            inflight += depth
            dispatched += st.queue.rows_popped
            depth_by_lane[_slot(name, self.n_lanes)] += depth
        capacity = sum(st.queue.capacity_rows for st in tenants.values())
        per_pe = [
            (f"lane-{slot}", depth, capacity or 1)
            for slot, depth in enumerate(depth_by_lane)
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
        # Numeric quorum, like the sync controller's: a majority of the
        # lane count.  The quorum-lost rule fires (critical) when live
        # peers drop below it.
        quorum = self.n_lanes // 2 + 1
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

    def _unapplied_rows(self) -> int:
        return sum(
            st.queue.unapplied_rows for st in self.get_tenants().values()
        )

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Block until every admitted row is applied (tests/shutdown):
        queues empty and no lane holding a popped block; True if so."""
        import time as _time

        deadline = _time.monotonic() + timeout_s
        while _time.monotonic() < deadline:
            if self._unapplied_rows() == 0:
                return True
            with self._lock:
                lanes = list(self._lanes.values())
            for lane in lanes:
                lane.wake.set()
            _time.sleep(0.01)
        return self._unapplied_rows() == 0


@dataclass
class _Membership:
    """Duck-typed stand-in for the sync controller in health rules."""

    peers: dict[int, _LanePeer]
    quorum: int
    stats: _PoolStats = field(default_factory=_PoolStats)
