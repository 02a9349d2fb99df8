"""Tenants: specs, ingest queues and per-tenant models.

Each tenant is an isolated streaming-PCA customer: its own model, its
own bounded ingest queue, and its own admission valve
(:class:`~repro.streams.resilience.LoadShedValve`), so one tenant's
overload sheds *that tenant's* traffic and never starves a neighbour.
Compute is shared: a :class:`~repro.serving.pool.EnginePool` of lanes
drains every tenant's queue, each tenant owned by one lane slot.
"""

from __future__ import annotations

import itertools
import re
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.eigensystem import Eigensystem
from ..core.robust import RobustIncrementalPCA
from ..streams.health import HealthMonitor
from ..streams.resilience import LoadShedValve
from .snapshots import EigenbasisCache

__all__ = [
    "IngestQueue",
    "QueueFull",
    "TenantModel",
    "TenantSpec",
    "TenantState",
]

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

_MONITOR_IDS = itertools.count()


@dataclass(frozen=True)
class TenantSpec:
    """Declarative per-tenant configuration.

    Parameters
    ----------
    name:
        URL-safe tenant id (``[A-Za-z0-9][A-Za-z0-9_.-]*``, <= 64 chars).
    n_components / alpha / delta / init_size / estimator_kwargs:
        Forwarded to the tenant's
        :class:`~repro.core.robust.RobustIncrementalPCA`, which the
        owning lane updates in place.
    publish_every_blocks:
        Snapshot cadence ``k``: the lane publishes a fresh eigenbasis
        snapshot after every ``k`` applied blocks (plus once immediately
        after the model first initializes, so queries go live early).
    max_rate_hz / burst_s / shed_open_for_s:
        Admission valve; ``None`` admits everything (see
        :class:`~repro.streams.resilience.LoadShedValve`).  Rates are in
        *rows* per second.
    queue_capacity_rows:
        Bound on queued-but-unapplied rows; ingest beyond it is rejected
        with 429 (shed-not-drop: rejected rows were never admitted).
    max_block_rows:
        Drain granularity: the lane applies at most this many rows per
        model update (keeps publish latency and lock hold times bounded).
    health_check_every:
        Rows between model-health checks (0 disables the monitor).
    """

    name: str
    n_components: int = 4
    alpha: float = 0.999
    delta: float = 0.5
    init_size: int = 20
    estimator_kwargs: dict[str, Any] = field(default_factory=dict)
    publish_every_blocks: int = 4
    max_rate_hz: float | None = None
    burst_s: float = 1.0
    shed_open_for_s: float = 0.25
    queue_capacity_rows: int = 50_000
    max_block_rows: int = 256
    health_check_every: int = 512

    def __post_init__(self) -> None:
        if not _TENANT_RE.match(self.name):
            raise ValueError(
                f"tenant name must match {_TENANT_RE.pattern!r}, "
                f"got {self.name!r}"
            )
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.publish_every_blocks < 1:
            raise ValueError("publish_every_blocks must be >= 1")
        if self.max_rate_hz is not None and self.max_rate_hz <= 0:
            raise ValueError("max_rate_hz must be positive (or None)")
        if self.burst_s <= 0:
            raise ValueError("burst_s must be positive")
        if self.queue_capacity_rows < 1:
            raise ValueError("queue_capacity_rows must be >= 1")
        if self.max_block_rows < 1:
            raise ValueError("max_block_rows must be >= 1")


class QueueFull(Exception):
    """Raised by :meth:`IngestQueue.push` when capacity would be exceeded."""


class IngestQueue:
    """Bounded FIFO of ``(k, d)`` row blocks for one tenant.

    Producers are request handlers (reject-on-full — admission control,
    not backpressure-by-blocking); the single consumer is the owning
    engine lane.  ``requeue_front`` re-admits an in-flight block after a
    lane death and is allowed to overshoot capacity: those rows were
    already admitted and must not be lost.  A popped block stays in
    ``unapplied_rows`` until the lane calls :meth:`applied` or
    :meth:`requeue_front`.
    """

    def __init__(self, capacity_rows: int) -> None:
        self.capacity_rows = int(capacity_rows)
        #: FIFO of ``(block, wal_seq)``; seq is -1 when the tenant has
        #: no durability plane (nothing to account against the WAL).
        self._blocks: deque[tuple[np.ndarray, int]] = deque()
        self._rows = 0
        #: Rows popped and not yet applied or requeued.
        self._inflight = 0
        self._lock = threading.Lock()
        self.rows_pushed = 0
        self.rows_popped = 0
        self.rows_requeued = 0

    @property
    def depth_rows(self) -> int:
        return self._rows

    @property
    def unapplied_rows(self) -> int:
        """Rows queued or held by the lane: 0 only once all are applied."""
        with self._lock:
            return self._rows + self._inflight

    def push(
        self, block: np.ndarray, seq: int = -1, *, force: bool = False
    ) -> int:
        """Enqueue one admitted block; returns the new depth in rows.

        ``force=True`` admits past capacity — used for rows that are
        already durable in the WAL (an acked row must never be dropped;
        capacity is enforced by the ingest pre-check instead).
        """
        n = block.shape[0]
        with self._lock:
            if not force and self._rows + n > self.capacity_rows:
                raise QueueFull(
                    f"queue at {self._rows}/{self.capacity_rows} rows"
                )
            self._blocks.append((block, int(seq)))
            self._rows += n
            self.rows_pushed += n
            return self._rows

    def pop_block(self, max_rows: int) -> tuple[np.ndarray, int] | None:
        """Dequeue up to ``max_rows`` rows (coalescing whole blocks), with
        the highest WAL seq of the coalesced blocks.  FIFO ordering makes
        the last block's seq cover every earlier one, so a checkpoint at
        that seq accounts for the whole coalesced batch."""
        out: list[np.ndarray] = []
        seq = -1
        got = 0
        with self._lock:
            while self._blocks and (
                not out or got + self._blocks[0][0].shape[0] <= max_rows
            ):
                blk, blk_seq = self._blocks.popleft()
                self._rows -= blk.shape[0]
                got += blk.shape[0]
                seq = max(seq, blk_seq)
                out.append(blk)
            self._inflight += got
        if not out:
            return None
        self.rows_popped += got
        return (out[0] if len(out) == 1 else np.vstack(out)), seq

    def requeue_front(self, block: np.ndarray, seq: int = -1) -> None:
        """Put an in-flight block back (lane died before applying it)."""
        with self._lock:
            self._blocks.appendleft((block, int(seq)))
            self._rows += block.shape[0]
            self._inflight -= block.shape[0]
            self.rows_requeued += block.shape[0]

    def applied(self, n_rows: int) -> None:
        """The lane folded ``n_rows`` popped rows into the model."""
        with self._lock:
            self._inflight -= n_rows


class TenantModel:
    """The hot model of one tenant, with its publish discipline.

    All mutation happens under ``lock`` on the owning lane's thread; the
    *only* thing that ever leaves the lock is an immutable snapshot
    (copy-on-publish into the :class:`EigenbasisCache`).  Query traffic
    never touches this object — that is the serving layer's core
    contract, tested by ``tests/test_serving.py`` with the lock held.
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.lock = threading.Lock()
        self._estimator = self._make_estimator()
        self.monitor: HealthMonitor | None = None
        if spec.health_check_every > 0:
            # Each tenant model gets a unique monitor id so the rule
            # engine's per-engine snapshot table does not collide.
            self.monitor = HealthMonitor(
                next(_MONITOR_IDS), check_every=spec.health_check_every
            )
        self.rows_applied = 0
        self.blocks_applied = 0
        self.n_outliers = 0
        self.n_publishes = 0
        self.n_reseeds = 0
        #: Highest WAL sequence folded into the model (-1 = none); the
        #: durability plane checkpoints this so recovery knows where the
        #: replay tail starts.
        self.last_wal_seq = -1
        self._blocks_since_publish = 0
        self._published_initialized = False

    def _make_estimator(self) -> RobustIncrementalPCA:
        s = self.spec
        return RobustIncrementalPCA(
            s.n_components,
            alpha=s.alpha,
            delta=s.delta,
            init_size=s.init_size,
            **dict(s.estimator_kwargs),
        )

    @property
    def is_initialized(self) -> bool:
        return self._estimator.is_initialized

    # -- compute side (owning lane only) ---------------------------------

    def apply_block(
        self, xs: np.ndarray, wal_seq: int = -1, *, judge: bool = True
    ) -> None:
        """Fold one block of admitted rows into the model.

        ``judge=False`` keeps the block away from the health monitor:
        recovery replays a WAL tail this way, because a control chart
        whose whole baseline is that tail would page on its last window
        and — with no traffic after a restart — never be judged again.
        """
        monitor = self.monitor if judge else None
        with self.lock:
            result = self._estimator.update_block(xs)
            self.n_outliers += result.n_outliers
            if monitor is not None:
                monitor.note_block(xs, result)
                monitor.maybe_check(self._estimator)
            self.rows_applied += int(xs.shape[0])
            self.blocks_applied += 1
            if wal_seq > self.last_wal_seq:
                self.last_wal_seq = wal_seq
            self._blocks_since_publish += 1

    # -- publish discipline ----------------------------------------------

    def should_publish(self) -> bool:
        if not self.is_initialized:
            return False
        if not self._published_initialized:
            return True  # first snapshot goes out immediately
        return self._blocks_since_publish >= self.spec.publish_every_blocks

    def publish(self, cache: EigenbasisCache, *, version: int | None = None):
        """Copy-on-publish the current state into the cache.

        ``version`` is the recovery override (see
        :meth:`EigenbasisCache.publish`); normal publishes leave it
        ``None`` and the cache assigns previous + 1.
        """
        with self.lock:
            if not self.is_initialized:
                return None
            state = self._estimator.public_state()
            outlier_t = float(self._estimator.outlier_threshold())
            rows, blocks = self.rows_applied, self.blocks_applied
            wal_seq = self.last_wal_seq
            self._blocks_since_publish = 0
            self._published_initialized = True
            self.n_publishes += 1
        return cache.publish(
            self.spec.name, state,
            rows_applied=rows, blocks_applied=blocks, outlier_t=outlier_t,
            wal_seq=wal_seq, version=version,
        )

    # -- recovery (the rejoin/reseed path) --------------------------------

    def reseed(self, snapshot) -> None:
        """Rebuild the model after its lane died mid-update.

        A lane killed inside ``apply_block`` can leave the in-place
        eigensystem torn, so the replacement lane never trusts it:
        a fresh estimator adopts the latest *published* snapshot (the
        same :meth:`~repro.core.robust.RobustIncrementalPCA.adopt_state`
        path a late-rejoining sync peer uses), and the health monitor
        re-anchors exactly as it does on a controller re-seed.
        """
        with self.lock:
            self._estimator = self._make_estimator()
            self._blocks_since_publish = 0
            self._published_initialized = False
            self.n_reseeds += 1
            if snapshot is not None:
                self._estimator.adopt_state(snapshot.state)
                self._published_initialized = True
                if snapshot.wal_seq > self.last_wal_seq:
                    self.last_wal_seq = snapshot.wal_seq
                self._reanchor_monitor()

    def adopt_recovered(
        self,
        state: Eigensystem,
        *,
        rows_applied: int,
        blocks_applied: int,
        wal_seq: int,
    ) -> None:
        """Restore the model from a durable checkpoint at startup.

        Unlike :meth:`reseed` (which keeps in-memory accounting — the
        lane merely lost its estimator), a restart lost *everything*:
        the checkpoint's accounting becomes the model's accounting, and
        the WAL tail past ``wal_seq`` is replayed on top by the
        :class:`~.durability.RecoveryManager`.
        """
        with self.lock:
            self._estimator = self._make_estimator()
            self._estimator.adopt_state(state)
            self.rows_applied = int(rows_applied)
            self.blocks_applied = int(blocks_applied)
            self.last_wal_seq = int(wal_seq)
            self._blocks_since_publish = 0
            self._published_initialized = True
            self._reanchor_monitor()

    def _reanchor_monitor(self) -> None:
        """Anchor the health monitor on the state the model now holds
        (lock held by the caller)."""
        if self.monitor is not None and self.is_initialized:
            self.monitor.on_merge(self._estimator, reseed=True)

    def reanchor_monitor(self) -> None:
        """Re-anchor after rows were applied with ``judge=False``."""
        with self.lock:
            self._reanchor_monitor()

    def stats(self) -> dict[str, Any]:
        return {
            "rows_applied": self.rows_applied,
            "blocks_applied": self.blocks_applied,
            # Constant (rows are never buffered inside a model); kept
            # because /status readers sum it with queue_depth_rows.
            "pending_rows": 0,
            "n_outliers": self.n_outliers,
            "n_publishes": self.n_publishes,
            "n_reseeds": self.n_reseeds,
            "last_wal_seq": self.last_wal_seq,
            "initialized": self.is_initialized,
        }


class TenantState:
    """Everything the service keeps per tenant."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.model = TenantModel(spec)
        self.queue = IngestQueue(spec.queue_capacity_rows)
        self.valve = LoadShedValve(
            spec.max_rate_hz,
            burst_s=spec.burst_s,
            open_for_s=spec.shed_open_for_s,
        )
        self.rows_accepted = 0
        self.rows_shed = 0
        self.rows_rejected_full = 0
        self.n_requests = 0
        #: Ingest acks the HTTP front end held for lane-rate pacing, and
        #: the seconds they were held in total.
        self.ack_holds = 0
        self.ack_hold_s = 0.0
        #: Set by the pool when this tenant's owning lane died uncleanly;
        #: the next lane to pick the tenant up reseeds the model from the
        #: latest published snapshot before applying anything.
        self.needs_reseed = False
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.spec.name

    def note_accepted(self, n: int) -> None:
        with self._lock:
            self.rows_accepted += n

    def note_shed(self, n: int) -> None:
        with self._lock:
            self.rows_shed += n

    def note_rejected_full(self, n: int) -> None:
        with self._lock:
            self.rows_rejected_full += n

    def note_ack_hold(self, seconds: float) -> None:
        with self._lock:
            self.ack_holds += 1
            self.ack_hold_s += seconds

    def publish_now(self, cache, version: int | None = None) -> None:
        """Publish the current model state unconditionally (recovery —
        the first post-restart query must see the replayed rows, not
        just the checkpoint)."""
        self.model.publish(cache, version=version)

    def stats(self) -> dict[str, Any]:
        return {
            "tenant": self.name,
            "rows_accepted": self.rows_accepted,
            "rows_shed": self.rows_shed,
            "rows_rejected_full": self.rows_rejected_full,
            "valve_state": self.valve.state,
            "valve_trips": self.valve.n_trips,
            "queue_depth_rows": self.queue.depth_rows,
            "queue_capacity_rows": self.queue.capacity_rows,
            "ack_holds": self.ack_holds,
            "ack_hold_s": self.ack_hold_s,
            **self.model.stats(),
        }
