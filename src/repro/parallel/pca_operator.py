"""The stateful streaming-PCA operator (the paper's custom C++ operator).

Section III-A.2: "the stateful Streaming PCA operator stores the
eigenvalues and eigenvectors (the eigensystem) as well as other state
variables as class members.  Upon receiving a new input tuple, its
internal states are continuously updated by computationally inexpensive
algebraic operations."

Port layout (mirroring Fig. 2):

* input 0 — data tuples (field ``x``): observations to learn from.
* input 1 — control tuples from the sync controller (not required for
  punctuation, so a silent controller never stalls shutdown).
* output 0 — control channel to the sync controller (``ready`` /
  ``state`` / ``final`` messages).
* output 1 — diagnostics plus periodic ``snapshot`` tuples carrying the
  eigensystem for checkpoint sinks.  A row tuple (field ``x``) yields one
  per-observation tuple (``seq``, ``weight``, ``r2``, ``is_outlier``,
  ``engine``); a block tuple (field ``xs``) yields **one**
  :data:`DIAGNOSTICS_SCHEMA` tuple holding the same values as arrays.
  :func:`expand_diagnostics` turns either form back into per-row dicts.

The control protocol is deliberately tiny:

* the operator announces ``ready`` when its data-driven gate opens
  (> 1.5·N observations since the last sync, Section II-C);
* the controller answers ``share``; the operator replies with ``state``
  (a *copy* of its truncated eigensystem);
* the controller routes that state to target engines as ``merge``;
  receivers combine it with their local state via
  :func:`repro.core.merge.merge_eigensystems` and reset their gate.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

import numpy as np

from ..core.eigensystem import Eigensystem
from ..core.merge import merge_eigensystems
from ..core.robust import RobustIncrementalPCA
from ..streams.operators import Operator
from ..streams.tuples import (
    FieldType,
    StreamSchema,
    StreamTuple,
    inherit_event_time,
    register_schema,
)

__all__ = ["DIAGNOSTICS_SCHEMA", "StreamingPCAOperator", "expand_diagnostics"]

#: Schema of the per-block diagnostics tuple: one entry per *processed*
#: row of the block, in arrival order (``seqs`` int64, ``weights`` and
#: ``r2s`` float64, ``outliers`` bool), plus the emitting engine's id.
#: Rows buffered by warm-up or skipped as too gappy have no entry.
DIAGNOSTICS_SCHEMA = register_schema(
    "pca_block_diagnostics",
    StreamSchema(
        {
            "seqs": FieldType.VECTOR,
            "weights": FieldType.VECTOR,
            "r2s": FieldType.VECTOR,
            "outliers": FieldType.VECTOR,
            "engine": FieldType.INT,
        }
    ),
)


def expand_diagnostics(tuples: Iterable[StreamTuple]) -> list[dict[str, Any]]:
    """Per-row diagnostics dicts from a diagnostics sink's tuples.

    Block tuples (:data:`DIAGNOSTICS_SCHEMA`) expand to one
    ``{seq, weight, r2, is_outlier, engine}`` dict per row; per-row
    tuples pass through as their payload; anything else on the stream
    (snapshots) is dropped.  Order is the sink's arrival order.
    """
    rows: list[dict[str, Any]] = []
    for tup in tuples:
        payload = tup.payload
        if "weights" in payload:
            engine = int(payload["engine"])
            rows.extend(
                {
                    "seq": seq,
                    "weight": weight,
                    "r2": r2,
                    "is_outlier": outlier,
                    "engine": engine,
                }
                for seq, weight, r2, outlier in zip(
                    payload["seqs"].tolist(),
                    payload["weights"].tolist(),
                    payload["r2s"].tolist(),
                    payload["outliers"].tolist(),
                )
            )
        elif "weight" in payload:
            rows.append(dict(payload))
    return rows


class StreamingPCAOperator(Operator):
    """Wrap a :class:`RobustIncrementalPCA` as a graph operator.

    Parameters
    ----------
    engine_id:
        Stable integer identity used in the sync protocol.
    estimator:
        The streaming estimator this operator drives.
    sync_gate_factor:
        Multiplier on the effective window for the data-driven sync gate
        (the paper uses 1.5).
    snapshot_every:
        Emit a ``snapshot`` diagnostics tuple with the current state every
        this many observations (0 disables).
    emit_diagnostics:
        Emit diagnostics on output port 1 — one tuple per row tuple,
        one :data:`DIAGNOSTICS_SCHEMA` tuple per block tuple.
    heartbeat_every:
        Send a lightweight ``heartbeat`` control message to the sync
        controller every this many data tuples (0 disables).  Heartbeats
        give the controller's membership tracking a liveness signal even
        while the sync gate is closed, so a silent-but-healthy engine is
        never mistaken for a dead one.
    """

    def __init__(
        self,
        name: str,
        engine_id: int,
        estimator: RobustIncrementalPCA,
        *,
        sync_gate_factor: float = 1.5,
        snapshot_every: int = 0,
        emit_diagnostics: bool = True,
        heartbeat_every: int = 0,
    ) -> None:
        super().__init__(
            name, n_inputs=2, n_outputs=2, punctuation_ports={0}
        )
        if sync_gate_factor <= 0:
            raise ValueError(
                f"sync_gate_factor must be positive, got {sync_gate_factor}"
            )
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if heartbeat_every < 0:
            raise ValueError("heartbeat_every must be >= 0")
        self.engine_id = int(engine_id)
        self.estimator = estimator
        self.sync_gate_factor = float(sync_gate_factor)
        self.snapshot_every = int(snapshot_every)
        self.emit_diagnostics = bool(emit_diagnostics)
        self.heartbeat_every = int(heartbeat_every)
        self.n_syncs_received = 0
        self.n_states_shared = 0
        self.n_data_tuples = 0
        #: Rows consumed, counting every row of a block tuple (equals
        #: ``n_data_tuples`` on an unbatched stream).
        self.n_data_rows = 0
        self.n_heartbeats_sent = 0
        self.n_reseeds = 0
        self._ready_announced = False
        #: Optional :class:`~repro.streams.health.HealthMonitor`; installed
        #: via :meth:`attach_health_monitor` (None = zero overhead).
        self._health_monitor = None
        #: Guards every estimator state mutation.  The estimator's block
        #: update mutates the eigensystem *in place*, so a reader on
        #: another thread (a serving snapshot publisher, an operator
        #: dashboard) copying ``public_state()`` mid-update would see a
        #: torn basis.  Within the engine the operator is single-threaded
        #: and the lock is uncontended; cross-thread readers must go
        #: through :meth:`published_state`.
        self._state_lock = threading.RLock()

    # -- pickling (the remote runtimes ship operators to engine hosts) ---

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_state_lock"] = None  # locks don't pickle
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._state_lock = threading.RLock()

    def _lock(self) -> threading.RLock:
        # The coordinator's sanitizer nulls the lock before shipping the
        # operator to a fork-context host (no pickle round-trip means
        # __setstate__ never runs there); recreate on first use.
        lock = self._state_lock
        if lock is None:
            lock = self._state_lock = threading.RLock()
        return lock

    # -- model-health monitoring ----------------------------------------

    def attach_health_monitor(self, monitor) -> None:
        """Attach a model-health monitor (see ``repro.streams.health``)."""
        self._health_monitor = monitor

    def published_state(self) -> Eigensystem | None:
        """A torn-free copy of the current state, from any thread.

        ``None`` during warm-up.  This is the only supported way to read
        the model concurrently with ``update``/``update_block`` — the
        raw ``estimator.state`` is mutated in place and may be torn.
        """
        with self._lock():
            if not self.estimator.is_initialized:
                return None
            return self.estimator.public_state()

    def bind_telemetry(self, telemetry) -> None:
        """Telemetry hook (called by ``Telemetry.attach_graph``)."""
        if self._health_monitor is not None:
            self._health_monitor.bind_telemetry(telemetry)

    # ------------------------------------------------------------------

    def process(self, tup: StreamTuple, port: int) -> None:
        if port == 0:
            self._process_data(tup)
        else:
            self._process_control(tup)

    def _process_data(self, tup: StreamTuple) -> None:
        self.n_data_tuples += 1
        if "xs" in tup.payload:
            self._process_block(tup)
            return
        self.n_data_rows += 1
        with self._lock():
            result = self.estimator.update(tup["x"])
        if result is not None and self.emit_diagnostics:
            self.submit(
                inherit_event_time(
                    StreamTuple.data(
                        seq=int(tup.get("seq", -1)),
                        weight=float(result.weight),
                        r2=float(result.residual_norm2),
                        is_outlier=bool(result.is_outlier),
                        engine=self.engine_id,
                    ),
                    tup,
                ),
                port=1,
            )
        monitor = self._health_monitor
        if monitor is not None:
            x = np.asarray(tup["x"])
            if result is not None:
                monitor.note_rows(
                    1,
                    n_gap_rows=int(bool(np.isnan(x).any())),
                    n_outliers=int(result.is_outlier),
                    weight_sum=float(result.weight),
                    r2_sum=float(result.residual_norm2),
                )
            else:
                monitor.note_rows(1, n_gap_rows=int(bool(np.isnan(x).any())))
            monitor.maybe_check(self.estimator)
        self._maybe_snapshot(before=self.estimator.n_seen - 1)
        self._maybe_heartbeat()
        self._maybe_announce_ready()

    def _process_block(self, tup: StreamTuple) -> None:
        """Consume one ``(k, d)`` block tuple from an upstream Batcher.

        The whole block goes through the estimator's vectorized
        :meth:`update_block`, and its diagnostics (when enabled) leave as
        one :data:`DIAGNOSTICS_SCHEMA` tuple — the result's row-index map
        picks the processed rows' ``seqs`` — so the per-block cost is
        independent of the row count; :func:`expand_diagnostics` recovers
        the per-row stream of the unbatched path.
        """
        xs = np.asarray(tup["xs"], dtype=np.float64)
        n_before = self.estimator.n_seen
        with self._lock():
            result = self.estimator.update_block(xs)
        self.n_data_rows += xs.shape[0]
        if self.emit_diagnostics and result.n_processed:
            seqs = tup.get("seqs")
            indices = result.indices
            if seqs is not None and indices is not None:
                seqs = np.asarray(seqs, dtype=np.int64)[indices]
            else:
                seqs = np.full(result.n_processed, -1, dtype=np.int64)
            self.submit(
                inherit_event_time(
                    StreamTuple.data(
                        DIAGNOSTICS_SCHEMA,
                        seqs=seqs,
                        weights=result.weights,
                        r2s=result.residual_norm2,
                        outliers=result.is_outlier,
                        engine=self.engine_id,
                    ),
                    tup,
                ),
                port=1,
            )
        monitor = self._health_monitor
        if monitor is not None:
            monitor.note_block(xs, result)
            monitor.maybe_check(self.estimator)
        self._maybe_snapshot(before=n_before)
        self._maybe_heartbeat()
        self._maybe_announce_ready()

    def _maybe_heartbeat(self) -> None:
        if (
            self.heartbeat_every
            and self.n_data_tuples % self.heartbeat_every == 0
        ):
            self.n_heartbeats_sent += 1
            self.submit(
                StreamTuple.control(
                    type="heartbeat", engine=self.engine_id
                ),
                port=0,
            )

    def _maybe_snapshot(self, *, before: int) -> None:
        """Emit a snapshot when a block crossed a snapshot boundary.

        The sequential path emitted at every exact multiple of
        ``snapshot_every``; a block can jump past several multiples at
        once, so the check is "did ``n_seen // snapshot_every``
        advance" — one snapshot per crossing, never zero.
        """
        if not (self.snapshot_every and self.estimator.is_initialized):
            return
        after = self.estimator.n_seen
        if after // self.snapshot_every > max(before, 0) // self.snapshot_every:
            with self._lock():
                state = self.estimator.public_state()
            self.submit(
                StreamTuple.data(
                    state=state,
                    engine=self.engine_id,
                    kind="snapshot",
                ),
                port=1,
            )

    def _maybe_announce_ready(self) -> None:
        if (
            not self._ready_announced
            and self.estimator.ready_to_sync(self.sync_gate_factor)
        ):
            self._ready_announced = True
            self.submit(
                StreamTuple.control(type="ready", engine=self.engine_id),
                port=0,
            )

    def _process_control(self, tup: StreamTuple) -> None:
        msg_type = tup.get("type")
        if msg_type == "share":
            self._share_state()
        elif msg_type == "merge":
            self._merge_state(
                tup["state"], reseed=bool(tup.get("reseed", False))
            )
        elif msg_type == "request_state":
            self._share_state()
        else:
            raise ValueError(
                f"{self.name}: unknown control message type {msg_type!r}"
            )

    def _share_state(self) -> None:
        if not self.estimator.is_initialized:
            return
        self.n_states_shared += 1
        with self._lock():
            state = self.estimator.public_state()
        self.submit(
            StreamTuple.control(
                type="state",
                engine=self.engine_id,
                state=state,
            ),
            port=0,
        )

    def _merge_state(
        self, incoming: Eigensystem, *, reseed: bool = False
    ) -> None:
        if not self.estimator.is_initialized:
            # Nothing local yet.  An ordinary merge is dropped (the
            # warm-up buffer machinery expects to initialize itself and
            # the next sync round will cover us), but a controller
            # *re-seed* — sent to a restarted engine — is adopted
            # outright so the rejoined peer starts from the ensemble's
            # pooled view instead of a cold warm-up.
            if reseed:
                adopt = getattr(self.estimator, "adopt_state", None)
                if adopt is not None:
                    with self._lock():
                        adopt(incoming)
                    self.n_reseeds += 1
                    self._ready_announced = False
                    if self._health_monitor is not None:
                        self._health_monitor.on_merge(
                            self.estimator, reseed=True
                        )
            return
        with self._lock():
            local = self.estimator.state
            k = local.n_components
            merged = merge_eigensystems([local, incoming], max(k, 1))
            self.estimator.replace_state(merged)
        self.n_syncs_received += 1
        if reseed:
            self.n_reseeds += 1
        self._ready_announced = False
        if self._health_monitor is not None:
            self._health_monitor.on_merge(self.estimator, reseed=reseed)

    # -- checkpoint/restart protocol (repro.streams.supervision) ---------

    def snapshot_state(self) -> Eigensystem | None:
        """An independent copy of the recoverable state (``None`` during
        warm-up, before the estimator initializes)."""
        with self._lock():
            if not self.estimator.is_initialized:
                return None
            return self.estimator.public_state()

    def restore_state(self, state: Eigensystem) -> None:
        """Roll the estimator back to a snapshot taken by
        :meth:`snapshot_state`; re-arms the sync gate so the recovered
        engine can resynchronize promptly."""
        if state is None:
            return
        with self._lock():
            if not self.estimator.is_initialized:
                # A respawned engine host holds a fresh estimator:
                # adopt the checkpoint outright (estimators without
                # adopt_state keep the old semantics — restart from a
                # clean warm-up).
                adopt = getattr(self.estimator, "adopt_state", None)
                if adopt is not None:
                    adopt(state)
                    self._ready_announced = False
                return
            self.estimator.replace_state(state)
        self._ready_announced = False

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Ship the final state to the controller for global merging."""
        if self.estimator.is_initialized:
            with self._lock():
                state = self.estimator.public_state()
            self.submit(
                StreamTuple.control(
                    type="final",
                    engine=self.engine_id,
                    state=state,
                ),
                port=0,
            )

    # convenience ---------------------------------------------------------

    def diagnostics(self) -> dict[str, Any]:
        """Operator-level counters for run reports."""
        return {
            "engine": self.engine_id,
            # Tuples this operator itself consumed.
            "n_local": self.n_data_tuples,
            # Rows consumed (each block tuple counts all its rows).
            "n_local_rows": self.n_data_rows,
            # Pooled count of the current state: merges add the remote
            # engines' counts (the paper: synchronization "significantly
            # increases its weight"), so this exceeds n_local after syncs.
            "n_seen": self.estimator.n_seen,
            "n_outliers": getattr(self.estimator, "n_outliers", 0),
            "n_syncs_received": self.n_syncs_received,
            "n_states_shared": self.n_states_shared,
            "n_heartbeats_sent": self.n_heartbeats_sent,
            "n_reseeds": self.n_reseeds,
        }
