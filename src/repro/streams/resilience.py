"""Graceful-degradation guards: dead-letter queue and load-shed valve.

Production stream systems treat malformed input and sustained overload as
routine, not exceptional (the ROADMAP's north star).  This module holds
the two standard guards in front of the compute plane:

* :class:`DeadLetterQueue` + :func:`default_validator` /
  :func:`row_poison_reason` — *poison* input (wrong dimensionality,
  non-finite garbage, missing fields) is captured into a bounded
  dead-letter queue instead of crashing an engine deep inside the
  graph.  The payloads are kept for post-mortem, the ``repro_dlq_total``
  counter makes the loss visible, and the pipeline keeps flowing.
* :class:`LoadShedValve` — load shedding for sustained overload: a
  token bucket admits up to ``max_rate_hz`` rows per second; when the
  bucket runs dry the valve *opens* and sheds for ``open_for_s`` before
  closing again.

Both run fused into the ingest boundary, never as graph stages: in
:class:`~repro.streams.sources.GuardedVectorSource` (armed by
:func:`repro.parallel.app.build_parallel_pca_graph`'s ``quarantine=`` /
``shed_max_rate_hz=`` and exercised by :mod:`repro.streams.chaos`), in
the network sources, and per tenant in :mod:`repro.serving`.  See
``docs/robustness.md`` for tuning.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .tuples import StreamTuple

__all__ = [
    "DeadLetterQueue",
    "DeadLetterRecord",
    "LoadShedValve",
    "default_validator",
    "row_poison_reason",
]


@dataclass
class DeadLetterRecord:
    """One quarantined input, with enough context for a post-mortem."""

    origin: str
    reason: str
    payload: Any = None
    seq: int | None = None
    ts: float = field(default_factory=time.time)


class DeadLetterQueue:
    """Bounded, thread-safe store of quarantined inputs.

    Multiple producers (a guarded source, network sources routing
    unparsable lines) may share one queue or hold their own; the
    ``total`` counter never decreases even when old records are dropped
    by the capacity bound.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._records: deque[DeadLetterRecord] = deque(maxlen=capacity)
        self._total = 0
        self._by_origin: dict[str, int] = {}
        self._lock = threading.Lock()
        self._telemetry = None

    def bind_telemetry(self, telemetry) -> None:
        """Emit one ``dlq`` telemetry event per quarantined input."""
        self._telemetry = telemetry

    def quarantine(
        self,
        origin: str,
        reason: str,
        payload: Any = None,
        seq: int | None = None,
    ) -> DeadLetterRecord:
        """Capture one poison input; returns the stored record."""
        record = DeadLetterRecord(
            origin=origin, reason=reason, payload=payload, seq=seq
        )
        with self._lock:
            self._records.append(record)
            self._total += 1
            self._by_origin[origin] = self._by_origin.get(origin, 0) + 1
        tel = self._telemetry
        if tel is not None:
            # The matching ``repro_dlq_total`` counter is exported by the
            # registry collector over each producer's ``n_quarantined``
            # attribute (see telemetry.operator_metric_samples) — the
            # event carries the per-record context.
            tel.events.append({
                "ts": tel.now(), "kind": "dlq", "op": origin,
                "reason": reason, "seq": seq,
            })
        return record

    @property
    def total(self) -> int:
        """Inputs quarantined over the queue's lifetime."""
        return self._total

    @property
    def records(self) -> list[DeadLetterRecord]:
        """The retained records (oldest first, capacity-bounded)."""
        with self._lock:
            return list(self._records)

    def counts_by_origin(self) -> dict[str, int]:
        """Lifetime quarantine counts per producing operator."""
        with self._lock:
            return dict(self._by_origin)

    def merge_counts(self, origin_counts: dict[str, int]) -> None:
        """Fold per-origin counts from another process's shard in."""
        with self._lock:
            for origin, n in origin_counts.items():
                self._by_origin[origin] = (
                    self._by_origin.get(origin, 0) + int(n)
                )
                self._total += int(n)


def row_poison_reason(
    x: np.ndarray, expected_dim: int | None = None
) -> str | None:
    """Reason a float64 observation row is poison, or ``None``.

    The observation contract the PCA engines rely on: a non-empty
    vector of the expected dimensionality, not entirely NaN.  NaN
    *cells* are legitimate — they are the paper's gaps — but an all-NaN
    observation carries no information and a wrong-dimension one would
    raise deep inside the estimator.
    """
    if x.ndim != 1 or x.size == 0:
        return f"'x' has shape {x.shape}"
    if expected_dim is not None and x.size != expected_dim:
        return f"dim {x.size} != expected {expected_dim}"
    # The all-NaN scan is O(d); short-circuit it on the first cell, which
    # is finite for every healthy row and for almost every gappy one.
    if x[0] != x[0] and bool(np.all(np.isnan(x))):
        return "all cells NaN"
    return None


def default_validator(
    tup: StreamTuple, expected_dim: int | None = None
) -> str | None:
    """Reason a data tuple is poison, or ``None`` when it is healthy.

    An ``x`` field is judged by :func:`row_poison_reason` once it is
    known to be numeric; an ``xs`` block must be a non-empty numeric
    matrix of the expected width.
    """
    payload = tup.payload
    x = payload.get("x")
    if type(x) is np.ndarray and x.dtype == np.float64:
        return row_poison_reason(x, expected_dim)
    if "xs" in payload:
        try:
            xs = np.asarray(payload["xs"], dtype=np.float64)
        except (TypeError, ValueError):
            return "block 'xs' is not numeric"
        if xs.ndim != 2 or xs.shape[0] == 0:
            return f"block 'xs' has shape {getattr(xs, 'shape', None)}"
        if expected_dim is not None and xs.shape[1] != expected_dim:
            return (
                f"block dim {xs.shape[1]} != expected {expected_dim}"
            )
        return None
    if "x" not in payload:
        return "missing 'x' field"
    try:
        x = np.asarray(payload["x"], dtype=np.float64)
    except (TypeError, ValueError):
        return "'x' is not numeric"
    return row_poison_reason(x, expected_dim)


class LoadShedValve:
    """The token bucket + open/closed state behind load shedding.

    Held by :class:`~repro.streams.sources.GuardedVectorSource` and by
    every serving tenant: a bucket of depth ``max_rate_hz * burst_s``
    refills at ``max_rate_hz`` tokens/s; every admitted row spends one
    (control tuples and punctuation never meet it).  Sustained arrival
    above the rate drains the bucket, the valve *opens* (one
    ``breaker`` telemetry event + ``n_trips``) and sheds — counted in
    ``n_shed`` — until ``open_for_s`` passes, after which it closes
    with a half-full bucket.  Short bursts inside the bucket depth pass
    untouched.

    ``max_rate_hz=None`` disables the valve (``admit`` always true,
    zero bookkeeping).
    """

    def __init__(
        self,
        max_rate_hz: float | None = None,
        *,
        burst_s: float = 1.0,
        open_for_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_rate_hz is not None and max_rate_hz <= 0:
            raise ValueError(
                f"max_rate_hz must be positive or None, got {max_rate_hz}"
            )
        if burst_s <= 0:
            raise ValueError(f"burst_s must be positive, got {burst_s}")
        if open_for_s <= 0:
            raise ValueError(
                f"open_for_s must be positive, got {open_for_s}"
            )
        self.max_rate_hz = max_rate_hz
        self.burst_s = float(burst_s)
        self.open_for_s = float(open_for_s)
        self._clock = clock
        self._capacity = (
            max(1.0, max_rate_hz * burst_s)
            if max_rate_hz is not None else 0.0
        )
        self._tokens = self._capacity
        self._refill_at = clock()
        self._opened_at: float | None = None
        self.n_shed = 0
        self.n_trips = 0
        self._telemetry = None
        self._origin = "valve"
        # Admission runs on concurrent request handlers in the serving
        # layer: the token read-modify-write must be atomic.
        self._admit_lock = threading.Lock()

    def bind_telemetry(self, telemetry, origin: str) -> None:
        self._telemetry = telemetry
        self._origin = origin

    @property
    def state(self) -> str:
        """``"open"`` (shedding) or ``"closed"`` (admitting)."""
        return "open" if self._opened_at is not None else "closed"

    def _emit_event(self, event: str, **extra) -> None:
        tel = self._telemetry
        if tel is None:
            return
        tel.events.append({
            "ts": tel.now(), "kind": "breaker", "op": self._origin,
            "event": event, **extra,
        })

    def admit(self) -> bool:
        """Spend one token for a data tuple; ``False`` means shed it."""
        return self.admit_n(1)

    def admit_n(self, n: int = 1) -> bool:
        """Spend ``n`` tokens atomically (all-or-nothing).

        The serving layer admits whole ingest blocks: either every row
        of the block fits the rate budget or the block is shed intact —
        partial admission would break the zero-loss accounting on
        admitted traffic.  Thread-safe: concurrent admitters contend on
        one short lock.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if self.max_rate_hz is None:
            return True
        with self._admit_lock:
            now = self._clock()
            self._tokens = min(
                self._capacity,
                self._tokens + (now - self._refill_at) * self.max_rate_hz,
            )
            self._refill_at = now
            if self._opened_at is not None:
                if now - self._opened_at < self.open_for_s:
                    self.n_shed += n
                    return False
                # Cooldown over: close with a half-full bucket so a
                # still-hot stream re-opens quickly instead of
                # oscillating per tuple.
                self._opened_at = None
                self._tokens = max(self._tokens, self._capacity / 2.0)
                self._emit_event("closed", shed_so_far=self.n_shed)
            if self._tokens < float(n):
                # The matching repro_breaker_trips_total counter is
                # exported by the registry collector over ``n_trips``
                # (see telemetry.operator_metric_samples); only the
                # event is emitted here.
                self._opened_at = now
                self.n_trips += 1
                self.n_shed += n
                self._emit_event("open", trip=self.n_trips)
                return False
            self._tokens -= float(n)
            return True

    def retry_after_s(self, n: int = 1) -> float:
        """Seconds until ``n`` tokens could plausibly be admitted.

        While the valve is open this is the remaining cooldown; while
        closed it is the refill time of the missing tokens.  Served to
        clients as the 429 ``Retry-After`` hint.
        """
        if self.max_rate_hz is None:
            return 0.0
        with self._admit_lock:
            now = self._clock()
            if self._opened_at is not None:
                return max(0.0, self.open_for_s - (now - self._opened_at))
            tokens = min(
                self._capacity,
                self._tokens + (now - self._refill_at) * self.max_rate_hz,
            )
            deficit = max(0.0, float(n) - tokens)
            return deficit / self.max_rate_hz
