"""Micro-batching — the block is the unit of the hot path.

The engine's per-tuple dispatch costs a few microseconds of Python per
hop, which dominates once the numerical kernel is vectorized, so every
hop — queue transfer, dispatch, and above all the PCA update itself —
runs once per ``(k, d)`` *block* instead of once per row.  Pull sources
built with a ``batch_size`` emit such blocks themselves (see
:func:`block_tuple`); the :class:`Batcher` and its
:class:`BlockAssembler` handle everything else: it coalesces per-row
tuples (live sources, whose rows may wait on a socket) and re-groups
blocks of any other size.

Flush policy (all punctuation- and control-aware):

* **size** — the buffer reached ``batch_size`` rows;
* **timeout** — the oldest buffered row has waited longer than
  ``timeout_s`` (checked lazily on the next arrival: the engines are
  event-driven, so an idle stream flushes at the next tuple or at
  end-of-stream rather than on a wall-clock timer);
* **punctuation** — end-of-stream flushes the remainder, then forwards
  the punctuation (no tuple is ever dropped at shutdown);
* **control** — control tuples (e.g. sync messages) flush the buffer
  first and are then forwarded, preserving their ordering relative to
  the data they follow.

Batch-size tuning guidance lives in ``docs/performance.md``; achieved
batch sizes and flush reasons are exported by the telemetry collector
(``repro_batch_achieved_size``, ``repro_batch_flush_total``; see
``docs/telemetry.md``).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .operators import Operator
from .tuples import (
    FieldType,
    StreamSchema,
    StreamTuple,
    register_schema,
)

__all__ = ["BLOCK_SCHEMA", "Batcher", "FLUSH_REASONS"]

#: Schema of block tuples: the ``(k, d)`` observation block, the rows'
#: source sequence numbers (int64 arrival indices; they skip rows an
#: ingress guard dropped) and the row count.  Registered for wire
#: round-tripping: block tuples are the shared-memory hot path of the
#: multi-process runtime.
BLOCK_SCHEMA = register_schema(
    "block",
    StreamSchema(
        {
            "xs": FieldType.MATRIX,
            "seqs": FieldType.VECTOR,
            "count": FieldType.INT,
        }
    ),
)

#: Flush reasons, in the order they appear in telemetry labels.
FLUSH_REASONS = ("size", "timeout", "punctuation", "control")


def block_tuple(
    xs: np.ndarray, seqs: np.ndarray, event_ts: float | None = None
) -> StreamTuple:
    """A :data:`BLOCK_SCHEMA` tuple owning the ``(k, d)`` rows ``xs``
    and their int64 ``seqs``."""
    return StreamTuple(
        {"xs": xs, "seqs": seqs, "count": xs.shape[0]},
        schema=BLOCK_SCHEMA, event_ts=event_ts,
    )


class BlockAssembler:
    """The ``(k, d)`` row buffer that re-groups rows into full blocks.

    A preallocated ``(batch_size, d)`` array filled in place (allocated
    once the first row reveals ``d``), the rows' sequence numbers and
    the oldest of their event times.  Its callers are
    :meth:`Batcher.process` and a guarded source whose ingress guards
    dropped rows from a block (pull sources otherwise take whole blocks
    from :meth:`~repro.data.streams.VectorStream.blocks`).
    """

    def __init__(self, batch_size: int, owner: str) -> None:
        self.batch_size = batch_size
        self.count = 0
        self._owner = owner
        self._rows: np.ndarray | None = None
        self._seqs = np.empty(batch_size, dtype=np.int64)
        #: Low watermark of the buffered rows: downstream latency and
        #: watermark accounting sees the *oldest* contributing row.
        self._min_ts: float | None = None

    def _fit(self, shape: tuple, event_ts: float | None) -> np.ndarray:
        """The buffer, once rows of ``shape`` are known to fit it and
        ``event_ts`` is folded into the watermark."""
        rows = self._rows
        if len(shape) != 1:
            raise ValueError(
                f"{self._owner}: expected a vector, got shape {shape}"
            )
        if rows is None:
            rows = self._rows = np.empty((self.batch_size, shape[0]))
        elif shape[0] != rows.shape[1]:
            raise ValueError(
                f"{self._owner}: row dim changed from {rows.shape[1]} "
                f"to {shape[0]}"
            )
        if event_ts is not None and (
            self._min_ts is None or event_ts < self._min_ts
        ):
            self._min_ts = event_ts
        return rows

    def add(self, x, seq: int, event_ts: float | None = None) -> bool:
        """Append one row; ``True`` when the buffer is full."""
        x = np.asarray(x, dtype=np.float64)
        i = self.count
        self._fit(x.shape, event_ts)[i] = x
        self._seqs[i] = seq
        self.count = i + 1
        return self.count >= self.batch_size

    def extend(self, xs, seqs, event_ts: float | None = None) -> int:
        """Append the leading rows of ``xs`` that fit; returns how many."""
        i = self.count
        n = min(len(xs), self.batch_size - i)
        self._fit(xs.shape[1:], event_ts)[i:i + n] = xs[:n]
        self._seqs[i:i + n] = seqs[:n]
        self.count = i + n
        return n

    def take(self) -> StreamTuple:
        """The buffered rows as one block tuple; empties the buffer."""
        k, min_ts = self.count, self._min_ts
        self.count, self._min_ts = 0, None
        return block_tuple(
            self._rows[:k].copy(), self._seqs[:k].copy(), min_ts
        )


class Batcher(Operator):
    """Re-group observation tuples and blocks into ``(k, d)`` block tuples.

    Parameters
    ----------
    name:
        Operator name.
    batch_size:
        Rows per full block (the size-based flush threshold).
    timeout_s:
        Maximum age of the oldest buffered row before a flush is forced
        (``None`` disables the timeout).  Checked lazily at the next
        arrival — see the module docstring.
    clock:
        Time source for the timeout (injectable for tests).

    Notes
    -----
    Rows and blocks share one :class:`BlockAssembler`.  A
    :data:`BLOCK_SCHEMA` tuple of exactly ``batch_size`` rows arriving
    on an empty buffer — what a block-emitting source sends — is
    forwarded as is, without a copy; any other block is slice-copied
    into the buffer and leaves re-grouped.  A row is a tuple of the
    observation schema: its vector in ``"x"`` and its sequence number in
    ``"seq"`` (rows without one get ``-1``).  Tuples with neither an
    ``"x"`` nor a block (and all control tuples) flush the buffer and
    are forwarded unchanged, so heterogeneous streams keep their
    relative order.
    """

    def __init__(
        self,
        name: str,
        *,
        batch_size: int = 64,
        timeout_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        super().__init__(name, n_inputs=1, n_outputs=1)
        self.batch_size = int(batch_size)
        self.timeout_s = timeout_s
        self._clock = clock
        self._asm = BlockAssembler(self.batch_size, f"Batcher {name!r}")
        #: Monotonic arrival time of the oldest buffered row (the
        #: timeout policy's clock; event time is the assembler's).
        self._oldest_at = 0.0
        #: rows buffered in, blocks flushed out
        self.rows_in = 0
        self.batches_out = 0
        #: flush counts by reason — exported as
        #: ``repro_batch_flush_total{reason=...}``.
        self.flush_counts: dict[str, int] = {r: 0 for r in FLUSH_REASONS}

    # -- statistics -----------------------------------------------------

    def achieved_batch_size(self) -> float:
        """Mean rows per emitted block (0.0 before the first flush)."""
        if self.batches_out == 0:
            return 0.0
        return (self.rows_in - self._asm.count) / self.batches_out

    # -- operator lifecycle ----------------------------------------------

    def process(self, tup: StreamTuple, port: int) -> None:
        payload = tup.payload
        is_block = "xs" in payload
        if tup.is_control or not (is_block or "x" in payload):
            # Flush-then-forward keeps control/sync ordering intact.
            self._flush("control")
            self.submit(tup)
            return
        asm = self._asm
        now = self._clock()
        if (
            self.timeout_s is not None
            and asm.count > 0
            and now - self._oldest_at >= self.timeout_s
        ):
            self._flush("timeout")
        if asm.count == 0:
            self._oldest_at = now
        if not is_block:
            self.rows_in += 1
            if asm.add(tup["x"], int(tup.get("seq", -1)), tup.event_ts):
                self._flush("size")
            return
        n = int(payload["count"])
        self.rows_in += n
        if asm.count == 0 and n == self.batch_size:
            self._emit_block(tup, "size")
            return
        lo = 0
        while lo < n:
            lo += asm.extend(
                payload["xs"][lo:n], payload["seqs"][lo:n], tup.event_ts
            )
            if asm.count >= self.batch_size:
                self._flush("size")
                self._oldest_at = now

    def on_punctuation(self, port: int) -> None:
        self._flush("punctuation")

    def _flush(self, reason: str) -> None:
        if self._asm.count:
            self._emit_block(self._asm.take(), reason)

    def _emit_block(self, block: StreamTuple, reason: str) -> None:
        self.batches_out += 1
        self.flush_counts[reason] += 1
        self.submit(block)
