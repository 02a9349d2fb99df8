"""Stream sources (Section III-A.1).

"InfoSphere application is flexible in using the different sources of
data": generated test data, CSV files, folders of files, piped streams,
sockets.  We mirror the useful subset for an offline reproduction:

* :class:`VectorSource` — observations from any in-memory stream
  (:class:`~repro.data.streams.VectorStream`), the workhorse.
* :class:`GuardedVectorSource` — the same, with the ingress guards
  (poison-tuple quarantine, load-shedding valve) fused into the emit
  loop so readiness-for-chaos costs no extra dispatch stages.
* :class:`CSVFileSource` — a CSV file (or list of files) of flux vectors.
* :class:`DirectorySource` — every ``*.csv`` in a folder, sorted.
* :class:`CallbackSource` — pull tuples from a user callable (the
  "side service" / custom-operator escape hatch).

All sources emit data tuples with fields ``x`` (the vector) and ``seq``
(the arrival index), the schema the PCA application expects.  The pull
sources (all but :class:`CallbackSource`, whose next row may wait on a
socket) take a ``batch_size``: above 1 they emit one
:data:`~repro.streams.batcher.BLOCK_SCHEMA` tuple per ``batch_size``
rows, pulled as one array from
:meth:`~repro.data.streams.VectorStream.blocks`, paying validation,
event-time stamp and queue hop per block.
"""

from __future__ import annotations

import itertools
import pathlib
import time
from typing import Callable, Iterator

import numpy as np

from ..data.streams import VectorStream, stack_rows
from ..io.csvio import read_vectors_csv
from .batcher import BlockAssembler, block_tuple
from .operators import Source
from .resilience import DeadLetterQueue, LoadShedValve, row_poison_reason
from .tuples import FieldType, StreamSchema, StreamTuple, register_schema

__all__ = [
    "OBSERVATION_SCHEMA",
    "VectorSource",
    "GuardedVectorSource",
    "CSVFileSource",
    "DirectorySource",
    "CallbackSource",
]

#: The observation stream schema: a flux/feature vector plus arrival index.
#: Registered so observation tuples round-trip across process boundaries.
OBSERVATION_SCHEMA = register_schema(
    "observation",
    StreamSchema({"x": FieldType.VECTOR, "seq": FieldType.INT}),
)


def _observation(x: np.ndarray, seq: int) -> StreamTuple:
    return StreamTuple.data(
        OBSERVATION_SCHEMA, x=np.asarray(x, dtype=np.float64), seq=seq
    )


def _emit(stream: VectorStream, batch_size: int) -> Iterator[StreamTuple]:
    """The tuples of ``stream``: one observation per row, or — with
    ``batch_size > 1`` — one block per ``batch_size`` rows (the last
    one short), pulled through :meth:`VectorStream.blocks`."""
    if batch_size <= 1:
        for seq, x in enumerate(stream):
            yield _observation(x, seq)
        return
    seq = 0
    for xs in stream.blocks(batch_size):
        n = xs.shape[0]
        yield block_tuple(xs, np.arange(seq, seq + n, dtype=np.int64))
        seq += n


class VectorSource(Source):
    """Emit the rows of a :class:`VectorStream`: one observation tuple
    each, or ``(batch_size, d)`` blocks when ``batch_size > 1``."""

    def __init__(
        self, name: str, stream: VectorStream, *, batch_size: int = 0
    ) -> None:
        super().__init__(name)
        self._stream = stream
        self.batch_size = int(batch_size)

    @property
    def dim(self) -> int:
        """Vector dimensionality of the stream."""
        return self._stream.dim

    def generate(self) -> Iterator[StreamTuple]:
        return _emit(self._stream, self.batch_size)


class GuardedVectorSource(VectorSource):
    """A :class:`VectorSource` with the ingress guards fused in.

    Poison-row validation into a
    :class:`~repro.streams.resilience.DeadLetterQueue` and a
    :class:`~repro.streams.resilience.LoadShedValve` run inline in the
    emit loop, not as graph stages: a stage costs a dispatch hop per
    tuple — on the threaded runtime a dedicated PE thread plus a queue
    transfer, ~8-10 % of fault-free wall time at d=512 for the two —
    while the guard work itself is under a microsecond per row, so
    fusing it into the source makes readiness-for-chaos essentially
    free on every runtime (``benchmarks/bench_chaos_overhead.py`` gates
    this at ≥ 0.90).

    The guards judge *rows*, whatever the emission unit: each row is
    validated and then spends one valve token as it is pulled, and each
    poison row gets its own dead-letter record.  With ``batch_size > 1``
    ``batch_size`` rows are pulled at a time and judged before the
    survivors are stacked: a dropped row never enters a block, blocks
    stay full and their ``seqs`` skip the dropped indices.

    Counters — ``n_quarantined`` when quarantine is armed, ``n_shed`` /
    ``n_trips`` / ``state`` when the valve is — only exist when the
    matching guard is armed, so the telemetry collector exports exactly
    the armed guards' metrics.

    Parameters
    ----------
    quarantine / dlq / expected_dim / validator:
        ``quarantine=True`` (or a ``dlq`` to share) arms validation:
        a row the validator rejects — ``(tup, expected_dim) -> reason |
        None``, default :func:`~repro.streams.resilience.row_poison_reason`
        on the row itself — goes to the dead-letter queue, not the graph.
    max_rate_hz / clock:
        ``max_rate_hz`` arms a
        :class:`~repro.streams.resilience.LoadShedValve` with its
        default burst and open time, reading time from ``clock``.
    """

    def __init__(
        self,
        name: str,
        stream: VectorStream,
        *,
        batch_size: int = 0,
        quarantine: bool = True,
        dlq: DeadLetterQueue | None = None,
        expected_dim: int | None = None,
        validator: Callable[[StreamTuple, int | None], str | None]
        | None = None,
        max_rate_hz: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(name, stream, batch_size=batch_size)
        self.expected_dim = expected_dim
        self.validator = validator
        self.dlq: DeadLetterQueue | None = None
        self._n_quarantined = 0
        if quarantine or dlq is not None:
            self.dlq = dlq if dlq is not None else DeadLetterQueue()
        self._valve: LoadShedValve | None = None
        if max_rate_hz is not None:
            self._valve = LoadShedValve(max_rate_hz, clock=clock)
            self._valve._origin = name

    def bind_telemetry(self, telemetry) -> None:
        if self.dlq is not None:
            self.dlq.bind_telemetry(telemetry)
        if self._valve is not None:
            self._valve.bind_telemetry(telemetry, origin=self.name)

    # The guard counters surface only when the matching guard is armed:
    # ``getattr(op, "n_shed", None)`` in the telemetry collector must
    # stay ``None`` for a quarantine-only source.

    @property
    def n_quarantined(self) -> int:
        if self.dlq is None:
            raise AttributeError("quarantine is not armed")
        return self._n_quarantined

    @property
    def n_shed(self) -> int:
        if self._valve is None:
            raise AttributeError("no shed valve armed")
        return self._valve.n_shed

    @property
    def n_trips(self) -> int:
        if self._valve is None:
            raise AttributeError("no shed valve armed")
        return self._valve.n_trips

    @property
    def state(self) -> str:
        if self._valve is None:
            raise AttributeError("no shed valve armed")
        return self._valve.state

    def generate(self) -> Iterator[StreamTuple]:
        if self.batch_size > 1:
            return self._judged_blocks()
        return self._judged_rows()

    def _judged_rows(self) -> Iterator[StreamTuple]:
        admit = self._valve.admit_n if self._valve is not None else None
        for seq, x in enumerate(self._stream):
            x = np.asarray(x, dtype=np.float64)
            if self.dlq is not None and not self._valid(x, seq):
                continue
            if admit is not None and not admit():
                continue
            yield _observation(x, seq)

    def _pulls(self, k: int) -> Iterator[np.ndarray | list]:
        """The stream's rows, ``k`` at a time, before any guard: a slice
        copy of an array-backed stream, else a list of the raw rows (a
        wrong-width row must reach the guards, not fail a stack)."""
        if self._stream.array_backed:
            yield from self._stream.blocks(k)
            return
        rows = iter(self._stream)
        while pulled := list(itertools.islice(rows, k)):
            yield pulled

    def _judged_blocks(self) -> Iterator[StreamTuple]:
        """Full blocks of the rows that pass both guards.

        Each pull gets the per-row path's verdicts, in arrival order;
        the survivors are stacked, and re-grouped when rows dropped out,
        so blocks stay full.
        """
        k = self.batch_size
        asm = BlockAssembler(k, self.name)
        seq = 0
        for xs in self._pulls(k):
            n = len(xs)
            seqs = np.arange(seq, seq + n, dtype=np.int64)
            seq += n
            keep = self._verdicts(xs, seqs)
            if isinstance(xs, list):
                xs = stack_rows(list(itertools.compress(xs, keep)), self.dim)
            elif not keep.all():
                xs = xs[keep]
            seqs = seqs[keep]
            if asm.count == 0 and xs.shape[0] == k:
                yield block_tuple(xs, seqs)
                continue
            while xs.shape[0]:
                n = asm.extend(xs, seqs)
                xs, seqs = xs[n:], seqs[n:]
                if asm.count == k:
                    yield asm.take()
        if asm.count:
            yield asm.take()

    def _verdicts(
        self, xs: np.ndarray | list, seqs: np.ndarray
    ) -> np.ndarray:
        """Which pulled rows pass both guards.

        The default validator clears an ``(n, d)`` array of the expected
        width in one numpy call (only a row whose first cell is NaN can
        be all-NaN); a custom validator, or a list of raw rows, is
        judged row by row.
        """
        keep = np.ones(len(xs), dtype=bool)
        if self.dlq is not None:
            if (
                isinstance(xs, np.ndarray) and self.validator is None
                and xs.shape[1] and self.expected_dim in (None, xs.shape[1])
            ):
                suspects = np.flatnonzero(np.isnan(xs[:, 0]))
            else:
                suspects = range(len(xs))
            for i in suspects:
                keep[i] = self._valid(
                    np.array(xs[i], dtype=np.float64), int(seqs[i])
                )
        if self._valve is not None:
            admit = self._valve.admit_n
            for i in np.flatnonzero(keep):
                keep[i] = admit()
        return keep

    def _valid(self, x: np.ndarray, seq: int) -> bool:
        """Judge one row; a poison row goes to the dead-letter queue."""
        if self.validator is None:
            reason = row_poison_reason(x, self.expected_dim)
        else:
            reason = self.validator(_observation(x, seq), self.expected_dim)
        if reason is None:
            return True
        self._n_quarantined += 1
        self.dlq.quarantine(self.name, reason, {"x": x, "seq": seq}, seq)
        return False


class CSVFileSource(Source):
    """Emit observation tuples from one or more CSV files.

    Each row of each file is one observation vector; empty cells and the
    sentinel ``nan`` become gaps (NaN).
    """

    def __init__(
        self, name: str, paths: str | pathlib.Path | list, *,
        batch_size: int = 0,
    ) -> None:
        super().__init__(name)
        self.batch_size = int(batch_size)
        if isinstance(paths, (str, pathlib.Path)):
            paths = [paths]
        self.paths = [pathlib.Path(p) for p in paths]
        for p in self.paths:
            if not p.exists():
                raise FileNotFoundError(p)

    def generate(self) -> Iterator[StreamTuple]:
        rows = (x for path in self.paths for x in read_vectors_csv(path))
        first = next(rows, None)
        if first is None:
            return iter(())
        stream = VectorStream.from_iterable(
            itertools.chain([first], rows), dim=first.size
        )
        return _emit(stream, self.batch_size)


class DirectorySource(CSVFileSource):
    """Emit observations from every ``*.csv`` in a directory (sorted) —
    the "folder of such files can feed the data" mode."""

    def __init__(
        self, name: str, directory: str | pathlib.Path, *, batch_size: int = 0
    ) -> None:
        directory = pathlib.Path(directory)
        if not directory.is_dir():
            raise NotADirectoryError(directory)
        files = sorted(directory.glob("*.csv"))
        if not files:
            raise FileNotFoundError(f"no *.csv files in {directory}")
        super().__init__(name, files, batch_size=batch_size)


class CallbackSource(Source):
    """Pull vectors from ``next_vector()`` until it returns ``None``.

    The adapter for live feeds (piped streams, sockets, database cursors):
    anything that can be phrased as a blocking "give me the next vector"
    callable.
    """

    def __init__(
        self,
        name: str,
        next_vector: Callable[[], np.ndarray | None],
        *,
        max_tuples: int | None = None,
    ) -> None:
        super().__init__(name)
        self._next = next_vector
        if max_tuples is not None and max_tuples < 0:
            raise ValueError("max_tuples must be >= 0")
        self._max = max_tuples

    def generate(self) -> Iterator[StreamTuple]:
        seq = 0
        while self._max is None or seq < self._max:
            x = self._next()
            if x is None:
                return
            yield _observation(np.asarray(x, dtype=np.float64), seq)
            seq += 1
