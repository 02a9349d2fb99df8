"""Stream sinks: collectors, CSV writers, checkpoint writers.

The output side of the application graph — result collection for tests
and examples, and periodic eigensystem persistence (Section III-C).
"""

from __future__ import annotations

from typing import Any, Callable

from ..io.checkpoint import CheckpointStore
from ..io.csvio import write_vectors_csv
from .operators import Sink
from .tuples import StreamTuple

__all__ = ["CollectingSink", "CallbackSink", "CSVSink", "CheckpointSink"]


class CollectingSink(Sink):
    """Keep every received data tuple in memory (tests, small runs)."""

    def __init__(self, name: str, *, n_inputs: int = 1) -> None:
        super().__init__(name, n_inputs=n_inputs)
        self.tuples: list[StreamTuple] = []

    def consume(self, tup: StreamTuple, port: int) -> None:
        self.tuples.append(tup)

    def payloads(self, key: str) -> list[Any]:
        """Extract one payload field across all collected tuples."""
        return [t[key] for t in self.tuples if key in t.payload]


class CallbackSink(Sink):
    """Invoke ``fn(tuple, port)`` per data tuple."""

    def __init__(
        self, name: str, fn: Callable[[StreamTuple, int], None],
        *, n_inputs: int = 1,
    ) -> None:
        super().__init__(name, n_inputs=n_inputs)
        self._fn = fn

    def consume(self, tup: StreamTuple, port: int) -> None:
        self._fn(tup, port)


class CSVSink(Sink):
    """Buffer the ``x`` vectors of incoming tuples; write CSV on close."""

    def __init__(self, name: str, path: str) -> None:
        super().__init__(name)
        self.path = path
        self._rows: list = []

    def consume(self, tup: StreamTuple, port: int) -> None:
        self._rows.append(tup["x"])

    def close(self) -> None:
        write_vectors_csv(self.path, self._rows)


class CheckpointSink(Sink):
    """Persist eigensystem tuples (field ``state``) to a checkpoint store."""

    def __init__(self, name: str, store: CheckpointStore) -> None:
        super().__init__(name)
        self.store = store

    def consume(self, tup: StreamTuple, port: int) -> None:
        state = tup.get("state")
        if state is not None:
            self.store.maybe_save(state)
