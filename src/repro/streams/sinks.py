"""Stream sinks: in-memory collectors and callbacks.

The output side of the application graph — result collection for tests
and examples.  An engine's eigensystem is persisted by its supervisor
(:func:`repro.parallel.engine_restart_supervisor` with ``directory=``),
not by a sink.
"""

from __future__ import annotations

from typing import Any, Callable

from .operators import Sink
from .tuples import StreamTuple

__all__ = ["CollectingSink", "CallbackSink"]


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
