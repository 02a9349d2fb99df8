"""Operator-level profiling — the InfoSphere profiler stand-in.

"IBM InfoSphere Streams provides a set of tools for profiling the
application.  The profiling tool measures the performance of each
component and the data channels traffic" (§III-D).  Our engines already
count per-operator tuple traffic; this module adds per-operator
*exclusive processing time*, correctly attributed even when fused
operators call each other synchronously (a fused downstream dispatch
runs inside the upstream's ``process()`` — its time must not be billed
to the upstream operator).

Attribution uses a per-thread dispatch stack: each profiled dispatch
measures its wall time, subtracts the accumulated time of nested child
dispatches, and reports the nested total upward.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .operators import Operator
    from .tuples import StreamTuple

__all__ = ["profiled_dispatch", "note_child_time", "enable_profiling",
           "supervision_report"]

_tls = threading.local()


def profiled_dispatch(
    op: "Operator",
    inner: Callable[["StreamTuple", int], None],
    tup: "StreamTuple",
    port: int,
) -> None:
    """Run ``inner(tup, port)`` and bill exclusive time to ``op``."""
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(0.0)
    start = time.perf_counter()
    try:
        inner(tup, port)
    finally:
        elapsed = time.perf_counter() - start
        child_time = stack.pop()
        exclusive = max(elapsed - child_time, 0.0)
        op.processing_time_s += exclusive
        # Telemetry view: when a registry histogram is attached (see
        # Telemetry.attach_graph with timing=True) the same measurement
        # also feeds the per-operator latency distribution — one clock,
        # two read paths.
        hist = getattr(op, "_latency_hist", None)
        if hist is not None:
            hist.observe(exclusive)
        if stack:
            stack[-1] += elapsed


def note_child_time(seconds: float) -> None:
    """Bill ``seconds`` of the dispatch now running on this thread as
    child time, not its own (the engine reports waits on a full
    downstream inbox); a no-op outside a profiled dispatch."""
    stack = getattr(_tls, "stack", None)
    if stack:
        stack[-1] += seconds


def enable_profiling(operators) -> None:
    """Mark every operator in ``operators`` for profiled dispatch."""
    for op in operators:
        op._profiled = True


def supervision_report(stats) -> str:
    """Render a run's failure/recovery counters as an aligned table.

    ``stats`` is a :class:`~repro.streams.engine.RunStats` from an engine
    run with a :class:`~repro.streams.supervision.Supervisor` attached;
    operators with no recorded activity are omitted.  Returns a one-line
    note when the run was fault-free.
    """
    names = sorted(
        set(stats.failures)
        | set(stats.skipped_tuples)
        | set(stats.restarts)
        | set(stats.recovery_time_s)
    )
    if not names:
        return "supervision: no failures recorded"
    header = (
        f"{'operator':<20} {'failures':>8} {'skipped':>8} "
        f"{'restarts':>8} {'recovery_s':>10}"
    )
    lines = [header, "-" * len(header)]
    for name in names:
        lines.append(
            f"{name:<20} {stats.failures.get(name, 0):>8} "
            f"{stats.skipped_tuples.get(name, 0):>8} "
            f"{stats.restarts.get(name, 0):>8} "
            f"{stats.recovery_time_s.get(name, 0.0):>10.4f}"
        )
    return "\n".join(lines)
