"""The harness arithmetic, kept free of I/O so bench/tests can pin it."""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Callable, Sequence

#: Percentiles a tail may be reported at, ascending; the metric names
#: say p95, so nothing above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    # Rounded first: 0.9 * 100 is 90.00000000000001 in binary floats.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the smallest value with at least ``p``
    percent of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


median = statistics.median


def supported_percentile(n: int) -> float:
    """The highest ladder percentile that leaves at least MIN_BEYOND of
    ``n`` samples beyond it; the median when none does."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - _rank(n, p) >= MIN_BEYOND:
            best = p
    return best


def tail(values: Sequence[float]) -> dict:
    """``{"percentile", "value", "n"}`` at the percentile the sample
    count supports (see :func:`supported_percentile`)."""
    p = supported_percentile(len(values))
    value = median(values) if p == 50.0 else percentile(values, p)
    return {"percentile": p, "value": value, "n": len(values)}


def slice_rates(
    samples: Sequence[tuple[float, float]],
    start: float,
    end: float,
    slices: int = 10,
) -> list[float]:
    """Rate in each of ``slices`` equal slices of ``[start, end]``.

    ``samples`` are ``(time, cumulative count)`` readings in time order;
    the count at a slice edge is interpolated linearly between the
    readings around it (and held constant outside them).  The median of
    the slice rates is what a serving run reports: it shrugs off a stall
    that a whole-section average would carry (in ten-seed trials its
    quartile spread was 7-10 % against 8-15 % for the average).
    """
    times = [t for t, _ in samples]

    def count_at(t: float) -> float:
        i = bisect.bisect_right(times, t)
        if i == 0:
            return samples[0][1]
        if i == len(samples):
            return samples[-1][1]
        (t0, c0), (t1, c1) = samples[i - 1], samples[i]
        return c0 + (c1 - c0) * (t - t0) / (t1 - t0)

    width = (end - start) / slices
    edges = [count_at(start + k * width) for k in range(slices + 1)]
    return [(b - a) / width for a, b in zip(edges, edges[1:])]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness measure the benchmark contract uses."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def freshness_ms(
    send_times: Sequence[float],
    row_ends: Sequence[int],
    probes: Sequence[tuple[float, int]],
) -> list[float]:
    """Age of each probe reply against the last event it reflects.

    ``send_times[i]`` is when accepted ingest block ``i`` was sent and
    ``row_ends[i]`` the number of rows accepted up to and including it
    (one uploader, so acceptance order is apply order).  A probe reply
    ``(reply_time, model_rows)`` reflects rows ``1..model_rows``; row
    number ``model_rows`` travelled in the first block whose
    ``row_ends`` reaches it.  Replies from before any row was applied,
    or claiming rows never sent, are skipped.
    """
    out = []
    for reply_time, model_rows in probes:
        if model_rows < 1:
            continue
        i = bisect.bisect_left(row_ends, model_rows)
        if i < len(row_ends):
            out.append((reply_time - send_times[i]) * 1e3)
    return out


def open_loop(
    start: float,
    rate_hz: float,
    end: float,
    call: Callable[[int], object],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[tuple[float, float, float, object]]:
    """Issue ``call(k)`` at ``start + k / rate_hz`` until ``end``.

    The schedule never slows with the system: request ``k`` is due at
    its slot even when request ``k - 1`` overran it, in which case it is
    sent at once and its latency, counted from the due time, includes
    the wait the stall imposed.  Returns ``(due, sent, done, result)``
    per request.
    """
    out = []
    k = 0
    while True:
        due = start + k / rate_hz
        if due >= end:
            return out
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        result = call(k)
        out.append((due, sent, clock(), result))
        k += 1
