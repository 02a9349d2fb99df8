"""Bounded exponential backoff, shared by every reconnecting client.

One discipline for the network sources
(:mod:`repro.streams.network_sources`), the cluster wire's
:class:`~repro.streams.wireproto.ReconnectingChannel` and the serving
:class:`~repro.serving.client.ServingClient`: a retry budget the caller
sets, and one schedule every caller shares — the first retry sleeps
:data:`BASE_S`, each later one twice the last up to :data:`CAP_S`, and
every sleep is stretched by up to :data:`JITTER` from a seeded RNG so
tests are reproducible.  Ten retries sleep 6.55 s before jitter and at
most 8.5 s with it.
"""

from __future__ import annotations

import random
import time

__all__ = ["RetryBudget"]

#: First backoff sleep, in seconds.
BASE_S = 0.05
#: Longest backoff sleep before jitter, in seconds.
CAP_S = 1.0
#: Largest stretch of one sleep, as a fraction of it.
JITTER = 0.3


class RetryBudget:
    """Exponential backoff with jitter and a bounded retry budget.

    ``wait()`` consumes one retry and sleeps ``BASE_S * 2**attempt``
    capped at ``CAP_S``, stretched by up to ``JITTER`` (seeded RNG).
    ``floor_s`` stretches (never shrinks) that one sleep — a server's
    ``Retry-After``.  Returns ``False`` — without sleeping — once the
    budget is exhausted.
    """

    def __init__(self, max_retries: int, seed: int) -> None:
        self.left = int(max_retries)
        self._delay = BASE_S
        self._rng = random.Random(seed)

    def wait(self, floor_s: float = 0.0) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        delay = self._delay * (1.0 + JITTER * self._rng.random())
        time.sleep(max(delay, float(floor_s)))
        self._delay = min(self._delay * 2.0, CAP_S)
        return True
