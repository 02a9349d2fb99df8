"""Bounded exponential backoff, shared by every reconnecting client.

One discipline for the network sources
(:mod:`repro.streams.network_sources`), the cluster wire's
:class:`~repro.streams.wireproto.ReconnectingChannel` and the serving
:class:`~repro.serving.client.ServingClient`: a fixed retry budget,
doubling delays up to a cap, seeded jitter so tests are reproducible.
"""

from __future__ import annotations

import random
import time

__all__ = ["RetryBudget"]


class RetryBudget:
    """Exponential backoff with jitter and a bounded retry budget.

    ``wait()`` consumes one retry and sleeps ``base * 2**attempt`` capped
    at ``cap_s``, stretched by up to ``jitter`` (fraction, seeded RNG so
    tests are reproducible).  ``floor_s`` stretches (never shrinks) that
    one sleep — a server's ``Retry-After``.  Returns ``False`` — without
    sleeping — once the budget is exhausted.
    """

    def __init__(
        self,
        max_retries: int,
        base_s: float,
        cap_s: float,
        jitter: float,
        seed: int,
    ) -> None:
        self.left = int(max_retries)
        self._delay = float(base_s)
        self._cap = float(cap_s)
        self._jitter = float(jitter)
        self._rng = random.Random(seed)

    def wait(self, floor_s: float = 0.0) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        delay = self._delay * (1.0 + self._jitter * self._rng.random())
        time.sleep(max(delay, float(floor_s)))
        self._delay = min(self._delay * 2.0, self._cap)
        return True
