"""The threaded split / load-balancer operator (Section III-A.2).

The paper splits the input stream with InfoSphere's multithreaded split:
"each new data tuple is being sent to a random running PCA engine which is
free to process it", so "faster nodes will get more data than slower
ones".  Two strategies:

* ``random`` — the paper's default: uniformly random target.
* ``round_robin`` — deterministic, equal counts (useful in tests).

Neither routes around a slow engine.  A target is picked without looking
at its load; when a slow engine's bounded inbox fills, the split blocks
on it (backpressure) and every other engine waits with it.

Control tuples and punctuation are broadcast to *all* targets.
"""

from __future__ import annotations

import numpy as np

from .operators import Operator
from .tuples import StreamTuple

__all__ = ["Split"]

_STRATEGIES = ("random", "round_robin")


class Split(Operator):
    """Distribute one input stream over ``n_targets`` output streams.

    Parameters
    ----------
    n_targets:
        Number of downstream PCA engines.
    strategy:
        ``"random"`` (paper default) or ``"round_robin"``.
    seed:
        Seed for the random strategy (deterministic experiments).
    """

    def __init__(
        self,
        name: str,
        n_targets: int,
        *,
        strategy: str = "random",
        seed: int = 0,
    ) -> None:
        if n_targets < 1:
            raise ValueError(f"n_targets must be >= 1, got {n_targets}")
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {_STRATEGIES}"
            )
        super().__init__(name, n_inputs=1, n_outputs=n_targets)
        self.strategy = strategy
        self._rng = np.random.default_rng(seed)
        self._next_rr = 0
        self.sent_per_target = np.zeros(n_targets, dtype=np.int64)

    def _choose(self) -> int:
        if self.strategy == "round_robin":
            port = self._next_rr
            self._next_rr = (self._next_rr + 1) % self.n_outputs
            return port
        return int(self._rng.integers(self.n_outputs))

    def process(self, tup: StreamTuple, port: int) -> None:
        if tup.is_control:
            # Control messages (e.g. a broadcast shutdown) reach everyone.
            for p in range(self.n_outputs):
                self.submit(tup, p)
            return
        target = self._choose()
        self.sent_per_target[target] += 1
        self.submit(tup, target)
