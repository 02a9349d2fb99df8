"""Sliding-window PCA — the §II-B alternative to exponential damping.

"When dealing with the online arrival of data, there are several options
to maintain the eigensystem over varying temporal extents, including a
damping factor or time-based windows ... Both approaches can be
implemented, exploiting sharing strategies for sliding window scenarios."

The product's :class:`~repro.core.RobustIncrementalPCA` implements the
damping (α) option; this comparison point for the BASELINES experiment
(``benchmarks/bench_baselines.py``) implements the *window* option with
the classic block-sharing strategy: the stream is cut into fixed-size
blocks, each block is summarized by its own truncated eigensystem
(cheap, low-rank), and the window estimate is the merge of the last
``window_blocks`` summaries — the same merge algebra the parallel
synchronization uses (eqs. 15–16), reused across time instead of across
engines.

Compared to the damping estimator:

* expiry is *hard*: an observation older than the window contributes
  exactly nothing (damping only down-weights);
* the per-block summaries are shared: sliding by one block costs one
  merge of ``window_blocks`` factors, not a recompute over the window;
* robustness is inherited by building each block summary with the robust
  streaming estimator.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core import (
    Eigensystem,
    IncrementalPCA,
    RobustIncrementalPCA,
    merge_eigensystems,
)

__all__ = ["SlidingWindowPCA"]


class SlidingWindowPCA:
    """Tuple-based sliding-window PCA from mergeable block summaries.

    Parameters
    ----------
    n_components:
        Eigenpairs reported for the window estimate.
    block_size:
        Observations per block (the slide granularity).
    window_blocks:
        Number of most-recent blocks forming the window; the effective
        window is ``block_size · window_blocks`` observations.
    robust:
        Summarize blocks with the robust streaming estimator (default) or
        the classical one.
    block_components:
        Eigenpairs kept per block summary; more = a more faithful window
        estimate at slightly higher merge cost.  Defaults to
        ``n_components + 2``.
    estimator_kwargs:
        Extra arguments for the per-block estimator.

    Notes
    -----
    The current block contributes to queries too (pro-rated by its fill),
    so :meth:`state` never lags more than one observation.
    """

    def __init__(
        self,
        n_components: int,
        *,
        block_size: int = 500,
        window_blocks: int = 8,
        robust: bool = True,
        block_components: int | None = None,
        estimator_kwargs: dict | None = None,
    ) -> None:
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        if block_size < 4:
            raise ValueError(f"block_size must be >= 4, got {block_size}")
        if window_blocks < 1:
            raise ValueError(
                f"window_blocks must be >= 1, got {window_blocks}"
            )
        self.n_components = int(n_components)
        self.block_size = int(block_size)
        self.window_blocks = int(window_blocks)
        self.robust = bool(robust)
        self.block_components = int(
            block_components
            if block_components is not None
            else n_components + 2
        )
        self.estimator_kwargs = dict(estimator_kwargs or {})
        self._blocks: deque[Eigensystem] = deque(maxlen=window_blocks)
        self._current = self._new_block_estimator()
        self._current_count = 0
        self.n_seen = 0

    def _new_block_estimator(self):
        kwargs = dict(self.estimator_kwargs)
        # Robust init needs enough points that a k-plane cannot
        # interpolate half of them (M-scale exact-fit degeneracy).
        kwargs.setdefault(
            "init_size",
            min(max(4 * self.block_components, 24), self.block_size),
        )
        if self.robust:
            # Within a block, forget with an effective window of half the
            # block: the non-robust warm-up transient (§II-B) washes out
            # before the block is sealed, so a contaminated init cannot
            # poison the summary.
            kwargs.setdefault("alpha", 1.0 - 2.0 / self.block_size)
            # A short block cannot afford the non-robust init transient;
            # warm-start each block robustly.
            kwargs.setdefault("robust_init", True)
            return RobustIncrementalPCA(
                self.block_components, **kwargs
            )
        kwargs.pop("extra_components", None)
        return IncrementalPCA(self.block_components, **kwargs)

    @property
    def window_size(self) -> int:
        """Nominal window extent in observations."""
        return self.block_size * self.window_blocks

    def update(self, x: np.ndarray) -> None:
        """Consume one observation."""
        self._current.update(np.asarray(x, dtype=np.float64))
        self._current_count += 1
        self.n_seen += 1
        if self._current_count >= self.block_size:
            self._seal_block()

    def partial_fit(self, x: np.ndarray) -> "SlidingWindowPCA":
        """Consume a block of observations of shape ``(n, d)``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        for row in x:
            self.update(row)
        return self

    def _seal_block(self) -> None:
        if self._current.is_initialized:
            self._blocks.append(self._current.state.copy())
        self._current = self._new_block_estimator()
        self._current_count = 0

    def state(self) -> Eigensystem:
        """The merged window eigensystem (sealed blocks + current fill)."""
        summaries = list(self._blocks)
        if (
            self._current_count > 0
            and self._current.is_initialized
        ):
            summaries.append(self._current.state)
        if not summaries:
            raise RuntimeError(
                "window is empty: fewer than one initialized block seen"
            )
        return merge_eigensystems(summaries, self.n_components)

    @property
    def components_(self) -> np.ndarray:
        """Window eigenvectors as rows, ``(p, d)``."""
        return self.state().basis.T

    @property
    def eigenvalues_(self) -> np.ndarray:
        """Window eigenvalues (descending)."""
        return self.state().eigenvalues

    @property
    def mean_(self) -> np.ndarray:
        """Window location estimate."""
        return self.state().mean
