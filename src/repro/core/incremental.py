"""Classical (non-robust) incremental PCA — the Fig. 1 baseline.

Implements the covariance recursion of paper eq. 1,

.. math::

    C \\approx \\gamma E_p \\Lambda_p E_p^T + (1-\\gamma)\\, y y^T = A A^T ,

with the factor columns of eqs. 2–3 and the SVD of the skinny ``A``
(delegated to :mod:`repro.core.lowrank`).  With forgetting factor
``alpha = 1`` the weights reduce to the classical ``γ = n/(n+1)`` running
average (infinite memory); ``alpha < 1`` gives the exponentially-weighted
sliding window of Section II-B.

Two execution paths share the same recursion:

* :meth:`IncrementalPCA.update` — one observation, one rank-one
  eigensolve (:func:`repro.core.lowrank.rank_one_update`);
* :meth:`IncrementalPCA.update_block` — a ``(k, d)`` block, one rank-``k``
  eigensolve (:func:`repro.core.lowrank.rank_k_update`).  The per-row
  γ-weights of the sequential recursion are unrolled in closed form, so
  the block path is **algebraically identical** to ``k`` sequential
  updates whenever no rank is lost to the per-step truncation (always
  true when the data rank is ≤ ``n_components``); see
  ``docs/performance.md`` for the full equivalence contract.

This estimator treats every observation at full weight, which is exactly
why it fails under contamination: each gross outlier "takes over the top
eigenvector creating a rainbow effect" (Fig. 1, left).  The robust variant
lives in :mod:`repro.core.robust`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import kernels as _kernels
from .eigensystem import Eigensystem
from .exceptions import NotFittedError
from .lowrank import rank_k_update, rank_one_update

__all__ = [
    "BlockRoute",
    "BlockUpdateResult",
    "IncrementalPCA",
    "UpdateResult",
    "block_route",
]

#: Bound on the scan exponent ``alpha^{-(k-1)}`` used by the exact
#: per-row mean unrolling: chunks are sized so the rescaled cumulative
#: sums stay far from float64 overflow.
_MAX_SCAN_EXPONENT = 60.0

#: Hard cap on rows per chunk.  On the Gram route (``d > m + k``) two
#: forces pick this: per-chunk fixed costs amortize as ``1/k``, but the
#: block Gram ``Ywᵀ Yw`` and the rotation back grow as ``O(d·k)`` *per
#: row*, so throughput peaks at a moderate ``k`` — measured flat-optimal
#: near 64 for d in [250, 4000].  On the covariance route
#: (``d <= m + k``) the robust estimator does not solve per chunk: it
#: adds each chunk to the ``d × d`` covariance and solves once per
#: ``⌊0.25/(1-α)⌋`` rows (docs/performance.md §4), so the chunk size
#: no longer prices the ``d³`` eigensolve there; it stays 64 so that
#: the mean, scale and weights are refreshed every 64 rows and a block
#: of any size takes the same path.
_MAX_BLOCK_ROWS = 64


class BlockRoute(NamedTuple):
    """How the robust block path works through rows of width ``d``."""

    #: Rows per chunk (one weighting pass each).
    chunk: int
    #: Rows per scheduled solve; 0: every chunk solves.
    window: int
    #: ``d <= rank + chunk``: a chunk's eigensolve is of the ``d × d``
    #: covariance, and a block step is a few dozen small numpy calls.
    covariance: bool


@functools.lru_cache(maxsize=64)
def block_route(d: int, rank: int, alpha: float) -> BlockRoute:
    """The solve route of a rank-``rank`` estimator at width ``d``.

    Chunks hold at most ``_MAX_BLOCK_ROWS`` rows and, for ``α < 1``, at
    most ``W = ⌊0.25/(1-α)⌋`` of them: the block path weighs a chunk's
    rows against the chunk-start state and forgets per chunk, and that
    approximation stays mild below a quarter of the window
    ``N = 1/(1-α)``.  On the covariance route (``d <= rank + chunk``)
    a chunk only folds its rows into the ``d × d`` covariance and the
    ``eigh`` that truncates it runs once per ``W`` rows; the Gram route
    and ``α = 1`` solve every chunk.  The threaded runtime places
    engines by the same rule (:func:`repro.parallel.build_parallel_pca_graph`).
    """
    if alpha >= 1.0:
        return BlockRoute(_MAX_BLOCK_ROWS, 0, d <= rank + _MAX_BLOCK_ROWS)
    # 1 - α is inexact in binary (0.25 / (1 - 0.999) reads
    # 249.99999999999977), so round off that error before the floor.
    window = max(1, int(round(0.25 / (1.0 - alpha), 6)))
    chunk = min(_MAX_BLOCK_ROWS, window)
    covariance = d <= rank + chunk
    return BlockRoute(chunk, window if covariance else 0, covariance)


@dataclass(frozen=True)
class UpdateResult:
    """Per-observation diagnostics returned by ``update``.

    Attributes
    ----------
    weight:
        Robust covariance weight given to the observation (always 1.0 for
        the classical estimator).
    scaled_residual:
        ``t = r²/σ²`` — the squared residual in units of the current scale.
    residual_norm2:
        Raw squared residual norm ``r²`` of the hyperplane fit.
    is_outlier:
        Whether the observation was flagged (never, classically).
    n_filled:
        Number of missing entries that were gap-filled before the update.
    """

    weight: float
    scaled_residual: float
    residual_norm2: float
    is_outlier: bool = False
    n_filled: int = 0


@dataclass(frozen=True)
class BlockUpdateResult:
    """Per-block diagnostics returned by ``update_block``.

    The vectorized counterpart of :class:`UpdateResult`: one entry per
    *processed* post-initialization row, in arrival order.  Rows consumed
    by warm-up buffering or skipped (too gappy) are counted but carry no
    per-row entry.

    Attributes
    ----------
    weights:
        Robust covariance weights, shape ``(n_processed,)`` (all ones
        classically).
    scaled_residuals:
        ``t_i = r_i²/σ²`` against the block-start scale.
    residual_norm2:
        Raw squared residuals ``r_i²`` against the last solved basis
        (the block-start one, except between the robust estimator's
        once-per-window solves on the covariance route).
    is_outlier:
        Per-row outlier flags (all ``False`` classically).
    n_processed:
        Rows that went through the block update.
    n_buffered:
        Rows consumed by warm-up buffering (before initialization).
    n_skipped:
        Rows skipped outright (e.g. too few observed entries).
    n_filled:
        Total missing entries gap-filled across the block.
    n_gap_rows:
        Rows of the block with any non-finite entry — gap-filled, skipped
        as too gappy, or buffered by warm-up.  Counted from the mask the
        gap handling computes anyway; an estimator without gap handling
        (the classical one) reports 0.
    indices:
        For each processed row, its position within the block passed to
        ``update_block`` — maps diagnostics back to source rows even
        when warm-up buffering or skips make the mapping non-trivial.
    """

    weights: np.ndarray
    scaled_residuals: np.ndarray
    residual_norm2: np.ndarray
    is_outlier: np.ndarray
    n_processed: int
    n_buffered: int = 0
    n_skipped: int = 0
    n_filled: int = 0
    n_gap_rows: int = 0
    indices: np.ndarray | None = None

    @property
    def n_outliers(self) -> int:
        """Number of processed rows flagged as outliers."""
        return int(np.count_nonzero(self.is_outlier))

    @staticmethod
    def empty(
        n_buffered: int = 0, n_skipped: int = 0, n_gap_rows: int = 0
    ) -> "BlockUpdateResult":
        """A result covering no processed rows (warm-up-only blocks)."""
        return BlockUpdateResult(
            weights=np.zeros(0),
            scaled_residuals=np.zeros(0),
            residual_norm2=np.zeros(0),
            is_outlier=np.zeros(0, dtype=bool),
            n_processed=0,
            n_buffered=n_buffered,
            n_skipped=n_skipped,
            n_gap_rows=n_gap_rows,
            indices=np.zeros(0, dtype=np.int64),
        )

    @staticmethod
    def concat(parts: "list[BlockUpdateResult]") -> "BlockUpdateResult":
        """Merge chunked results into one block-level result.

        ``indices`` are concatenated as-is — callers offset them to block
        coordinates before concatenation.
        """
        if not parts:
            return BlockUpdateResult.empty()
        if len(parts) == 1:
            return parts[0]
        indices = None
        if all(p.indices is not None for p in parts):
            indices = np.concatenate([p.indices for p in parts])
        return BlockUpdateResult(
            weights=np.concatenate([p.weights for p in parts]),
            scaled_residuals=np.concatenate(
                [p.scaled_residuals for p in parts]
            ),
            residual_norm2=np.concatenate([p.residual_norm2 for p in parts]),
            is_outlier=np.concatenate([p.is_outlier for p in parts]),
            n_processed=sum(p.n_processed for p in parts),
            n_buffered=sum(p.n_buffered for p in parts),
            n_skipped=sum(p.n_skipped for p in parts),
            n_filled=sum(p.n_filled for p in parts),
            n_gap_rows=sum(p.n_gap_rows for p in parts),
            indices=indices,
        )


class _WarmupBuffer:
    """Preallocated ``(init_size, d)`` warm-up accumulator.

    Replaces the old per-row ``list.append(x.copy())`` pattern: the
    array is allocated once (lazily, when the first row reveals ``d``)
    and rows are written in place — no per-row allocation, and the batch
    solve reads a contiguous view instead of re-stacking a Python list.
    """

    __slots__ = ("capacity", "_rows", "count")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._rows: np.ndarray | None = None
        self.count = 0

    def append(self, x: np.ndarray) -> None:
        if self._rows is None:
            self._rows = np.empty((self.capacity, x.shape[0]))
        elif x.shape[0] != self._rows.shape[1]:
            raise ValueError(
                f"expected vector of dim {self._rows.shape[1]}, "
                f"got {x.shape}"
            )
        self._rows[self.count] = x
        self.count += 1

    def extend(self, block: np.ndarray) -> int:
        """Copy as many leading rows of ``block`` as fit; return how many."""
        take = min(self.capacity - self.count, block.shape[0])
        if take <= 0:
            return 0
        if self._rows is None:
            self._rows = np.empty((self.capacity, block.shape[1]))
        elif block.shape[1] != self._rows.shape[1]:
            raise ValueError(
                f"expected vectors of dim {self._rows.shape[1]}, "
                f"got dim {block.shape[1]}"
            )
        self._rows[self.count : self.count + take] = block[:take]
        self.count += take
        return take

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    def view(self) -> np.ndarray:
        """The filled prefix as a (zero-copy) array view."""
        if self._rows is None:
            return np.empty((0, 0))
        return self._rows[: self.count]

    def clear(self) -> None:
        self._rows = None
        self.count = 0


class IncrementalPCA:
    """Streaming PCA with low-rank rank-one/rank-``k`` covariance updates.

    Parameters
    ----------
    n_components:
        Number of leading eigenpairs ``p`` to maintain.
    alpha:
        Forgetting factor ``α ∈ (0, 1]``; ``1`` = infinite memory
        (classical running average), smaller values forget the past with an
        effective window of ``N = 1/(1-α)`` observations.
    init_size:
        Number of observations buffered before the eigensystem is
        initialized with a small batch solve (Section III-C keeps this
        "small to minimize the computational requirements").

    Notes
    -----
    The per-update cost is ``O(d·p²)`` for the sequential path and
    ``O(d·k·min(d, p+k))`` per ``k``-row block — independent of how many
    observations have been seen — and nothing larger than the Gram of
    the low-rank factor is formed.
    """

    def __init__(
        self,
        n_components: int,
        *,
        alpha: float = 1.0,
        init_size: int = 10,
    ) -> None:
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if init_size < 2:
            raise ValueError(f"init_size must be >= 2, got {init_size}")
        self.n_components = int(n_components)
        self.alpha = float(alpha)
        self.init_size = int(init_size)
        self._buffer = _WarmupBuffer(self.init_size)
        self._state: Eigensystem | None = None

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def state(self) -> Eigensystem:
        """The current eigensystem; raises if still warming up."""
        if self._state is None:
            raise NotFittedError(
                "eigensystem not initialized yet: "
                f"{self._buffer.count}/{self.init_size} warm-up vectors "
                "seen — feed more observations before querying the fit"
            )
        return self._state

    @property
    def is_initialized(self) -> bool:
        """Whether the warm-up batch solve has happened."""
        return self._state is not None

    @property
    def n_seen(self) -> int:
        """Total observations consumed (including warm-up)."""
        if self._state is not None:
            return self._state.n_seen
        return self._buffer.count

    @property
    def components_(self) -> np.ndarray:
        """Eigenvectors as rows, sklearn-style ``(p, d)`` view."""
        return self.state.basis.T

    @property
    def eigenvalues_(self) -> np.ndarray:
        """Current eigenvalues in descending order."""
        return self.state.eigenvalues

    @property
    def mean_(self) -> np.ndarray:
        """Current location estimate."""
        return self.state.mean

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def update(self, x: np.ndarray) -> UpdateResult | None:
        """Consume one observation; returns ``None`` during warm-up."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"update expects a single vector, got {x.shape}")
        if self._state is None:
            self._buffer.append(x)
            if self._buffer.is_full:
                self._initialize()
            return None
        return self._update_initialized(x)

    def update_block(self, x: np.ndarray) -> BlockUpdateResult:
        """Consume a ``(k, d)`` block through the vectorized block kernel.

        Rows that fall into the warm-up window are buffered (and may
        trigger initialization mid-block); the remainder is processed in
        one (or, for very aggressive forgetting, a few) rank-``k``
        updates.  Never loops over rows on the post-initialization path.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2:
            raise ValueError(f"update_block expects (k, d), got {x.shape}")
        n_buffered = 0
        if self._state is None:
            n_buffered = self._buffer.extend(x)
            if self._buffer.is_full:
                self._initialize()
            x = x[n_buffered:]
        if x.shape[0] == 0 or self._state is None:
            return BlockUpdateResult.empty(n_buffered=n_buffered)
        parts = []
        offset = n_buffered
        for chunk in self._iter_chunks(x):
            part = self._update_block_initialized(chunk)
            if part.indices is not None:
                part = replace(part, indices=part.indices + offset)
            offset += chunk.shape[0]
            parts.append(part)
        result = BlockUpdateResult.concat(parts)
        if n_buffered:
            result = replace(result, n_buffered=n_buffered)
        return result

    def partial_fit(self, x: np.ndarray) -> "IncrementalPCA":
        """Consume a block of observations of shape ``(n, d)``.

        Routes through :meth:`update_block` — one vectorized rank-``k``
        eigensolve per block instead of a Python loop of rank-one
        updates per row.
        """
        self.update_block(x)
        return self

    # sklearn-style alias
    fit = partial_fit

    def _max_chunk_rows(self) -> int:
        """Largest block one eigensolve may cover.

        Bounded by ``_MAX_BLOCK_ROWS`` (diagnostics freshness) and, for
        ``α < 1``, by the exact α-scan's overflow guard.
        """
        if self.alpha >= 1.0:
            return _MAX_BLOCK_ROWS
        overflow = max(1, int(_MAX_SCAN_EXPONENT / -math.log(self.alpha)))
        return min(_MAX_BLOCK_ROWS, overflow)

    def _iter_chunks(self, x: np.ndarray):
        limit = self._max_chunk_rows()
        if x.shape[0] <= limit:
            yield x
            return
        for start in range(0, x.shape[0], limit):
            yield x[start : start + limit]

    def _initialize(self) -> None:
        self._state = Eigensystem.from_batch(
            self._buffer.view(), self.n_components
        )
        self._buffer.clear()

    def _update_initialized(self, x: np.ndarray) -> UpdateResult:
        st = self._state
        assert st is not None
        if x.shape != (st.dim,):
            raise ValueError(f"expected vector of dim {st.dim}, got {x.shape}")

        # Running sums (classical: every weight is 1, so u == v and
        # q tracks plain r²).
        u_new = self.alpha * st.sum_count + 1.0
        gamma = self.alpha * st.sum_count / u_new
        one_minus_gamma = 1.0 / u_new

        st.mean = gamma * st.mean + one_minus_gamma * x
        y = x - st.mean

        r = st.residual(y)
        r2 = float(r @ r)
        scale_prev = st.scale if st.scale > 0 else 1.0

        st.basis, st.eigenvalues = rank_one_update(
            st.basis, st.eigenvalues, y, gamma, one_minus_gamma,
            self.n_components,
        )
        st.scale = gamma * st.scale + one_minus_gamma * r2
        st.sum_count = u_new
        st.sum_weight = u_new
        st.sum_weighted_r2 = self.alpha * st.sum_weighted_r2 + r2
        st.n_seen += 1
        st.n_since_sync += 1
        return UpdateResult(
            weight=1.0,
            scaled_residual=r2 / scale_prev,
            residual_norm2=r2,
        )

    def _update_block_initialized(self, x: np.ndarray) -> BlockUpdateResult:
        """One rank-``k`` update, exactly unrolling ``k`` sequential steps.

        The sequential recursion applies, at step ``j``,
        ``u_j = α u_{j-1} + 1`` and ``mean_j = γ_j mean_{j-1} + x_j/u_j``;
        unrolled over the block this gives per-row decay weights
        ``α^{k-j}`` and the closed-form per-row means computed below, so
        mean / eigenbasis / eigenvalues match the sequential path exactly
        whenever the single end-of-block truncation loses no rank
        (see docs/performance.md).  Residual diagnostics (and hence the
        scale recursion) are evaluated against the block-*start* basis —
        the one deliberate approximation of the block path.
        """
        st = self._state
        assert st is not None
        k, d = x.shape
        if d != st.dim:
            raise ValueError(
                f"expected vectors of dim {st.dim}, got dim {d}"
            )

        a = self.alpha
        u0 = st.sum_count
        j = np.arange(1, k + 1, dtype=np.float64)
        if a >= 1.0:
            u = u0 + j
            pw = np.ones(k)
            decay_k = 1.0
            # Exact per-row means: mean_j = (u0 mean0 + Σ_{i<=j} x_i)/u_j.
            means = (u0 * st.mean + np.cumsum(x, axis=0)) / u[:, None]
        else:
            aj = a ** j
            u = aj * u0 + (1.0 - aj) / (1.0 - a)
            pw = a ** (k - j)
            decay_k = float(aj[-1])
            # Exact per-row means via the rescaled cumulative sum
            #   mean_j = α^j (u0 mean0 + Σ_{i<=j} α^{-i} x_i) / u_j ;
            # chunking (_max_chunk_rows) bounds α^{-i} far below overflow.
            t = np.cumsum((a ** -j)[:, None] * x, axis=0)
            means = (aj[:, None] * (u0 * st.mean + t)) / u[:, None]
        u_new = float(u[-1])
        gamma_block = decay_k * u0 / u_new

        y = x - means
        # Diagnostics against the block-start basis (fused kernel).
        r2 = _kernels.residual_norm2_block(
            y, np.ascontiguousarray(st.basis)
        )
        scale_prev = st.scale if st.scale > 0 else 1.0

        st.mean = means[-1]
        st.basis, st.eigenvalues = rank_k_update(
            st.basis, st.eigenvalues, y, gamma_block, pw / u_new,
            self.n_components,
        )
        pw_r2 = float(pw @ r2)
        st.scale = gamma_block * st.scale + pw_r2 / u_new
        st.sum_count = u_new
        st.sum_weight = u_new
        st.sum_weighted_r2 = decay_k * st.sum_weighted_r2 + pw_r2
        st.n_seen += k
        st.n_since_sync += k
        return BlockUpdateResult(
            weights=np.ones(k),
            scaled_residuals=r2 / scale_prev,
            residual_norm2=r2,
            is_outlier=np.zeros(k, dtype=bool),
            n_processed=k,
            indices=np.arange(k, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Expansion coefficients of (blocks of) observations."""
        st = self.state
        return st.project(st.center(x))

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Map coefficients back to the ambient space (adds the mean)."""
        st = self.state
        return np.asarray(z, dtype=np.float64) @ st.basis.T + st.mean

    def reconstruction_error(self, x: np.ndarray) -> np.ndarray | float:
        """Squared residual norm of observations under the current fit."""
        st = self.state
        return st.residual_norm2(st.center(x))
