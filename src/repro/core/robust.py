"""Robust incremental PCA — the paper's core algorithm (Sections II-A/B/D).

Combines three ingredients:

* the **low-rank streaming covariance update** of eqs. 1–3 (classical
  incremental PCA, :mod:`repro.core.incremental`);
* the **M-scale robustification** of Maronna (2005): each observation's
  contribution to the mean and covariance is weighted by
  ``w = W(r²/σ²)`` where ``σ²`` is itself maintained as a streaming
  M-scale — gross outliers receive (near-)zero weight and cannot capture
  the eigenvectors;
* the **exponentially-weighted recursions** of eqs. 9–14: running sums
  ``u, v, q`` with forgetting factor ``α`` define the blending
  coefficients ``γ₁, γ₂, γ₃`` for the mean, covariance, and scale.  ``α``
  sets the effective sample size ``N = 1/(1-α)`` and lets the solution
  both track drift and wash out the non-robust initial transient.

Gappy observations (NaN entries) are patched on the fly with the current
eigenbasis, and their residuals corrected with ``q`` higher-order
components so patched bins don't inflate the weights (Section II-D).

A numerically important detail: the paper's covariance recursion (eq. 10)
contains ``(1-γ₂)·σ²·y yᵀ/r²``, which looks singular as ``r² → 0``.  But
``1-γ₂ = w·r²/q_new`` exactly, so the update coefficient is
``w·σ²/q_new`` — finite always — and that is what we compute.  A zero
weight therefore skips the (only expensive) eigensolve entirely: rejected
outliers are nearly free.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import kernels as _kernels
from .batch import BatchRobustPCA, median, robust_eigenvalues
from .calibration import calibrate_c2
from .eigensystem import Eigensystem
from .exceptions import NotFittedError
from .gaps import (
    GAP_RESIDUAL_MODES,
    GapFillResult,
    estimate_residual_norm2,
    estimate_residual_norm2_block,
    fill_block_from_basis,
    fill_from_basis,
)
from .incremental import (
    _MAX_BLOCK_ROWS,
    BlockUpdateResult,
    UpdateResult,
    _WarmupBuffer,
)
from .lowrank import _rank_k_update, rank_one_update
from .rho import RhoFunction, make_rho

__all__ = ["RobustIncrementalPCA"]

# The warm-up gate: a plain eigen-direction whose §II-B robust eigenvalue
# is below this fraction of its classical one is carried by a few gross
# outliers, and the warm start falls to the Maronna fit.  Clean warm-ups
# read 0.24 and up, a 60σ row in the warm-up 0.002 and below.
_CAPTURE_RATIO = 0.05


class RobustIncrementalPCA:
    """Streaming robust PCA with M-scale weighting and forgetting.

    Parameters
    ----------
    n_components:
        Number of reported eigenpairs ``p``.
    extra_components:
        Number ``q`` of additional higher-order eigenpairs maintained
        internally, used to estimate residuals in gap-filled bins
        (Section II-D).  ``0`` disables the correction.
    alpha:
        Forgetting factor ``α ∈ (0, 1]``; the effective window is
        ``N = 1/(1-α)`` observations.  ``α = 1`` is the infinite-memory
        classical limit.
    delta:
        M-scale breakdown parameter ``δ ∈ (0, 1)``.  The estimator resists
        a contaminated fraction up to ``min(δ, 1-δ)``.
    rho:
        A :class:`~repro.core.rho.RhoFunction`, a family name, or ``None``.
        When the tuning constant is not given explicitly it is calibrated
        at initialization time so the M-scale is Fisher-consistent at the
        Gaussian model with ``dof = d - p`` (see
        :mod:`repro.core.calibration`).
    init_size:
        Warm-up buffer size for the batch initialization.
    robust_init:
        Always initialize from a Maronna batch-robust fit of the warm-up
        buffer.  By default the warm start is the paper's plain SVD ("our
        iteration starts from a non-robust set of eigenspectra"), gated:
        when the §II-B robust eigenvalue along some plain eigenvector is
        below ``_CAPTURE_RATIO`` (0.05) of its plain eigenvalue, a few
        gross warm-up outliers carry that direction and the Maronna fit is
        used instead.  Forcing it costs a few extra SVDs once on every
        warm-up.
    handle_gaps:
        Patch NaN entries with the running eigenbasis before updating.
    gap_residual_mode:
        How to estimate ``r²`` for patched observations — one of
        :data:`repro.core.gaps.GAP_RESIDUAL_MODES` (default
        ``"higher-order"``, the paper's §II-D correction; it only has an
        effect when ``extra_components > 0``).
    min_observed_fraction:
        Gappy vectors with fewer observed entries than this fraction are
        skipped outright (an all-NaN vector carries no information).

    Notes
    -----
    Per-update cost is ``O(d·(p+q)²)`` for inliers and ``O(d·(p+q))`` for
    rejected outliers (no eigensolve).  Nothing larger than the Gram of
    the low-rank factor is formed.
    """

    def __init__(
        self,
        n_components: int,
        *,
        extra_components: int = 0,
        alpha: float = 0.999,
        delta: float = 0.5,
        rho: RhoFunction | str | None = None,
        rho_c2: float | None = None,
        init_size: int = 20,
        robust_init: bool = False,
        handle_gaps: bool = True,
        gap_residual_mode: str = "higher-order",
        min_observed_fraction: float = 0.05,
        outlier_t: float | None = None,
    ) -> None:
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        if extra_components < 0:
            raise ValueError(
                f"extra_components must be >= 0, got {extra_components}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if init_size < 2:
            raise ValueError(f"init_size must be >= 2, got {init_size}")
        if not 0.0 <= min_observed_fraction <= 1.0:
            raise ValueError("min_observed_fraction must lie in [0, 1]")
        if gap_residual_mode not in GAP_RESIDUAL_MODES:
            raise ValueError(
                f"unknown gap_residual_mode {gap_residual_mode!r}; "
                f"choose from {GAP_RESIDUAL_MODES}"
            )

        self.n_components = int(n_components)
        self.extra_components = int(extra_components)
        self.alpha = float(alpha)
        self.delta = float(delta)
        self.init_size = int(init_size)
        self.robust_init = bool(robust_init)
        self.handle_gaps = bool(handle_gaps)
        self.gap_residual_mode = gap_residual_mode
        self.min_observed_fraction = float(min_observed_fraction)
        self._rho_spec: RhoFunction | str | None = rho
        self._rho_c2 = rho_c2
        self._rho: RhoFunction | None = (
            rho if isinstance(rho, RhoFunction) else None
        )
        self._outlier_t = outlier_t

        self._buffer = _WarmupBuffer(self.init_size)
        self._state: Eigensystem | None = None
        # Covariance route only: the untruncated d × d covariance since
        # the last scheduled solve (None when ``_state`` is solved), the
        # rows folded into it, and the solved copy reads see meanwhile.
        self._cov: np.ndarray | None = None
        self._rows_since_solve = 0
        self._solved: Eigensystem | None = None
        self.n_outliers = 0
        self.n_skipped = 0

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def state(self) -> Eigensystem:
        """Full internal eigensystem (``p + q`` components).

        Between two scheduled solves of the covariance route this is a
        solved copy of the pending covariance: reading never moves the
        solve schedule, so the fit depends only on the rows fed.
        """
        if self._state is None:
            raise NotFittedError(
                "eigensystem not initialized yet: "
                f"{self._buffer.count}/{self.init_size} warm-up vectors "
                "seen — feed more observations before querying the fit"
            )
        if self._cov is None:
            return self._state
        if self._solved is None:
            basis, eigenvalues = _kernels.top_eigenpairs(
                self._cov, self.n_components + self.extra_components
            )
            self._solved = replace(
                self._state, mean=self._state.mean.copy(), basis=basis,
                eigenvalues=eigenvalues,
            )
        return self._solved

    @property
    def is_initialized(self) -> bool:
        """Whether the warm-up batch solve has happened."""
        return self._state is not None

    @property
    def rho(self) -> RhoFunction:
        """The rho-function in use (calibrated lazily at initialization)."""
        if self._rho is None:
            raise NotFittedError(
                "rho is not calibrated yet: it is fixed at initialization "
                "time (after the warm-up buffer fills)"
            )
        return self._rho

    @property
    def n_seen(self) -> int:
        """Total observations consumed (including warm-up and outliers)."""
        if self._state is not None:
            return self._state.n_seen
        return self._buffer.count

    @property
    def effective_window(self) -> float:
        """``N = 1/(1-α)`` — the effective sample size (∞ for α=1)."""
        return float("inf") if self.alpha >= 1.0 else 1.0 / (1.0 - self.alpha)

    @property
    def components_(self) -> np.ndarray:
        """The reported ``p`` leading eigenvectors as rows, ``(p, d)``."""
        return self.state.basis[:, : self.n_components].T

    @property
    def eigenvalues_(self) -> np.ndarray:
        """The reported ``p`` leading eigenvalues."""
        return self.state.eigenvalues[: self.n_components]

    @property
    def mean_(self) -> np.ndarray:
        """Current robust location estimate."""
        return self.state.mean

    @property
    def scale_(self) -> float:
        """Current robust residual scale ``σ²``."""
        return self.state.scale

    def public_state(self) -> Eigensystem:
        """A copy of the state truncated to the reported ``p`` components.

        This is the unit shipped to other engines during synchronization.
        """
        st = self.state
        p = self.n_components
        out = st.copy()
        out.basis = out.basis[:, :p].copy()
        out.eigenvalues = out.eigenvalues[:p].copy()
        return out

    def replace_state(self, new_state: Eigensystem) -> None:
        """Install a merged eigensystem (used after synchronization).

        The incoming state may carry fewer components than the internal
        ``p + q``; missing higher-order directions regrow from subsequent
        updates.  A pending covariance (see :meth:`_chunk_limits`) is
        dropped: the incoming state supersedes it.
        """
        if self._state is None:
            raise RuntimeError("cannot replace state before initialization")
        if new_state.dim != self._state.dim:
            raise ValueError(
                f"dimension mismatch: {new_state.dim} != {self._state.dim}"
            )
        self._state = new_state.copy()
        self._cov = self._solved = None
        self._rows_since_solve = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def update(self, x: np.ndarray) -> UpdateResult | None:
        """Consume one observation; ``None`` while warming up or skipped."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"update expects a single vector, got {x.shape}")
        if self._state is None:
            self._buffer_warmup(x[None, :])
            return None
        if self._cov is not None:
            self._settle()
        return self._update_initialized(x)

    def update_block(self, x: np.ndarray) -> BlockUpdateResult:
        """Consume a ``(k, d)`` block through the vectorized block kernel.

        Warm-up rows are buffered as they come (their gaps are patched
        once, when the buffer fills); every post-initialization row is
        processed by rank-``k`` block updates — vectorized gap filling,
        residuals, robust weighting, and a single eigensolve per chunk,
        or on the covariance route one per ``⌊0.25/(1-α)⌋`` rows (see
        :meth:`_chunk_limits`).  For ``α < 1`` very large blocks are
        chunked so the per-chunk forgetting approximation stays within
        the documented contract (see docs/performance.md).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2:
            raise ValueError(f"update_block expects (k, d), got {x.shape}")
        i = n_buffered = 0
        if self._state is None:
            i, n_buffered = self._buffer_warmup(x)
        warm_skipped = i - n_buffered
        warm_gaps = (
            int(np.count_nonzero(~np.isfinite(x[:i]).all(axis=1))) if i else 0
        )
        n = x.shape[0]
        if n == i or self._state is None:
            return BlockUpdateResult.empty(
                n_buffered=n_buffered, n_skipped=warm_skipped,
                n_gap_rows=warm_gaps,
            )
        limit, window = self._chunk_limits(x.shape[1])
        if n - i <= limit:
            result = self._update_block_initialized(x[i:], i, window)
        else:
            result = BlockUpdateResult.concat([
                self._update_block_initialized(x[lo : lo + limit], lo, window)
                for lo in range(i, n, limit)
            ])
        if i:
            result = replace(
                result,
                n_buffered=result.n_buffered + n_buffered,
                n_skipped=result.n_skipped + warm_skipped,
                n_gap_rows=result.n_gap_rows + warm_gaps,
            )
        return result

    def partial_fit(self, x: np.ndarray) -> "RobustIncrementalPCA":
        """Consume a block of observations of shape ``(n, d)``.

        Routes through :meth:`update_block` — vectorized rank-``k``
        chunks instead of a Python loop of rank-one updates per row.
        """
        self.update_block(x)
        return self

    fit = partial_fit

    def _chunk_limits(self, d: int) -> tuple[int, int]:
        """Rows per chunk, and rows per scheduled solve (0: every chunk).

        The block path evaluates residuals/weights against the
        chunk-start state and applies forgetting per chunk rather than
        per row; chunking to a fraction of the effective window
        ``N = 1/(1-α)`` (and to an absolute cap) keeps that approximation
        mild regardless of upstream batch size.

        On the covariance route (``d <= p+q + chunk``) a chunk only folds
        its rows into the ``d × d`` covariance; the ``eigh`` that
        truncates it to ``p+q`` runs once per ``W = ⌊0.25/(1-α)⌋`` rows,
        so the basis the residuals see is at most ``W`` rows old.  The
        Gram route and ``α = 1`` solve every chunk.
        """
        if self.alpha >= 1.0:
            return _MAX_BLOCK_ROWS, 0
        # 1 - α is inexact in binary (0.25 / (1 - 0.999) reads
        # 249.99999999999977), so round off that error before the floor.
        window = max(1, int(round(0.25 / (1.0 - self.alpha), 6)))
        limit = min(_MAX_BLOCK_ROWS, window)
        if d <= self.n_components + self.extra_components + limit:
            return limit, window
        return limit, 0

    def _settle(self) -> None:
        """The scheduled solve: truncate the pending covariance to
        ``p+q`` eigenpairs in the state."""
        st = self._state
        st.basis, st.eigenvalues = _kernels.top_eigenpairs(
            self._cov, self.n_components + self.extra_components
        )
        self._cov = self._solved = None
        self._rows_since_solve = 0

    def _buffer_warmup(self, x: np.ndarray) -> tuple[int, int]:
        """Buffer the rows of ``x`` that pass the observed-fraction floor,
        gaps and all, until the warm-up is full; return how many rows of
        ``x`` were consumed and how many of those were buffered."""
        frac = np.isfinite(x).sum(axis=1) / x.shape[1]
        kept = np.flatnonzero(frac >= max(self.min_observed_fraction, 1e-12))
        kept = kept[: self._buffer.capacity - self._buffer.count]
        full = self._buffer.count + kept.size == self._buffer.capacity
        consumed = int(kept[-1]) + 1 if full else x.shape[0]
        self.n_skipped += consumed - kept.size
        self._buffer.extend(x[kept])
        if full:
            self._initialize()
        return consumed, int(kept.size)

    def _initialize(self) -> None:
        batch = self._buffer.view()
        gaps = ~np.isfinite(batch)
        if gaps.any():
            # No basis yet: patch each gap with its column's median over
            # the whole buffer, so no row's patch depends on the order the
            # rows came in (0 for a column with nothing observed).
            med = median(np.where(gaps, np.nan, batch), skip_nan=True)
            batch = np.where(gaps, np.nan_to_num(med), batch)
        k = self.n_components + self.extra_components
        state = Eigensystem.from_batch(batch, k)
        if self.robust_init or self._captured(batch, state):
            state = self._robust_batch_state(batch, k, state)
        self._state = state
        self._buffer.clear()
        self._calibrate_rho(self._state.dim)

    def _captured(self, batch: np.ndarray, plain: Eigensystem) -> bool:
        """Whether a few gross warm-up rows carry a plain eigen-direction:
        its robust eigenvalue is below ``_CAPTURE_RATIO`` of the plain
        one."""
        lam, _ = robust_eigenvalues(batch, plain.basis, plain.mean, self.delta)
        return bool(np.any(lam < _CAPTURE_RATIO * plain.eigenvalues))

    def _calibrate_rho(self, dim: int) -> None:
        """Fix the rho-function for dimensionality ``dim`` (idempotent)
        and, with it, the outlier threshold."""
        if self._rho is None:
            dof = max(dim - self.n_components, 1)
            family = (
                self._rho_spec if isinstance(self._rho_spec, str)
                else "bisquare"
            )
            c2 = (
                self._rho_c2
                if self._rho_c2 is not None
                else calibrate_c2(self.delta, dof, family)
            )
            self._rho = make_rho(family, c2=c2)
        self._outlier_cut = self.outlier_threshold()

    def adopt_state(self, state: Eigensystem) -> None:
        """Install ``state`` on a *fresh* (uninitialized) estimator.

        The cross-process restart path: a respawned worker holds a brand
        new estimator and a checkpointed eigensystem.  Unlike
        :meth:`replace_state` (which requires prior initialization), this
        performs the initialization side effects itself — calibrating the
        rho-function for the state's dimensionality and discarding any
        partial warm-up buffer — so streaming resumes exactly where the
        snapshot left off.
        """
        if self._state is not None:
            self.replace_state(state)
            return
        self._state = state.copy()
        self._buffer.clear()
        self._calibrate_rho(self._state.dim)

    def _robust_batch_state(
        self, batch: np.ndarray, k: int, plain: Eigensystem
    ) -> Eigensystem:
        """Maronna batch-robust warm start (see ``robust_init``); ``plain``
        is the plain SVD fit of the same ``batch``."""
        n = batch.shape[0]
        fit = BatchRobustPCA(k, delta=self.delta).fit(batch)
        # Exact-fit degeneracy guard: with n ≲ 2k a k-plane can
        # interpolate ≥ (1-δ) of the points, collapsing the M-scale to 0
        # (no positive solution of eq. 5).  The plain SVD init is the
        # safe fallback there.
        if fit.scale_ <= 1e-9 * max(plain.scale, 1e-300):
            return plain
        state = fit.to_eigensystem()
        # A warm-up outlier can hide *inside* the k-plane (zero residual,
        # full weight) when k exceeds the true rank, poisoning one
        # component with a huge eigenvalue.  Re-estimate each eigenvalue
        # as the paper's §II-B robust eigenvalue, which collapses a
        # direction supported by a lone outlier down to the inlier
        # variance there.  The hidden outlier also drags the weighted mean
        # along its direction; fold the projection medians back into the
        # location estimate.
        lam, med = robust_eigenvalues(batch, state.basis, state.mean, self.delta)
        state.mean = state.mean + state.basis @ med
        order = np.argsort(lam)[::-1]
        state.basis = state.basis[:, order]
        state.eigenvalues = np.clip(lam[order], 1e-12, None)
        # Seed the running sums in the recursion's own units: v and q
        # accumulate W-scale weights and weighted squared residuals.
        y = batch - fit.mean_
        resid = y - (y @ fit.components_.T) @ fit.components_
        r2 = np.sum(resid * resid, axis=1)
        state.sum_count = float(n)
        state.sum_weight = float(np.sum(fit.weights_))
        state.sum_weighted_r2 = float(np.sum(fit.weights_ * r2))
        state.n_seen = n
        state.n_since_sync = n
        return state

    def _update_initialized(self, x: np.ndarray) -> UpdateResult | None:
        st = self._state
        rho = self._rho
        assert st is not None and rho is not None
        if x.shape != (st.dim,):
            raise ValueError(f"expected vector of dim {st.dim}, got {x.shape}")

        p = self.n_components
        basis_p = st.basis[:, :p]
        basis_extra = st.basis[:, p:]

        # --- gap handling -------------------------------------------------
        n_filled = 0
        mask = np.isfinite(x)
        if not np.all(mask):
            if not self.handle_gaps:
                raise ValueError(
                    "observation contains NaN but handle_gaps=False"
                )
            frac = float(np.count_nonzero(mask)) / x.size
            if frac < max(self.min_observed_fraction, 1e-12):
                self.n_skipped += 1
                return None
            fill: GapFillResult = fill_from_basis(x, st.mean, basis_p)
            x = fill.filled
            n_filled = fill.n_filled

        # --- residual and robust weights (against the previous state) ----
        y_prev = x - st.mean
        if n_filled:
            r2 = estimate_residual_norm2(
                y_prev, mask, basis_p, basis_extra, self.gap_residual_mode
            )
        else:
            r = y_prev - basis_p @ (basis_p.T @ y_prev)
            r2 = float(r @ r)
        scale_prev = st.scale if st.scale > 0 else 1.0
        t = r2 / scale_prev
        w = float(rho.weight(t))
        wstar = float(rho.wstar(t))
        is_outlier = t >= self._outlier_cut
        if is_outlier:
            self.n_outliers += 1

        # --- running sums and blending coefficients (eqs. 12-14) ---------
        u_new = self.alpha * st.sum_count + 1.0
        v_new = self.alpha * st.sum_weight + w
        q_new = self.alpha * st.sum_weighted_r2 + w * r2
        gamma3 = self.alpha * st.sum_count / u_new

        # --- location (eq. 9) ---------------------------------------------
        if v_new > 0.0:
            one_minus_gamma1 = w / v_new
            st.mean = st.mean + one_minus_gamma1 * (x - st.mean)

        # --- covariance (eq. 10, rewritten without the 1/r² singularity) --
        if q_new > 0.0 and w > 0.0 and r2 > 0.0:
            gamma2 = self.alpha * st.sum_weighted_r2 / q_new
            coeff = w * scale_prev / q_new
            y = x - st.mean
            k = p + self.extra_components
            st.basis, st.eigenvalues = rank_one_update(
                st.basis, st.eigenvalues, y, gamma2, coeff, k
            )

        # --- scale (eq. 11) -------------------------------------------------
        st.scale = gamma3 * st.scale + (1.0 - gamma3) * wstar * r2 / self.delta

        st.sum_count = u_new
        st.sum_weight = v_new
        st.sum_weighted_r2 = q_new
        st.n_seen += 1
        st.n_since_sync += 1
        return UpdateResult(
            weight=w,
            scaled_residual=t,
            residual_norm2=r2,
            is_outlier=is_outlier,
            n_filled=n_filled,
        )

    def _update_block_initialized(
        self, x: np.ndarray, offset: int, window: int
    ) -> BlockUpdateResult:
        """One rank-``k`` robust update over a block whose first row is
        row ``offset`` of the block passed to :meth:`update_block`.

        Unrolls the running sums of eqs. 12–14 in closed form (per-row
        decay weights ``α^{k-j}``), vectorizes gap filling, residual
        computation, and the ρ-weighting, and performs a single
        rank-``k`` eigensolve — or, with ``window > 0`` (the covariance
        route, see :meth:`_chunk_limits`), folds the block into the
        pending covariance and solves once ``window`` rows have gone in.
        Residuals/weights are evaluated against the last solved basis
        and the mean/covariance are blended once per block — the
        per-block forgetting approximation documented in
        docs/performance.md (exact in the α=1, no-truncation-loss limit).

        The interpreter work between the BLAS calls holds the GIL, so it
        is kept to a budget (``tests/test_robust.py`` counts it): beyond
        this method, a clean chunk calls into ``repro`` only for the
        residuals, the fused ρ-weights and the rank-``k`` update.  The
        update is entered below the checks of the public
        :func:`~repro.core.lowrank.rank_k_update`: its arguments are
        valid by construction here.
        """
        st = self._state
        rho = self._rho
        assert st is not None and rho is not None
        self._solved = None
        d = st.mean.shape[0]
        if x.shape[1] != d:
            raise ValueError(
                f"expected vectors of dim {d}, got dim {x.shape[1]}"
            )

        p = self.n_components
        # Contiguous once: a column slice of the (d, p+q) basis is not,
        # and the kernels below all want it.
        basis_p = np.ascontiguousarray(st.basis[:, :p])
        basis_extra = st.basis[:, p:]

        # --- gap handling (vectorized over the gappy rows) ---------------
        mask = np.isfinite(x)
        n_skipped = 0
        n_filled = 0
        n_gap_rows = 0
        kept_idx = np.arange(offset, offset + x.shape[0], dtype=np.int64)
        if not mask.all():
            if not self.handle_gaps:
                raise ValueError(
                    "observation contains NaN but handle_gaps=False"
                )
            frac = mask.sum(axis=1) / d
            keep = frac >= max(self.min_observed_fraction, 1e-12)
            n_skipped = int(np.count_nonzero(~keep))
            if n_skipped:
                self.n_skipped += n_skipped
                x = x[keep]
                mask = mask[keep]
                kept_idx = kept_idx[keep]
                if x.shape[0] == 0:
                    return BlockUpdateResult.empty(
                        n_skipped=n_skipped, n_gap_rows=n_skipped
                    )
            fill = fill_block_from_basis(x, st.mean, basis_p, mask=mask)
            x = fill.filled
            n_filled = fill.n_filled
            gappy_rows = fill.gappy_rows
            # A skipped row is gappy by construction (a complete row
            # always passes the observed-fraction floor).
            n_gap_rows = n_skipped + int(gappy_rows.size)
        k = x.shape[0]

        # --- residuals and robust weights (against the last solved basis)
        y = x - st.mean
        r2 = _kernels.residual_norm2_block(y, basis_p)
        if n_filled:
            r2[gappy_rows] = estimate_residual_norm2_block(
                y[gappy_rows], mask[gappy_rows], basis_p, basis_extra,
                self.gap_residual_mode,
            )
        scale_prev = st.scale if st.scale > 0 else 1.0
        t = r2 / scale_prev
        w, wstar = rho.block_weights(t)
        is_outlier = t >= self._outlier_cut
        self.n_outliers += int(np.count_nonzero(is_outlier))

        # --- running sums, unrolled in closed form (eqs. 12-14) -----------
        a = self.alpha
        if a >= 1.0:
            pw = np.ones(k)
            decay_k = 1.0
        else:
            pw = a ** np.arange(k - 1, -1, -1, dtype=np.float64)
            decay_k = float(a ** k)
        pww = pw * w
        u_new = decay_k * st.sum_count + float(pw.sum())
        v_new = decay_k * st.sum_weight + float(pww.sum())
        q_new = decay_k * st.sum_weighted_r2 + float(pww @ r2)
        gamma3 = decay_k * st.sum_count / u_new

        # --- location (block form of eq. 9) -------------------------------
        if v_new > 0.0:
            shift = (pww @ y) / v_new
            st.mean = st.mean + shift
            y -= shift          # re-centre on the new mean, in place

        # --- covariance (eq. 10) --------------------------------------------
        if q_new > 0.0 and np.any(w * r2 > 0.0):
            gamma2 = decay_k * st.sum_weighted_r2 / q_new
            coeff = pww * (scale_prev / q_new)
            if window:
                # C = γ2·C + Ysᵀ·Ys on the untruncated covariance; the
                # eigensolve waits for the window to fill.
                cov = self._cov
                if cov is None:
                    lam = np.clip(st.eigenvalues, 0.0, None)
                    cov = (st.basis * (gamma2 * lam)) @ st.basis.T
                else:
                    cov *= gamma2
                ys = y * np.sqrt(coeff)[:, None]
                cov += ys.T @ ys
                self._cov = cov
                self._rows_since_solve += k
                if self._rows_since_solve >= window:
                    self._settle()
            else:
                st.basis, st.eigenvalues = _rank_k_update(
                    st.basis, st.eigenvalues, y, gamma2, coeff,
                    p + self.extra_components,
                )

        # --- scale (eq. 11, unrolled) --------------------------------------
        st.scale = gamma3 * st.scale + float(pw @ (wstar * r2)) / (
            u_new * self.delta
        )

        st.sum_count = u_new
        st.sum_weight = v_new
        st.sum_weighted_r2 = q_new
        st.n_seen += k
        st.n_since_sync += k
        return BlockUpdateResult(
            weights=w,
            scaled_residuals=t,
            residual_norm2=r2,
            is_outlier=is_outlier,
            n_processed=k,
            n_skipped=n_skipped,
            n_filled=n_filled,
            n_gap_rows=n_gap_rows,
            indices=kept_idx,
        )

    def outlier_threshold(self) -> float:
        """Scaled residual ``t`` at or above which a row is flagged an
        outlier: ``outlier_t`` when given, else the rho family's
        rejection point (``4·c2`` for families that never reject)."""
        if self._outlier_t is not None:
            return self._outlier_t
        rej = self.rho.rejection_point()
        return rej if np.isfinite(rej) else 4.0 * self.rho.c2

    # ------------------------------------------------------------------
    # Synchronization support (Section II-C gate)
    # ------------------------------------------------------------------

    def ready_to_sync(self, factor: float = 1.5) -> bool:
        """The data-driven gate: sync only once the local solution has
        decorrelated from the last shared state, i.e. after more than
        ``factor · N`` new observations with ``N = 1/(1-α)``.

        The paper uses ``factor = 1.5`` as "a good compromise between the
        speed and consistency of eigensystems".  Always ``False`` for
        ``α = 1`` (infinite window never decorrelates).
        """
        if self._state is None:
            return False
        n = self.effective_window
        if not np.isfinite(n):
            return False
        return self._state.n_since_sync > factor * n

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Expansion coefficients on the reported ``p`` components."""
        st = self.state
        y = st.center(x)
        return np.asarray(y) @ st.basis[:, : self.n_components]

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Map ``p``-dim coefficients back to the ambient space."""
        st = self.state
        return (
            np.asarray(z, dtype=np.float64)
            @ st.basis[:, : self.n_components].T
            + st.mean
        )

    def weight_of(self, x: np.ndarray) -> float:
        """Robust weight the current state would assign to ``x``."""
        st = self.state
        y = x - st.mean
        basis_p = st.basis[:, : self.n_components]
        r = y - basis_p @ (basis_p.T @ y)
        t = float(r @ r) / (st.scale if st.scale > 0 else 1.0)
        return float(self.rho.weight(t))
