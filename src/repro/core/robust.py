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

__all__ = ["RobustIncrementalPCA", "RobustEigenvalueEstimator"]


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
        Initialize from a Maronna batch-robust fit of the warm-up buffer
        instead of the paper's plain SVD ("our iteration starts from a
        non-robust set of eigenspectra").  Costs a few extra SVDs once,
        and removes the initial transient that otherwise lets early
        outliers into the eigensystem — valuable when the effective
        window is short (e.g. per-block summaries).
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
        self.n_outliers = 0
        self.n_skipped = 0

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def state(self) -> Eigensystem:
        """Full internal eigensystem (``p + q`` components)."""
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
        updates.
        """
        if self._state is None:
            raise RuntimeError("cannot replace state before initialization")
        if new_state.dim != self._state.dim:
            raise ValueError(
                f"dimension mismatch: {new_state.dim} != {self._state.dim}"
            )
        self._state = new_state.copy()

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def update(self, x: np.ndarray) -> UpdateResult | None:
        """Consume one observation; ``None`` while warming up or skipped."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"update expects a single vector, got {x.shape}")
        if self._state is None:
            self._buffer_warmup(x)
            return None
        return self._update_initialized(x)

    def update_block(self, x: np.ndarray) -> BlockUpdateResult:
        """Consume a ``(k, d)`` block through the vectorized block kernel.

        Warm-up rows are buffered per row (gap patching needs the running
        column medians); every post-initialization row is processed by
        rank-``k`` block updates — vectorized gap filling, residuals,
        robust weighting, and a single eigensolve per block.  For
        ``α < 1`` very large blocks are chunked so the per-block
        forgetting approximation stays within the documented contract
        (see docs/performance.md).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2:
            raise ValueError(f"update_block expects (k, d), got {x.shape}")
        n_buffered = 0
        i = 0
        while self._state is None and i < x.shape[0]:
            skipped_before = self.n_skipped
            self._buffer_warmup(x[i])
            i += 1
            if self.n_skipped == skipped_before:
                n_buffered += 1
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
        limit = self._chunk_limit()
        if n - i <= limit:
            result = self._update_block_initialized(x[i:], i)
        else:
            result = BlockUpdateResult.concat([
                self._update_block_initialized(x[lo : lo + limit], lo)
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

        Routes through :meth:`update_block` — one vectorized rank-``k``
        eigensolve per block instead of a Python loop of rank-one
        updates per row.
        """
        self.update_block(x)
        return self

    fit = partial_fit

    def _chunk_limit(self) -> int:
        """Cap on rows per rank-``k`` eigensolve.

        The block path evaluates residuals/weights against the
        block-start state and applies forgetting per block rather than
        per row; chunking to a fraction of the effective window
        ``N = 1/(1-α)`` (and to an absolute cap that keeps the basis
        fresh) keeps that approximation mild regardless of upstream
        batch size.
        """
        if self.alpha >= 1.0:
            return _MAX_BLOCK_ROWS
        window_cap = max(1, int(0.25 / (1.0 - self.alpha)))
        return min(_MAX_BLOCK_ROWS, window_cap)

    def _buffer_warmup(self, x: np.ndarray) -> None:
        mask = np.isfinite(x)
        frac = float(np.count_nonzero(mask)) / max(x.size, 1)
        if frac < max(self.min_observed_fraction, 1e-12):
            self.n_skipped += 1
            return
        if not np.all(mask):
            # No basis yet: patch warm-up gaps with the column median of
            # the buffered observed values (falls back to 0).  Buffered
            # rows are themselves already patched, hence finite.
            x = x.copy()
            if self._buffer.count:
                col_med = np.median(self._buffer.view(), axis=0)
            else:
                col_med = np.zeros_like(x)
            x[~mask] = col_med[~mask]
        self._buffer.append(np.asarray(x, dtype=np.float64))
        if self._buffer.is_full:
            self._initialize()

    def _initialize(self) -> None:
        batch = self._buffer.view()
        k = self.n_components + self.extra_components
        if self.robust_init:
            self._state = self._robust_batch_state(batch, k)
        else:
            self._state = Eigensystem.from_batch(batch, k)
        self._buffer.clear()
        self._calibrate_rho(self._state.dim)

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

    def _robust_batch_state(self, batch: np.ndarray, k: int) -> Eigensystem:
        """Maronna batch-robust warm start (see ``robust_init``)."""
        from .batch import BatchRobustPCA  # local: avoid import cycle

        n = batch.shape[0]
        fit = BatchRobustPCA(k, delta=self.delta).fit(batch)
        # Exact-fit degeneracy guard: with n ≲ 2k a k-plane can
        # interpolate ≥ (1-δ) of the points, collapsing the M-scale to 0
        # (no positive solution of eq. 5).  The plain SVD init is the
        # safe fallback there.
        plain = Eigensystem.from_batch(batch, k)
        if fit.scale_ <= 1e-9 * max(plain.scale, 1e-300):
            return plain
        state = fit.to_eigensystem()
        # A warm-up outlier can hide *inside* the k-plane (zero residual,
        # full weight) when k exceeds the true rank, poisoning one
        # component with a huge eigenvalue.  Re-estimate each eigenvalue
        # as the paper's §II-B robust scatter — the M-scale of the data's
        # projections onto that eigenvector — which collapses a direction
        # supported by a lone outlier down to the inlier variance there.
        from .batch import mscale_fixed_point

        rho1 = make_rho("bisquare", c2=calibrate_c2(self.delta, 1))
        proj = (batch - state.mean) @ state.basis
        # The hidden outlier also drags the weighted mean along its
        # direction; re-center each direction at the projection median
        # (and fold the correction back into the location estimate).
        med = np.median(proj, axis=0)
        state.mean = state.mean + state.basis @ med
        centered2 = (proj - med) ** 2
        lam = np.array(
            [
                mscale_fixed_point(centered2[:, j], rho1, self.delta)
                for j in range(state.n_components)
            ]
        )
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
        self, x: np.ndarray, offset: int
    ) -> BlockUpdateResult:
        """One rank-``k`` robust update over a block whose first row is
        row ``offset`` of the block passed to :meth:`update_block`.

        Unrolls the running sums of eqs. 12–14 in closed form (per-row
        decay weights ``α^{k-j}``), vectorizes gap filling, residual
        computation, and the ρ-weighting, and performs a single
        rank-``k`` eigensolve.  Residuals/weights are evaluated against
        the block-*start* state and the mean/covariance are blended once
        per block — the per-block forgetting approximation documented in
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

        # --- residuals and robust weights (against the block-start state)
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

        # --- covariance (eq. 10, one rank-k eigensolve) --------------------
        if q_new > 0.0 and np.any(w * r2 > 0.0):
            gamma2 = decay_k * st.sum_weighted_r2 / q_new
            coeff = pww * (scale_prev / q_new)
            k_tot = p + self.extra_components
            st.basis, st.eigenvalues = _rank_k_update(
                st.basis, st.eigenvalues, y, gamma2, coeff, k_tot
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


class RobustEigenvalueEstimator:
    """Streaming robust eigenvalue along a *fixed* basis vector.

    Section II-B: "robust eigenvalues can be computed for any basis
    vectors in a consistent way" by solving the M-scale equation with the
    residual replaced by the projection ``r_n = eᵀ y_n``.  The resulting
    ``σ²`` is a robust estimate of the variance ``λ`` along ``e``, which
    makes scatter comparable across *different* bases (e.g. robust vs
    classical eigenspectra).

    The recursion mirrors eqs. 11 & 14 with ``dof = 1`` calibration.
    """

    def __init__(
        self,
        direction: np.ndarray,
        mean: np.ndarray,
        *,
        alpha: float = 0.999,
        delta: float = 0.5,
        rho: RhoFunction | None = None,
    ) -> None:
        self.direction = np.asarray(direction, dtype=np.float64)
        norm = float(np.linalg.norm(self.direction))
        if norm <= 0:
            raise ValueError("direction must be a nonzero vector")
        self.direction = self.direction / norm
        self.mean = np.asarray(mean, dtype=np.float64)
        if self.mean.shape != self.direction.shape:
            raise ValueError("mean and direction must have the same shape")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        self.alpha = float(alpha)
        self.delta = float(delta)
        self.rho = rho if rho is not None else make_rho(
            "bisquare", c2=calibrate_c2(delta, dof=1)
        )
        self.scale = 0.0
        self.sum_count = 0.0
        self.n_seen = 0

    @property
    def eigenvalue(self) -> float:
        """The current robust λ estimate along the direction."""
        return self.scale

    def update(self, x: np.ndarray) -> float:
        """Consume one observation, return the projection used."""
        proj = float(self.direction @ (np.asarray(x, np.float64) - self.mean))
        r2 = proj * proj
        if self.n_seen == 0:
            # Seed the scale with the first squared projection (any
            # positive seed works; the fixed point forgets it).
            self.scale = max(r2, 1e-12)
        t = r2 / self.scale if self.scale > 0 else 0.0
        wstar = float(self.rho.wstar(t))
        u_new = self.alpha * self.sum_count + 1.0
        gamma3 = self.alpha * self.sum_count / u_new
        self.scale = gamma3 * self.scale + (1 - gamma3) * wstar * r2 / self.delta
        self.sum_count = u_new
        self.n_seen += 1
        return proj
