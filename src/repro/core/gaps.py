"""Missing-entry ("gappy") handling — paper Section II-D.

Real survey spectra have gaps: random dropped snippets, and systematic
holes that correlate with physics (a fixed observed wavelength range maps
to different rest-frame ranges at different redshifts).  Two problems
follow:

1.  Incomplete vectors cannot be normalized or projected directly.  The
    fix (after Everson & Sirovich 1995; Connolly & Szalay 1999) is to
    *patch* the gaps with an unbiased reconstruction from the current best
    eigenbasis — which the streaming algorithm has on hand at all times, so
    no extra passes over the data are needed.
2.  Patching artificially zeroes the residual in the patched bins, so
    gappy vectors would receive inflated robust weights.  The paper's fix
    is to carry ``q`` extra eigenvectors beyond the ``p`` retained ones and
    estimate the missing-bin residual from the difference between the
    ``p``- and ``(p+q)``-term reconstructions.

Gaps are represented as NaN entries throughout this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as _kernels
from .eigensystem import Eigensystem

__all__ = [
    "observed_mask",
    "has_gaps",
    "fill_from_basis",
    "fill_block_from_basis",
    "GapFillResult",
    "BlockGapFillResult",
    "GapFiller",
    "corrected_residual_norm2",
    "estimate_residual_norm2",
    "estimate_residual_norm2_block",
    "iterative_gap_fill",
    "GAP_RESIDUAL_MODES",
]


def observed_mask(x: np.ndarray) -> np.ndarray:
    """Boolean mask of observed (finite) entries of ``x``."""
    return np.isfinite(np.asarray(x))


def has_gaps(x: np.ndarray) -> bool:
    """Whether ``x`` contains any missing (non-finite) entries."""
    return not bool(np.all(np.isfinite(np.asarray(x))))


@dataclass(frozen=True)
class GapFillResult:
    """Outcome of patching one observation.

    Attributes
    ----------
    filled:
        The completed vector (a fresh array; the input is not modified).
    mask:
        Boolean mask of the *originally observed* entries.
    n_filled:
        Number of entries that were patched.
    coefficients:
        Expansion coefficients ``z`` used for the reconstruction (empty
        when the basis had no vectors and the mean alone was used).
    """

    filled: np.ndarray
    mask: np.ndarray
    n_filled: int
    coefficients: np.ndarray


def fill_from_basis(
    x: np.ndarray,
    mean: np.ndarray,
    basis: np.ndarray,
    *,
    ridge: float = 1e-8,
) -> GapFillResult:
    """Patch missing entries of ``x`` using ``mean`` and an eigenbasis.

    Solves the masked least-squares problem

    .. math::

        z^\\star = \\arg\\min_z \\lVert E_{obs} z - (x - \\mu)_{obs}
        \\rVert^2 + \\text{ridge}\\,\\lVert z\\rVert^2

    and fills ``x_miss ← (µ + E z*)_miss``.  The ridge term keeps the
    normal equations well-posed when a gap removes most of the support of
    some eigenvector (``E_obs`` nearly rank-deficient), which happens for
    heavily redshift-shifted spectra.

    Vectors with *no* observed entries are filled entirely with the mean.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    if x.shape != mean.shape:
        raise ValueError(f"x shape {x.shape} != mean shape {mean.shape}")
    mask = np.isfinite(x)
    n_miss = int(np.count_nonzero(~mask))
    if n_miss == 0:
        return GapFillResult(x.copy(), mask, 0, np.zeros(basis.shape[1]))

    filled = x.copy()
    k = basis.shape[1]
    if k == 0 or not np.any(mask):
        filled[~mask] = mean[~mask]
        return GapFillResult(filled, mask, n_miss, np.zeros(k))

    e_obs = basis[mask]
    y_obs = x[mask] - mean[mask]
    # Normal equations on the small k x k system; ridge-regularized.
    gram = e_obs.T @ e_obs
    gram[np.diag_indices_from(gram)] += ridge
    z = np.linalg.solve(gram, e_obs.T @ y_obs)
    filled[~mask] = mean[~mask] + basis[~mask] @ z
    return GapFillResult(filled, mask, n_miss, z)


@dataclass(frozen=True)
class BlockGapFillResult:
    """Outcome of patching a ``(k, d)`` block.

    Attributes
    ----------
    filled:
        The completed block (fresh array; the input is untouched).
    mask:
        ``(k, d)`` boolean mask of originally observed entries.
    n_filled_per_row:
        Number of patched entries per row, shape ``(k,)``.
    gappy_rows:
        Indices of rows that had at least one gap.
    """

    filled: np.ndarray
    mask: np.ndarray
    n_filled_per_row: np.ndarray
    gappy_rows: np.ndarray

    @property
    def n_filled(self) -> int:
        """Total entries patched across the block."""
        return int(self.n_filled_per_row.sum())


def fill_block_from_basis(
    x: np.ndarray,
    mean: np.ndarray,
    basis: np.ndarray,
    *,
    ridge: float = 1e-8,
    mask: np.ndarray | None = None,
) -> BlockGapFillResult:
    """Patch missing entries of a ``(k, d)`` block with the eigenbasis.

    Complete rows are passed through untouched (one vectorized copy);
    the gappy rows solve their masked ridge least-squares problems — the
    same normal equations as :func:`fill_from_basis`, one small system
    per row because the masks differ — together, in the
    :func:`repro.core.kernels.fill_gappy_rows` kernel.  ``mask`` is the
    block's ``np.isfinite(x)`` when the caller already has it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (k, d) block, got shape {x.shape}")
    mean = np.ascontiguousarray(mean, dtype=np.float64)
    basis = np.ascontiguousarray(basis, dtype=np.float64)
    if mean.shape != (x.shape[1],):
        raise ValueError(
            f"mean shape {mean.shape} does not match block dimension "
            f"{x.shape[1]}"
        )
    if basis.ndim != 2 or basis.shape[0] != x.shape[1]:
        raise ValueError(
            f"basis shape {basis.shape} does not match block dimension "
            f"{x.shape[1]}"
        )
    if mask is None:
        mask = np.isfinite(x)
    gappy = np.nonzero(~mask.all(axis=1))[0]
    filled = x.copy()
    n_filled_per_row = np.zeros(x.shape[0], dtype=np.int64)
    if gappy.size:
        n_filled_per_row[gappy] = _kernels.fill_gappy_rows(
            filled, mask, mean, basis, float(ridge), gappy
        )
    return BlockGapFillResult(
        filled=filled,
        mask=mask,
        n_filled_per_row=n_filled_per_row,
        gappy_rows=gappy,
    )


class GapFiller:
    """Stateful patcher bound to a live (mutating) :class:`Eigensystem`.

    The streaming algorithm fills each gappy vector with the *current*
    eigenbasis as it arrives ("avoiding the need for multiple iterations
    through the entire dataset", Section II-D), so the filler holds a
    reference — not a copy — of the engine's state.
    """

    def __init__(self, state: Eigensystem, *, ridge: float = 1e-8) -> None:
        self._state = state
        self.ridge = float(ridge)
        self.n_vectors_filled = 0
        self.n_entries_filled = 0

    def rebind(self, state: Eigensystem) -> None:
        """Point the filler at a new state object (e.g. after a sync)."""
        self._state = state

    def fill(self, x: np.ndarray) -> GapFillResult:
        """Patch one observation with the bound eigensystem."""
        result = fill_from_basis(
            x, self._state.mean, self._state.basis, ridge=self.ridge
        )
        if result.n_filled:
            self.n_vectors_filled += 1
            self.n_entries_filled += result.n_filled
        return result


def corrected_residual_norm2(
    y: np.ndarray,
    mask: np.ndarray,
    basis_p: np.ndarray,
    basis_extra: np.ndarray,
) -> float:
    """Residual ``r²`` of a patched vector, corrected for zeroed gap bins.

    ``y`` is the *centered, patched* observation.  The residual over the
    observed bins is computed directly against the ``p``-term basis; the
    residual in the missing bins — which patching forced to ~0 — is
    estimated as the difference between the ``(p+q)``- and ``p``-term
    reconstructions there (Section II-D, last paragraph):

    .. math::

        r^2 \\approx \\lVert (I - E_p E_p^T) y \\rVert^2_{obs}
        + \\lVert E_{+q} E_{+q}^T y - E_p E_p^T y \\rVert^2_{miss} .

    Parameters
    ----------
    y:
        Centered patched vector, shape ``(d,)``.
    mask:
        Boolean mask of originally observed entries.
    basis_p:
        The retained basis ``E_p``, shape ``(d, p)``.
    basis_extra:
        The extra higher-order vectors (columns ``p+1 … p+q``), shape
        ``(d, q)``; may be empty, in which case only the observed-bin
        residual is returned.
    """
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if y.shape != mask.shape:
        raise ValueError(f"y shape {y.shape} != mask shape {mask.shape}")
    recon_p = basis_p @ (basis_p.T @ y)
    resid_obs = y[mask] - recon_p[mask]
    r2 = float(resid_obs @ resid_obs)
    if basis_extra.size and np.any(~mask):
        # Higher-order reconstruction differs from the p-term one exactly by
        # the extra components' contribution.
        extra = basis_extra @ (basis_extra.T @ y)
        diff_miss = extra[~mask]
        r2 += float(diff_miss @ diff_miss)
    return r2


#: Residual-estimation modes for gap-filled observations.
#:
#: * ``"observed"`` — no correction: residual over observed bins only
#:   (what the paper warns against — gappier spectra get inflated
#:   weights).
#: * ``"higher-order"`` — the paper's §II-D fix: add the missing-bin
#:   difference between the ``(p+q)``- and ``p``-term reconstructions.
#: * ``"extrapolate"`` — scale the observed residual by ``d / n_obs``,
#:   the unbiased missing-at-random extrapolation of the noise floor.
#: * ``"hybrid"`` — both: extrapolated noise floor plus the structured
#:   higher-order term (our extension; strictly dominates each alone
#:   when both structure and noise are present).
GAP_RESIDUAL_MODES = ("observed", "higher-order", "extrapolate", "hybrid")


def estimate_residual_norm2(
    y: np.ndarray,
    mask: np.ndarray,
    basis_p: np.ndarray,
    basis_extra: np.ndarray,
    mode: str = "higher-order",
) -> float:
    """Residual ``r²`` of a patched, centered vector under a gap mode.

    See :data:`GAP_RESIDUAL_MODES` for the semantics.  ``basis_extra``
    may be empty, in which case the higher-order term is zero.
    """
    if mode not in GAP_RESIDUAL_MODES:
        raise ValueError(
            f"unknown gap residual mode {mode!r}; "
            f"choose from {GAP_RESIDUAL_MODES}"
        )
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if y.shape != mask.shape:
        raise ValueError(f"y shape {y.shape} != mask shape {mask.shape}")
    recon_p = basis_p @ (basis_p.T @ y)
    resid_obs = y[mask] - recon_p[mask]
    r2_obs = float(resid_obs @ resid_obs)
    n_obs = int(np.count_nonzero(mask))
    if n_obs == 0:
        return 0.0

    if mode == "observed":
        return r2_obs
    if mode == "extrapolate":
        return r2_obs * (y.size / n_obs)

    structured = 0.0
    if basis_extra.size and np.any(~mask):
        extra = basis_extra @ (basis_extra.T @ y)
        diff_miss = extra[~mask]
        structured = float(diff_miss @ diff_miss)
    if mode == "higher-order":
        return r2_obs + structured
    # hybrid
    return r2_obs * (y.size / n_obs) + structured


def estimate_residual_norm2_block(
    y: np.ndarray,
    mask: np.ndarray,
    basis_p: np.ndarray,
    basis_extra: np.ndarray,
    mode: str = "higher-order",
) -> np.ndarray:
    """Block form of :func:`estimate_residual_norm2`: one ``r²`` per row.

    ``y`` is a ``(g, d)`` block of patched, centered rows and ``mask``
    the matching observed-entry masks; row ``i`` of the result equals
    ``estimate_residual_norm2(y[i], mask[i], ...)``.
    """
    if mode not in GAP_RESIDUAL_MODES:
        raise ValueError(
            f"unknown gap residual mode {mode!r}; "
            f"choose from {GAP_RESIDUAL_MODES}"
        )
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if y.ndim != 2 or y.shape != mask.shape:
        raise ValueError(
            f"expected matching (g, d) y and mask, got {y.shape} and "
            f"{mask.shape}"
        )
    resid_obs = np.where(mask, y - (y @ basis_p) @ basis_p.T, 0.0)
    r2 = np.einsum("ij,ij->i", resid_obs, resid_obs)
    n_obs = np.count_nonzero(mask, axis=1)
    if mode in ("extrapolate", "hybrid"):
        r2 *= y.shape[1] / np.maximum(n_obs, 1)
    if mode in ("higher-order", "hybrid") and basis_extra.size:
        diff_miss = np.where(
            mask, 0.0, (y @ basis_extra) @ basis_extra.T
        )
        r2 += np.einsum("ij,ij->i", diff_miss, diff_miss)
    r2[n_obs == 0] = 0.0
    return r2


def iterative_gap_fill(
    x: np.ndarray,
    n_components: int,
    *,
    max_iter: int = 50,
    tol: float = 1e-8,
    ridge: float = 1e-8,
) -> tuple[np.ndarray, Eigensystem, int]:
    """Offline iterative gap filling (Connolly & Szalay 1999; Yip 2004).

    The pre-streaming state of the art §II-D cites: "a final eigenbasis
    may be calculated iteratively by continuously filling the gaps with
    the previous eigenbasis until convergence is reached".  Alternate

    1. fill every gap from the current mean/eigenbasis
       (:func:`fill_from_basis` per row);
    2. batch PCA on the completed matrix;

    until the filled values stop moving.  This needs *multiple passes
    over the entire dataset* — exactly the cost the paper's streaming
    algorithm avoids by filling each vector once, on arrival, with the
    running basis.  Provided as the offline reference for the gap
    experiments.

    Parameters
    ----------
    x:
        ``(n, d)`` data with NaN gaps.
    n_components:
        Rank of the iterated eigenbasis.

    Returns
    -------
    (filled, eigensystem, n_iter):
        The completed matrix, the converged batch eigensystem, and the
        number of passes performed.
    """
    from .batch import BatchPCA  # local: avoid import cycle

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) data, got shape {x.shape}")
    mask = np.isfinite(x)
    if not mask.any(axis=1).all():
        raise ValueError("every row needs at least one observed entry")

    # Pass 0: fill with column means of the observed entries.
    col_mean = np.where(
        mask.any(axis=0),
        np.nansum(np.where(mask, x, 0.0), axis=0)
        / np.maximum(mask.sum(axis=0), 1),
        0.0,
    )
    filled = np.where(mask, x, col_mean)

    pca = BatchPCA(n_components).fit(filled)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        previous = filled[~mask].copy() if (~mask).any() else None
        basis = pca.components_.T
        new_filled = filled.copy()
        for i in np.nonzero(~mask.all(axis=1))[0]:
            row = np.where(mask[i], x[i], np.nan)
            new_filled[i] = fill_from_basis(
                row, pca.mean_, basis, ridge=ridge
            ).filled
        filled = new_filled
        pca = BatchPCA(n_components).fit(filled)
        if previous is None:
            break
        drift = float(np.max(np.abs(filled[~mask] - previous)))
        scale = float(np.max(np.abs(filled))) or 1.0
        if drift <= tol * scale:
            break
    return filled, pca.to_eigensystem(), n_iter
