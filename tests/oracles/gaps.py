"""Offline gap-handling references for the §II-D tests.

The streaming estimator patches each gappy vector once, on arrival, from
the running eigenbasis (:mod:`repro.core.gaps`).  Two references check
it here:

* :func:`corrected_residual_norm2` — the paper's higher-order residual
  correction written out for one vector, term by term, against which the
  vectorised ``estimate_residual_norm2(..., "higher-order")`` is
  compared;
* :func:`iterative_gap_fill` — the pre-streaming, multi-pass fill
  (Connolly & Szalay 1999; Yip 2004) that the paper's one-pass fill
  supersedes.
"""

from __future__ import annotations

import numpy as np

from repro.core import BatchPCA, Eigensystem, fill_from_basis

__all__ = ["corrected_residual_norm2", "iterative_gap_fill"]


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
    running basis.

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
