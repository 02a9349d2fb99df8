"""The block kernels of the streaming hot path.

The hot path spends its time in three numerical primitives: the rank-``k``
covariance update (one ``eigh`` of order ``min(d, m+k)`` — the ``d × d``
covariance for narrow rows, else the Gram of the skinny factor and the
rotation back), the per-row residual norms of a block, and gap patching.
Each is written once, in vectorised numpy, so the O(d·k) work runs inside
BLAS/LAPACK calls (which release the GIL) and the interpreter only
strings them together.  ``tests/test_kernels.py`` pins every kernel at
1e-10 against the per-row reference in :mod:`repro.core.lowrank`,
:mod:`repro.core.gaps` and :class:`~repro.core.eigensystem.Eigensystem`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jit_status",
    "rank_k_core",
    "top_eigenpairs",
    "residual_norm2_block",
    "fill_gappy_rows",
]

#: Relative threshold below which Gram eigenvalues (squared singular
#: values of the factor) are treated as 0; :mod:`repro.core.lowrank`
#: applies the same cut.
RELATIVE_RANK_TOL = 1e-12

#: Element budget of the ``(g, k, d)`` masked-basis temporary in the
#: gap fill (32 MiB of float64); larger gappy sets go in slabs.
_FILL_SLAB_ELEMS = 1 << 22


def jit_status() -> dict:
    """The ``env.jit`` stamp of benchmark payloads.

    A constant: there is no compiled path, and the four keys (with these
    values) are what every recorded payload carries.
    """
    return {
        "numba_available": False,
        "enabled": False,
        "requested": "auto",
        "numba_version": None,
    }


def top_eigenpairs(a, p):
    """Top-``p`` eigenpairs of the symmetric matrix ``a``, descending.

    One ``eigh``; eigenpairs under the ``RELATIVE_RANK_TOL`` cut are
    dropped.  Returns ``(vectors, values)``, the vectors as ``eigh``
    gives them — orthonormal already.  Both routes of
    :func:`rank_k_core` end here, and so does the robust estimator's
    once-per-window solve of its pending ``d × d`` covariance.
    """
    w_asc, v_asc = np.linalg.eigh(a)
    w = np.maximum(w_asc[::-1], 0.0)
    keep = 0
    if w[0] > 0.0:
        keep = int(np.count_nonzero(w > w[0] * RELATIVE_RANK_TOL))
    k_out = min(p, keep)
    return np.ascontiguousarray(v_asc[:, : -k_out - 1 : -1]), w[:k_out].copy()


def rank_k_core(basis, lam, yw, gamma, p):
    """Top-``p`` eigensystem of ``gamma·E Λ Eᵀ + Yw Ywᵀ`` (main path).

    ``basis`` is ``(d, m)`` with ``m >= 1`` orthonormal columns,
    ``lam`` the ``(m,)`` non-negative eigenvalues, ``yw`` the ``(d, k)``
    weighted block with ``k >= 1`` columns, ``gamma > 0``.  Callers
    handle the degenerate cases (empty basis, zero gamma, empty block)
    before calling — see :func:`repro.core.lowrank.rank_k_update`.

    The update is ``A Aᵀ`` with ``A = [E·sqrt(γΛ), Yw]`` (``d × (m+k)``).
    ``A Aᵀ`` (``d × d``) and the Gram ``AᵀA`` (``(m+k) × (m+k)``) share
    their non-zero spectrum, so one ``eigh`` of whichever is smaller —
    order ``min(d, m+k)`` — gives the update, by :func:`top_eigenpairs`:

    * ``d <= m+k`` (narrow rows): ``C = (E·γΛ)·Eᵀ + Yw Ywᵀ`` is formed
      and its top eigenvectors are the answer — no QR follows.
    * ``d > m+k``: because ``EᵀE = I`` the Gram needs only
      ``Z = Eᵀ Yw`` and ``Ywᵀ Yw``::

          G = [[γΛ, sqrt(γΛ)·Z], [Zᵀ·sqrt(γΛ), Ywᵀ Yw]]

      and ``G = V W Vᵀ`` gives ``U = A V W^{-1/2}`` — the route
      :func:`repro.core.lowrank.eigensystem_of_factor` takes, without
      concatenating ``A`` — followed by the same defensive QR.
    """
    d, m = basis.shape
    n = m + yw.shape[1]
    glam = gamma * lam
    if d <= n:
        return top_eigenpairs((basis * glam) @ basis.T + yw @ yw.T, p)
    s = np.sqrt(glam)
    cross = (basis.T @ yw) * s[:, None]    # (m, k)
    gram = np.zeros((n, n))
    np.fill_diagonal(gram[:m, :m], glam)
    gram[:m, m:] = cross
    gram[m:, :m] = cross.T
    gram[m:, m:] = yw.T @ yw
    v_top, w_top = top_eigenpairs(gram, p)
    if w_top.size == 0:
        return np.zeros((d, 0)), w_top
    v_top /= np.sqrt(w_top)
    # U = A V W^{-1/2}, split by the two column groups of A.
    e_new = basis @ (v_top[:m] * s[:, None]) + yw @ v_top[m:]
    # Defensive re-orthonormalization, mirroring eigensystem_of_factor.
    q_mat, _ = np.linalg.qr(e_new)
    return q_mat, w_top


def residual_norm2_block(y, basis):
    """Per-row squared residual norms ``||y_i - E Eᵀ y_i||²``."""
    proj = y @ basis
    resid = y - proj @ basis.T
    return np.einsum("ij,ij->i", resid, resid)


def fill_gappy_rows(filled, mask, mean, basis, ridge, rows):
    """Patch the listed gappy rows of ``filled`` in place.

    Per row: masked ridge least squares against ``basis`` (the same
    normal equations as :func:`repro.core.gaps.fill_from_basis`), mean
    fill when nothing is observed or the basis is empty.  Returns the
    per-row patched-entry counts for the listed rows.

    All listed rows are patched at once.  With ``M`` the ``(g, d)``
    0/1 mask of the listed rows, row ``i``'s masked normal equations are
    ``G_i = Σ_j M_ij e_j e_jᵀ + ridge·I`` and ``b_i = Σ_j M_ij y_ij e_j``:
    every ``G_i`` comes from one GEMM of the masked basis copies
    ``(g·k, d)`` against ``basis``, every ``b_i`` from one GEMM of the
    zero-filled centered rows, then one stacked solve and one
    ``np.where`` scatter.  A row with nothing observed has ``G = ridge·I``
    and ``b = 0``, so it is mean-filled by the same algebra.  Rows are
    taken in slabs so the ``(g, k, d)`` temporary stays bounded.
    """
    d = filled.shape[1]
    kcomp = basis.shape[1]
    n_filled = np.empty(rows.shape[0], dtype=np.int64)
    slab = max(1, _FILL_SLAB_ELEMS // max(d * kcomp, 1))
    bt = np.ascontiguousarray(basis.T)               # (k, d)
    for lo in range(0, rows.shape[0], slab):
        sel = rows[lo : lo + slab]
        obs = mask[sel]                              # (g, d)
        x = filled[sel]
        n_filled[lo : lo + slab] = d - np.count_nonzero(obs, axis=1)
        if kcomp == 0:
            filled[sel] = np.where(obs, x, mean)
            continue
        g = sel.shape[0]
        masked_bt = obs[:, None, :] * bt             # (g, k, d)
        gram = (masked_bt.reshape(g * kcomp, d) @ basis).reshape(
            g, kcomp, kcomp
        )
        gram.reshape(g, -1)[:, :: kcomp + 1] += ridge    # the diagonals
        rhs = np.where(obs, x - mean, 0.0) @ basis   # (g, k)
        z = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        filled[sel] = np.where(obs, x, mean + z @ bt)
    return n_filled
