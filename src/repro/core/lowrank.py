"""Low-rank eigensystem updates via the Gram-matrix trick.

The heart of the paper's streaming PCA (eqs. 1–3) is the observation that
the updated covariance estimate is always the outer product ``A Aᵀ`` of a
tall, skinny factor ``A`` with only ``p + 1`` columns (or ``2p`` when two
eigensystems are merged).  Its eigensystem can therefore be obtained from
the tiny ``m × m`` Gram matrix ``G = Aᵀ A`` instead of any ``d × d`` object:

.. math::

    G = V W^2 V^T \\;\\Rightarrow\\; A A^T = U W^2 U^T, \\quad
    U = A V W^{-1} .

Per update this costs ``O(d·m² + m³)`` with ``m = p + 1 ≪ d`` — the
"computationally inexpensive algebraic operations" of Section III-A.2.
The block update (:func:`rank_k_update`) solves whichever of ``A Aᵀ`` and
``AᵀA`` is smaller, so nothing larger than the Gram is ever formed in the
streaming path.
"""

from __future__ import annotations

import numpy as np

from . import kernels as _kernels

__all__ = [
    "eigensystem_of_factor",
    "build_update_factor",
    "build_merge_factor",
    "rank_one_update",
    "rank_k_update",
]


def eigensystem_of_factor(
    a: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``p`` eigensystem of ``A Aᵀ`` from the skinny factor ``A``.

    Parameters
    ----------
    a:
        Factor of shape ``(d, m)`` with ``m`` small (typically ``p + 1``).
    p:
        Number of leading eigenpairs to return; capped at the numerical
        rank of ``A``.

    Returns
    -------
    (E, lam):
        ``E`` of shape ``(d, p_eff)`` with orthonormal columns (leading
        eigenvectors of ``A Aᵀ``, descending), ``lam`` of shape
        ``(p_eff,)`` with the corresponding non-negative eigenvalues.
        ``p_eff <= p`` when ``A`` is rank-deficient.

    Notes
    -----
    Uses the symmetric eigendecomposition of the ``m × m`` Gram matrix,
    which is cheaper and no less accurate than an SVD of ``A`` for the
    well-separated spectra encountered here.  Columns associated with
    eigenvalues below ``max(lam) * 1e-12`` are dropped rather than divided
    by a near-zero normalizer.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"factor must be 2-D, got shape {a.shape}")
    d, m = a.shape
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if m == 0:
        return np.zeros((d, 0)), np.zeros(0)

    gram = a.T @ a
    # eigh returns ascending order; flip to descending.
    w, v = np.linalg.eigh(gram)
    w = w[::-1]
    v = v[:, ::-1]

    # Numerical rank cut: eigenvalues of G are squared singular values.
    w = np.clip(w, 0.0, None)
    if w.size and w[0] > 0.0:
        keep = w > w[0] * _kernels.RELATIVE_RANK_TOL
    else:
        keep = np.zeros_like(w, dtype=bool)
    k = min(p, int(np.count_nonzero(keep)))
    if k == 0:
        return np.zeros((d, 0)), np.zeros(0)

    w_top = w[:k]
    v_top = v[:, :k]
    # U = A V W^{-1}; W = sqrt of Gram eigenvalues.
    e = (a @ v_top) / np.sqrt(w_top)
    # Re-orthonormalize defensively: rounding in the Gram route can leave
    # columns ~1e-8 off orthonormal after many thousands of updates.
    e, r = np.linalg.qr(e)
    # QR may flip signs; eigenvalues are invariant so only E's signs change,
    # which is immaterial (eigenvectors are defined up to sign).
    # Diagonal of R should be ~±1; fold its magnitude drift into nothing.
    return e, w_top


def build_update_factor(
    basis: np.ndarray,
    eigenvalues: np.ndarray,
    y: np.ndarray,
    gamma: float,
    new_weight: float,
) -> np.ndarray:
    """Factor ``A`` for the rank-one covariance update (paper eqs. 2–3).

    Encodes ``C ≈ γ·E Λ Eᵀ + new_weight·y yᵀ = A Aᵀ`` with columns

    .. math::

        a_k = e_k \\sqrt{\\gamma \\lambda_k}, \\qquad
        a_{p+1} = y \\sqrt{\\text{new\\_weight}} .

    ``new_weight`` is ``(1 - γ)`` in the classical recursion (eq. 1) and
    ``(1 - γ₂)·σ²/r²`` in the robust recursion (eq. 10).
    """
    basis = np.asarray(basis, dtype=np.float64)
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if basis.ndim != 2:
        raise ValueError(f"basis must be 2-D, got shape {basis.shape}")
    if eigenvalues.shape != (basis.shape[1],):
        raise ValueError(
            f"eigenvalues shape {eigenvalues.shape} does not match basis "
            f"with {basis.shape[1]} columns"
        )
    if y.shape != (basis.shape[0],):
        raise ValueError(
            f"y shape {y.shape} does not match dimension {basis.shape[0]}"
        )
    if gamma < 0.0 or new_weight < 0.0:
        raise ValueError("gamma and new_weight must be non-negative")

    scaled = basis * np.sqrt(gamma * np.clip(eigenvalues, 0.0, None))
    new_col = (y * np.sqrt(new_weight))[:, None]
    return np.concatenate([scaled, new_col], axis=1)


def build_merge_factor(
    basis1: np.ndarray,
    eigenvalues1: np.ndarray,
    basis2: np.ndarray,
    eigenvalues2: np.ndarray,
    gamma1: float,
    gamma2: float,
    mean_columns: np.ndarray | None = None,
) -> np.ndarray:
    """Factor ``A`` for merging two eigensystems (paper eq. 16).

    Encodes ``C ≈ γ₁ E₁Λ₁E₁ᵀ + γ₂ E₂Λ₂E₂ᵀ (+ Σᵢ mᵢmᵢᵀ) = A Aᵀ``.

    ``mean_columns`` (shape ``(d, k)``), when given, appends extra columns
    that carry the mean-shift terms of the *exact* merge (see
    :mod:`repro.core.merge`); the paper's approximation for nearly-equal
    means omits them.
    """
    basis1 = np.asarray(basis1, dtype=np.float64)
    basis2 = np.asarray(basis2, dtype=np.float64)
    if basis1.shape[0] != basis2.shape[0]:
        raise ValueError(
            f"dimension mismatch: {basis1.shape[0]} vs {basis2.shape[0]}"
        )
    if gamma1 < 0.0 or gamma2 < 0.0:
        raise ValueError("merge weights must be non-negative")
    lam1 = np.clip(np.asarray(eigenvalues1, dtype=np.float64), 0.0, None)
    lam2 = np.clip(np.asarray(eigenvalues2, dtype=np.float64), 0.0, None)
    cols = [basis1 * np.sqrt(gamma1 * lam1), basis2 * np.sqrt(gamma2 * lam2)]
    if mean_columns is not None:
        mean_columns = np.asarray(mean_columns, dtype=np.float64)
        if mean_columns.ndim == 1:
            mean_columns = mean_columns[:, None]
        if mean_columns.shape[0] != basis1.shape[0]:
            raise ValueError("mean_columns dimension mismatch")
        cols.append(mean_columns)
    return np.concatenate(cols, axis=1)


def rank_k_update(
    basis: np.ndarray,
    eigenvalues: np.ndarray,
    block: np.ndarray,
    gamma: float,
    weights: np.ndarray,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Block (mini-batch) covariance update: ``k`` observations at once.

    Computes the top-``p`` eigensystem of

    .. math::

        C = \\gamma\\, E \\Lambda E^T + \\sum_{i=1}^{k} c_i\\, y_i y_i^T ,

    where the rows of ``block`` are the (centered) observations ``y_i``
    and ``weights`` carries the non-negative coefficients ``c_i``.  This
    is the sequential Karhunen–Loève block recursion (Ross et al. 2008;
    sklearn's ``IncrementalPCA`` uses the same structure): the eigensolve
    is amortized over the whole block instead of paid per observation.

    Algorithm — one symmetric eigensolve on the smaller side of the
    factor ``A = [E·sqrt(γΛ), Y_w]`` (``C = A Aᵀ``), never materializing
    ``A``; with ``m`` current components and ``k`` live rows:

    * ``d <= m+k``: eigendecompose ``C`` itself (``d x d``), formed as
      ``(E·γΛ)·E^T + Y_w Y_w^T``; its eigenvectors are orthonormal as
      ``eigh`` returns them;
    * ``d > m+k`` — the Gram trick:

      1. project the weighted block on the current basis,
         ``Z = E^T Y_w``;
      2. assemble the ``(m+k) x (m+k)`` Gram matrix ``G = A^T A`` from
         ``γΛ`` (its leading block is diagonal because ``E^T E = I``),
         ``sqrt(γΛ)·Z`` and ``Y_w^T Y_w``;
      3. one symmetric eigensolve ``G = V W V^T``; the leading
         eigenvectors of ``C`` are
         ``U = A V W^{-1/2} = E·sqrt(γΛ)·V_1 + Y_w V_2``, defensively
         re-orthonormalized.

    Either way the result is truncated to ``p`` by the same relative rank
    cut (:func:`repro.core.kernels.rank_k_core`).

    Per block this costs ``O(d·k·min(d, m+k) + min(d, m+k)^3)`` — the
    same flop order as ``k`` rank-one updates, but spent in a handful of
    large GEMMs instead of ``O(k)`` skinny operations, which is where the
    measured speedup comes from (see ``benchmarks/bench_core_update.py``
    and ``docs/performance.md`` §2).

    Rows with zero weight are dropped before any algebra (rejected
    outliers are free, as in the rank-one path).

    Returns
    -------
    (E, lam):
        As :func:`eigensystem_of_factor`: basis ``(d, p_eff)`` and
        eigenvalues ``(p_eff,)``, descending.
    """
    basis = np.asarray(basis, dtype=np.float64)
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    block = np.asarray(block, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"block must be 2-D (k, d), got shape {block.shape}")
    if basis.ndim != 2 or basis.shape[0] != block.shape[1]:
        raise ValueError(
            f"basis shape {basis.shape} does not match block dimension "
            f"{block.shape[1]}"
        )
    if eigenvalues.shape != (basis.shape[1],):
        raise ValueError(
            f"eigenvalues shape {eigenvalues.shape} does not match basis "
            f"with {basis.shape[1]} columns"
        )
    if weights.shape != (block.shape[0],):
        raise ValueError(
            f"weights shape {weights.shape} does not match block with "
            f"{block.shape[0]} rows"
        )
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    if np.any(weights < 0.0):
        raise ValueError("block weights must be non-negative")
    return _rank_k_update(basis, eigenvalues, block, gamma, weights, p)


def _rank_k_update(
    basis: np.ndarray,
    eigenvalues: np.ndarray,
    block: np.ndarray,
    gamma: float,
    weights: np.ndarray,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rank_k_update` without its argument checks.

    For callers whose float64 arguments are valid by construction: the
    robust block step calls this directly, because everything it does
    between BLAS calls holds the GIL and is kept to a call budget.
    """
    live = weights > 0.0
    if not live.all():
        block = block[live]
        weights = weights[live]
    if block.shape[0] == 0:
        # Pure decay: eigenvectors unchanged, eigenvalues scaled.
        return basis.copy(), gamma * np.clip(eigenvalues, 0.0, None)

    lam = np.clip(eigenvalues, 0.0, None)
    # Weighted block as (d, k) columns, written straight into a
    # C-contiguous buffer (no transposed temporary).
    yw = np.empty((block.shape[1], block.shape[0]))
    np.multiply(block.T, np.sqrt(weights), out=yw)
    m = basis.shape[1]
    if m == 0 or gamma == 0.0:
        return eigensystem_of_factor(yw, p)

    # Main path: one kernel covering the assembly, the eigensolve of
    # order min(d, m+k) and, on the Gram route, the rotation back.
    return _kernels.rank_k_core(
        np.ascontiguousarray(basis), lam, yw, float(gamma), int(p)
    )


def rank_one_update(
    basis: np.ndarray,
    eigenvalues: np.ndarray,
    y: np.ndarray,
    gamma: float,
    new_weight: float,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One streaming covariance update: factor build + truncated eigensolve.

    Convenience composition of :func:`build_update_factor` and
    :func:`eigensystem_of_factor`; this is the exact operation performed
    per tuple by the streaming PCA operator.
    """
    a = build_update_factor(basis, eigenvalues, y, gamma, new_weight)
    return eigensystem_of_factor(a, p)
