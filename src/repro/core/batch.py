"""Offline batch PCA baselines.

Two reference estimators used throughout the tests and experiments to
measure what the streaming algorithms converge *to*:

* :class:`BatchPCA` — the classical thin-SVD solution.
* :class:`BatchRobustPCA` — Maronna's (2005) iterative M-scale PCA: the
  fixed point that the paper's streaming recursions (eqs. 9–14) approximate
  online.  Solved by alternating (i) the σ² fixed-point re-evaluation of
  eq. 8, (ii) the weighted location/covariance of eqs. 6–7, and (iii) a
  truncated eigensolve — performed as a thin SVD of the *weight-scaled*
  data matrix, so no ``d × d`` covariance is ever materialized even in the
  batch path (HPC guide: prefer skinny factorizations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import calibrate_c2
from .eigensystem import Eigensystem
from .rho import RhoFunction, make_rho

__all__ = [
    "BatchPCA",
    "BatchRobustPCA",
    "median",
    "mscale_fixed_point",
    "robust_eigenvalues",
]


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D data matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(
            "batch estimators require complete data; patch gaps first "
            "(see repro.core.gaps)"
        )
    return x


@dataclass
class BatchPCA:
    """Classical PCA via thin SVD of the centered data matrix.

    Attributes after :meth:`fit`: ``mean_`` (d,), ``components_`` (p, d)
    rows = eigenvectors, ``eigenvalues_`` (p,) sample-covariance
    eigenvalues, ``scale_`` mean squared residual.
    """

    n_components: int
    mean_: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    components_: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    eigenvalues_: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    scale_: float = 0.0

    def fit(self, x: np.ndarray) -> "BatchPCA":
        x = _as_matrix(x)
        n, d = x.shape
        p = min(self.n_components, min(n, d))
        self.mean_ = x.mean(axis=0)
        y = x - self.mean_
        _, s, vt = np.linalg.svd(y, full_matrices=False)
        self.components_ = vt[:p]
        self.eigenvalues_ = (s[:p] ** 2) / n
        recon = (y @ self.components_.T) @ self.components_
        self.scale_ = float(np.mean(np.sum((y - recon) ** 2, axis=1)))
        return self

    def to_eigensystem(self) -> Eigensystem:
        """Package the fit as a streaming-compatible state."""
        return Eigensystem(
            mean=self.mean_,
            basis=self.components_.T,
            eigenvalues=self.eigenvalues_,
            scale=max(self.scale_, 1e-12),
        )


def median(a: np.ndarray, *, skip_nan: bool = False) -> np.ndarray:
    """Median down the first axis, equal to ``np.median(a, axis=0)``.

    ``skip_nan=True`` ignores NaN entries, as ``np.nanmedian`` does (NaN
    for a column with nothing else).  Both pick the middle order
    statistics — by ``np.partition``, or by ``np.sort`` when each
    column has its own count — and average the two of an even count as
    numpy does, so the results agree to the last bit.  numpy's own
    medians import ``numpy.ma`` on first call (~2 MiB, ~16 ms); these
    never do.
    """
    a = np.asarray(a, dtype=np.float64)
    flat = a.ndim == 1
    if flat:
        a = a[:, None]
    n = a.shape[0]
    if skip_nan:
        s = np.sort(a, axis=0)          # NaNs sort last
        n = n - np.count_nonzero(np.isnan(a), axis=0)
    else:
        h = n // 2
        s = np.partition(a, [h - 1, h] if n % 2 == 0 else h, axis=0)
    cols = np.arange(a.shape[1])
    # numpy averages the middle values as a sum from +0.0 (a -0.0
    # median reads +0.0), then divides by their count.
    lo = 0.0 + s[(n - 1) // 2, cols]
    hi = s[n // 2, cols]
    out = np.where(n % 2 == 1, lo, (lo + hi) / 2)
    if skip_nan:
        out = np.where(n > 0, out, np.nan)
    return out[0] if flat else out


def mscale_fixed_point(
    r2: np.ndarray,
    rho: RhoFunction,
    delta: float,
    *,
    sigma2_init: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Solve the M-scale equation ``mean(rho(r²/σ²)) = δ`` for ``σ²``.

    Uses the re-weighting iteration of paper eq. 8,

    .. math::

        \\sigma^2 \\leftarrow \\frac{1}{N\\delta}
            \\sum_n W^\\star(r_n^2/\\sigma^2)\\, r_n^2 ,

    which is globally convergent for bounded non-decreasing ρ.
    """
    r2 = np.asarray(r2, dtype=np.float64)
    if r2.ndim != 1 or r2.size == 0:
        raise ValueError("r2 must be a non-empty 1-D array")
    if np.any(r2 < 0):
        raise ValueError("squared residuals must be non-negative")
    if not np.any(r2 > 0):
        return 0.0
    sigma2 = float(sigma2_init) if sigma2_init else float(median(r2[r2 > 0]))
    if sigma2 <= 0:
        sigma2 = float(np.mean(r2))
    inv_ndelta = 1.0 / (r2.size * delta)
    for _ in range(max_iter):
        t = r2 / sigma2
        new = inv_ndelta * float(np.sum(rho.wstar(t) * r2))
        if new <= 0:
            return 0.0
        if abs(new - sigma2) <= tol * max(sigma2, 1e-300):
            return new
        sigma2 = new
    return sigma2


def robust_eigenvalues(
    x: np.ndarray, basis: np.ndarray, mean: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Robust eigenvalue of the rows ``x`` along each column of ``basis``.

    Section II-B: "robust eigenvalues can be computed for any basis
    vectors in a consistent way" — the M-scale equation with the residual
    replaced by the projection ``eᵀ(x - mean)``, calibrated for
    ``dof = 1`` so it reads the variance along ``e`` at the Gaussian
    model.  Each column's projections are re-centred at their median
    first, so a gross outlier along ``e`` moves neither the location nor
    the scale there.

    Returns ``(lam, med)``: the ``(k,)`` robust eigenvalues and the
    ``(k,)`` projection medians.  ``basis`` is ``(d, k)`` with unit
    columns; a direction supported only by a few outliers reads the inlier
    variance along it, far below its classical eigenvalue.
    """
    proj = (x - mean) @ basis
    med = median(proj)
    centered2 = (proj - med) ** 2
    rho1 = make_rho("bisquare", c2=calibrate_c2(delta, 1))
    lam = np.array(
        [
            mscale_fixed_point(centered2[:, j], rho1, delta)
            for j in range(basis.shape[1])
        ]
    )
    return lam, med


@dataclass
class BatchRobustPCA:
    """Maronna's iterative robust PCA (the offline reference fixed point).

    Parameters
    ----------
    n_components:
        Number of eigenpairs ``p``.
    delta:
        Breakdown parameter of the M-scale.
    rho_family:
        Rho family name; the tuning constant is calibrated for
        ``dof = d - p`` unless ``rho`` is supplied directly.
    max_iter / tol:
        Outer-loop controls; convergence is declared when the projector
        ``E Eᵀ`` moves less than ``tol`` in Frobenius-like norm (computed
        low-rank) between iterations.
    """

    n_components: int
    delta: float = 0.5
    rho_family: str = "bisquare"
    rho: RhoFunction | None = None
    max_iter: int = 100
    tol: float = 1e-8

    mean_: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    components_: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    eigenvalues_: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    scale_: float = 0.0
    weights_: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    rho_: RhoFunction = field(default=None, repr=False)  # type: ignore[assignment]
    n_iter_: int = 0
    converged_: bool = False

    def fit(self, x: np.ndarray) -> "BatchRobustPCA":
        x = _as_matrix(x)
        n, d = x.shape
        p = min(self.n_components, min(n, d))
        rho = self.rho or make_rho(
            self.rho_family, c2=calibrate_c2(self.delta, max(d - p, 1),
                                             self.rho_family)
        )
        self.rho_ = rho

        # Non-robust start (the paper's streaming variant does the same).
        start = BatchPCA(p).fit(x)
        mean = start.mean_
        basis = start.components_.T  # (d, p)
        sigma2 = max(start.scale_, 1e-12)

        for it in range(1, self.max_iter + 1):
            y = x - mean
            resid = y - (y @ basis) @ basis.T
            r2 = np.sum(resid * resid, axis=1)
            sigma2 = mscale_fixed_point(r2, rho, self.delta,
                                        sigma2_init=sigma2)
            if sigma2 <= 0:
                # Degenerate: data lies exactly on a p-plane; weights all max.
                w = np.full(n, rho.weight_at_zero())
            else:
                w = np.asarray(rho.weight(r2 / sigma2))
            wsum = float(np.sum(w))
            if wsum <= 0:
                raise RuntimeError(
                    "all observations rejected; delta/rho mis-calibrated"
                )
            mean = (w @ x) / wsum
            y = x - mean
            # Weighted covariance C = σ² Σ w yyᵀ / Σ w r²  — top-p via thin
            # SVD of the weight-scaled data matrix (no d×d build).
            wr2 = float(np.sum(w * r2))
            yw = y * np.sqrt(w)[:, None]
            _, s, vt = np.linalg.svd(yw, full_matrices=False)
            new_basis = vt[:p].T
            denom = wr2 if wr2 > 0 else 1.0
            eigenvalues = sigma2 * (s[:p] ** 2) / denom

            # Projector movement, computed without forming d×d matrices:
            # |E₁E₁ᵀ - E₂E₂ᵀ|_F² = 2p - 2|E₁ᵀE₂|_F².
            cross = basis.T @ new_basis
            drift = 2.0 * p - 2.0 * float(np.sum(cross * cross))
            basis = new_basis
            self.n_iter_ = it
            if drift < self.tol:
                self.converged_ = True
                break

        self.mean_ = mean
        self.components_ = basis.T
        self.eigenvalues_ = eigenvalues
        self.scale_ = sigma2
        y = x - mean
        resid = y - (y @ basis) @ basis.T
        r2 = np.sum(resid * resid, axis=1)
        self.weights_ = (
            np.asarray(rho.weight(r2 / sigma2))
            if sigma2 > 0
            else np.full(n, rho.weight_at_zero())
        )
        return self

    def to_eigensystem(self) -> Eigensystem:
        """Package the fit as a streaming-compatible state."""
        return Eigensystem(
            mean=self.mean_,
            basis=self.components_.T,
            eigenvalues=self.eigenvalues_,
            scale=max(self.scale_, 1e-12),
        )
