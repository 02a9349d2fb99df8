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
) -> float | np.ndarray:
    """Solve the M-scale equation ``mean(rho(r²/σ²)) = δ`` for ``σ²``.

    The root is the fixed point of paper eq. 8,

    .. math::

        \\sigma^2 \\leftarrow \\frac{1}{N\\delta}
            \\sum_n W^\\star(r_n^2/\\sigma^2)\\, r_n^2
            = \\sigma^2\\, \\frac{\\overline{\\rho}}{\\delta} ,

    found by a bracketed secant on ``s = log σ²`` rather than by
    iterating it.  ``h(s) = log mean ρ(r² e^{-s}) - log δ`` falls with
    ``s`` at a slope in ``[-1, 0]`` (ρ bounded, non-decreasing and
    concave), so eq. 8's own step ``s + h`` never passes the root: each
    step is at least that long, at most 16 times it, and stays inside
    the bracket the evaluations so far have found (bisecting it when the
    secant leaves it).  It ends when ``σ²`` moves by less than ``tol``
    relative, typically after 4–8 evaluations of ρ where the iteration
    takes 40–50.

    A 2-D ``r2`` is solved down its columns at once and gives one ``σ²``
    per column.  ``σ²`` is 0 where no more than a ``δ`` share of the
    residuals is positive: the mean of ρ stays below ``δ`` for every
    ``σ² > 0`` there.
    """
    r2 = np.asarray(r2, dtype=np.float64)
    if r2.ndim not in (1, 2) or r2.shape[0] == 0:
        raise ValueError("r2 must be a non-empty 1-D or 2-D array")
    if np.any(r2 < 0):
        raise ValueError("squared residuals must be non-negative")
    column = r2.ndim == 1
    if column:
        r2 = r2[:, None]
    positive = r2 > 0
    live = np.count_nonzero(positive, axis=0) > delta * r2.shape[0]
    sigma2 = np.zeros(r2.shape[1])
    if live.any():
        r2 = r2[:, live]
        if sigma2_init and sigma2_init > 0:
            s = np.full(r2.shape[1], np.log(float(sigma2_init)))
        else:
            s = np.log(median(np.where(positive[:, live], r2, np.nan),
                              skip_nan=True))
        sigma2[live] = np.exp(_log_mscale(r2, rho, delta, s, tol, max_iter))
    return float(sigma2[0]) if column else sigma2


def _log_mscale(
    r2: np.ndarray,
    rho: RhoFunction,
    delta: float,
    s: np.ndarray,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """The root in ``s = log σ²`` of each column's M-scale equation,
    from the start ``s``; every column has one."""
    log_delta = np.log(delta)

    def h(s: np.ndarray) -> np.ndarray:
        mean_rho = np.mean(rho.rho(r2 * np.exp(-s)), axis=0)
        with np.errstate(divide="ignore"):
            return np.log(mean_rho) - log_delta

    lo = np.full_like(s, -np.inf)
    hi = np.full_like(s, np.inf)
    hs = h(s)
    s_prev = h_prev = None
    done = hs == 0
    for _ in range(max_iter):
        lo = np.where(hs > 0, s, lo)
        hi = np.where(hs < 0, s, hi)
        floor = np.abs(hs)
        size = floor
        if s_prev is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                size = np.abs(hs * (s - s_prev) / (hs - h_prev))
            size = np.clip(np.nan_to_num(size, nan=0.0), floor, 16.0 * floor)
        step = np.where(done, 0.0, np.copysign(size, hs))
        done |= np.abs(step) <= tol
        new = s + step
        if done.all():
            return new
        outside = ~done & ((new <= lo) | (new >= hi))
        new = np.where(outside, 0.5 * (lo + hi), new)
        s_prev, h_prev = s, hs
        s = new
        hs = h(s)
        done |= hs == 0
    return s


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
    return mscale_fixed_point(centered2, rho1, delta), med


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
