"""Convergence and comparison metrics used by every experiment.

The paper's evidence is visual (eigenvalue traces in Fig. 1, eigenspectra
snapshots in Figs. 4–5); these helpers turn those visuals into numbers the
test suite and benchmark harness can assert on: principal angles between
subspaces, roughness of eigenspectra ("the smoothness of these curves is a
sign of robustness"), and per-step trace recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigensystem import Eigensystem
from .incremental import UpdateResult

__all__ = [
    "principal_angles",
    "largest_principal_angle",
    "subspace_distance",
    "subspace_affinity",
    "align_signs",
    "roughness",
    "explained_variance_ratio",
    "TraceRecorder",
    "ConvergenceReport",
]


def _orthonormal_basis(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"basis must be 2-D, got shape {a.shape}")
    q, _ = np.linalg.qr(a)
    return q


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between ``span(a)``/``span(b)``.

    Inputs are ``(d, k)`` matrices whose columns span the subspaces; they
    are orthonormalized internally, so raw (even rank-deficient-ish) bases
    are fine.  Returns ``min(k_a, k_b)`` angles in ``[0, π/2]``.
    """
    qa, qb = _orthonormal_basis(a), _orthonormal_basis(b)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))[::-1][: min(qa.shape[1], qb.shape[1])][::-1]


def largest_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """The largest principal angle — 0 iff one subspace contains the other."""
    ang = principal_angles(a, b)
    return float(ang.max()) if ang.size else 0.0


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``sin`` of the largest principal angle (the projector 2-norm gap)."""
    return float(np.sin(largest_principal_angle(a, b)))


def subspace_affinity(a: np.ndarray, b: np.ndarray) -> float:
    """``cos`` of the largest principal angle between the leading
    ``min(k_a, k_b)`` columns of two bases (1.0 = identical span)."""
    k = min(a.shape[1], b.shape[1])
    return float(np.cos(largest_principal_angle(a[:, :k], b[:, :k])))


def align_signs(basis: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip column signs of ``basis`` to best match ``reference``.

    Eigenvectors are defined up to sign; plots and column-wise comparisons
    need a consistent orientation.  Returns a sign-adjusted copy.
    """
    basis = np.asarray(basis, dtype=np.float64).copy()
    reference = np.asarray(reference, dtype=np.float64)
    k = min(basis.shape[1], reference.shape[1])
    for j in range(k):
        if basis[:, j] @ reference[:, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def roughness(spectrum: np.ndarray) -> float:
    """Mean squared second difference, normalized by the signal power.

    Low values = smooth curves.  Figs. 4–5 argue that smooth eigenspectra
    indicate a converged, physical solution ("PCA has no notion of where
    the pixels are relative to each other"), so roughness decreasing with
    the number of processed spectra is our quantitative Fig. 4→5 check.
    """
    s = np.asarray(spectrum, dtype=np.float64)
    if s.ndim != 1 or s.size < 3:
        raise ValueError("spectrum must be 1-D with at least 3 samples")
    d2 = np.diff(s, n=2)
    power = float(np.mean(s * s))
    if power <= 0:
        return 0.0
    return float(np.mean(d2 * d2)) / power


def explained_variance_ratio(
    eigenvalues: np.ndarray, total_variance: float
) -> np.ndarray:
    """Fraction of total variance captured by each eigenvalue."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if total_variance <= 0:
        raise ValueError(f"total variance must be positive, got {total_variance}")
    return lam / total_variance


@dataclass
class TraceRecorder:
    """Per-step capture of the quantities plotted in Fig. 1.

    Call :meth:`record` after each ``update``; the recorder stores the
    eigenvalue vector, the robust weight, the scaled residual ``t``, the
    outlier flag, and the scale.  ``every`` thins the eigenvalue trace
    (weights/flags are always kept) to bound memory on long streams.
    """

    every: int = 1
    steps: list[int] = field(default_factory=list)
    eigenvalues: list[np.ndarray] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)
    scaled_residuals: list[float] = field(default_factory=list)
    outlier_steps: list[int] = field(default_factory=list)
    _step: int = 0

    def record(
        self, state: Eigensystem, result: UpdateResult | None
    ) -> None:
        """Record one step (pass ``result=None`` during warm-up)."""
        self._step += 1
        if result is None:
            return
        self.weights.append(result.weight)
        self.scaled_residuals.append(result.scaled_residual)
        if result.is_outlier:
            self.outlier_steps.append(self._step)
        if self._step % self.every == 0:
            self.steps.append(self._step)
            self.eigenvalues.append(state.eigenvalues.copy())
            self.scales.append(state.scale)

    def eigenvalue_matrix(self) -> np.ndarray:
        """Trace as an ``(n_records, p)`` array (ragged warm-up rows padded
        with NaN on the right while fewer components existed)."""
        if not self.eigenvalues:
            return np.zeros((0, 0))
        p = max(e.size for e in self.eigenvalues)
        out = np.full((len(self.eigenvalues), p), np.nan)
        for i, e in enumerate(self.eigenvalues):
            out[i, : e.size] = e
        return out

    def tail_dispersion(self, fraction: float = 0.25) -> np.ndarray:
        """Relative eigenvalue dispersion over the trailing ``fraction`` of
        the trace — the quantitative form of "the eigenvalue plot has
        converged": small for the robust run, large for the classical run
        under contamination."""
        mat = self.eigenvalue_matrix()
        if mat.shape[0] == 0:
            return np.zeros(0)
        n_tail = max(2, int(mat.shape[0] * fraction))
        tail = mat[-n_tail:]
        mean = np.nanmean(tail, axis=0)
        std = np.nanstd(tail, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(mean > 0, std / mean, np.inf)
        return rel


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary comparing a streaming fit against a reference basis."""

    largest_angle: float
    mean_angle: float
    eigenvalue_rel_error: np.ndarray
    roughness_per_component: np.ndarray

    @classmethod
    def compare(
        cls,
        state: Eigensystem,
        reference_basis: np.ndarray,
        reference_eigenvalues: np.ndarray | None = None,
    ) -> "ConvergenceReport":
        angles = principal_angles(state.basis, reference_basis)
        if reference_eigenvalues is not None:
            k = min(state.eigenvalues.size, len(reference_eigenvalues))
            ref = np.asarray(reference_eigenvalues, dtype=np.float64)[:k]
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.abs(state.eigenvalues[:k] - ref) / np.where(
                    ref > 0, ref, np.nan
                )
        else:
            rel = np.zeros(0)
        rough = np.array(
            [roughness(state.basis[:, j]) for j in range(state.n_components)]
        )
        return cls(
            largest_angle=float(angles.max()) if angles.size else 0.0,
            mean_angle=float(angles.mean()) if angles.size else 0.0,
            eigenvalue_rel_error=rel,
            roughness_per_component=rough,
        )
