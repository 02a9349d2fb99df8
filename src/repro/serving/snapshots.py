"""Versioned eigenbasis snapshots: the read path of the serving layer.

The serving contract (docs/serving.md) separates the *hot* model — a
streaming estimator continuously updated by ingest traffic, guarded by a
per-tenant lock — from the *cold* read path: every query is answered
from an immutable :class:`BasisSnapshot` that the compute side publishes
every ``publish_every_blocks`` blocks.  Publishing copies the truncated
eigensystem once (copy-on-publish); after that the snapshot is never
mutated, so readers need no lock at all — ``transform``,
``reconstruction_error``, ``outlier_score`` and ``eigenspectra`` are
pure functions of the snapshot and the query rows.

Staleness is explicit, not hidden: every query response carries the
snapshot ``version``, its ``age_s``, and the number of rows the model
had consumed when it was taken, so a client can decide whether the
answer is fresh enough (the Budavári et al. eigenspectra-service model:
reliable cached spectra, refreshed as the stream moves).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.eigensystem import Eigensystem

__all__ = ["BasisSnapshot", "EigenbasisCache"]

#: Default scaled-residual cutoff for :meth:`BasisSnapshot.outlier_score`
#: when the publisher carries no calibrated rho rejection point:
#: ``r²/σ² >= 9`` is the classical 3-sigma rule on the residual norm.
DEFAULT_OUTLIER_T = 9.0


@dataclass(frozen=True)
class BasisSnapshot:
    """One immutable, versioned view of a tenant's eigenbasis.

    ``state`` is a private deep copy made at publish time; nothing else
    holds a reference, so the snapshot is safe to read from any number
    of threads without synchronization.
    """

    tenant: str
    version: int
    state: Eigensystem
    rows_applied: int
    blocks_applied: int
    outlier_t: float = DEFAULT_OUTLIER_T
    #: Highest write-ahead-log sequence folded into ``state`` when the
    #: snapshot was taken (-1 when the tenant has no durability plane).
    #: A checkpoint of this snapshot covers every WAL record <= wal_seq.
    wal_seq: int = -1
    published_at: float = field(default_factory=time.monotonic)
    published_unix: float = field(default_factory=time.time)

    # -- metadata ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.state.dim

    @property
    def n_components(self) -> int:
        return self.state.n_components

    def age_s(self, now: float | None = None) -> float:
        """Seconds since this snapshot was published (monotonic clock)."""
        return max(0.0, (now if now is not None else time.monotonic())
                   - self.published_at)

    def meta(self) -> dict[str, Any]:
        """The staleness-contract fields attached to every query reply."""
        return {
            "tenant": self.tenant,
            "snapshot_version": self.version,
            "snapshot_age_s": self.age_s(),
            "model_rows": self.rows_applied,
            "model_blocks": self.blocks_applied,
            "n_components": self.n_components,
            "dim": self.dim,
        }

    # -- queries (pure functions of snapshot + rows) ----------------------

    def _rows(self, rows) -> np.ndarray:
        x = np.asarray(rows, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(
                f"expected rows of dim {self.dim}, got shape {x.shape}"
            )
        return x

    def transform(self, rows) -> np.ndarray:
        """Expansion coefficients ``(k, p)`` on the published basis."""
        x = self._rows(rows)
        return (x - self.state.mean) @ self.state.basis

    def inverse_transform(self, coeffs) -> np.ndarray:
        z = np.asarray(coeffs, dtype=np.float64)
        if z.ndim == 1:
            z = z[None, :]
        return z @ self.state.basis.T + self.state.mean

    def reconstruction_error(self, rows) -> np.ndarray:
        """Squared residual norm ``r²`` of each row off the basis."""
        x = self._rows(rows)
        y = x - self.state.mean
        proj = y @ self.state.basis
        return np.sum((y - proj @ self.state.basis.T) ** 2, axis=1)

    def outlier_score(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """``(scores, flags)``: scaled residuals ``t = r²/σ²`` and the
        ``t >= outlier_t`` outlier flags (the estimator's rejection
        rule applied to the published state)."""
        r2 = self.reconstruction_error(rows)
        scale = self.state.scale if self.state.scale > 0 else 1.0
        t = r2 / scale
        return t, t >= self.outlier_t

    def eigenspectra(
        self, top_k: int | None = None, *, include_basis: bool = False
    ) -> dict[str, Any]:
        """Eigenvalues (and optionally eigenvectors) for the spectra API."""
        eigs = self.state.eigenvalues
        k = eigs.shape[0] if top_k is None else min(int(top_k), eigs.shape[0])
        total = float(np.sum(eigs)) if eigs.size else 0.0
        out: dict[str, Any] = {
            "eigenvalues": eigs[:k].tolist(),
            "explained_fraction": (
                [float(v) / total for v in eigs[:k]] if total > 0 else
                [0.0] * k
            ),
            "mean": self.state.mean.tolist(),
            "scale": float(self.state.scale),
        }
        if include_basis:
            out["basis"] = self.state.basis[:, :k].T.tolist()
        return out


class EigenbasisCache:
    """Copy-on-publish snapshot store, one current snapshot per tenant.

    Writers (the engine lanes) call :meth:`publish` — a short lock
    protects the version counter and the dict write.  Readers call
    :meth:`get`, which is a single dict lookup of an immutable object:
    no lock, no contention with the compute path, ever.  Old snapshots
    are simply dropped (clients that captured one keep a valid,
    consistent view — that is the point of immutability).
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, BasisSnapshot] = {}
        self._lock = threading.Lock()
        self._listeners: list[Callable[[BasisSnapshot], None]] = []
        self.n_published = 0
        self.n_hits = 0
        self.n_misses = 0

    def add_listener(self, fn: Callable[[BasisSnapshot], None]) -> None:
        """Call ``fn(snapshot)`` after every publish (WS push, tests)."""
        self._listeners.append(fn)

    # -- write side -------------------------------------------------------

    def publish(
        self,
        tenant: str,
        state: Eigensystem,
        *,
        rows_applied: int,
        blocks_applied: int,
        outlier_t: float = DEFAULT_OUTLIER_T,
        wal_seq: int = -1,
        version: int | None = None,
    ) -> BasisSnapshot:
        """Install a new immutable snapshot for ``tenant``.

        ``state`` is deep-copied here so the caller may keep mutating its
        own working state after publishing (copy-on-publish).

        ``version`` is normally assigned here (previous + 1); recovery
        passes the pre-crash version explicitly so the version stream a
        client observes stays monotone across a restart.  An explicit
        version below the current one is clamped up — versions never
        move backwards.
        """
        with self._lock:
            prev = self._snapshots.get(tenant)
            next_version = (prev.version + 1) if prev is not None else 1
            if version is not None:
                next_version = max(int(version), next_version)
            snap = BasisSnapshot(
                tenant=tenant,
                version=next_version,
                state=state.copy(),
                rows_applied=int(rows_applied),
                blocks_applied=int(blocks_applied),
                outlier_t=float(outlier_t),
                wal_seq=int(wal_seq),
            )
            self._snapshots[tenant] = snap
            self.n_published += 1
        for fn in list(self._listeners):
            try:
                fn(snap)
            except Exception:  # a broken listener must not block publish
                pass
        return snap

    def drop(self, tenant: str) -> None:
        with self._lock:
            self._snapshots.pop(tenant, None)

    # -- read side (lock-free) --------------------------------------------

    def get(self, tenant: str) -> BasisSnapshot | None:
        """The tenant's current snapshot, or ``None`` before first publish."""
        snap = self._snapshots.get(tenant)
        if snap is None:
            self.n_misses += 1
        else:
            self.n_hits += 1
        return snap

    def peek(self, tenant: str) -> BasisSnapshot | None:
        """Like :meth:`get` but without touching the hit/miss counters."""
        return self._snapshots.get(tenant)

    def version(self, tenant: str) -> int:
        snap = self._snapshots.get(tenant)
        return snap.version if snap is not None else 0

    def tenants(self) -> list[str]:
        return sorted(self._snapshots)

    def stats(self) -> dict[str, Any]:
        reads = self.n_hits + self.n_misses
        return {
            "n_published": self.n_published,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "hit_ratio": (self.n_hits / reads) if reads else None,
            "tenants": len(self._snapshots),
        }
