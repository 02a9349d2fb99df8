"""Offline partition-and-merge PCA — the batch dataflow baseline.

The paper's introduction motivates streaming against the established
offline route: "batch parallel processing frameworks such as MapReduce,
DryadLINQ and Spark have been successfully used for these algorithms
given their heavy use of partial sums".  This module implements that
baseline as a comparison point for the BASELINES experiment
(``benchmarks/bench_baselines.py``); it is not part of the product:

* **map**: fit an independent (robust) batch PCA on each partition;
* **reduce**: merge the per-partition eigensystems with the same
  law-of-total-covariance combination the streaming sync uses (eq. 15).

With ``n_workers > 1`` the map phase genuinely runs in parallel worker
*processes* (the per-partition SVDs release no GIL through Python-level
loops, so threads would not help).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.core import (
    BatchPCA,
    BatchRobustPCA,
    Eigensystem,
    merge_eigensystems,
)
from repro.parallel.partition import partition_round_robin

__all__ = ["MapReducePCAResult", "mapreduce_pca"]


@dataclass(frozen=True)
class MapReducePCAResult:
    """Outcome of the partition-and-merge computation.

    Attributes
    ----------
    state:
        The merged global eigensystem.
    partition_states:
        The per-partition map outputs, in partition order.
    """

    state: Eigensystem
    partition_states: tuple[Eigensystem, ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Merged eigenvalues (descending)."""
        return self.state.eigenvalues

    @property
    def components(self) -> np.ndarray:
        """Merged eigenvectors as rows ``(p, d)``."""
        return self.state.basis.T


def _fit_partition(
    args: tuple[np.ndarray, int, int, bool, float]
) -> dict:
    x, n_components, extra, robust, delta = args
    p = n_components + extra
    if robust:
        fit = BatchRobustPCA(p, delta=delta).fit(x)
        # weights_ live on the W scale (max ρ'(0)); divide it out so the
        # merge weights read as *effective observation counts* — a
        # partition whose rows were largely rejected counts for less.
        weight_sum = float(
            np.sum(fit.weights_) / fit.rho_.weight_at_zero()
        )
    else:
        fit = BatchPCA(p).fit(x)
        weight_sum = float(x.shape[0])
    state = fit.to_eigensystem()
    state.sum_count = float(x.shape[0])
    state.sum_weight = weight_sum
    state.n_seen = x.shape[0]
    return state.to_dict()


def mapreduce_pca(
    x: np.ndarray,
    n_components: int,
    *,
    n_partitions: int = 4,
    n_workers: int = 1,
    robust: bool = True,
    delta: float = 0.5,
    extra_components: int = 2,
) -> MapReducePCAResult:
    """Partition ``x``, fit each part independently, merge the results.

    Parameters
    ----------
    x:
        Complete data matrix ``(n, d)`` (patch gaps first; see
        :mod:`repro.core.gaps`).
    n_components:
        Eigenpairs in the merged answer.
    n_partitions:
        Map-side parallelism (round-robin row assignment, so partitions
        are statistically exchangeable).
    n_workers:
        Worker processes for the map phase; 1 = run inline (deterministic
        and cheap for small data).
    robust / delta:
        Use the robust per-partition fit (resists in-partition outliers).
    extra_components:
        Extra eigenpairs carried per partition so the merge loses less
        tail variance (truncation error decreases with this).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) data, got shape {x.shape}")
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    parts = [
        p for p in partition_round_robin(x, n_partitions) if p.shape[0] > 1
    ]
    if not parts:
        raise ValueError("not enough rows to form any partition")

    jobs = [
        (p, n_components, extra_components, robust, delta) for p in parts
    ]
    if n_workers == 1 or len(jobs) == 1:
        payloads = [_fit_partition(job) for job in jobs]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(n_workers, len(jobs))) as pool:
            payloads = pool.map(_fit_partition, jobs)

    states = tuple(Eigensystem.from_dict(p) for p in payloads)
    merged = merge_eigensystems(list(states), n_components)
    return MapReducePCAResult(state=merged, partition_states=states)
