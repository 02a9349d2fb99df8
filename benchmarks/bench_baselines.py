"""Benchmark BASELINES — streaming vs the offline alternatives.

The paper's introduction positions streaming PCA against (a) offline
batch solves and (b) MapReduce-style partition-parallel batch jobs.
This bench fits all of them on the same contaminated dataset and
compares accuracy and wall time, plus the sliding-window variant's
hard-expiry behaviour under a regime change.  The window and MapReduce
baselines are comparison points, not product code: they live with the
test oracles in ``tests/oracles``.
"""

import time

import numpy as np

from repro.core import (
    BatchRobustPCA,
    RobustIncrementalPCA,
    largest_principal_angle,
)
from repro.data import PlantedSubspaceModel, contaminate_block
from repro.experiments.common import Table
from tests.oracles import SlidingWindowPCA, mapreduce_pca


def test_streaming_vs_offline_baselines(benchmark):
    model = PlantedSubspaceModel(
        dim=150,
        signal_variances=(25.0, 16.0, 9.0, 4.0),
        noise_std=0.5,
        seed=19,
    )
    rng = np.random.default_rng(2)
    x, _ = contaminate_block(model.sample(10_000, rng), 0.05, 25.0, rng)

    def run_all():
        rows = []

        start = time.perf_counter()
        stream = RobustIncrementalPCA(4, alpha=0.999).partial_fit(x)
        rows.append(
            ["streaming robust (this paper)",
             largest_principal_angle(stream.state.basis[:, :4], model.basis),
             time.perf_counter() - start]
        )

        start = time.perf_counter()
        batch = BatchRobustPCA(4).fit(x)
        rows.append(
            ["offline batch robust (Maronna)",
             largest_principal_angle(batch.components_.T, model.basis),
             time.perf_counter() - start]
        )

        start = time.perf_counter()
        mr = mapreduce_pca(x, 4, n_partitions=8, robust=True)
        rows.append(
            ["map-reduce robust (8 partitions)",
             largest_principal_angle(mr.state.basis, model.basis),
             time.perf_counter() - start]
        )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(
        Table(
            "BASELINES: accuracy & wall time on 10k x 150, 5% outliers",
            ["method", "angle to truth (rad)", "seconds"],
            [[r[0], round(r[1], 4), round(r[2], 2)] for r in rows],
        ).render()
    )
    # Everyone solves the robust problem...
    assert all(r[1] < 0.15 for r in rows)


def test_window_vs_damping_regime_change(benchmark):
    """Hard expiry (window) vs soft down-weighting (damping, the paper's
    α) after an abrupt subspace change."""
    d = 60
    rng = np.random.default_rng(3)
    regime_a = rng.standard_normal((4000, d)) * np.array(
        [6.0, 4.0] + [0.3] * (d - 2)
    )
    regime_b = rng.standard_normal((4000, d)) * np.array(
        [0.3, 0.3, 6.0, 4.0] + [0.3] * (d - 4)
    )
    truth_b = np.eye(d)[:, 2:4]

    def run_both():
        damping = RobustIncrementalPCA(2, alpha=0.999)
        window = SlidingWindowPCA(2, block_size=400, window_blocks=4)
        for x in np.vstack([regime_a, regime_b]):
            damping.update(x)
            window.update(x)
        return (
            largest_principal_angle(damping.state.basis[:, :2], truth_b),
            largest_principal_angle(window.state().basis, truth_b),
        )

    ang_damping, ang_window = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print()
    print(
        Table(
            "WINDOW vs DAMPING: angle to the new regime after a switch",
            ["estimator", "angle (rad)"],
            [
                ["damping alpha=0.999 (N=1000)", round(ang_damping, 4)],
                ["sliding window (1600 obs)", round(ang_window, 4)],
            ],
        ).render()
    )
    # Both adapt; the hard window fully expired the old regime.
    assert ang_window < 0.15
    assert ang_damping < 0.5
