"""Shared fixtures for the test suite.

Everything stochastic is seeded through explicit ``numpy.random.Generator``
instances so the suite is fully deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import PlantedSubspaceModel


@pytest.fixture
def rng() -> np.random.Generator:
    """The default deterministic generator for a test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_model() -> PlantedSubspaceModel:
    """A small planted-subspace model shared by many estimator tests."""
    return PlantedSubspaceModel(
        dim=40,
        signal_variances=(25.0, 16.0, 9.0),
        noise_std=0.3,
        seed=0,
    )


@pytest.fixture
def small_data(small_model, rng) -> np.ndarray:
    """A 3000×40 sample from :func:`small_model`."""
    return small_model.sample(3000, rng)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Shrink the one backoff schedule (:mod:`repro.streams.retry`) so
    retry tests sleep milliseconds; budgets and counts are unchanged."""
    from repro.streams import retry

    monkeypatch.setattr(retry, "BASE_S", 0.01)
    monkeypatch.setattr(retry, "CAP_S", 0.05)


@pytest.fixture
def concurrent_engine():
    """Factory ``(runtime, graph, **kw) -> engine`` over the runtimes
    that share one coordinator (``"threaded"``, ``"process"``,
    ``"cluster"``).  Remote ends are forked, so test-local operator classes
    never need to be importable from a child process."""
    from repro.parallel import ENGINE_CLASSES

    def make(runtime, graph, **kw):
        if runtime != "threaded":
            kw["mp_context"] = "fork"
        return ENGINE_CLASSES[runtime](graph, **kw)

    return make


@pytest.fixture
def block_diag_case():
    """The seeded 420-row stream and runner behind
    ``tests/data/block_diagnostics_golden.json`` (three gross outliers,
    sixty gappy rows, rows 150 and 300 too gappy to use).  Returns
    ``(x, make_runner)`` with ``make_runner(runtime="synchronous", **kw)``.
    Two engines, round-robin 64-row blocks, no syncs: every runtime
    gives each engine the same rows in the same order."""
    from repro.parallel import ParallelStreamingPCA

    model = PlantedSubspaceModel(
        dim=24, signal_variances=(16.0, 9.0, 4.0), noise_std=0.3, seed=11
    )
    rng = np.random.default_rng(12)
    x = model.sample(420, rng)
    x[[90, 205, 333]] += 50.0 * rng.standard_normal((3, 24))
    for i in rng.choice(np.arange(70, 420), size=60, replace=False):
        x[i, rng.random(24) < 0.3] = np.nan
    x[150] = np.nan
    x[300, 1:] = np.nan

    def make_runner(runtime="synchronous", **kw):
        return ParallelStreamingPCA(
            3, n_engines=2, alpha=0.995, batch_size=64, runtime=runtime,
            split_strategy="round_robin", sync_gate_factor=1e9,
            estimator_kwargs={"extra_components": 2, "init_size": 20},
            **kw,
        )

    return x, make_runner
