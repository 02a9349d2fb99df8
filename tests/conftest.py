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
def concurrent_engine():
    """Factory ``(runtime, graph, **kw) -> engine`` over the runtimes
    that share one coordinator (``"threaded"``, ``"process"``,
    ``"cluster"``).  Remote ends are forked, so test-local operator classes
    never need to be importable from a child process."""
    from repro.streams import ClusterEngine, ProcessEngine, ThreadedEngine

    def make(runtime, graph, **kw):
        if runtime == "threaded":
            return ThreadedEngine(graph, **kw)
        cls = {"process": ProcessEngine, "cluster": ClusterEngine}[runtime]
        return cls(graph, mp_context="fork", **kw)

    return make
