"""repro — robust incremental & parallel streaming PCA.

A full reproduction of *Incremental and Parallel Analytics on
Astrophysical Data Streams* (Mishin, Budavári, Szalay, Ahmad; SC 2012):
the robust streaming PCA algorithm (:mod:`repro.core`), a from-scratch
stream-processing engine standing in for IBM InfoSphere Streams
(:mod:`repro.streams`), the parallel PCA application with data-driven
synchronization (:mod:`repro.parallel`), a discrete-event cluster
simulator for the throughput experiments (:mod:`repro.cluster`), and the
workload generators (:mod:`repro.data`).

Quickstart::

    import numpy as np
    from repro.core import RobustIncrementalPCA
    from repro.data import PlantedSubspaceModel, GrossOutlierInjector

    model = PlantedSubspaceModel(dim=100)
    rng = np.random.default_rng(7)
    inject = GrossOutlierInjector(rate=0.03, amplitude=20.0, rng=rng)

    pca = RobustIncrementalPCA(n_components=5, alpha=0.999)
    for x in inject.wrap(model.stream(5000, rng)):
        pca.update(x)
    print(pca.eigenvalues_)
"""

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = (
    "cluster", "core", "data", "experiments", "io", "parallel", "serving",
    "streams",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    # Subpackages load on first access (PEP 562): ``python -m repro
    # serve`` never pays for the simulator or the experiments.
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBPACKAGES})
