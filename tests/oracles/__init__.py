"""Reference algorithms the tests and the BASELINES experiment compare
the product against.

None of these ship in :mod:`repro`: the paper claims one streaming
estimator, and windows, partition-and-merge batch jobs and offline
multi-pass gap fills are comparison points for it (Cardot–Degras,
PAPERS.md), not alternatives a user picks.
"""

from .gaps import corrected_residual_norm2, iterative_gap_fill
from .mapreduce import MapReducePCAResult, mapreduce_pca
from .windows import SlidingWindowPCA

__all__ = [
    "MapReducePCAResult",
    "SlidingWindowPCA",
    "corrected_residual_norm2",
    "iterative_gap_fill",
    "mapreduce_pca",
]
