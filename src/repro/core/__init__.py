"""Core algorithms: robust incremental PCA and its supporting machinery.

Public surface of the paper's primary contribution (Section II):

* :class:`~repro.core.robust.RobustIncrementalPCA` — the streaming robust
  estimator (eqs. 9–14, gap handling of §II-D).
* :class:`~repro.core.incremental.IncrementalPCA` — the classical
  streaming baseline (eqs. 1–3).
* :class:`~repro.core.batch.BatchPCA` /
  :class:`~repro.core.batch.BatchRobustPCA` — offline references.
* :func:`~repro.core.merge.merge_eigensystems` — the parallel-sync
  combination rule (eqs. 15–16).
* :class:`~repro.core.eigensystem.Eigensystem` — the state unit shipped
  between engines and to checkpoints.
"""

from .batch import (
    BatchPCA,
    BatchRobustPCA,
    mscale_fixed_point,
    robust_eigenvalues,
)
from .calibration import (
    breakdown_point,
    calibrate_c2,
    calibrate_delta,
    consistent_rho,
    expected_rho,
)
from .eigensystem import Eigensystem
from .exceptions import NotFittedError
from .gaps import (
    GAP_RESIDUAL_MODES,
    BlockGapFillResult,
    GapFillResult,
    estimate_residual_norm2,
    estimate_residual_norm2_block,
    fill_block_from_basis,
    fill_from_basis,
    has_gaps,
    observed_mask,
)
from .incremental import (
    BlockRoute,
    BlockUpdateResult,
    IncrementalPCA,
    UpdateResult,
    block_route,
)
from .kernels import jit_status
from .lowrank import (
    build_merge_factor,
    build_update_factor,
    eigensystem_of_factor,
    rank_k_update,
    rank_one_update,
)
from .merge import (
    eigensystems_consistent,
    merge_eigensystems,
    merge_pair,
    merge_weights,
)
from .metrics import (
    ConvergenceReport,
    TraceRecorder,
    align_signs,
    explained_variance_ratio,
    largest_principal_angle,
    principal_angles,
    roughness,
    subspace_affinity,
    subspace_distance,
)
from .normalize import NormalizationError, normalize_block, unit_mean_flux, unit_norm
from .outliers import OutlierEvent, OutlierLog, flag_outliers
from .rho import BisquareRho, CauchyRho, RhoFunction, SkippedMeanRho, make_rho
from .robust import RobustIncrementalPCA

__all__ = [
    "BatchPCA",
    "GAP_RESIDUAL_MODES",
    "BatchRobustPCA",
    "BisquareRho",
    "BlockGapFillResult",
    "BlockRoute",
    "BlockUpdateResult",
    "CauchyRho",
    "ConvergenceReport",
    "Eigensystem",
    "GapFillResult",
    "IncrementalPCA",
    "NormalizationError",
    "NotFittedError",
    "OutlierEvent",
    "OutlierLog",
    "RhoFunction",
    "RobustIncrementalPCA",
    "SkippedMeanRho",
    "TraceRecorder",
    "UpdateResult",
    "align_signs",
    "block_route",
    "breakdown_point",
    "build_merge_factor",
    "build_update_factor",
    "calibrate_c2",
    "calibrate_delta",
    "consistent_rho",
    "eigensystem_of_factor",
    "estimate_residual_norm2",
    "estimate_residual_norm2_block",
    "eigensystems_consistent",
    "expected_rho",
    "explained_variance_ratio",
    "fill_block_from_basis",
    "fill_from_basis",
    "flag_outliers",
    "has_gaps",
    "jit_status",
    "largest_principal_angle",
    "make_rho",
    "merge_eigensystems",
    "merge_pair",
    "merge_weights",
    "mscale_fixed_point",
    "normalize_block",
    "observed_mask",
    "principal_angles",
    "rank_k_update",
    "rank_one_update",
    "robust_eigenvalues",
    "roughness",
    "subspace_affinity",
    "subspace_distance",
    "unit_mean_flux",
    "unit_norm",
]
