"""Seeded inputs.  The structural seeds (templates, planted basis) are
fixed so every seed measures the same problem; ``--seed`` draws the
observations, so the program only ever sees generated rows."""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.metrics import largest_principal_angle
from repro.data.gaussian import PlantedSubspaceModel
from repro.data.spectra import GalaxySpectrumModel, WavelengthGrid
from repro.data.streams import VectorStream, repeat_epochs

from .spec import N_COMPONENTS, Workload

#: Spectra generated per run of pipeline_wide; the stream replays them in
#: freshly shuffled epochs.
GALAXY_POOL = 4096
#: Streamed first, outlier-free, so that each engine initialises on clean
#: spectra.  An outlier inside an engine's 32-row initialisation batch
#: can be captured as a principal direction for good — the junk ramps
#: that follow reinforce it instead of being rejected (seed 507 at the
#: parent commit: affinity 0.08 after 50 000 rows, its eigenvalue still
#: growing) — which would make accuracy a property of the seed, not of
#: the code.
CLEAN_PREFIX = 512
#: The galaxy population's 4th to 6th eigenvalues are within 10% of each
#: other, so which of them a finite stream ranks 4th is a coin toss.
#: Affinity is therefore taken against the leading 6-d truth: every
#: reported eigenvector must lie in it.
GALAXY_TRUTH_RANK = 6
#: Rows pre-generated per serving run; blocks cycle through them.
SERVE_POOL_ROWS = {32: 65536, 1000: 4096}


def galaxy_model() -> GalaxySpectrumModel:
    return GalaxySpectrumModel(
        WavelengthGrid(n_bins=1000), z_max=0.2, noise_std=0.06,
        dropout_rate=0.15, outlier_rate=0.01, seed=11,
    )


def planted_model(workload: Workload) -> PlantedSubspaceModel:
    if workload.kind == "pipeline":
        return PlantedSubspaceModel(dim=workload.dim, seed=4)
    # Rank 4 at every width, with the total noise variance of the 32-d
    # case: serve_wide poses serve_narrow's estimation problem and
    # differs from it in row width only.
    return PlantedSubspaceModel(
        dim=workload.dim, signal_variances=(25.0, 16.0, 9.0, 4.0),
        noise_std=0.5 * (32.0 / workload.dim) ** 0.5, seed=4,
    )


def galaxy_pool(seed: int, n: int = GALAXY_POOL) -> np.ndarray:
    """``n`` observed spectra (gaps as NaN), mean-flux normalised, the
    outlier spectra last."""
    sample = galaxy_model().sample(n, np.random.default_rng(seed))
    flux = sample.flux[np.argsort(sample.is_outlier, kind="stable")]
    return flux / np.nanmean(flux, axis=1, keepdims=True)


def pipeline_rows(workload: Workload, seed: int, smoke: bool) -> np.ndarray:
    """The rows a pipeline workload streams from (built once, at set-up)."""
    if workload.name == "pipeline_wide":
        return galaxy_pool(seed, GALAXY_POOL // 8 if smoke else GALAXY_POOL)
    rng = np.random.default_rng(seed)
    return planted_model(workload).sample(
        20000 if smoke else 200000, rng
    )


def pipeline_stream(
    workload: Workload, rows: np.ndarray, n_rows: int, seed: int
) -> VectorStream:
    """``n_rows`` rows of ``rows`` as a stream; same arguments, same rows."""
    if workload.name == "pipeline_wide":
        it = itertools.chain(
            rows[:min(CLEAN_PREFIX, rows.shape[0] // 2)],
            repeat_epochs(
                rows, n_rows // rows.shape[0] + 1,
                np.random.default_rng(seed),
            ),
        )
    else:
        it = itertools.cycle(rows)
    return VectorStream.from_iterable(
        itertools.islice(it, n_rows), dim=workload.dim, length=n_rows
    )


def serve_rows(workload: Workload, seed: int) -> np.ndarray:
    return planted_model(workload).sample(
        SERVE_POOL_ROWS[workload.dim], np.random.default_rng(seed)
    )


def truth_basis(workload: Workload, smoke: bool = False) -> np.ndarray:
    """Ground-truth basis ``(d, k)`` the workload's result is held to."""
    if workload.name == "pipeline_wide":
        return galaxy_model().ground_truth_basis(
            GALAXY_TRUTH_RANK, n_mc=1000 if smoke else 4000
        )[1]
    return planted_model(workload).basis[:, :N_COMPONENTS]


def subspace_affinity(basis: np.ndarray, truth: np.ndarray) -> float:
    """Cosine of the largest principal angle between the estimated
    subspace and the truth (1 = every estimated direction lies in it)."""
    return float(np.cos(largest_principal_angle(basis, truth)))
