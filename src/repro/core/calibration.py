"""Calibration of the M-scale tuning constant and breakdown parameter.

The M-scale equation (paper eq. 5) has two free knobs: the breakdown
parameter :math:`\\delta` and the tuning constant of the
:math:`\\rho`-function.  They must be chosen *jointly* so that, at the
nominal (outlier-free) model, the M-scale :math:`\\sigma^2` coincides with
the classical expected squared residual — otherwise the robust eigenvalues
are biased even without contamination.

Under the nominal model the residual vector of a ``p``-dimensional PCA fit
to ``d``-dimensional Gaussian data lives in the ``k = d - p`` dimensional
orthogonal complement, so ``r² = s²·X`` with ``X ~ χ²_k`` and per-component
noise variance ``s²``.  Requiring the M-scale to equal the classical scale
``σ² = E[r²] = s²·k`` turns eq. 5 into the calibration condition

.. math::

    \\mathbb{E}\\left[\\rho\\!\\left(X/k\\right)\\right] = \\delta,
    \\qquad X \\sim \\chi^2_k ,

which we solve for the tuning constant ``c2`` at a given ``delta`` (or for
``delta`` at a given ``c2``).  The breakdown point of the resulting scale
estimate is ``min(delta, 1 - delta)`` (Maronna 2005), so ``delta = 0.5``
maximizes resistance to contamination.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .rho import RhoFunction, make_rho

__all__ = [
    "expected_rho",
    "calibrate_c2",
    "calibrate_delta",
    "breakdown_point",
    "consistent_rho",
]

# Fixed-order quadrature over the probability axis: E[g(X)] for X ~ chi2_k is
# evaluated as the average of g over equal-probability quantile nodes.  256
# midpoint nodes are ample for the smooth bounded integrands used here.
_N_QUAD = 256
_PROB_NODES = (np.arange(_N_QUAD) + 0.5) / _N_QUAD


@functools.lru_cache(maxsize=64)
def _scaled_nodes(dof: int) -> np.ndarray:
    """The quadrature nodes ``X / dof``, read-only and cached per ``dof``.

    ``2·gammaincinv(dof/2, p)`` is the chi-square quantile bit for bit as
    ``scipy.stats.chi2.ppf`` computes it, without importing
    ``scipy.stats`` (about a second and 45 MiB per process).
    """
    from scipy.special import gammaincinv

    nodes = 2.0 * gammaincinv(dof / 2, _PROB_NODES) / dof
    nodes.setflags(write=False)
    return nodes


def expected_rho(rho: RhoFunction, dof: int) -> float:
    """``E[rho(X / dof)]`` for ``X ~ chi2(dof)``.

    This is the left-hand side of the M-scale equation evaluated at the
    nominal Gaussian model with the scale fixed to its classical value.
    """
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    return float(np.mean(rho.rho(_scaled_nodes(dof))))


def calibrate_c2(
    delta: float,
    dof: int,
    family: str = "bisquare",
    *,
    bracket: tuple[float, float] = (1e-3, 1e6),
) -> float:
    """Solve ``E[rho_{c2}(X/dof)] = delta`` for the tuning constant ``c2``.

    Parameters
    ----------
    delta:
        Target breakdown parameter, ``0 < delta < 1``.  ``E[rho]`` decreases
        monotonically in ``c2`` (a wider acceptance region rejects less), so
        the root is unique.
    dof:
        Effective residual degrees of freedom ``d - p``.
    family:
        Rho family name understood by :func:`repro.core.rho.make_rho`.

    Returns
    -------
    float
        The calibrated ``c2``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")

    def objective(log_c2: float) -> float:
        return expected_rho(make_rho(family, c2=float(np.exp(log_c2))), dof) - delta

    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    f_lo = objective(lo)
    if f_lo * objective(hi) > 0:
        raise ValueError(
            f"calibration bracket {bracket} does not straddle delta={delta} "
            f"for family={family!r}, dof={dof}"
        )
    # The objective is monotone: bisect until the bracket cannot be
    # split (about 58 evaluations), which pins the root to the last bit.
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = objective(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return float(np.exp(mid))


def calibrate_delta(rho: RhoFunction, dof: int) -> float:
    """The ``delta`` consistent with a *given* rho at the nominal model.

    Inverse convenience of :func:`calibrate_c2`: if you fixed ``c2`` by some
    other criterion, this is the breakdown parameter to feed the streaming
    estimator so it stays unbiased on clean data.
    """
    return expected_rho(rho, dof)


def breakdown_point(delta: float) -> float:
    """Asymptotic breakdown point of an M-scale with parameter ``delta``."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return min(delta, 1.0 - delta)


def consistent_rho(
    delta: float, dof: int, family: str = "bisquare"
) -> RhoFunction:
    """A rho-function calibrated so the M-scale is Fisher-consistent.

    Shorthand for ``make_rho(family, calibrate_c2(delta, dof, family))``.
    """
    return make_rho(family, c2=calibrate_c2(delta, dof, family))
