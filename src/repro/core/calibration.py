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
import statistics

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

_EPS = float(np.finfo(float).eps)
_TINY = 1e-300
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    """``ln(x^a·e^-x/Γ(a))``, the factor ``P(a, x)`` and ``Q(a, x)`` share.

    From ``a = 20`` on its three terms grow like ``a·ln a`` while their
    sum stays near ``ln √a``, which would cost ``a·ln a`` ulps.  There it
    is rearranged around ``x = a`` with Stirling's series ``S(a)`` for
    ``lnΓ(a)``: ``a·(ln(1+t) − t) + ½·ln a − ln √(2π) − S(a)``,
    ``t = x/a − 1``.
    """
    if a < 20.0:
        return a * np.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    r = 1.0 / (a * a)
    stirling = (1 / 12 - r * (1 / 360 - r * (
        1 / 1260 - r * (1 / 1680 - r / 1188)))) / a
    return (
        a * (np.log1p(t) - t) + 0.5 * math.log(a) - _LN_SQRT_2PI - stirling
    )


def _gamma_pq(a: float, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(P(a, x), Q(a, x), x^a·e^-x/Γ(a))`` of the regularised
    incomplete gamma function, elementwise.

    ``P`` by its power series below ``x = a + 1``, ``Q`` by Lentz's
    continued fraction above it (Numerical Recipes §6.2): each converges
    fast and without cancellation on its side, and gives the other as its
    complement.
    """
    series = x < a + 1.0
    pq = np.empty_like(x)
    xs = x[series]
    if xs.size:
        term = np.full_like(xs, 1.0 / a)
        total = term.copy()
        n = a
        while not np.all(term < total * _EPS):
            n += 1.0
            term *= xs / n
            total += term
        pq[series] = total
    xc = x[~series]
    if xc.size:
        b = xc + 1.0 - a
        c = np.full_like(xc, 1.0 / _TINY)
        d = 1.0 / b
        h = d.copy()
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d[np.abs(d) < _TINY] = _TINY
            c = b + an / c
            c[np.abs(c) < _TINY] = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if np.all(np.abs(delta - 1.0) <= 2 * _EPS):
                break
        pq[~series] = h
    prefactor = np.exp(_log_prefactor(a, x))
    pq *= prefactor
    return (
        np.where(series, pq, 1.0 - pq), np.where(series, 1.0 - pq, pq),
        prefactor,
    )


def _chi2_start(dof: int) -> np.ndarray:
    """First guess ``X/2`` for the ``χ²_dof`` quantiles at ``_PROB_NODES``:
    the Wilson–Hilferty cube, floored where it goes negative in the far
    lower tail of a small ``dof`` (Halley's steps climb from there)."""
    inv_cdf = statistics.NormalDist().inv_cdf
    z = np.array([inv_cdf(v) for v in _PROB_NODES])
    s = 2.0 / (9.0 * dof)
    return 0.5 * dof * np.maximum(1.0 - s + z * math.sqrt(s), 1e-3) ** 3


@functools.lru_cache(maxsize=64)
def _scaled_nodes(dof: int) -> np.ndarray:
    """The quadrature nodes ``X / dof``, read-only and cached per ``dof``.

    ``X`` is the ``χ²_dof`` quantile at each of ``_PROB_NODES``:
    ``X = 2x`` with ``P(dof/2, x) = p``, solved by Halley steps from
    :func:`_chi2_start` — on ``Q = 1 − P`` for ``p > ½``, so the upper
    tail keeps its relative precision.  The nodes agree with
    ``scipy.special.gammaincinv`` to 1e-13 relative: 2.4e-14 at
    ``dof = 1`` (where they are the closer of the two to the exact
    quantiles) and 4.6e-15 over ``dof`` 2–64, 100, 996, 1000 and 4096.
    No scipy module is loaded; the first calibration at ``dof = 996``
    takes about 12 ms on a 2-vCPU box.
    """
    a = 0.5 * dof
    lower = _PROB_NODES <= 0.5
    target = np.where(lower, _PROB_NODES, 1.0 - _PROB_NODES)
    x = _chi2_start(dof)
    for _ in range(32):
        p, q, prefactor = _gamma_pq(a, x)
        # f = P − p on both sides, evaluated as (1 − p) − Q above ½.
        u = np.where(lower, p - target, target - q) * x / prefactor
        step = u / (1.0 - 0.5 * np.minimum(1.0, u * ((a - 1.0) / x - 1.0)))
        x_new = x - step
        x_new = np.where(x_new > 0.0, x_new, 0.5 * x)
        converged = np.all(np.abs(x_new - x) <= 1e-12 * x_new)
        x = x_new
        if converged:
            break
    else:
        raise ArithmeticError(f"chi-square quantiles for dof={dof} diverged")
    nodes = 2.0 * x / dof
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


@functools.lru_cache(maxsize=128)
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
        The calibrated ``c2`` (cached per argument set: each robust
        eigenvalue call asks for the ``dof = 1`` constant again).
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
