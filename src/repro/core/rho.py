"""Bounded :math:`\\rho`-functions for M-scale estimation.

The robust streaming PCA of the paper (Section II-A) replaces the classical
mean-square residual scale by an *M-scale* :math:`\\sigma^2` (Maronna 2005)
that solves

.. math::

    \\frac{1}{N}\\sum_{n=1}^{N} \\rho\\!\\left(\\frac{r_n^2}{\\sigma^2}\\right)
    = \\delta ,

where :math:`\\rho` is a bounded, non-decreasing function scaled so that
:math:`\\rho(0)=0` and :math:`\\rho(\\infty)=1`, and :math:`\\delta` controls
the breakdown point of the estimator.

Two weight functions derived from :math:`\\rho` drive the algorithm:

``weight``
    :math:`W(t) = \\rho'(t)` — the per-observation weight entering the
    weighted mean and weighted covariance (paper eqs. 6–7).
``wstar``
    :math:`W^\\star(t) = \\rho(t)/t` — the weight entering the fixed-point
    re-evaluation of the scale (paper eq. 8), with the continuous limit
    :math:`W^\\star(0) = \\rho'(0)`.

All functions are vectorized over numpy arrays of the *squared, scaled*
residual :math:`t = r^2/\\sigma^2 \\ge 0`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RhoFunction",
    "BisquareRho",
    "CauchyRho",
    "SkippedMeanRho",
    "make_rho",
]


class RhoFunction(abc.ABC):
    """A bounded rho-function of the squared scaled residual ``t = r²/σ²``.

    Subclasses implement :meth:`rho` and :meth:`weight`; :meth:`wstar` has a
    generic implementation with the correct ``t -> 0`` limit.

    All three methods accept scalars or numpy arrays and return values of
    the same shape.  Inputs must be non-negative.
    """

    #: Tuning constant controlling where the function saturates, in units
    #: of the scaled squared residual.  ``t >= c2`` is (close to) fully
    #: rejected for redescending families.
    c2: float

    @abc.abstractmethod
    def rho(self, t: np.ndarray | float) -> np.ndarray | float:
        """Evaluate ``rho(t)`` with ``rho(0) = 0`` and ``rho(inf) = 1``."""

    @abc.abstractmethod
    def weight(self, t: np.ndarray | float) -> np.ndarray | float:
        """Evaluate ``W(t) = rho'(t)`` (the covariance weight)."""

    @abc.abstractmethod
    def weight_at_zero(self) -> float:
        """The limit ``rho'(0)``, used for ``wstar(0)``."""

    def wstar(self, t: np.ndarray | float) -> np.ndarray | float:
        """Evaluate ``W*(t) = rho(t) / t`` with its limit at ``t = 0``.

        Finite everywhere on ``[0, inf]``: boundedness gives
        ``rho(t)/t -> 0`` as ``t -> inf`` (infinite scaled residuals
        arise whenever the M-scale underflows to zero).
        """
        if isinstance(t, float):  # per-tuple hot path (np.float64 included)
            if t < 1e-300:
                return self.weight_at_zero()
            return float(self.rho(t)) / t
        t_arr = np.asarray(t, dtype=np.float64)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        out = np.empty_like(t_arr)
        small = t_arr < 1e-300
        out[small] = self.weight_at_zero()
        ts = t_arr[~small]
        out[~small] = np.asarray(self.rho(ts)) / ts
        return float(out[0]) if scalar else out

    def block_weights(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(W(t), W*(t))`` over a 1-D block of scaled residuals.

        Used by the block update of
        :class:`~repro.core.robust.RobustIncrementalPCA`, where both
        weights are needed for every row.
        """
        arr = np.ascontiguousarray(t, dtype=np.float64)
        return np.asarray(self.weight(arr)), np.asarray(self.wstar(arr))

    def rejection_point(self) -> float:
        """Value of ``t`` beyond which ``W(t) = 0`` (``inf`` if none)."""
        return math.inf

    def with_c2(self, c2: float) -> "RhoFunction":
        """Return a copy of this family with a new tuning constant."""
        return type(self)(c2=c2)  # type: ignore[call-arg]


def _validated_t(t: np.ndarray | float) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=np.float64)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


@dataclass(frozen=True)
class BisquareRho(RhoFunction):
    """Tukey bisquare rho expressed in ``t = r²/σ²``.

    With ``u = r/σ`` the classical biweight is
    ``rho_u(u) = 1 - (1 - (u/c)²)³`` for ``|u| <= c`` and 1 beyond.  In the
    squared variable ``t = u²`` and with ``c2 = c²``:

    .. math::

        \\rho(t) = 1 - (1 - t/c_2)^3 \\quad (t \\le c_2), \\qquad
        \\rho(t) = 1 \\quad (t > c_2).

    This is the redescending family used throughout the paper's lineage
    (Maronna 2005; Budavári et al. 2009): observations with
    ``t >= c2`` receive exactly zero covariance weight, which is what makes
    gross outliers harmless.
    """

    c2: float = 9.0

    def __post_init__(self) -> None:
        if not self.c2 > 0:
            raise ValueError(f"c2 must be positive, got {self.c2}")

    def rho(self, t):
        if isinstance(t, float):
            z = min(max(t / self.c2, 0.0), 1.0)
            # 1 - (1-z)^3 expanded as z(3 - 3z + z²): cancellation-free
            # at z -> 0 (wstar = rho/t needs full precision there).
            return z * (3.0 - 3.0 * z + z * z)
        arr, scalar = _validated_t(t)
        z = np.clip(arr / self.c2, 0.0, 1.0)
        out = z * (3.0 - 3.0 * z + z * z)
        return float(out[0]) if scalar else out

    def weight(self, t):
        if isinstance(t, float):
            z = min(t / self.c2, 1.0)
            u = 1.0 - z
            return (3.0 / self.c2) * u * u
        arr, scalar = _validated_t(t)
        z = arr / self.c2
        out = np.where(z < 1.0, (3.0 / self.c2) * (1.0 - np.minimum(z, 1.0)) ** 2, 0.0)
        return float(out[0]) if scalar else out

    def weight_at_zero(self) -> float:
        return 3.0 / self.c2

    def rejection_point(self) -> float:
        return self.c2

    def block_weights(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(W, W*)`` from one shared ``u = 1 - min(t/c2, 1)``.

        ``W = (3/c2)·u²``; for ``t <= c2``, ``W* = rho(t)/t`` is
        ``(1 + u + u²)/c2`` (``3 - 3z + z²`` with ``z = 1 - u``: no
        division by ``t``, so no special case at 0), and beyond the
        rejection point ``rho = 1`` gives ``W* = 1/t``.
        """
        t = np.asarray(t, dtype=np.float64)
        u = 1.0 - np.minimum(t / self.c2, 1.0)
        u2 = u * u
        wstar = (1.0 + u + u2) / self.c2
        rejected = t > self.c2
        if rejected.any():
            wstar[rejected] = 1.0 / t[rejected]
        return (3.0 / self.c2) * u2, wstar


@dataclass(frozen=True)
class CauchyRho(RhoFunction):
    """Smooth bounded rho ``rho(t) = t / (t + c2)``.

    Never fully rejects an observation (``W(t) > 0`` everywhere) but decays
    as ``1/t²``; useful when a soft down-weighting is preferred over the
    hard redescend of the bisquare.
    """

    c2: float = 4.0

    def __post_init__(self) -> None:
        if not self.c2 > 0:
            raise ValueError(f"c2 must be positive, got {self.c2}")

    def rho(self, t):
        # Two forms of t/(t + c2), split at t = c2: the direct ratio is
        # inf/inf = NaN at t = inf (where the limit is plainly 1), while
        # the complement 1 - c2/(t + c2) loses precision to cancellation
        # for t << c2 (wstar = rho/t needs those digits).  Each form is
        # used only where it is exact.
        if isinstance(t, float):
            if t < self.c2:
                return t / (t + self.c2)
            return 1.0 - self.c2 / (t + self.c2)
        arr, scalar = _validated_t(t)
        denom = arr + self.c2
        lo = np.minimum(arr, self.c2)  # finite in the branch that uses it
        out = np.where(arr < self.c2, lo / denom, 1.0 - self.c2 / denom)
        return float(out[0]) if scalar else out

    def weight(self, t):
        # c2/(t + c2)² evaluated as (c2/(t+c2))/(t+c2): the squared
        # denominator overflows to inf (RuntimeWarning, then weight 0 by
        # accident) once t > ~1e154; the factored form underflows cleanly
        # and is exactly 0.0 at t = inf.
        if isinstance(t, float):
            denom = t + self.c2
            return (self.c2 / denom) / denom
        arr, scalar = _validated_t(t)
        denom = arr + self.c2
        out = (self.c2 / denom) / denom
        return float(out[0]) if scalar else out

    def weight_at_zero(self) -> float:
        return 1.0 / self.c2


@dataclass(frozen=True)
class SkippedMeanRho(RhoFunction):
    """Hard-rejection rho: ``rho(t) = min(t/c2, 1)``.

    The weight is a step function (``1/c2`` inside the acceptance region,
    ``0`` outside), i.e. observations are either used at full weight or
    skipped entirely.  Cheap and easy to reason about, at the cost of a
    discontinuous influence function.
    """

    c2: float = 9.0

    def __post_init__(self) -> None:
        if not self.c2 > 0:
            raise ValueError(f"c2 must be positive, got {self.c2}")

    def rho(self, t):
        if isinstance(t, float):
            return min(t / self.c2, 1.0)
        arr, scalar = _validated_t(t)
        out = np.minimum(arr / self.c2, 1.0)
        return float(out[0]) if scalar else out

    def weight(self, t):
        if isinstance(t, float):
            return 1.0 / self.c2 if t < self.c2 else 0.0
        arr, scalar = _validated_t(t)
        out = np.where(arr < self.c2, 1.0 / self.c2, 0.0)
        return float(out[0]) if scalar else out

    def weight_at_zero(self) -> float:
        return 1.0 / self.c2

    def rejection_point(self) -> float:
        return self.c2


_FAMILIES: dict[str, type[RhoFunction]] = {
    "bisquare": BisquareRho,
    "cauchy": CauchyRho,
    "skipped": SkippedMeanRho,
}


def make_rho(family: str = "bisquare", c2: float | None = None) -> RhoFunction:
    """Construct a rho-function by family name.

    Parameters
    ----------
    family:
        One of ``"bisquare"`` (default, the paper's choice), ``"cauchy"``,
        ``"skipped"``.
    c2:
        Tuning constant in units of the scaled squared residual; ``None``
        uses the family default.  See :mod:`repro.core.calibration` for
        choosing ``c2`` consistently with a breakdown parameter ``delta``.
    """
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown rho family {family!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return cls() if c2 is None else cls(c2=c2)
