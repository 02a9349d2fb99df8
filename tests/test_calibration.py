"""Tests for the M-scale calibration machinery."""

import numpy as np
import pytest

from repro.core.calibration import (
    breakdown_point,
    calibrate_c2,
    calibrate_delta,
    consistent_rho,
    expected_rho,
)
from repro.core.rho import BisquareRho, make_rho

# calibrate_c2 roots as scipy's brentq (xtol = rtol = 1e-12) found them
# over 256 chi2 quadrature nodes, before the in-repo solver replaced it.
_PINNED_C2 = {
    ("bisquare", 0.2, 1): 11.701208090104648,
    ("bisquare", 0.2, 4): 13.400298421590595,
    ("bisquare", 0.2, 28): 13.872189660955716,
    ("bisquare", 0.2, 996): 13.948259096456175,
    ("bisquare", 0.5, 1): 2.395204989009805,
    ("bisquare", 0.5, 4): 4.195551188372992,
    ("bisquare", 0.5, 28): 4.756706484943048,
    ("bisquare", 0.5, 996): 4.844788162428913,
    ("bisquare", 0.8, 1): 0.3111012706668496,
    ("bisquare", 0.8, 4): 1.5734684161185015,
    ("bisquare", 0.8, 28): 2.284827985453587,
    ("bisquare", 0.8, 996): 2.4050722291498716,
    ("cauchy", 0.2, 1): 2.7615742791019495,
    ("cauchy", 0.2, 4): 3.627912721210741,
    ("cauchy", 0.2, 28): 3.9433158780723767,
    ("cauchy", 0.2, 996): 3.998388721893961,
    ("cauchy", 0.5, 1): 0.37453360472586084,
    ("cauchy", 0.5, 4): 0.7797917782164987,
    ("cauchy", 0.5, 28): 0.9649634702660743,
    ("cauchy", 0.5, 996): 0.9989981508144542,
    ("cauchy", 0.8, 1): 0.03373626023345658,
    ("cauchy", 0.8, 4): 0.1612357730534369,
    ("cauchy", 0.8, 28): 0.23592895542794723,
    ("cauchy", 0.8, 996): 0.24959969802095644,
    ("skipped", 0.2, 1): 4.73930738593832,
    ("skipped", 0.2, 4): 4.996333461126933,
    ("skipped", 0.2, 28): 4.99941437357753,
    ("skipped", 0.2, 996): 4.999983218142379,
    ("skipped", 0.5, 1): 1.0834152144158098,
    ("skipped", 0.5, 4): 1.86181373473541,
    ("skipped", 0.5, 28): 1.9997657494310106,
    ("skipped", 0.5, 996): 1.999993287256951,
    ("skipped", 0.8, 1): 0.1455049943212296,
    ("skipped", 0.8, 4): 0.7874487257455153,
    ("skipped", 0.8, 28): 1.2002854790433042,
    ("skipped", 0.8, 996): 1.249995804535639,
}


class TestExpectedRho:
    def test_monotone_decreasing_in_c2(self):
        # Wider acceptance region => smaller expected rho.
        values = [
            expected_rho(BisquareRho(c2=c2), dof=10)
            for c2 in (0.5, 1.0, 2.0, 5.0, 20.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounds(self):
        assert 0.0 < expected_rho(BisquareRho(c2=2.0), dof=5) < 1.0

    def test_tiny_c2_rejects_everything(self):
        assert expected_rho(BisquareRho(c2=1e-6), dof=5) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_invalid_dof(self):
        with pytest.raises(ValueError, match="dof"):
            expected_rho(BisquareRho(), dof=0)

    def test_matches_monte_carlo(self):
        rho = BisquareRho(c2=3.0)
        dof = 8
        rng = np.random.default_rng(0)
        x = rng.chisquare(dof, size=200_000)
        mc = float(np.mean(rho.rho(x / dof)))
        assert expected_rho(rho, dof) == pytest.approx(mc, abs=5e-3)


class TestCalibrateC2:
    @pytest.mark.parametrize("delta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("dof", [1, 5, 50, 500])
    def test_calibration_solves_equation(self, delta, dof):
        c2 = calibrate_c2(delta, dof)
        rho = make_rho("bisquare", c2=c2)
        assert expected_rho(rho, dof) == pytest.approx(delta, abs=1e-9)

    @pytest.mark.parametrize("family", ["bisquare", "cauchy", "skipped"])
    def test_all_families(self, family):
        c2 = calibrate_c2(0.5, 20, family)
        rho = make_rho(family, c2=c2)
        assert expected_rho(rho, 20) == pytest.approx(0.5, abs=1e-9)

    def test_smaller_delta_means_larger_c2(self):
        # Less rejection mass => wider acceptance.
        c_small = calibrate_c2(0.2, 10)
        c_big = calibrate_c2(0.8, 10)
        assert c_small > c_big

    def test_invalid_delta(self):
        for delta in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="delta"):
                calibrate_c2(delta, 10)

    @pytest.mark.parametrize(
        "family, delta, dof", sorted(_PINNED_C2), ids=lambda v: str(v)
    )
    def test_pinned_roots(self, family, delta, dof):
        assert calibrate_c2(delta, dof, family) == pytest.approx(
            _PINNED_C2[family, delta, dof], rel=1e-12, abs=0.0
        )

    def test_bracket_must_straddle_delta(self):
        with pytest.raises(ValueError, match="does not straddle"):
            calibrate_c2(0.5, 28, bracket=(10.0, 100.0))

    def test_quadrature_nodes_are_the_chi2_quantiles(self):
        # The nodes are solved in-repo; scipy is only the reference here.
        from scipy.special import gammaincinv

        from repro.core.calibration import _PROB_NODES, _scaled_nodes

        for dof in (*range(1, 65), 100, 996, 1000, 4096):
            x = 2.0 * gammaincinv(dof / 2, _PROB_NODES)
            np.testing.assert_allclose(
                _scaled_nodes(dof), x / dof, rtol=1e-13, atol=0.0,
                err_msg=f"dof={dof}",
            )

    def test_roundtrip_with_calibrate_delta(self):
        c2 = calibrate_c2(0.37, 12)
        assert calibrate_delta(BisquareRho(c2=c2), 12) == pytest.approx(
            0.37, abs=1e-9
        )


class TestBreakdownPoint:
    def test_symmetric_max_at_half(self):
        assert breakdown_point(0.5) == 0.5
        assert breakdown_point(0.3) == 0.3
        assert breakdown_point(0.8) == pytest.approx(0.2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            breakdown_point(0.0)
        with pytest.raises(ValueError):
            breakdown_point(1.0)


class TestConsistentRho:
    def test_returns_calibrated_family(self):
        rho = consistent_rho(0.5, 30)
        assert isinstance(rho, BisquareRho)
        assert expected_rho(rho, 30) == pytest.approx(0.5, abs=1e-9)

    def test_mscale_is_fisher_consistent(self):
        """On clean Gaussian residuals the M-scale equals the classic one."""
        from repro.core.batch import mscale_fixed_point

        dof = 20
        rho = consistent_rho(0.5, dof)
        rng = np.random.default_rng(3)
        # r² ~ s²·chi2_dof with s = 2.0 => classical scale = 4·dof
        r2 = 4.0 * rng.chisquare(dof, size=100_000)
        sigma2 = mscale_fixed_point(r2, rho, 0.5)
        assert sigma2 == pytest.approx(4.0 * dof, rel=0.02)
