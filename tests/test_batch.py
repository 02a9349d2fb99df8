"""Tests for the offline batch baselines (BatchPCA, BatchRobustPCA) and
the §II-B robust eigenvalue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchPCA,
    BatchRobustPCA,
    calibrate_c2,
    largest_principal_angle,
    make_rho,
    mscale_fixed_point,
    robust_eigenvalues,
)
from repro.core.batch import median
from repro.data import contaminate_block


class TestBatchPCA:
    def test_matches_numpy_svd(self, rng):
        x = rng.standard_normal((200, 15))
        pca = BatchPCA(5).fit(x)
        y = x - x.mean(axis=0)
        _, s, vt = np.linalg.svd(y, full_matrices=False)
        assert np.allclose(pca.eigenvalues_, (s[:5] ** 2) / 200)
        # Row spans agree.
        # arccos near 1.0 limits angle precision to ~sqrt(eps)
        assert largest_principal_angle(pca.components_.T, vt[:5].T) < 1e-6

    def test_recovers_planted_subspace(self, small_model, small_data):
        pca = BatchPCA(3).fit(small_data)
        assert largest_principal_angle(
            pca.components_.T, small_model.basis
        ) < 0.06

    def test_caps_components_at_rank(self, rng):
        x = rng.standard_normal((5, 20))
        pca = BatchPCA(10).fit(x)
        assert pca.components_.shape[0] <= 5

    def test_scale_is_mean_residual(self, rng):
        x = rng.standard_normal((500, 10))
        pca = BatchPCA(3).fit(x)
        y = x - pca.mean_
        recon = (y @ pca.components_.T) @ pca.components_
        expected = float(np.mean(np.sum((y - recon) ** 2, axis=1)))
        assert pca.scale_ == pytest.approx(expected)

    def test_rejects_nan(self, rng):
        x = rng.standard_normal((50, 5))
        x[3, 2] = np.nan
        with pytest.raises(ValueError, match="complete data"):
            BatchPCA(2).fit(x)

    def test_to_eigensystem(self, small_data):
        st_ = BatchPCA(3).fit(small_data).to_eigensystem()
        st_.validate()
        assert st_.n_components == 3


class TestMScaleFixedPoint:
    def test_solves_the_equation(self, rng):
        rho = make_rho("bisquare", c2=4.0)
        r2 = rng.chisquare(5, size=5000)
        sigma2 = mscale_fixed_point(r2, rho, 0.5)
        lhs = float(np.mean(rho.rho(r2 / sigma2)))
        assert lhs == pytest.approx(0.5, abs=1e-6)

    def test_scale_equivariance(self, rng):
        rho = make_rho("bisquare", c2=4.0)
        r2 = rng.chisquare(5, size=2000)
        s1 = mscale_fixed_point(r2, rho, 0.5)
        s2 = mscale_fixed_point(9.0 * r2, rho, 0.5)
        assert s2 == pytest.approx(9.0 * s1, rel=1e-8)

    def test_all_zero_residuals(self):
        rho = make_rho("bisquare")
        assert mscale_fixed_point(np.zeros(10), rho, 0.5) == 0.0

    def test_validation(self):
        rho = make_rho("bisquare")
        with pytest.raises(ValueError, match="non-empty"):
            mscale_fixed_point(np.zeros(0), rho, 0.5)
        with pytest.raises(ValueError, match="non-negative"):
            mscale_fixed_point(np.array([-1.0]), rho, 0.5)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        delta=st.floats(0.2, 0.8),
        scale=st.floats(0.01, 100.0),
    )
    def test_hypothesis_fixed_point_property(self, seed, delta, scale):
        rho = make_rho("bisquare", c2=3.0)
        r2 = scale * np.random.default_rng(seed).chisquare(4, size=500)
        sigma2 = mscale_fixed_point(r2, rho, delta)
        if sigma2 > 0:
            lhs = float(np.mean(rho.rho(r2 / sigma2)))
            assert lhs == pytest.approx(delta, abs=1e-5)


def _eq8_iteration(r2, rho, delta, tol=1e-14, max_iter=20_000):
    """Paper eq. 8 iterated to its fixed point: the reference the
    secant solve must agree with."""
    sigma2 = float(np.median(r2[r2 > 0]))
    for _ in range(max_iter):
        new = float(np.sum(rho.wstar(r2 / sigma2) * r2)) / (r2.size * delta)
        if abs(new - sigma2) <= tol * sigma2:
            return new
        sigma2 = new
    raise AssertionError("eq. 8 did not converge")


class _CountingRho:
    """A ρ that counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def rho(self, t):
        self.calls += 1
        return self.inner.rho(t)


class TestMScaleSecant:
    """The secant solve lands on eq. 8's fixed point in a handful of ρ
    evaluations, and solves the columns of a 2-D ``r2`` at once."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        family=st.sampled_from(["bisquare", "cauchy", "skipped"]),
        dof=st.sampled_from([1, 4, 28]),
        n=st.integers(8, 600),
        scale=st.floats(0.01, 100.0),
        outliers=st.floats(0.0, 0.3),
    )
    def test_agrees_with_the_eq8_iteration(
        self, seed, family, dof, n, scale, outliers
    ):
        rng = np.random.default_rng(seed)
        rho = make_rho(family, c2=calibrate_c2(0.5, dof, family))
        r2 = scale * rng.chisquare(dof, size=n)
        r2[rng.random(n) < outliers] *= 1e4
        assert mscale_fixed_point(r2, rho, 0.5) == pytest.approx(
            _eq8_iteration(r2, rho, 0.5), rel=1e-9
        )

    def test_columns_are_solved_at_once(self, rng):
        rho = make_rho("bisquare", c2=calibrate_c2(0.5, 1))
        r2 = rng.standard_normal((256, 4)) ** 2 * [1.0, 4.0, 0.01, 1e3]
        r2[:20, 0] = 1e6
        r2[:200, 3] = 0.0   # no more than a δ share positive: σ² = 0
        counting = _CountingRho(rho)
        sigma2 = mscale_fixed_point(r2, counting, 0.5)
        assert sigma2.shape == (4,)
        for j in range(3):
            assert sigma2[j] == pytest.approx(
                _eq8_iteration(r2[:, j], rho, 0.5), rel=1e-9
            )
            assert sigma2[j] == pytest.approx(
                mscale_fixed_point(r2[:, j], rho, 0.5), rel=1e-12
            )
        assert sigma2[3] == 0.0
        assert counting.calls <= 10

    def test_robust_eigenvalues_match_per_column_solves(self, rng):
        x = rng.standard_normal((128, 6)) * [5.0, 3.0, 1.0, 1.0, 1.0, 1.0]
        basis = np.eye(6)[:, :3]
        lam, med = robust_eigenvalues(x, basis, np.zeros(6), 0.5)
        rho1 = make_rho("bisquare", c2=calibrate_c2(0.5, 1))
        centered2 = (x[:, :3] - med) ** 2
        for j in range(3):
            assert lam[j] == pytest.approx(
                _eq8_iteration(centered2[:, j], rho1, 0.5), rel=1e-9
            )


class TestMedian:
    """``core.batch.median`` is numpy's median to the last bit, without
    the ``numpy.ma`` import numpy's own medians pay on first call."""

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=np.float64).view(np.int64)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 41),
        d=st.integers(1, 6),
        ties=st.booleans(),
    )
    def test_equals_numpy_on_finite_columns(self, seed, n, d, ties):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d)
        if ties:
            x = np.round(x, 1)
        np.testing.assert_array_equal(
            self._bits(median(x)), self._bits(np.median(x, axis=0))
        )
        np.testing.assert_array_equal(
            self._bits(median(x[:, 0])), self._bits(np.median(x[:, 0]))
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 41),
        d=st.integers(1, 6),
        gap_rate=st.floats(0.0, 0.9),
    )
    def test_equals_nanmedian_on_gappy_columns(self, seed, n, d, gap_rate):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        x[rng.random((n, d)) < gap_rate] = np.nan
        seen = ~np.isnan(x).all(axis=0)
        got = median(x, skip_nan=True)
        assert np.isnan(got[~seen]).all()
        np.testing.assert_array_equal(
            self._bits(got[seen]),
            self._bits(np.nanmedian(x[:, seen], axis=0)),
        )


class TestRobustEigenvalues:
    def test_matches_variance_on_clean_gaussian(self, rng):
        x = rng.standard_normal((5000, 6)) * np.array([3.0, 2.0, 1.0, 1, 1, 1])
        lam, _ = robust_eigenvalues(
            x, np.eye(6)[:, :3], np.median(x, axis=0), 0.5
        )
        assert np.allclose(lam, [9.0, 4.0, 1.0], rtol=0.1)

    def test_ignores_outliers_along_direction(self, rng):
        x = rng.standard_normal((3000, 5))
        x[::50, 0] = 200.0  # gross outliers on axis 0
        lam, _ = robust_eigenvalues(x, np.eye(5)[:, :1], np.zeros(5), 0.5)
        classical = float(np.var(x[:, 0]))
        assert lam[0] == pytest.approx(1.0, rel=0.15)
        assert classical > 100  # what a naive estimate would report

    def test_recentres_each_direction_at_its_median(self, rng):
        x = rng.standard_normal((2000, 4))
        basis = np.eye(4)[:, :2]
        lam, med = robust_eigenvalues(x, basis, np.zeros(4), 0.5)
        shifted, med_shifted = robust_eigenvalues(
            x, basis, np.array([5.0, -3.0, 7.0, 0.0]), 0.5
        )
        assert np.allclose(shifted, lam)
        assert np.allclose(med_shifted, med + [-5.0, 3.0])
        assert np.allclose(med, np.median(x[:, :2], axis=0))


class TestBatchRobustPCA:
    def test_matches_classic_on_clean_data(self, small_model, small_data):
        robust = BatchRobustPCA(3).fit(small_data)
        classic = BatchPCA(3).fit(small_data)
        assert largest_principal_angle(
            robust.components_.T, classic.components_.T
        ) < 0.1
        assert np.allclose(
            robust.eigenvalues_, classic.eigenvalues_, rtol=0.2
        )

    def test_survives_contamination(self, small_model, small_data, rng):
        x, mask = contaminate_block(small_data, 0.1, 25.0, rng)
        robust = BatchRobustPCA(3).fit(x)
        classic = BatchPCA(3).fit(x)
        ang_r = largest_principal_angle(robust.components_.T, small_model.basis)
        ang_c = largest_principal_angle(classic.components_.T, small_model.basis)
        assert ang_r < 0.1
        assert ang_c > 0.5

    def test_weights_downweight_outliers(self, small_data, rng):
        x, mask = contaminate_block(small_data, 0.1, 25.0, rng)
        robust = BatchRobustPCA(3).fit(x)
        assert robust.weights_[mask].mean() < 0.05 * robust.weights_[~mask].mean()

    def test_converges(self, small_data):
        robust = BatchRobustPCA(3).fit(small_data)
        assert robust.converged_
        assert robust.n_iter_ < robust.max_iter

    def test_mean_is_robust(self, small_model, small_data, rng):
        x = small_data.copy()
        # Scattered gross junk (coherent point-mass contamination is
        # legitimately structure; see test_robust.py for that case).
        x[:200] = 25.0 * rng.standard_normal((200, 40))
        robust = BatchRobustPCA(3).fit(x)
        assert np.linalg.norm(robust.mean_ - small_model.mean) < 1.0

    def test_to_eigensystem(self, small_data):
        st_ = BatchRobustPCA(2).fit(small_data).to_eigensystem()
        st_.validate()
        assert st_.scale > 0
