"""Tests for the low-rank Gram-matrix eigensolver and update factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.lowrank import (
    build_merge_factor,
    build_update_factor,
    eigensystem_of_factor,
    rank_k_update,
    rank_one_update,
)


def _dense_top_eig(c: np.ndarray, p: int):
    w, v = np.linalg.eigh(c)
    w, v = w[::-1], v[:, ::-1]
    return v[:, :p], np.clip(w[:p], 0, None)


class TestEigensystemOfFactor:
    def test_matches_dense_eigendecomposition(self, rng):
        a = rng.standard_normal((50, 6))
        e, lam = eigensystem_of_factor(a, 6)
        e_ref, lam_ref = _dense_top_eig(a @ a.T, 6)
        assert np.allclose(lam, lam_ref, rtol=1e-10)
        # Compare projectors (eigenvectors are sign/rotation ambiguous
        # only under degeneracy; random A has distinct eigenvalues).
        assert np.allclose(np.abs(np.sum(e * e_ref, axis=0)), 1.0, atol=1e-8)

    def test_orthonormal_output(self, rng):
        a = rng.standard_normal((30, 5))
        e, _ = eigensystem_of_factor(a, 5)
        assert np.allclose(e.T @ e, np.eye(5), atol=1e-10)

    def test_truncation(self, rng):
        a = rng.standard_normal((30, 8))
        e, lam = eigensystem_of_factor(a, 3)
        assert e.shape == (30, 3)
        assert lam.shape == (3,)
        # Descending order.
        assert np.all(np.diff(lam) <= 0)

    def test_rank_deficient_factor(self, rng):
        col = rng.standard_normal((20, 1))
        a = np.concatenate([col, 2 * col, -col], axis=1)  # rank 1
        e, lam = eigensystem_of_factor(a, 3)
        assert e.shape[1] == 1
        assert lam.shape == (1,)
        assert lam[0] == pytest.approx(np.sum(a * a), rel=1e-10)

    def test_zero_factor(self):
        e, lam = eigensystem_of_factor(np.zeros((10, 3)), 2)
        assert e.shape == (10, 0)
        assert lam.shape == (0,)

    def test_empty_factor(self):
        e, lam = eigensystem_of_factor(np.zeros((10, 0)), 2)
        assert e.shape == (10, 0)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            eigensystem_of_factor(np.zeros(5), 2)
        with pytest.raises(ValueError, match="p must be"):
            eigensystem_of_factor(np.zeros((5, 2)), 0)

    @settings(max_examples=30, deadline=None)
    @given(
        a=arrays(
            np.float64,
            st.tuples(st.integers(2, 15), st.integers(1, 6)),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    def test_hypothesis_eigenvalues_match_dense(self, a):
        e, lam = eigensystem_of_factor(a, a.shape[1])
        w = np.linalg.eigvalsh(a @ a.T)[::-1]
        assert np.allclose(lam, w[: lam.size], atol=1e-8 * max(1, w.max(initial=1)))
        # Reconstruction never exceeds the original quadratic form.
        assert lam.sum() <= np.sum(a * a) + 1e-8 * max(1.0, np.sum(a * a))


class TestBuildUpdateFactor:
    def test_encodes_covariance_recursion(self, rng):
        d, p = 20, 4
        basis, _ = np.linalg.qr(rng.standard_normal((d, p)))
        lam = np.array([9.0, 4.0, 2.0, 1.0])
        y = rng.standard_normal(d)
        gamma, nw = 0.95, 0.05
        a = build_update_factor(basis, lam, y, gamma, nw)
        c_expected = gamma * (basis * lam) @ basis.T + nw * np.outer(y, y)
        assert np.allclose(a @ a.T, c_expected, atol=1e-12)

    def test_shape(self, rng):
        basis, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        a = build_update_factor(basis, np.ones(3), rng.standard_normal(10),
                                0.9, 0.1)
        assert a.shape == (10, 4)

    def test_validation(self, rng):
        basis, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        y = rng.standard_normal(10)
        with pytest.raises(ValueError, match="eigenvalues shape"):
            build_update_factor(basis, np.ones(2), y, 0.9, 0.1)
        with pytest.raises(ValueError, match="y shape"):
            build_update_factor(basis, np.ones(3), np.zeros(5), 0.9, 0.1)
        with pytest.raises(ValueError, match="non-negative"):
            build_update_factor(basis, np.ones(3), y, -0.1, 0.1)


class TestRankOneUpdate:
    def test_equals_dense_update(self, rng):
        """The paper's low-rank trick is exact when the old covariance is
        exactly rank p."""
        d, p = 15, 3
        basis, _ = np.linalg.qr(rng.standard_normal((d, p)))
        lam = np.array([5.0, 3.0, 1.0])
        y = rng.standard_normal(d)
        gamma, nw = 0.9, 0.1
        e_new, lam_new = rank_one_update(basis, lam, y, gamma, nw, p + 1)
        c_dense = gamma * (basis * lam) @ basis.T + nw * np.outer(y, y)
        e_ref, lam_ref = _dense_top_eig(c_dense, p + 1)
        assert np.allclose(lam_new, lam_ref[: lam_new.size], atol=1e-10)

    def test_eigenvalue_mass_conserved(self, rng):
        d, p = 12, 3
        basis, _ = np.linalg.qr(rng.standard_normal((d, p)))
        lam = np.array([5.0, 3.0, 1.0])
        y = rng.standard_normal(d)
        # Keeping p+1 components keeps the full trace of the update.
        _, lam_new = rank_one_update(basis, lam, y, 0.9, 0.1, p + 1)
        expected_trace = 0.9 * lam.sum() + 0.1 * float(y @ y)
        assert lam_new.sum() == pytest.approx(expected_trace, rel=1e-10)


class TestBuildMergeFactor:
    def test_encodes_weighted_sum(self, rng):
        d = 12
        b1, _ = np.linalg.qr(rng.standard_normal((d, 2)))
        b2, _ = np.linalg.qr(rng.standard_normal((d, 3)))
        l1, l2 = np.array([4.0, 1.0]), np.array([5.0, 2.0, 0.5])
        a = build_merge_factor(b1, l1, b2, l2, 0.6, 0.4)
        expected = 0.6 * (b1 * l1) @ b1.T + 0.4 * (b2 * l2) @ b2.T
        assert np.allclose(a @ a.T, expected, atol=1e-12)

    def test_mean_columns(self, rng):
        d = 8
        b1, _ = np.linalg.qr(rng.standard_normal((d, 2)))
        l1 = np.array([2.0, 1.0])
        m = rng.standard_normal(d)
        a = build_merge_factor(b1, l1, b1, l1, 0.5, 0.5, mean_columns=m)
        expected = (b1 * l1) @ b1.T + np.outer(m, m)
        assert np.allclose(a @ a.T, expected, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        b1, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        b2, _ = np.linalg.qr(rng.standard_normal((9, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            build_merge_factor(b1, np.ones(2), b2, np.ones(2), 0.5, 0.5)


def _two_eigh_rank_k(basis, lam, yw, gamma, p, tol=1e-12):
    """The rank-k update as it was before the Gram-of-factor form:
    residual split, eigh of the k x k residual Gram, orthonormal
    augmentation, eigh of the (m+q) x (m+q) projection.  Kept here as
    the reference the one-eigh kernel is held to."""
    m = basis.shape[1]
    z = basis.T @ yw
    r = yw - basis @ z
    w_asc, v_asc = np.linalg.eigh(r.T @ r)
    w, v = np.maximum(w_asc[::-1], 0.0), v_asc[:, ::-1]
    ref = max(w[0], gamma * lam[0])
    q_rank = int(np.count_nonzero(w > ref * tol)) if ref > 0.0 else 0
    small = z @ z.T + np.diag(gamma * lam)
    aug = basis
    if q_rank:
        sq = np.sqrt(w[:q_rank])
        vq = v[:, :q_rank]
        zs = (z @ vq) * sq
        small = np.block([[small, zs], [zs.T, np.diag(w[:q_rank])]])
        aug = np.concatenate((basis, (r @ vq) / sq), axis=1)
    ew_asc, ev_asc = np.linalg.eigh(small)
    ew, ev = np.maximum(ew_asc[::-1], 0.0), ev_asc[:, ::-1]
    keep = int(np.count_nonzero(ew > ew[0] * tol)) if ew[0] > 0 else 0
    k_out = min(p, keep)
    q_mat, _ = np.linalg.qr(aug @ ev[:, :k_out])
    return q_mat, ew[:k_out]


class TestRankKUpdateVsTwoEigh:
    """One-eigh Gram-of-factor rank-k == the two-eigh QR-augmentation."""

    D, M = 90, 5

    def _state(self, rng, m=None):
        m = self.M if m is None else m
        basis, _ = np.linalg.qr(rng.standard_normal((self.D, m)))
        lam = np.sort(rng.uniform(0.5, 5.0, m))[::-1].copy()
        return basis, lam

    def _check(self, basis, lam, block, weights, gamma, p):
        got_e, got_lam = rank_k_update(basis, lam, block, gamma, weights, p)
        live = weights > 0.0
        yw = block[live].T * np.sqrt(weights[live])
        ref_e, ref_lam = _two_eigh_rank_k(basis, lam, yw, gamma, p)
        assert got_e.shape == ref_e.shape
        np.testing.assert_allclose(got_lam, ref_lam, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(
            got_e @ got_e.T, ref_e @ ref_e.T, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            got_e.T @ got_e, np.eye(got_e.shape[1]), atol=1e-12
        )

    def test_full_rank_block(self, rng):
        basis, lam = self._state(rng)
        block = rng.standard_normal((24, self.D))
        self._check(basis, lam, block, rng.uniform(0.1, 1.0, 24), 0.97, 5)

    def test_block_inside_the_current_subspace(self, rng):
        # The old code's q_rank == 0 branch: no residual direction at all.
        basis, lam = self._state(rng)
        block = rng.standard_normal((12, self.M)) @ basis.T
        self._check(basis, lam, block, np.ones(12), 0.99, 5)

    def test_rank_deficient_block(self, rng):
        basis, lam = self._state(rng)
        block = rng.standard_normal((20, 2)) @ rng.standard_normal(
            (2, self.D)
        )
        # p = 7 = m + rank(block): the whole updated range is returned
        # (distinct eigenvalues, so the truncation is well-posed).
        self._check(basis, lam, block, rng.uniform(0.1, 1.0, 20), 0.9, 7)

    def test_zero_weight_rows_are_dropped(self, rng):
        basis, lam = self._state(rng)
        block = rng.standard_normal((16, self.D))
        weights = rng.uniform(0.1, 1.0, 16)
        weights[[0, 5, 15]] = 0.0
        block[5] = 1e6  # a rejected outlier must not touch the result
        self._check(basis, lam, block, weights, 0.95, 5)

    def test_single_row_block(self, rng):
        basis, lam = self._state(rng)
        block = rng.standard_normal((1, self.D))
        self._check(basis, lam, block, np.array([0.4]), 0.98, 5)

    def test_single_component_single_row(self, rng):
        basis, lam = self._state(rng, m=1)
        block = rng.standard_normal((1, self.D))
        self._check(basis, lam, block, np.array([0.4]), 0.98, 1)

    def test_matches_dense_eigendecomposition(self, rng):
        basis, lam = self._state(rng)
        block = rng.standard_normal((24, self.D))
        weights = rng.uniform(0.1, 1.0, 24)
        e, got = rank_k_update(basis, lam, block, 0.97, weights, 5)
        dense = 0.97 * (basis * lam) @ basis.T + (block.T * weights) @ block
        e_ref, lam_ref = _dense_top_eig(dense, 5)
        np.testing.assert_allclose(got, lam_ref, rtol=1e-10)
        np.testing.assert_allclose(e @ e.T, e_ref @ e_ref.T, atol=1e-9)
