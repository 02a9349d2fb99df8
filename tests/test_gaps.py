"""Tests for gap filling and gap-aware residual estimation (§II-D)."""

import numpy as np
import pytest

from repro.core.gaps import (
    GAP_RESIDUAL_MODES,
    estimate_residual_norm2,
    estimate_residual_norm2_block,
    fill_block_from_basis,
    fill_from_basis,
    has_gaps,
    observed_mask,
)
from tests.oracles import corrected_residual_norm2


@pytest.fixture
def subspace(rng):
    """A 3-dim subspace in R^30 with orthonormal basis and a mean."""
    basis, _ = np.linalg.qr(rng.standard_normal((30, 3)))
    mean = rng.standard_normal(30)
    return mean, basis


class TestMasks:
    def test_observed_mask(self):
        x = np.array([1.0, np.nan, 3.0, np.inf])
        assert list(observed_mask(x)) == [True, False, True, False]

    def test_has_gaps(self):
        assert has_gaps(np.array([1.0, np.nan]))
        assert not has_gaps(np.array([1.0, 2.0]))


class TestFillFromBasis:
    def test_exact_recovery_for_in_subspace_vectors(self, subspace, rng):
        mean, basis = subspace
        z = rng.standard_normal(3)
        x_true = mean + basis @ z
        x = x_true.copy()
        x[[2, 7, 19]] = np.nan
        result = fill_from_basis(x, mean, basis)
        assert result.n_filled == 3
        assert np.allclose(result.filled, x_true, atol=1e-6)
        assert np.allclose(result.coefficients, z, atol=1e-6)
        # Observed entries are untouched.
        assert np.array_equal(result.filled[result.mask], x[result.mask])

    def test_no_gaps_is_identity(self, subspace, rng):
        mean, basis = subspace
        x = rng.standard_normal(30)
        result = fill_from_basis(x, mean, basis)
        assert result.n_filled == 0
        assert np.array_equal(result.filled, x)
        # Returns a copy, not the input.
        result.filled[0] += 1
        assert x[0] != result.filled[0]

    def test_fully_missing_uses_mean(self, subspace):
        mean, basis = subspace
        x = np.full(30, np.nan)
        result = fill_from_basis(x, mean, basis)
        assert np.allclose(result.filled, mean)
        assert result.n_filled == 30

    def test_empty_basis_uses_mean(self, rng):
        mean = rng.standard_normal(10)
        x = rng.standard_normal(10)
        x[3] = np.nan
        result = fill_from_basis(x, mean, np.zeros((10, 0)))
        assert result.filled[3] == mean[3]

    def test_ridge_handles_degenerate_support(self, rng):
        """A gap that hides almost all of a basis vector's support must
        not blow up the fill."""
        basis = np.zeros((20, 2))
        basis[0, 0] = 1.0  # e1 supported on a single pixel...
        basis[1:, 1] = 1.0 / np.sqrt(19)
        mean = np.zeros(20)
        x = np.ones(20)
        x[0] = np.nan  # ...which is exactly the missing one
        result = fill_from_basis(x, mean, basis)
        assert np.all(np.isfinite(result.filled))
        assert abs(result.filled[0]) < 10.0

    def test_shape_mismatch(self, subspace):
        mean, basis = subspace
        with pytest.raises(ValueError, match="shape"):
            fill_from_basis(np.zeros(5), mean, basis)


class TestResidualEstimation:
    def _setup(self, rng):
        basis, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        basis_p, basis_extra = basis[:, :3], basis[:, 3:]
        y = rng.standard_normal(40)
        mask = np.ones(40, dtype=bool)
        mask[5:15] = False
        return basis_p, basis_extra, y, mask

    def test_observed_mode_matches_manual(self, rng):
        bp, be, y, mask = self._setup(rng)
        got = estimate_residual_norm2(y, mask, bp, be, "observed")
        recon = bp @ (bp.T @ y)
        manual = float(np.sum((y - recon)[mask] ** 2))
        assert got == pytest.approx(manual)

    def test_higher_order_adds_structured_term(self, rng):
        bp, be, y, mask = self._setup(rng)
        obs = estimate_residual_norm2(y, mask, bp, be, "observed")
        ho = estimate_residual_norm2(y, mask, bp, be, "higher-order")
        extra = be @ (be.T @ y)
        assert ho == pytest.approx(obs + float(np.sum(extra[~mask] ** 2)))
        assert ho >= obs

    def test_extrapolate_scales_by_coverage(self, rng):
        bp, be, y, mask = self._setup(rng)
        obs = estimate_residual_norm2(y, mask, bp, be, "observed")
        ex = estimate_residual_norm2(y, mask, bp, be, "extrapolate")
        assert ex == pytest.approx(obs * 40 / mask.sum())

    def test_hybrid_dominates_both(self, rng):
        bp, be, y, mask = self._setup(rng)
        ho = estimate_residual_norm2(y, mask, bp, be, "higher-order")
        ex = estimate_residual_norm2(y, mask, bp, be, "extrapolate")
        hy = estimate_residual_norm2(y, mask, bp, be, "hybrid")
        assert hy >= max(ho, ex) - 1e-12

    def test_no_gaps_all_modes_agree(self, rng):
        bp, be, y, _ = self._setup(rng)
        mask = np.ones(40, dtype=bool)
        vals = {
            m: estimate_residual_norm2(y, mask, bp, be, m)
            for m in GAP_RESIDUAL_MODES
        }
        ref = vals["observed"]
        assert all(v == pytest.approx(ref) for v in vals.values())

    def test_corrected_residual_is_higher_order_mode(self, rng):
        bp, be, y, mask = self._setup(rng)
        assert corrected_residual_norm2(y, mask, bp, be) == pytest.approx(
            estimate_residual_norm2(y, mask, bp, be, "higher-order")
        )

    def test_unknown_mode(self, rng):
        bp, be, y, mask = self._setup(rng)
        with pytest.raises(ValueError, match="unknown gap residual mode"):
            estimate_residual_norm2(y, mask, bp, be, "bogus")

    def test_shape_mismatch(self, rng):
        bp, be, y, mask = self._setup(rng)
        with pytest.raises(ValueError, match="shape"):
            estimate_residual_norm2(y[:10], mask, bp, be, "observed")


def _gappy_block(rng, n=40, d=30):
    """Seeded block with random masks plus the edge rows: fully
    observed (0), one observed bin (1), nothing observed (2)."""
    x = rng.standard_normal((n, d))
    mask = rng.random((n, d)) < rng.uniform(0.3, 0.95, (n, 1))
    mask[0] = True
    mask[1] = False
    mask[1, 7] = True
    mask[2] = False
    x[~mask] = np.nan
    return x, mask


class TestBlockFormsMatchPerRow:
    """The block gap fill / block residual against their scalar
    references, row by row, at 1e-10."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fill_block_matches_fill_from_basis(self, subspace, seed):
        mean, basis = subspace
        x, mask = _gappy_block(np.random.default_rng(seed))
        x_before = x.copy()
        block = fill_block_from_basis(x, mean, basis)
        np.testing.assert_array_equal(x, x_before)  # input untouched
        np.testing.assert_array_equal(block.mask, mask)
        np.testing.assert_array_equal(
            block.gappy_rows, np.nonzero(~mask.all(axis=1))[0]
        )
        for i in range(x.shape[0]):
            row = fill_from_basis(x[i], mean, basis)
            np.testing.assert_allclose(
                block.filled[i], row.filled, rtol=0, atol=1e-10
            )
            assert block.n_filled_per_row[i] == row.n_filled
        np.testing.assert_array_equal(block.filled[0], x[0])
        np.testing.assert_allclose(block.filled[2], mean)

    def test_fill_block_accepts_a_precomputed_mask(self, subspace, rng):
        mean, basis = subspace
        x, mask = _gappy_block(rng)
        a = fill_block_from_basis(x, mean, basis)
        b = fill_block_from_basis(x, mean, basis, mask=mask)
        np.testing.assert_array_equal(a.filled, b.filled)
        assert b.mask is mask

    def test_fill_block_empty_basis_is_mean_fill(self, rng):
        x, mask = _gappy_block(rng)
        mean = rng.standard_normal(30)
        block = fill_block_from_basis(x, mean, np.zeros((30, 0)))
        np.testing.assert_array_equal(
            block.filled, np.where(mask, x, mean)
        )

    @pytest.mark.parametrize("mode", GAP_RESIDUAL_MODES)
    @pytest.mark.parametrize("n_extra", [0, 2])
    def test_block_residual_matches_scalar(self, rng, mode, n_extra):
        basis, _ = np.linalg.qr(rng.standard_normal((30, 3 + n_extra)))
        basis_p, basis_extra = basis[:, :3], basis[:, 3:]
        x, mask = _gappy_block(rng)
        y = fill_block_from_basis(x, np.zeros(30), basis_p).filled
        got = estimate_residual_norm2_block(
            y, mask, basis_p, basis_extra, mode
        )
        want = [
            estimate_residual_norm2(
                y[i], mask[i], basis_p, basis_extra, mode
            )
            for i in range(y.shape[0])
        ]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        assert got[2] == 0.0  # nothing observed carries no residual

    def test_block_residual_validation(self, rng):
        bp = np.linalg.qr(rng.standard_normal((30, 3)))[0]
        y = rng.standard_normal((4, 30))
        with pytest.raises(ValueError, match="unknown gap residual mode"):
            estimate_residual_norm2_block(
                y, np.ones((4, 30), bool), bp, bp[:, :0], "magic"
            )
        with pytest.raises(ValueError, match="matching"):
            estimate_residual_norm2_block(
                y, np.ones((3, 30), bool), bp, bp[:, :0]
            )


class TestIterativeGapFill:
    """The offline multi-pass baseline the streaming method supersedes."""

    def test_recovers_subspace_and_values(self, rng):
        from repro.core import largest_principal_angle
        from tests.oracles import iterative_gap_fill
        from repro.data import PlantedSubspaceModel

        model = PlantedSubspaceModel(
            dim=30, signal_variances=(16.0, 9.0, 4.0), noise_std=0.2, seed=2
        )
        x = model.sample(800, rng)
        gappy = x.copy()
        mask = rng.random(x.shape) < 0.2
        gappy[mask] = np.nan
        filled, state, n_iter = iterative_gap_fill(gappy, 3)
        assert n_iter >= 1
        assert np.all(np.isfinite(filled))
        # Observed entries preserved.
        assert np.array_equal(filled[~mask], x[~mask])
        # Filled entries reconstructed to ~the noise floor.
        rmse = float(np.sqrt(np.mean((filled[mask] - x[mask]) ** 2)))
        assert rmse < 3 * model.noise_std
        assert largest_principal_angle(state.basis, model.basis) < 0.1

    def test_complete_data_converges_immediately(self, rng):
        from tests.oracles import iterative_gap_fill

        x = rng.standard_normal((50, 8))
        filled, _, n_iter = iterative_gap_fill(x, 2)
        assert np.array_equal(filled, x)
        assert n_iter == 1

    def test_validation(self, rng):
        from tests.oracles import iterative_gap_fill

        with pytest.raises(ValueError, match="\\(n, d\\)"):
            iterative_gap_fill(np.zeros(5), 2)
        bad = rng.standard_normal((5, 4))
        bad[0] = np.nan
        with pytest.raises(ValueError, match="at least one observed"):
            iterative_gap_fill(bad, 2)
