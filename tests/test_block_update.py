"""Tests for the batched hot path: the rank-k kernel, the block update
routes of both estimators, their equivalence contract against the
sequential path, the preallocated warm-up buffer, and NotFittedError."""

import numpy as np
import pytest

from repro.core import (
    BlockUpdateResult,
    Eigensystem,
    IncrementalPCA,
    NotFittedError,
    RobustIncrementalPCA,
    fill_block_from_basis,
    rank_k_update,
    rank_one_update,
)
from repro.core.metrics import principal_angles


def planted(rng, n, d, p, variances=None, noise=0.0):
    basis = np.linalg.qr(rng.standard_normal((d, p)))[0]
    if variances is None:
        variances = np.arange(2 * p, p, -1, dtype=float)
    z = rng.standard_normal((n, p)) * np.sqrt(variances)
    x = z @ basis.T
    if noise:
        x = x + noise * rng.standard_normal((n, d))
    return x, basis


def subspace_affinity(a, b):
    """min cos of the principal angles between two (d, p) bases."""
    return float(np.cos(principal_angles(a, b).max()))


class TestRankKKernel:
    def test_matches_dense_eigendecomposition(self):
        """γ·EΛEᵀ + Σ cᵢ yᵢyᵢᵀ, solved low-rank vs dense."""
        rng = np.random.default_rng(0)
        d, p, k = 30, 4, 12
        basis = np.linalg.qr(rng.standard_normal((d, p)))[0]
        lam = np.array([5.0, 3.0, 2.0, 1.0])
        block = rng.standard_normal((k, d))
        weights = rng.random(k) + 0.1
        gamma = 0.8

        dense = gamma * basis @ np.diag(lam) @ basis.T
        dense += (block.T * weights) @ block
        ew_dense = np.linalg.eigvalsh(dense)[::-1]

        e_new, lam_new = rank_k_update(basis, lam, block, gamma, weights, p)
        assert lam_new.shape == (p,)
        assert np.allclose(lam_new, ew_dense[:p], atol=1e-10)
        # Returned basis is orthonormal and spans the dense top-p space.
        assert np.allclose(e_new.T @ e_new, np.eye(p), atol=1e-10)
        ew, ev = np.linalg.eigh(dense)
        top = ev[:, ::-1][:, :p]
        assert subspace_affinity(e_new, top) > 1 - 1e-10

    def test_single_row_matches_rank_one(self):
        rng = np.random.default_rng(1)
        d, p = 20, 3
        basis = np.linalg.qr(rng.standard_normal((d, p)))[0]
        lam = np.array([4.0, 2.0, 1.0])
        y = rng.standard_normal(d)
        e1, l1 = rank_one_update(basis, lam, y, 0.9, 0.1, p)
        ek, lk = rank_k_update(basis, lam, y[None, :], 0.9, np.array([0.1]), p)
        assert np.allclose(l1, lk, atol=1e-10)
        assert subspace_affinity(e1, ek) > 1 - 1e-10

    def test_zero_weight_rows_are_dropped(self):
        rng = np.random.default_rng(2)
        d, p = 15, 3
        basis = np.linalg.qr(rng.standard_normal((d, p)))[0]
        lam = np.array([3.0, 2.0, 1.0])
        block = rng.standard_normal((5, d))
        w = np.array([0.5, 0.0, 0.3, 0.0, 0.2])
        e_a, l_a = rank_k_update(basis, lam, block, 0.9, w, p)
        e_b, l_b = rank_k_update(
            basis, lam, block[w > 0], 0.9, w[w > 0], p
        )
        assert np.allclose(l_a, l_b, atol=1e-12)
        assert subspace_affinity(e_a, e_b) > 1 - 1e-12

    def test_all_zero_weights_is_pure_decay(self):
        rng = np.random.default_rng(3)
        d, p = 10, 2
        basis = np.linalg.qr(rng.standard_normal((d, p)))[0]
        lam = np.array([2.0, 1.0])
        e, l = rank_k_update(
            basis, lam, rng.standard_normal((4, d)), 0.5, np.zeros(4), p
        )
        assert np.allclose(e, basis)
        assert np.allclose(l, 0.5 * lam)

    def test_empty_basis_bootstraps_from_block(self):
        rng = np.random.default_rng(4)
        d, p, k = 12, 3, 8
        block = rng.standard_normal((k, d))
        w = np.ones(k)
        e, l = rank_k_update(np.zeros((d, 0)), np.zeros(0), block, 1.0, w, p)
        ew = np.linalg.eigvalsh(block.T @ block)[::-1]
        assert np.allclose(l, ew[:p], atol=1e-10)

    def test_validation(self):
        rng = np.random.default_rng(5)
        d, p = 10, 2
        basis = np.linalg.qr(rng.standard_normal((d, p)))[0]
        lam = np.array([2.0, 1.0])
        block = rng.standard_normal((3, d))
        with pytest.raises(ValueError):
            rank_k_update(basis, lam, block, 1.0, np.ones(2), p)  # k mismatch
        with pytest.raises(ValueError):
            rank_k_update(basis, lam, block, 1.0, -np.ones(3), p)
        with pytest.raises(ValueError):
            rank_k_update(basis, lam, block[:, :5], 1.0, np.ones(3), p)


class TestClassicalEquivalence:
    def test_alpha_one_exact(self):
        """α=1, data of rank ≤ p: block path equals sequential to 1e-8."""
        rng = np.random.default_rng(10)
        d, p = 50, 5
        x, _ = planted(rng, 600, d, p, noise=0.0)
        seq = IncrementalPCA(p, alpha=1.0, init_size=10)
        blk = IncrementalPCA(p, alpha=1.0, init_size=10)
        for row in x:
            seq.update(row)
        blk.update_block(x)
        assert np.allclose(seq.mean_, blk.mean_, atol=1e-8)
        assert np.allclose(seq.eigenvalues_, blk.eigenvalues_, atol=1e-8)
        assert subspace_affinity(seq.state.basis, blk.state.basis) > 1 - 1e-8
        assert seq.state.sum_count == pytest.approx(blk.state.sum_count)
        assert seq.n_seen == blk.n_seen

    def test_alpha_one_mean_exact_on_noisy_data(self):
        """The mean recursion is exact for any data (no truncation)."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((400, 30)) + 5.0
        seq = IncrementalPCA(4, alpha=1.0, init_size=8)
        blk = IncrementalPCA(4, alpha=1.0, init_size=8)
        for row in x:
            seq.update(row)
        blk.update_block(x)
        assert np.allclose(seq.mean_, blk.mean_, atol=1e-10)

    def test_forgetting_subspace_affinity(self):
        """α<1 per-block approximation: affinity ≥ 0.99 on the Gaussian
        stream (the documented equivalence contract)."""
        rng = np.random.default_rng(12)
        d, p = 60, 5
        x, truth = planted(rng, 2000, d, p, noise=0.1)
        seq = IncrementalPCA(p, alpha=0.995, init_size=10)
        blk = IncrementalPCA(p, alpha=0.995, init_size=10)
        for row in x:
            seq.update(row)
        blk.update_block(x)
        assert subspace_affinity(seq.state.basis, blk.state.basis) >= 0.99
        assert np.allclose(seq.mean_, blk.mean_, atol=1e-8)
        assert seq.state.sum_count == pytest.approx(blk.state.sum_count)

    def test_forgetting_exact_on_rank_p_data(self):
        """With no truncation loss the α<1 unrolling is exact too."""
        rng = np.random.default_rng(13)
        d, p = 40, 4
        x, _ = planted(rng, 500, d, p, noise=0.0)
        seq = IncrementalPCA(p, alpha=0.99, init_size=10)
        blk = IncrementalPCA(p, alpha=0.99, init_size=10)
        for row in x:
            seq.update(row)
        blk.update_block(x)
        assert np.allclose(seq.eigenvalues_, blk.eigenvalues_, atol=1e-8)
        assert np.allclose(seq.mean_, blk.mean_, atol=1e-8)

    def test_chunking_invariance(self):
        """Feeding one big block or many small ones converges to the
        same subspace (chunk boundaries only move diagnostics)."""
        rng = np.random.default_rng(14)
        x, _ = planted(rng, 900, 30, 3, noise=0.05)
        one = IncrementalPCA(3, alpha=1.0, init_size=10)
        many = IncrementalPCA(3, alpha=1.0, init_size=10)
        one.update_block(x)
        for start in range(0, 900, 37):
            many.update_block(x[start : start + 37])
        assert np.allclose(one.mean_, many.mean_, atol=1e-8)
        assert (
            subspace_affinity(one.state.basis, many.state.basis) > 1 - 1e-6
        )

    def test_block_result_diagnostics(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((50, 20))
        est = IncrementalPCA(3, init_size=10)
        res = est.update_block(x)
        assert isinstance(res, BlockUpdateResult)
        assert res.n_buffered == 10
        assert res.n_processed == 40
        assert res.weights.shape == (40,)
        assert np.all(res.weights == 1.0)
        assert res.n_outliers == 0
        assert np.array_equal(
            res.indices, np.arange(10, 50, dtype=np.int64)
        )


class TestRobustEquivalence:
    def test_outlier_parity_and_affinity(self):
        """Block and sequential robust paths flag the same outliers and
        agree on the subspace to ≥ 0.99 affinity."""
        rng = np.random.default_rng(20)
        d, p = 60, 5
        x, truth = planted(
            rng, 1500, d, p, variances=[100, 64, 36, 16, 9], noise=0.1
        )
        out_rows = rng.random(1500) < 0.05
        # Keep the warm-up buffer clean: an outlier inside it poisons the
        # initial scale for both paths alike (a robust_init=False
        # transient, orthogonal to what this test compares).
        out_rows[:50] = False
        x[out_rows] += 50.0 * rng.standard_normal((int(out_rows.sum()), d))

        seq = RobustIncrementalPCA(p, alpha=0.999, init_size=20)
        blk = RobustIncrementalPCA(p, alpha=0.999, init_size=20)
        seq_flags = np.zeros(1500, dtype=bool)
        for i, row in enumerate(x):
            r = seq.update(row)
            if r is not None:
                seq_flags[i] = r.is_outlier
        res = blk.update_block(x)
        blk_flags = np.zeros(1500, dtype=bool)
        blk_flags[res.indices] = res.is_outlier
        assert subspace_affinity(
            seq.components_.T, blk.components_.T
        ) >= 0.99
        assert res.n_processed + res.n_buffered == 1500
        # Every planted outlier past warm-up is caught by both paths,
        # and the per-row decisions agree almost everywhere (borderline
        # inliers may flip with the block-start scale approximation).
        planted_out = out_rows.copy()
        planted_out[:20] = False
        assert np.all(seq_flags[planted_out])
        assert np.all(blk_flags[planted_out])
        assert np.mean(seq_flags == blk_flags) >= 0.97
        # And both reject the contamination (vs the planted truth).
        assert subspace_affinity(blk.components_.T, truth) >= 0.99

    def test_narrow_blocks_hold_the_contract(self):
        """64-row blocks at d = 32 take the covariance route, where the
        eigensolve runs once per W = ⌊0.25/(1-α)⌋ rows and residuals
        between solves see a basis up to W rows old.  The block ≡
        sequential contract still holds, with outliers planted from
        row 21 on, just past the warm-up."""
        rng = np.random.default_rng(23)
        n, d, p = 1500, 32, 5
        x, truth = planted(
            rng, n, d, p, variances=[100, 64, 36, 16, 9], noise=0.1
        )
        out_rows = rng.random(n) < 0.05
        out_rows[:21] = False
        x[out_rows] += 50.0 * rng.standard_normal((int(out_rows.sum()), d))

        seq = RobustIncrementalPCA(p, alpha=0.999, init_size=20)
        blk = RobustIncrementalPCA(p, alpha=0.999, init_size=20)
        seq_flags = np.zeros(n, dtype=bool)
        for i, row in enumerate(x):
            r = seq.update(row)
            if r is not None:
                seq_flags[i] = r.is_outlier
        blk_flags = np.zeros(n, dtype=bool)
        for lo in range(0, n, 64):
            res = blk.update_block(x[lo : lo + 64])
            blk_flags[lo + res.indices] = res.is_outlier
        assert np.all(seq_flags[out_rows])
        assert np.all(blk_flags[out_rows])
        assert np.mean(seq_flags == blk_flags) >= 0.97
        assert subspace_affinity(
            seq.components_.T, blk.components_.T
        ) >= 0.99
        assert subspace_affinity(blk.components_.T, truth) >= 0.99

    def test_gappy_block(self):
        rng = np.random.default_rng(21)
        d, p = 40, 4
        x, _ = planted(rng, 600, d, p, noise=0.1)
        gap_mask = rng.random(x.shape) < 0.1
        x_gappy = x.copy()
        x_gappy[gap_mask] = np.nan
        # One row almost fully missing -> skipped.
        x_gappy[300, 1:] = np.nan

        seq = RobustIncrementalPCA(
            p, alpha=0.999, init_size=20, extra_components=2
        )
        blk = RobustIncrementalPCA(
            p, alpha=0.999, init_size=20, extra_components=2
        )
        for row in x_gappy:
            seq.update(row)
        res = blk.update_block(x_gappy)
        assert blk.n_skipped == seq.n_skipped >= 1
        assert res.n_filled > 0
        assert subspace_affinity(
            seq.components_.T, blk.components_.T
        ) >= 0.99
        # Skipped row is absent from the processed index map.
        assert 300 not in set(res.indices.tolist())

    def test_nan_without_handle_gaps_raises(self):
        est = RobustIncrementalPCA(2, init_size=4, handle_gaps=False)
        est.update_block(np.random.default_rng(0).standard_normal((4, 10)))
        bad = np.ones((3, 10))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="handle_gaps=False"):
            est.update_block(bad)

    def test_counters_match_sequential(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((400, 30))
        seq = RobustIncrementalPCA(3, alpha=0.99, init_size=10)
        blk = RobustIncrementalPCA(3, alpha=0.99, init_size=10)
        for row in x:
            seq.update(row)
        blk.update_block(x)
        assert blk.n_seen == seq.n_seen
        assert blk.state.sum_count == pytest.approx(
            seq.state.sum_count, rel=1e-9
        )


class TestPartialFitRouting:
    def test_partial_fit_does_not_loop_rank_one(self, monkeypatch):
        """Regression (satellite 1): post-init blocks must go through the
        block kernel, not a per-row rank_one_update loop."""
        import repro.core.incremental as inc

        calls = {"rank_one": 0, "rank_k": 0}
        real_k = inc.rank_k_update

        def counting_rank_one(*a, **kw):  # pragma: no cover - must not run
            calls["rank_one"] += 1
            raise AssertionError("partial_fit fell back to rank_one_update")

        def counting_rank_k(*a, **kw):
            calls["rank_k"] += 1
            return real_k(*a, **kw)

        monkeypatch.setattr(inc, "rank_one_update", counting_rank_one)
        monkeypatch.setattr(inc, "rank_k_update", counting_rank_k)

        rng = np.random.default_rng(30)
        est = IncrementalPCA(3, init_size=10)
        est.partial_fit(rng.standard_normal((200, 25)))
        assert calls["rank_one"] == 0
        # One eigensolve per chunk, nowhere near one per row.
        assert 1 <= calls["rank_k"] <= 4

    def test_robust_partial_fit_does_not_loop_rank_one(self, monkeypatch):
        import repro.core.robust as rob

        calls = {"rank_one": 0}

        def counting_rank_one(*a, **kw):  # pragma: no cover - must not run
            calls["rank_one"] += 1
            raise AssertionError(
                "robust partial_fit fell back to rank_one_update"
            )

        monkeypatch.setattr(rob, "rank_one_update", counting_rank_one)
        rng = np.random.default_rng(31)
        est = RobustIncrementalPCA(3, alpha=0.999, init_size=10)
        est.partial_fit(rng.standard_normal((300, 25)))
        assert calls["rank_one"] == 0
        assert est.is_initialized

    def test_sequential_update_still_uses_rank_one(self, monkeypatch):
        """The per-row entry point keeps its rank-one cost profile."""
        import repro.core.incremental as inc

        calls = {"n": 0}
        real = inc.rank_one_update

        def counting(*a, **kw):
            calls["n"] += 1
            return real(*a, **kw)

        monkeypatch.setattr(inc, "rank_one_update", counting)
        rng = np.random.default_rng(32)
        est = IncrementalPCA(3, init_size=10)
        for row in rng.standard_normal((30, 12)):
            est.update(row)
        assert calls["n"] == 20


class TestWarmupBuffer:
    def test_no_python_list_buffer(self):
        """Regression (satellite 2): warm-up storage is a preallocated
        array, not a list of row copies."""
        est = IncrementalPCA(3, init_size=8)
        est.update(np.zeros(16))
        assert not isinstance(est._buffer, list)
        assert isinstance(est._buffer._rows, np.ndarray)
        assert est._buffer._rows.shape == (8, 16)
        rob = RobustIncrementalPCA(3, init_size=8)
        rob.update(np.zeros(16))
        assert not isinstance(rob._buffer, list)
        assert isinstance(rob._buffer._rows, np.ndarray)

    def test_buffer_freed_after_initialize(self):
        rng = np.random.default_rng(40)
        est = IncrementalPCA(3, init_size=8)
        est.update_block(rng.standard_normal((8, 16)))
        assert est.is_initialized
        assert est._buffer._rows is None

    def test_dimension_mismatch_during_warmup(self):
        est = IncrementalPCA(3, init_size=8)
        est.update(np.zeros(16))
        with pytest.raises(ValueError, match="dim"):
            est.update(np.zeros(12))

    def test_block_spanning_warmup_boundary(self):
        rng = np.random.default_rng(41)
        x, _ = planted(rng, 60, 20, 3, noise=0.05)
        est = IncrementalPCA(3, init_size=10)
        res1 = est.update_block(x[:7])
        assert res1.n_buffered == 7 and res1.n_processed == 0
        assert not est.is_initialized
        res2 = est.update_block(x[7:])
        assert res2.n_buffered == 3
        assert res2.n_processed == 50
        assert est.is_initialized
        assert est.n_seen == 60

    def test_robust_warmup_gap_patching_preserved(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((30, 12)) + 3.0
        x[2, 4] = np.nan
        x[5, 0] = np.nan
        est = RobustIncrementalPCA(2, init_size=20)
        res = est.update_block(x)
        assert est.is_initialized
        assert np.all(np.isfinite(est.mean_))
        assert res.n_buffered == 20


class TestNotFittedError:
    @pytest.mark.parametrize(
        "method,arg",
        [
            ("transform", np.zeros(8)),
            ("inverse_transform", np.zeros(3)),
            ("reconstruction_error", np.zeros(8)),
        ],
    )
    def test_incremental_inference_before_fit(self, method, arg):
        est = IncrementalPCA(3, init_size=5)
        with pytest.raises(NotFittedError, match="not initialized"):
            getattr(est, method)(arg)

    def test_robust_inference_before_fit(self):
        est = RobustIncrementalPCA(3, init_size=5)
        with pytest.raises(NotFittedError, match="not initialized"):
            est.transform(np.zeros(8))
        with pytest.raises(NotFittedError, match="not calibrated"):
            est.rho

    def test_notfitted_is_runtimeerror(self):
        """Back-compat: existing RuntimeError catches keep working."""
        assert issubclass(NotFittedError, RuntimeError)
        est = IncrementalPCA(3, init_size=5)
        with pytest.raises(RuntimeError, match="not initialized"):
            est.state

    def test_message_reports_warmup_progress(self):
        est = IncrementalPCA(3, init_size=5)
        est.update(np.zeros(4))
        est.update(np.zeros(4))
        with pytest.raises(NotFittedError, match="2/5"):
            est.state


class TestBlockGapFill:
    def test_complete_rows_untouched(self):
        rng = np.random.default_rng(50)
        d, p = 12, 3
        basis = np.linalg.qr(rng.standard_normal((d, p)))[0]
        mean = rng.standard_normal(d)
        x = rng.standard_normal((6, d))
        x[2, 3] = np.nan
        x[4, 0] = np.nan
        x[4, 7] = np.nan
        res = fill_block_from_basis(x, mean, basis)
        assert np.all(np.isfinite(res.filled))
        clean = [0, 1, 3, 5]
        assert np.array_equal(res.filled[clean], x[clean])
        assert list(res.gappy_rows) == [2, 4]
        assert res.n_filled_per_row[2] == 1
        assert res.n_filled_per_row[4] == 2
        assert res.n_filled == 3
