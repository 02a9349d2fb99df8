"""The block kernels against their per-row references.

Every kernel in :mod:`repro.core.kernels` (and ``RhoFunction.block_weights``)
has one vectorised implementation; each is pinned here at 1e-10 against
an independent per-row reference that ships in ``repro.core``:
``eigensystem_of_factor`` on the concatenated factor, ``fill_from_basis``,
``Eigensystem.residual_norm2`` and the scalar branches of ``weight`` /
``wstar``.
"""

import numpy as np
import pytest

from repro.core import Eigensystem, RobustIncrementalPCA, kernels, make_rho
from repro.core.lowrank import eigensystem_of_factor, rank_k_update
from repro.core.gaps import fill_block_from_basis, fill_from_basis


def _random_state(rng, d, m):
    basis, _ = np.linalg.qr(rng.standard_normal((d, m)))
    lam = np.sort(rng.uniform(0.5, 5.0, m))[::-1].copy()
    return np.ascontiguousarray(basis), lam


def _assert_same_eigensystem(result_a, result_b, tol=1e-10):
    e_a, lam_a = result_a
    e_b, lam_b = result_b
    assert e_a.shape == e_b.shape
    np.testing.assert_allclose(lam_a, lam_b, rtol=tol, atol=tol)
    if e_a.shape[1]:
        # Columns are defined up to sign: compare the cross-Gram to ±I.
        cross = np.abs(e_a.T @ e_b)
        np.testing.assert_allclose(cross, np.eye(e_a.shape[1]), atol=1e-8)


def _factor_route(basis, lam, yw, gamma, p):
    """``rank_k_core``'s answer by the concatenated-factor route."""
    factor = np.concatenate([basis * np.sqrt(gamma * lam), yw], axis=1)
    return eigensystem_of_factor(factor, p)


#: ``(d, m, k)`` on both sides of ``rank_k_core``'s route choice: the
#: ``d × d`` covariance when ``d <= m + k``, the Gram otherwise; the last
#: is the narrow benchmark workloads' block.
_CROSSOVER_SHAPES = [(20, 5, 16), (21, 5, 16), (22, 5, 16), (32, 4, 64)]


def _shape_params(shapes):
    return [pytest.param(*s, id="d{}-m{}-k{}".format(*s)) for s in shapes]


class TestInterpretedSourceParity:
    """Kernel vs per-row reference.  (The class name predates the
    one-implementation kernels; it stays so the test ids do.)"""

    @pytest.mark.parametrize("family", ["bisquare", "cauchy", "skipped"])
    def test_rho_weights(self, family):
        rng = np.random.default_rng(7)
        t = np.concatenate(
            [
                rng.uniform(0.0, 30.0, 200),
                [0.0, 1e-320, 1e-12, 4.0, 9.0, 1e155, 1e300, np.inf],
            ]
        )
        for c2 in (4.0, 9.0, 0.3):
            rho = make_rho(family, c2)
            w, ws = rho.block_weights(t)
            # float(...) takes the scalar (isinstance(t, float)) branches.
            w_ref = [rho.weight(float(ti)) for ti in t]
            ws_ref = [rho.wstar(float(ti)) for ti in t]
            np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=0)
            np.testing.assert_allclose(ws, ws_ref, rtol=1e-10, atol=0)
            assert np.all(np.isfinite(w))
            assert np.all(np.isfinite(ws))

    def test_residual_norm2(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((64, 300))
        basis, lam = _random_state(rng, 300, 6)
        state = Eigensystem(mean=np.zeros(300), basis=basis, eigenvalues=lam)
        r2_rows = [state.residual_norm2(row) for row in y]
        np.testing.assert_allclose(
            kernels.residual_norm2_block(y, basis), r2_rows, rtol=1e-10
        )

    @pytest.mark.parametrize(
        "d, m, k", _shape_params(_CROSSOVER_SHAPES + [(120, 5, 16)])
    )
    def test_rank_k_core_matches_public_update(self, d, m, k):
        # The public rank_k_update main path calls the kernel; on a
        # full-rank block both must agree with the factor route.
        rng = np.random.default_rng(3)
        p = m
        basis, lam = _random_state(rng, d, m)
        block = rng.standard_normal((k, d))
        weights = rng.uniform(0.1, 1.0, k)
        gamma = 0.97
        got = rank_k_update(basis, lam, block, gamma, weights, p)
        yw = np.ascontiguousarray(block.T * np.sqrt(weights))
        _assert_same_eigensystem(
            got, kernels.rank_k_core(basis, lam, yw, gamma, p)
        )
        _assert_same_eigensystem(
            got, _factor_route(basis, lam, yw, gamma, p)
        )
        # The covariance route has no QR: its basis must not drift off
        # orthonormal over a long chain of updates.
        for _ in range(2000):
            block = rng.standard_normal((k, d))
            basis, lam = rank_k_update(basis, lam, block, gamma, weights, p)
        assert np.linalg.norm(basis.T @ basis - np.eye(p)) <= 1e-12

    @pytest.mark.parametrize(
        "d, m, k", _shape_params(_CROSSOVER_SHAPES + [(80, 4, 6), (8, 4, 6)])
    )
    def test_rank_k_core_low_rank_block(self, d, m, k):
        # A block inside the current subspace: A Aᵀ has rank m, the
        # trailing eigenvalues fall to the relative rank cut.
        rng = np.random.default_rng(4)
        p = m
        basis, lam = _random_state(rng, d, m)
        coeffs = rng.standard_normal((k, m))
        yw = np.ascontiguousarray((coeffs @ basis.T).T)
        _assert_same_eigensystem(
            kernels.rank_k_core(basis, lam, yw, 0.99, p),
            _factor_route(basis, lam, yw, 0.99, p),
        )

    @pytest.mark.parametrize("d", [32, 1000])
    def test_block_update_solves_the_smaller_side(self, monkeypatch, d):
        # A 4-component state at α = 0.999, so W = ⌊0.25/(1-α)⌋ = 250
        # rows.  At d = 1000 > m + k = 68 every 64-row
        # block solves the Gram.  At d = 32 the blocks only fold into the
        # d × d covariance: no eigh before W rows, one of order d at the
        # W-th row.
        # Cauchy weights are never zero, so every row stays live.
        rng = np.random.default_rng(12)
        est = RobustIncrementalPCA(4, rho="cauchy", init_size=20)
        est.update_block(rng.standard_normal((20, d)))
        orders = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            orders.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        if d == 1000:
            est.update_block(rng.standard_normal((64, d)))
            assert orders == [4 + 64]
            return
        window = est._chunk_limits(d)[1]
        for lo in range(0, window - 1, 64):
            k = min(64, window - 1 - lo)
            est.update_block(rng.standard_normal((k, d)))
        assert orders == []
        est.update_block(rng.standard_normal((1, d)))
        assert orders == [d]

    def test_fill_gappy_rows_matches_fill_from_basis(self):
        rng = np.random.default_rng(5)
        d, n, m = 40, 12, 4
        basis, _ = _random_state(rng, d, m)
        mean = rng.standard_normal(d)
        x = rng.standard_normal((n, d)) + mean
        x[1, :7] = np.nan
        x[4, ::3] = np.nan
        x[9, :] = np.nan          # nothing observed -> mean fill
        block = fill_block_from_basis(x, mean, basis)
        for i in (1, 4, 9):
            row = fill_from_basis(x[i], mean, basis)
            np.testing.assert_allclose(
                block.filled[i], row.filled, rtol=1e-10, atol=1e-12
            )
            assert block.n_filled_per_row[i] == row.n_filled
        # Complete rows untouched.
        np.testing.assert_array_equal(block.filled[0], x[0])

    @staticmethod
    def _edge_block(rng, d=30, n=10):
        """Random gaps plus: a listed fully-observed row (2), one
        observed bin (5), nothing observed (8)."""
        x = rng.standard_normal((n, d))
        x[0, :5] = np.nan
        x[3, ::2] = np.nan
        x[5, :] = np.nan
        x[5, 11] = 0.7
        x[8, :] = np.nan
        mask = np.isfinite(x)
        rows = np.array([0, 2, 3, 5, 8], dtype=np.int64)
        return x, mask, rows

    def test_fill_gappy_rows_edge_block(self):
        for m in (3, 0):           # with a basis, and with none
            rng = np.random.default_rng(8)
            basis, _ = _random_state(rng, 30, m)
            mean = rng.standard_normal(30)
            x, mask, rows = self._edge_block(rng)
            filled = x.copy()          # NaNs go straight to the kernel
            counts = kernels.fill_gappy_rows(
                filled, mask, mean, basis, 1e-8, rows
            )
            np.testing.assert_array_equal(counts, [5, 0, 15, 29, 30])
            # Unlisted rows are not touched, listed ones are complete.
            np.testing.assert_array_equal(filled[[1, 4]], x[[1, 4]])
            assert np.isfinite(filled[rows]).all()
            np.testing.assert_allclose(filled[8], mean)
            for i in rows:
                want = fill_from_basis(x[i], mean, basis).filled
                np.testing.assert_allclose(
                    filled[i], want, rtol=0, atol=1e-10
                )

    def test_fill_gappy_rows_np_slabs(self, monkeypatch):
        # A slab budget below one row's (k, d) still walks every row.
        rng = np.random.default_rng(9)
        basis, _ = _random_state(rng, 30, 3)
        mean = rng.standard_normal(30)
        x, mask, rows = self._edge_block(rng)
        whole = x.copy()
        kernels.fill_gappy_rows(whole, mask, mean, basis, 1e-8, rows)
        monkeypatch.setattr(kernels, "_FILL_SLAB_ELEMS", 2 * 30 * 3)
        slabbed = x.copy()
        counts = kernels.fill_gappy_rows(
            slabbed, mask, mean, basis, 1e-8, rows
        )
        np.testing.assert_array_equal(counts, [5, 0, 15, 29, 30])
        np.testing.assert_allclose(slabbed, whole, rtol=0, atol=1e-12)
        for i in rows:
            want = fill_from_basis(x[i], mean, basis).filled
            np.testing.assert_allclose(slabbed[i], want, rtol=0, atol=1e-10)

    def test_fill_gappy_rows_empty_basis(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 10))
        x[2, 4:] = np.nan
        mean = rng.standard_normal(10)
        out = fill_block_from_basis(x, mean, np.zeros((10, 0)))
        np.testing.assert_allclose(out.filled[2, 4:], mean[4:])


class TestDispatch:
    def test_status_keys(self):
        # bench/run.py stamps this block into every result's env.jit;
        # nothing is dispatched any more, so it is a constant.
        assert kernels.jit_status() == {
            "numba_available": False,
            "enabled": False,
            "requested": "auto",
            "numba_version": None,
        }
