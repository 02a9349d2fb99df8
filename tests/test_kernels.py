"""Parity and dispatch tests for the compiled hot-path kernels.

Every kernel in :mod:`repro.core.kernels` has two faces: the pure-numpy
fallback and the numba-compilable source.  The contract is agreement to
1e-10 so the compiled path can be enabled (``REPRO_JIT``) without
changing any result.  The interpreted-source-vs-fallback comparisons run
everywhere; the compiled-vs-fallback comparisons are skipped when numba
is not installed (the CI matrix covers both legs).
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.lowrank import rank_k_update
from repro.core.gaps import fill_block_from_basis, fill_from_basis

RHO_PAIRS = [
    (kernels._rho_weights_bisquare_np, kernels._rho_weights_bisquare_src),
    (kernels._rho_weights_cauchy_np, kernels._rho_weights_cauchy_src),
    (kernels._rho_weights_skipped_np, kernels._rho_weights_skipped_src),
]
RHO_IDS = ["bisquare", "cauchy", "skipped"]

needs_numba = pytest.mark.skipif(
    not kernels.HAVE_NUMBA, reason="numba not installed"
)


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


class TestInterpretedSourceParity:
    """JIT source (interpreted) vs vectorized fallback — runs everywhere."""

    @pytest.mark.parametrize(
        ("np_impl", "src_impl"), RHO_PAIRS, ids=RHO_IDS
    )
    def test_rho_weights(self, np_impl, src_impl):
        rng = np.random.default_rng(7)
        t = np.concatenate(
            [
                rng.uniform(0.0, 30.0, 200),
                [0.0, 1e-320, 1e-12, 4.0, 9.0, 1e155, 1e300, np.inf],
            ]
        )
        for c2 in (4.0, 9.0, 0.3):
            w_np, ws_np = np_impl(t, c2)
            w_src, ws_src = src_impl(t, c2)
            np.testing.assert_allclose(w_src, w_np, rtol=1e-10, atol=0)
            np.testing.assert_allclose(ws_src, ws_np, rtol=1e-10, atol=0)
            assert np.all(np.isfinite(w_src))
            assert np.all(np.isfinite(ws_src))

    def test_residual_norm2(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((64, 300))
        basis, _ = _random_state(rng, 300, 6)
        r2_np = kernels._residual_norm2_block_np(y, basis)
        r2_src = kernels._residual_norm2_block_src(y, basis)
        np.testing.assert_allclose(r2_src, r2_np, rtol=1e-10)

    def test_rank_k_core_matches_public_update(self):
        # The public rank_k_update main path dispatches to the kernel;
        # both faces must agree with it.
        rng = np.random.default_rng(3)
        d, m, k, p = 120, 5, 16, 5
        basis, lam = _random_state(rng, d, m)
        block = rng.standard_normal((k, d))
        weights = rng.uniform(0.1, 1.0, k)
        gamma = 0.97
        got = rank_k_update(basis, lam, block, gamma, weights, p)
        yw = np.ascontiguousarray(block.T * np.sqrt(weights))
        _assert_same_eigensystem(
            got, kernels._rank_k_core_np(basis, lam, yw, gamma, p)
        )
        _assert_same_eigensystem(
            got, kernels._rank_k_core_src(basis, lam, yw, gamma, p)
        )

    def test_rank_k_core_src_vs_np_low_rank_block(self):
        # A block inside the current subspace: the Gram has rank m, the
        # trailing k eigenvalues fall to the relative rank cut.
        rng = np.random.default_rng(4)
        d, m, p = 80, 4, 4
        basis, lam = _random_state(rng, d, m)
        coeffs = rng.standard_normal((6, m))
        yw = np.ascontiguousarray((coeffs @ basis.T).T)
        _assert_same_eigensystem(
            kernels._rank_k_core_np(basis, lam, yw, 0.99, p),
            kernels._rank_k_core_src(basis, lam, yw, 0.99, p),
        )

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

    def test_fill_gappy_rows_src_vs_np(self):
        for m in (3, 0):           # with a basis, and with none
            self._check_fill_src_vs_np(m)

    def _check_fill_src_vs_np(self, m):
        rng = np.random.default_rng(8)
        basis, _ = _random_state(rng, 30, m)
        mean = rng.standard_normal(30)
        x, mask, rows = self._edge_block(rng)
        filled_np = x.copy()          # NaNs go straight to the kernel
        filled_src = x.copy()
        n_np = kernels._fill_gappy_rows_np(
            filled_np, mask, mean, basis, 1e-8, rows
        )
        n_src = kernels._fill_gappy_rows_src(
            filled_src, mask, mean, basis, 1e-8, rows
        )
        np.testing.assert_array_equal(n_np, n_src)
        np.testing.assert_array_equal(n_np, [5, 0, 15, 29, 30])
        np.testing.assert_allclose(
            filled_np, filled_src, rtol=0, atol=1e-10
        )
        # Unlisted rows are not touched, listed ones are complete.
        np.testing.assert_array_equal(filled_np[[1, 4]], x[[1, 4]])
        assert np.isfinite(filled_np[rows]).all()
        np.testing.assert_allclose(filled_np[8], mean)
        for i in rows:
            want = fill_from_basis(x[i], mean, basis).filled
            np.testing.assert_allclose(
                filled_np[i], want, rtol=0, atol=1e-10
            )

    def test_fill_gappy_rows_np_slabs(self, monkeypatch):
        # A slab budget below one row's (k, d) still walks every row.
        rng = np.random.default_rng(9)
        basis, _ = _random_state(rng, 30, 3)
        mean = rng.standard_normal(30)
        x, mask, rows = self._edge_block(rng)
        whole = x.copy()
        kernels._fill_gappy_rows_np(whole, mask, mean, basis, 1e-8, rows)
        monkeypatch.setattr(kernels, "_FILL_SLAB_ELEMS", 2 * 30 * 3)
        slabbed = x.copy()
        counts = kernels._fill_gappy_rows_np(
            slabbed, mask, mean, basis, 1e-8, rows
        )
        np.testing.assert_array_equal(counts, [5, 0, 15, 29, 30])
        np.testing.assert_allclose(slabbed, whole, rtol=0, atol=1e-12)

    def test_fill_gappy_rows_empty_basis(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 10))
        x[2, 4:] = np.nan
        mean = rng.standard_normal(10)
        out = fill_block_from_basis(x, mean, np.zeros((10, 0)))
        np.testing.assert_allclose(out.filled[2, 4:], mean[4:])


@needs_numba
class TestCompiledParity:
    """Compiled vs fallback for every kernel — the 1e-10 contract."""

    @pytest.fixture(autouse=True)
    def _jit_kernels(self):
        with kernels.use_jit(True):
            assert kernels.jit_enabled()
            yield

    @pytest.mark.parametrize("name", list(kernels._SOURCES))
    def test_kernel_is_compiled(self, name):
        assert kernels._IMPL[name] is kernels._compiled[name]

    @pytest.mark.parametrize(
        "family", ["bisquare", "cauchy", "skipped"]
    )
    def test_rho_weights(self, family):
        rng = np.random.default_rng(17)
        t = np.concatenate(
            [rng.uniform(0.0, 30.0, 500), [0.0, 1e-320, 1e300, np.inf]]
        )
        compiled = getattr(kernels, f"rho_weights_{family}")
        fallback = getattr(kernels, f"_rho_weights_{family}_np")
        w_c, ws_c = compiled(t, 4.0)
        w_f, ws_f = fallback(t, 4.0)
        np.testing.assert_allclose(w_c, w_f, rtol=1e-10, atol=0)
        np.testing.assert_allclose(ws_c, ws_f, rtol=1e-10, atol=0)

    def test_residual_norm2(self):
        rng = np.random.default_rng(19)
        y = np.ascontiguousarray(rng.standard_normal((128, 500)))
        basis, _ = _random_state(rng, 500, 8)
        np.testing.assert_allclose(
            kernels.residual_norm2_block(y, basis),
            kernels._residual_norm2_block_np(y, basis),
            rtol=1e-10,
        )

    def test_rank_k_core(self):
        rng = np.random.default_rng(23)
        d, m, k, p = 200, 8, 32, 8
        basis, lam = _random_state(rng, d, m)
        block = rng.standard_normal((k, d))
        weights = rng.uniform(0.1, 1.0, k)
        yw = np.ascontiguousarray(block.T * np.sqrt(weights))
        compiled = kernels.rank_k_core(basis, lam, yw, 0.97, p)
        interpreted = kernels._rank_k_core_src(basis, lam, yw, 0.97, p)
        _assert_same_eigensystem(compiled, interpreted)

    def test_fill_gappy_rows(self):
        rng = np.random.default_rng(29)
        d, n, m = 60, 16, 5
        basis, _ = _random_state(rng, d, m)
        mean = rng.standard_normal(d)
        x = rng.standard_normal((n, d))
        x[2, :10] = np.nan
        x[7, ::4] = np.nan
        mask = np.ascontiguousarray(np.isfinite(x))
        rows = np.array([2, 7], dtype=np.int64)
        filled_c = x.copy()
        filled_f = x.copy()
        n_c = kernels.fill_gappy_rows(filled_c, mask, mean, basis, 1e-8, rows)
        n_f = kernels._fill_gappy_rows_src(
            filled_f, mask, mean, basis, 1e-8, rows
        )
        np.testing.assert_array_equal(n_c, n_f)
        np.testing.assert_allclose(filled_c, filled_f, rtol=1e-10, atol=1e-12)

    def test_end_to_end_estimator_parity(self):
        # A full robust block update must agree JIT-on vs JIT-off.
        from repro.core import RobustIncrementalPCA

        rng = np.random.default_rng(31)
        x = rng.standard_normal((300, 50))

        def run():
            est = RobustIncrementalPCA(4, alpha=0.999, seed_size=64)
            est.partial_fit(x)
            return est.public_state()

        with kernels.use_jit(False):
            off = run()
        on = run()
        np.testing.assert_allclose(
            on.eigenvalues, off.eigenvalues, rtol=1e-8
        )
        np.testing.assert_allclose(
            np.abs(on.basis.T @ off.basis),
            np.eye(on.basis.shape[1]),
            atol=1e-8,
        )


class TestDispatch:
    def test_status_keys(self):
        status = kernels.jit_status()
        assert set(status) == {
            "numba_available",
            "enabled",
            "requested",
            "numba_version",
        }
        assert status["numba_available"] == kernels.HAVE_NUMBA
        assert status["enabled"] == kernels.jit_enabled()

    def test_use_jit_restores_previous_state(self):
        before = kernels.jit_enabled()
        with kernels.use_jit(False):
            assert not kernels.jit_enabled()
        assert kernels.jit_enabled() == before

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="numba installed")
    def test_requesting_jit_without_numba_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            assert kernels.set_jit(True) is False
        assert not kernels.jit_enabled()
        # Fallbacks are installed, not compiled stubs.
        assert kernels._IMPL["rank_k_core"] is kernels._rank_k_core_np

    def test_env_selection_in_subprocess(self):
        import os
        import subprocess
        import sys

        code = (
            "from repro.core import kernels;"
            "import json;print(json.dumps(kernels.jit_status()))"
        )
        env = dict(os.environ, REPRO_JIT="0")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
        )
        out = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        import json

        status = json.loads(out.stdout)
        assert status["requested"] == "0"
        assert status["enabled"] is False
