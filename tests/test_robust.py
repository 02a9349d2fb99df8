"""Tests for the robust incremental PCA — the paper's core algorithm."""

import os
import sys

import numpy as np
import pytest

import repro
from repro.core import (
    IncrementalPCA,
    RobustIncrementalPCA,
    largest_principal_angle,
)
from repro.data import GrossOutlierInjector, PlantedSubspaceModel


@pytest.fixture
def contaminated(small_model, rng):
    clean = small_model.sample(4000, rng)
    injector = GrossOutlierInjector(0.05, 25.0, np.random.default_rng(99))
    stream = np.empty_like(clean)
    for i, x in enumerate(clean):
        stream[i], _ = injector(x)
    return stream, injector


class TestCleanData:
    def test_matches_classic_on_clean_stream(self, small_model, small_data):
        robust = RobustIncrementalPCA(3, alpha=0.999).partial_fit(small_data)
        classic = IncrementalPCA(3, alpha=0.999).partial_fit(small_data)
        angle = largest_principal_angle(
            robust.state.basis[:, :3], classic.state.basis
        )
        assert angle < 0.15
        # Both near the planted truth.
        assert largest_principal_angle(
            robust.state.basis[:, :3], small_model.basis
        ) < 0.1

    def test_scale_consistent_on_clean_data(self, small_model, small_data):
        robust = RobustIncrementalPCA(3, alpha=0.999).partial_fit(small_data)
        expected = (40 - 3) * small_model.noise_std**2
        # Calibration makes the M-scale match the classical scale.
        assert robust.scale_ == pytest.approx(expected, rel=0.35)

    def test_few_outliers_flagged_on_clean_data(self, small_data):
        robust = RobustIncrementalPCA(3, alpha=0.999).partial_fit(small_data)
        assert robust.n_outliers < 0.01 * len(small_data)


class TestContamination:
    def test_survives_gross_contamination(self, small_model, contaminated):
        stream, _ = contaminated
        robust = RobustIncrementalPCA(3, alpha=0.998).partial_fit(stream)
        angle = largest_principal_angle(
            robust.state.basis[:, :3], small_model.basis
        )
        assert angle < 0.15

    def test_classic_breaks_on_same_stream(self, small_model, contaminated):
        stream, _ = contaminated
        classic = IncrementalPCA(3, alpha=0.998).partial_fit(stream)
        angle = largest_principal_angle(classic.state.basis, small_model.basis)
        assert angle > 0.5

    def test_outliers_detected(self, contaminated):
        stream, injector = contaminated
        robust = RobustIncrementalPCA(3, alpha=0.998)
        flagged = []
        for i, x in enumerate(stream, start=1):
            r = robust.update(x)
            if r is not None and r.is_outlier:
                flagged.append(i)
        truth = set(int(s) for s in injector.steps)
        flagged_set = set(flagged)
        tp = len(truth & flagged_set)
        assert tp / len(truth) > 0.9  # recall over the whole stream
        # Precision is scored after the initial transient: the paper's
        # own remedy ("a procedure with α<1 is able to eliminate the
        # effect of the initial transients", §II-B) — the non-robust
        # warm start over-flags until the M-scale settles.
        settled = {s for s in flagged_set if s > 2000}
        settled_truth = {s for s in truth if s > 2000}
        assert settled, "no flags after the transient?"
        assert len(settled & settled_truth) / len(settled) > 0.95

    def test_outlier_updates_do_not_move_the_basis(self, small_model, rng):
        robust = RobustIncrementalPCA(3, alpha=0.999)
        robust.partial_fit(small_model.sample(1000, rng))
        basis_before = robust.state.basis.copy()
        junk = 40.0 * rng.standard_normal((20, 40))
        robust.partial_fit(junk)
        assert np.allclose(robust.state.basis, basis_before, atol=1e-9)
        assert robust.n_outliers >= 20

    def test_point_mass_contamination(self, small_model, rng):
        """Coherent point-mass contamination: 15 % of the rows sit on one
        far point.  The tight cluster lands in the warm-up and carries a
        plain eigen-direction there, so the warm-up gate starts from the
        Maronna fit; the point mass is then flagged as outlying and the
        signal subspace is recovered."""
        from repro.core import principal_angles
        from repro.data import MixtureContaminator

        loc = 30.0 * np.ones(40)
        inj = MixtureContaminator(0.15, loc, rng, jitter=0.1)
        robust = RobustIncrementalPCA(4, alpha=0.998)
        flagged, injected = [], []
        for x in small_model.stream(4000, rng):
            xc, bad = inj(x)
            result = robust.update(xc)
            flagged.append(result is not None and result.is_outlier)
            injected.append(bad)
        flagged, injected = np.array(flagged), np.array(injected)
        n_bad = np.count_nonzero(injected)
        # Recall ≥ 98 %, and at most 0.1 % of the clean rows flagged.
        assert np.count_nonzero(flagged & injected) >= 0.98 * n_bad
        assert np.count_nonzero(flagged & ~injected) <= 0.001 * (4000 - n_bad)
        # The true 3-dim signal subspace is contained in the estimated
        # 4-dim basis (all three principal angles small).
        angles = principal_angles(small_model.basis, robust.state.basis[:, :4])
        assert np.all(angles < 0.25)


class TestRecursions:
    def test_running_sums_behaviour(self, small_data):
        alpha = 0.99
        robust = RobustIncrementalPCA(3, alpha=alpha, init_size=20)
        robust.partial_fit(small_data[:2000])
        st = robust.state
        # u converges to 1/(1-alpha) (footnote 1 of the paper).
        assert st.sum_count == pytest.approx(1.0 / (1.0 - alpha), rel=0.01)
        # v <= u always (weights bounded by... weight can exceed 1? For
        # bisquare W(0)=3/c2 which is small; v < u in practice).
        assert st.sum_weight > 0
        assert st.sum_weighted_r2 > 0

    def test_zero_weight_skips_covariance(self, small_model, rng):
        robust = RobustIncrementalPCA(3, alpha=0.999)
        robust.partial_fit(small_model.sample(500, rng))
        lam_before = robust.state.eigenvalues.copy()
        q_before = robust.state.sum_weighted_r2
        res = robust.update(50.0 * rng.standard_normal(40))
        assert res.weight == 0.0
        assert np.allclose(robust.state.eigenvalues, lam_before)
        # q decays by alpha only (no contribution from the outlier).
        assert robust.state.sum_weighted_r2 == pytest.approx(
            0.999 * q_before
        )

    def test_scale_stays_positive_and_finite(self, small_data):
        robust = RobustIncrementalPCA(3, alpha=0.995).partial_fit(small_data)
        assert np.isfinite(robust.scale_)
        assert robust.scale_ > 0


class TestSyncSupport:
    def test_gate_requires_enough_observations(self, small_model, rng):
        alpha = 0.99  # N = 100
        robust = RobustIncrementalPCA(3, alpha=alpha, init_size=20)
        robust.partial_fit(small_model.sample(100, rng))
        assert not robust.ready_to_sync(1.5)
        robust.partial_fit(small_model.sample(100, rng))
        assert robust.ready_to_sync(1.5)  # 200 > 150

    def test_infinite_window_never_syncs(self, small_model, rng):
        robust = RobustIncrementalPCA(3, alpha=1.0, init_size=20)
        robust.partial_fit(small_model.sample(500, rng))
        assert not robust.ready_to_sync()

    def test_public_state_truncates(self, small_model, rng):
        robust = RobustIncrementalPCA(3, extra_components=2, alpha=0.999)
        robust.partial_fit(small_model.sample(500, rng))
        assert robust.state.n_components == 5
        pub = robust.public_state()
        assert pub.n_components == 3
        # Copy, not a view.
        pub.basis[0, 0] += 1
        assert robust.state.basis[0, 0] != pub.basis[0, 0]

    def test_replace_state(self, small_model, rng):
        r1 = RobustIncrementalPCA(3, alpha=0.999)
        r2 = RobustIncrementalPCA(3, alpha=0.999)
        r1.partial_fit(small_model.sample(500, rng))
        r2.partial_fit(small_model.sample(500, rng))
        r1.replace_state(r2.state)
        assert np.allclose(r1.state.basis, r2.state.basis)
        with pytest.raises(ValueError, match="dimension mismatch"):
            r1.replace_state(
                RobustIncrementalPCA(2, init_size=2)
                .partial_fit(rng.standard_normal((5, 7)))
                .state
            )


class TestGapHandling:
    def test_gappy_stream_converges(self, small_model, rng):
        robust = RobustIncrementalPCA(
            3, extra_components=2, alpha=0.999, init_size=30
        )
        mask_rng = np.random.default_rng(7)
        for x in small_model.stream(3000, rng):
            x = x.copy()
            drop = mask_rng.random(40) < 0.15
            x[drop] = np.nan
            robust.update(x)
        angle = largest_principal_angle(
            robust.state.basis[:, :3], small_model.basis
        )
        assert angle < 0.25

    def test_fully_missing_vector_skipped(self, small_model, rng):
        robust = RobustIncrementalPCA(3, alpha=0.999)
        robust.partial_fit(small_model.sample(100, rng))
        n_seen = robust.n_seen
        assert robust.update(np.full(40, np.nan)) is None
        assert robust.n_seen == n_seen
        assert robust.n_skipped == 1

    def test_gaps_rejected_when_disabled(self, small_model, rng):
        robust = RobustIncrementalPCA(3, alpha=0.999, handle_gaps=False)
        robust.partial_fit(small_model.sample(100, rng))
        x = small_model.sample(1, rng)[0]
        x[0] = np.nan
        with pytest.raises(ValueError, match="handle_gaps"):
            robust.update(x)

    def test_n_filled_reported(self, small_model, rng):
        robust = RobustIncrementalPCA(3, alpha=0.999)
        robust.partial_fit(small_model.sample(100, rng))
        x = small_model.sample(1, rng)[0]
        x[:5] = np.nan
        res = robust.update(x)
        assert res.n_filled == 5

    def test_warmup_does_not_depend_on_row_order(self, small_model, rng):
        """Warm-up gaps are patched once, with whole-buffer column
        medians: a gappy first row gets no zero fill, and no row's patch
        depends on the rows that came before it."""
        batch = small_model.sample(20, rng)
        batch[rng.random(batch.shape) < 0.2] = np.nan
        assert not np.isfinite(batch[0]).all()
        assert not np.isfinite(batch[-1]).all()
        a = RobustIncrementalPCA(3).partial_fit(batch).state
        b = RobustIncrementalPCA(3).partial_fit(batch[::-1]).state
        assert np.allclose(a.mean, b.mean, rtol=0, atol=1e-10)
        assert np.allclose(a.eigenvalues, b.eigenvalues, rtol=1e-10, atol=0)
        assert np.allclose(
            a.basis @ a.basis.T, b.basis @ b.basis.T, rtol=0, atol=1e-10
        )
        assert a.scale == pytest.approx(b.scale, rel=1e-10)

    def test_invalid_gap_mode(self):
        with pytest.raises(ValueError, match="gap_residual_mode"):
            RobustIncrementalPCA(3, gap_residual_mode="magic")


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n_components=0), "n_components"),
            (dict(n_components=2, alpha=0.0), "alpha"),
            (dict(n_components=2, alpha=1.01), "alpha"),
            (dict(n_components=2, delta=0.0), "delta"),
            (dict(n_components=2, delta=1.0), "delta"),
            (dict(n_components=2, extra_components=-1), "extra_components"),
            (dict(n_components=2, init_size=1), "init_size"),
            (dict(n_components=2, min_observed_fraction=1.5),
             "min_observed_fraction"),
        ],
    )
    def test_bad_params(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RobustIncrementalPCA(**kwargs)

    def test_rho_property_before_init(self):
        robust = RobustIncrementalPCA(2)
        with pytest.raises(RuntimeError, match="calibrated"):
            _ = robust.rho

    def test_explicit_rho_object(self, small_model, rng):
        from repro.core import BisquareRho

        robust = RobustIncrementalPCA(3, rho=BisquareRho(c2=100.0))
        robust.partial_fit(small_model.sample(100, rng))
        assert robust.rho.c2 == 100.0


class TestRobustInit:
    def test_robust_init_resists_contaminated_warmup(self, small_model):
        """An outlier inside the warm-up buffer must not become an
        eigen-direction: the plain SVD of the warm-up takes it in, the
        warm-up gate sees it and starts from the Maronna fit, exactly as
        ``robust_init=True`` does."""
        from repro.core import Eigensystem

        rng = np.random.default_rng(55)
        batch = small_model.sample(40, rng)
        batch[3] = 30.0 * rng.standard_normal(40)  # poison the warm-up

        plain = Eigensystem.from_batch(batch, 5)
        gated = RobustIncrementalPCA(3, extra_components=2, init_size=40)
        strong = RobustIncrementalPCA(
            3, extra_components=2, init_size=40, robust_init=True
        )
        gated.partial_fit(batch)
        strong.partial_fit(batch)

        junk = batch[3] - strong.state.mean
        junk /= np.linalg.norm(junk)
        # The plain fit includes the outlier direction prominently...
        assert np.max(np.abs(junk @ plain.basis)) > 0.8
        lam_on_junk_plain = float((junk @ plain.basis) ** 2 @ plain.eigenvalues)
        # ...the robust start gives it (near-)zero eigenvalue weight:
        # inlier-variance level (signal leaks a little into the junk
        # direction), nowhere near the |junk|²-driven plain value.
        for est in (gated, strong):
            lam_on_junk = float(
                (junk @ est.state.basis) ** 2 @ est.state.eigenvalues
            )
            assert lam_on_junk < 10.0
            assert lam_on_junk < 0.05 * lam_on_junk_plain
        assert np.array_equal(gated.state.basis, strong.state.basis)
        assert np.array_equal(gated.state.eigenvalues, strong.state.eigenvalues)

    def test_robust_init_matches_plain_on_clean_warmup(self, small_model, rng):
        batch = small_model.sample(60, rng)
        a = RobustIncrementalPCA(3, init_size=60).partial_fit(batch)
        b = RobustIncrementalPCA(
            3, init_size=60, robust_init=True
        ).partial_fit(batch)
        assert largest_principal_angle(
            a.state.basis[:, :3], b.state.basis[:, :3]
        ) < 0.35

    def test_robust_init_degenerate_falls_back(self, rng):
        """Tiny warm-up (k-plane interpolates half the points): the
        exact-fit degeneracy guard must fall back to the plain init."""
        est = RobustIncrementalPCA(
            5, init_size=8, robust_init=True
        )
        est.partial_fit(rng.standard_normal((8, 40)))
        assert est.is_initialized
        assert np.isfinite(est.scale_)
        assert est.scale_ > 0
        # Keep updating without explosions.
        est.partial_fit(rng.standard_normal((200, 40)))
        assert np.all(est.eigenvalues_ < 100)


def _warmup_captured(
    robust_init, seeds=range(20), rows=256, init_size=32, n_engines=1
):
    """Seeds whose estimate ends below 0.9 affinity after a 60σ outlier
    lands at row 5, inside the warm-up.  Outlier-free, every seed reads
    ≥ 0.98 after 256 rows.  ``n_engines > 1`` runs the rows through
    ``ParallelStreamingPCA`` in 64-row blocks and reads its global
    state."""
    from repro.core.metrics import subspace_affinity
    from repro.data import VectorStream
    from repro.parallel import ParallelStreamingPCA

    model = PlantedSubspaceModel(dim=32, seed=4)
    options = {"init_size": init_size, "robust_init": robust_init}
    captured = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = model.sample(rows, rng)
        x[5] += 60.0 * rng.standard_normal(32)
        if n_engines > 1:
            basis = ParallelStreamingPCA(
                4, n_engines=n_engines, batch_size=64, alpha=0.999,
                estimator_kwargs=options,
            ).run(VectorStream.from_array(x)).global_state.basis
        else:
            est = RobustIncrementalPCA(4, alpha=0.999, **options)
            for lo in range(0, rows, 64):
                est.update_block(x[lo:lo + 64])
            basis = est.state.basis
        if subspace_affinity(basis, model.basis) < 0.9:
            captured.append(seed)
    return captured


class TestWarmupCapture:
    """One gross outlier inside the warm-up batch would become an
    eigen-direction of the plain warm-up fit; the warm-up gate sees it
    and starts from the Maronna fit, as ``robust_init=True`` always
    does."""

    def test_default_init_captures_no_seed(self):
        assert _warmup_captured(robust_init=False) == []

    def test_robust_init_captures_no_seed(self):
        assert _warmup_captured(robust_init=True) == []

    def test_two_engines_capture_no_seed(self):
        """The sync merge would spread one engine's capture to both."""
        assert _warmup_captured(
            robust_init=False, rows=4096, n_engines=2
        ) == []


class TestBlockStepBudget:
    """The interpreter work of the block step.

    Everything the block step does between its BLAS calls holds the GIL,
    so engine threads overlap only as far as that glue is short.  A
    clean 64-row chunk is budgeted in Python-level calls into ``repro``
    (numpy's own wrappers are not counted, so the budget does not move
    with the numpy version); the budget is the same at both widths
    because the glue does not depend on ``d``.
    """

    BUDGET = 8

    @pytest.mark.parametrize("d", [32, 1000])
    def test_clean_chunk_stays_within_the_call_budget(self, d):
        # Four chunks: at d = 32 the last one brings the rows since the
        # warm-up past W = 249 and carries the scheduled solve.
        rng = np.random.default_rng(3)
        est = RobustIncrementalPCA(4, alpha=0.999)
        est.update_block(rng.standard_normal((64, d)))
        assert est.is_initialized
        root = os.path.dirname(repro.__file__) + os.sep
        for _ in range(4):
            block = rng.standard_normal((64, d))
            calls = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code.co_filename.startswith(
                    root
                ):
                    calls.append(frame.f_code.co_qualname)

            sys.setprofile(profile)
            try:
                result = est.update_block(block)
            finally:
                sys.setprofile(None)
            assert result.n_processed == 64
            assert len(calls) <= self.BUDGET, calls
        # At d = 32 the last chunk carried the scheduled solve.
        assert est._cov is None


class TestSolveSchedule:
    """On the covariance route the eigensolve runs once per
    ``W = ⌊0.25/(1-α)⌋`` rows; reads see a solved copy and never move
    that schedule, so the fit depends only on the rows fed."""

    @staticmethod
    def _stream(seed=7, n=1600, d=32):
        rng = np.random.default_rng(seed)
        model = PlantedSubspaceModel(
            dim=d, signal_variances=(16.0, 9.0, 4.0, 2.0), noise_std=0.3,
            seed=seed,
        )
        x = model.sample(n, rng)
        out = rng.choice(np.arange(30, n), size=40, replace=False)
        x[out] += 40.0 * rng.standard_normal((out.size, d))
        gappy = rng.choice(np.arange(30, n), size=80, replace=False)
        for i in gappy:
            x[i, rng.random(d) < 0.2] = np.nan
        return x

    def _run(self, x, read):
        est = RobustIncrementalPCA(4, extra_components=2, alpha=0.999)
        diags = []
        for lo in range(0, x.shape[0], 64):
            res = est.update_block(x[lo : lo + 64])
            diags.append(
                (res.weights, res.residual_norm2, res.is_outlier, res.indices)
            )
            if read and est.is_initialized:
                est.public_state()
                est.transform(np.nan_to_num(x[lo : lo + 4]))
        return est, diags

    def test_reads_do_not_move_the_schedule(self):
        x = self._stream()
        quiet, quiet_diags = self._run(x, read=False)
        read, read_diags = self._run(x, read=True)
        assert len(quiet_diags) == len(read_diags)
        for a, b in zip(quiet_diags, read_diags):
            for u, v in zip(a, b):
                np.testing.assert_array_equal(u, v)
        sa, sb = quiet.state, read.state
        for field in (
            "mean", "basis", "eigenvalues", "scale", "sum_count",
            "sum_weight", "sum_weighted_r2", "n_seen", "n_since_sync",
        ):
            np.testing.assert_array_equal(
                getattr(sa, field), getattr(sb, field)
            )

    def test_reads_see_what_a_solve_would_give(self):
        x = self._stream(n=20 + 3 * 64)
        est, _ = self._run(x, read=False)
        assert est._cov is not None            # a solve is pending
        seen = est.public_state()
        est.update(x[-1])                      # per-row: settles first
        assert est._cov is None
        ref, _ = self._run(x, read=False)
        ref._settle()
        np.testing.assert_array_equal(
            ref.state.basis[:, :4], seen.basis
        )
