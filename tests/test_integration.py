"""Cross-module integration tests: the full pipelines a user would run."""

import numpy as np
import pytest

from repro.core import (
    BatchRobustPCA,
    NormalizationError,
    RobustIncrementalPCA,
    largest_principal_angle,
    principal_angles,
    unit_mean_flux,
)
from repro.data import (
    ClusterTelemetryModel,
    GalaxySpectrumModel,
    PlantedSubspaceModel,
    VectorStream,
    WavelengthGrid,
    shuffled,
)
from repro.io.checkpoint import CheckpointStore
from repro.io.csvio import read_vectors_csv, write_vectors_csv
from repro.parallel import (
    ParallelStreamingPCA,
    build_parallel_pca_graph,
    engine_restart_supervisor,
)
from repro.streams import SynchronousEngine


class TestGalaxyPipeline:
    """The paper's headline use case, end to end: gappy, noisy,
    brightness-scattered galaxy spectra → converged eigenspectra."""

    def test_streaming_matches_batch_robust_reference(self):
        model = GalaxySpectrumModel(
            grid=WavelengthGrid(n_bins=150),
            z_max=0.1,
            dropout_rate=0.1,
            outlier_rate=0.02,
            seed=21,
        )
        rng = np.random.default_rng(1)
        sample = model.sample(2500, rng)

        est = RobustIncrementalPCA(
            3, extra_components=2, alpha=0.9995, init_size=30
        )
        normalized_complete = []
        for flux in shuffled(sample.flux, np.random.default_rng(2)):
            try:
                x = unit_mean_flux(flux)
            except NormalizationError:
                continue
            est.update(x)
            if np.all(np.isfinite(x)) and len(normalized_complete) < 1500:
                normalized_complete.append(x)

        # Offline robust reference on the complete subset.
        complete = np.asarray(normalized_complete)
        reference = BatchRobustPCA(3).fit(complete)
        angles = principal_angles(
            est.state.basis[:, :3], reference.components_.T
        )
        # The dominant eigenspectrum is pinned down precisely; trailing
        # eigenvalues are near-degenerate (λ2 ≈ λ3), so individual
        # trailing directions are ill-determined — compare *function*,
        # not vectors: reconstruction error within a whisker of batch.
        assert angles[0] < 0.1
        y = complete - reference.mean_
        err_ref = np.mean(
            np.sum((y - (y @ reference.components_.T)
                    @ reference.components_) ** 2, axis=1)
        )
        basis = est.state.basis[:, :3]
        y2 = complete - est.state.mean
        err_stream = np.mean(
            np.sum((y2 - (y2 @ basis) @ basis.T) ** 2, axis=1)
        )
        assert err_stream < 1.2 * err_ref

    def test_csv_to_checkpoint_graph(self, tmp_path, rng):
        """CSV file → PCA engine → checkpoint store, on the graph
        runtime (the paper's Fig. 2 I/O path): the restart supervisor
        persists the engine's state as it goes."""
        model = PlantedSubspaceModel(dim=20, seed=9)
        x = model.sample(400, rng)
        csv_path = tmp_path / "stream.csv"
        write_vectors_csv(csv_path, x)

        app = build_parallel_pca_graph(
            VectorStream.from_iterable(read_vectors_csv(csv_path), dim=20),
            1,
            lambda i: RobustIncrementalPCA(3, alpha=0.99, init_size=20),
            collect_diagnostics=False,
        )
        sup = engine_restart_supervisor(
            app, directory=tmp_path / "ckpts", checkpoint_every=100
        )
        SynchronousEngine(app.graph, supervisor=sup).run()

        store = CheckpointStore(tmp_path / "ckpts" / "pca-0")
        history = store.load_history()
        assert len(history) >= 3
        final = store.load_latest()
        assert final.n_seen == history[-1][1].n_seen
        assert largest_principal_angle(
            final.basis[:, :3], model.basis
        ) < 0.25
        # Convergence history is monotone-ish: last better than first.
        first = history[0][1]
        assert largest_principal_angle(
            final.basis[:, :3], model.basis
        ) <= largest_principal_angle(first.basis[:, :3], model.basis) + 1e-9


class TestClusterHealthMonitoring:
    """The conclusion's monitoring use case: telemetry anomalies surface
    as residual spikes of the streaming robust PCA."""

    def test_faults_raise_scaled_residuals(self):
        model = ClusterTelemetryModel(n_servers=10, fault_rate=0.0, seed=31)
        rng = np.random.default_rng(7)
        est = RobustIncrementalPCA(3, alpha=0.995, init_size=40)

        # Learn the healthy regime.
        for x in model.stream(2500, rng):
            est.update(x)

        # Now inject faults and watch the residuals.
        model.fault_rate = 0.02
        healthy_t, faulty_t = [], []
        step0 = model._step
        for x in model.stream(800, rng):
            res = est.update(x)
            if res is None:
                continue
            in_fault = any(
                ev.step <= model._step < ev.step + ev.duration
                for ev in model.faults
            )
            (faulty_t if in_fault else healthy_t).append(res.scaled_residual)
        assert model.faults, "no faults injected"
        assert faulty_t and healthy_t
        assert np.median(faulty_t) > 5 * np.median(healthy_t)

    def test_parallel_monitoring_pipeline(self):
        model = ClusterTelemetryModel(n_servers=8, fault_rate=0.005, seed=32)
        rng = np.random.default_rng(8)
        x = np.vstack(list(model.stream(3000, rng)))
        runner = ParallelStreamingPCA(
            3, n_engines=3, alpha=0.995, split_seed=3
        )
        result = runner.run(VectorStream.from_array(x))
        # Flags exist and correlate with fault windows.
        flagged = result.outlier_seqs()
        fault_steps = set(model.fault_steps().tolist())
        if flagged.size:
            hits = sum(1 for s in flagged if (s + 1) in fault_steps)
            assert hits / flagged.size > 0.5


class TestEpochReplay:
    def test_multi_epoch_refines_solution(self, rng):
        model = GalaxySpectrumModel(
            grid=WavelengthGrid(n_bins=120), dropout_rate=0.0,
            outlier_rate=0.0, z_max=0.05, seed=41,
        )
        sample = model.sample(600, rng)
        x = np.vstack([unit_mean_flux(f) for f in sample.flux])
        _, truth, _ = model.ground_truth_basis(2, n_mc=1000)

        est = RobustIncrementalPCA(2, alpha=0.999, init_size=30)
        angles = []
        for epoch in range(3):
            for row in shuffled(x, np.random.default_rng(epoch)):
                est.update(row)
            # Only the dominant eigenspectrum is well-separated (the
            # galaxy manifold's λ1/λ2 ratio is ~60); track that one.
            angles.append(
                float(principal_angles(est.state.basis[:, :2], truth)[0])
            )
        assert angles[-1] <= angles[0] + 0.02
        assert angles[-1] < 0.1
