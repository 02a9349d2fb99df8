"""End-to-end tests of the parallel streaming-PCA application."""

import numpy as np
import pytest

from repro.core import RobustIncrementalPCA, largest_principal_angle
from repro.data import (
    GrossOutlierInjector,
    PlantedSubspaceModel,
    VectorStream,
)
from repro.parallel import (
    ENGINE_CLASSES,
    ParallelStreamingPCA,
    build_parallel_pca_graph,
    partition_contiguous,
    partition_random,
    partition_round_robin,
)
from repro.streams import FusionPlan, ThreadedEngine


@pytest.fixture(scope="module")
def model():
    return PlantedSubspaceModel(
        dim=50, signal_variances=(25.0, 16.0, 9.0), noise_std=0.4, seed=8
    )


@pytest.fixture(scope="module")
def data(model):
    return model.sample(6000, np.random.default_rng(3))


class TestParallelRunner:
    @pytest.mark.parametrize("runtime", ["synchronous", "threaded"])
    def test_global_solution_accurate(self, model, data, runtime):
        runner = ParallelStreamingPCA(
            3, n_engines=4, alpha=0.995, runtime=runtime, split_seed=1
        )
        result = runner.run(VectorStream.from_array(data))
        angle = largest_principal_angle(result.global_state.basis, model.basis)
        assert angle < 0.15
        assert result.eigenvalues.shape == (3,)
        assert result.components.shape == (3, 50)
        assert result.mean.shape == (50,)
        assert type(result.engine) is ENGINE_CLASSES[runtime]

    def test_engines_synchronized(self, model, data):
        runner = ParallelStreamingPCA(
            3, n_engines=4, alpha=0.995, strategy="ring", split_seed=1
        )
        result = runner.run(VectorStream.from_array(data))
        assert result.sync_stats.n_merge_commands > 0
        # Every engine individually close to the truth ("the resulting
        # eigensystem can be obtained from any node").
        for state in result.engine_states.values():
            assert largest_principal_angle(state.basis, model.basis) < 0.3

    @pytest.mark.parametrize("strategy", ["ring", "broadcast", "group", "p2p"])
    def test_all_strategies_work(self, model, data, strategy):
        runner = ParallelStreamingPCA(
            3, n_engines=4, alpha=0.995, strategy=strategy, split_seed=1,
            collect_diagnostics=False,
        )
        result = runner.run(VectorStream.from_array(data))
        assert largest_principal_angle(
            result.global_state.basis, model.basis
        ) < 0.2

    def test_single_engine_needs_no_sync(self, model, data):
        runner = ParallelStreamingPCA(3, n_engines=1, alpha=0.995)
        result = runner.run(VectorStream.from_array(data))
        assert result.sync_stats.n_merge_commands == 0
        assert largest_principal_angle(
            result.global_state.basis, model.basis
        ) < 0.15

    def test_alpha_one_never_syncs(self, model, data):
        runner = ParallelStreamingPCA(3, n_engines=3, alpha=1.0, split_seed=1)
        result = runner.run(VectorStream.from_array(data))
        assert result.sync_stats.n_ready == 0
        assert result.sync_stats.n_merge_commands == 0

    def test_outlier_seqs_reported(self, model):
        rng = np.random.default_rng(11)
        clean = model.sample(4000, rng)
        inj = GrossOutlierInjector(0.05, 30.0, np.random.default_rng(12))
        stream = np.vstack([inj(x)[0] for x in clean])
        runner = ParallelStreamingPCA(3, n_engines=4, alpha=0.995,
                                      split_seed=2)
        result = runner.run(VectorStream.from_array(stream))
        flagged = set(result.outlier_seqs().tolist())
        truth = set((inj.steps - 1).tolist())  # seq is 0-based
        assert truth and flagged
        tp = len(truth & flagged)
        assert tp / len(truth) > 0.85

    def test_per_row_diagnostics_are_built_on_first_read(
        self, block_diag_case, monkeypatch
    ):
        """A run keeps the sink's block tuples; the per-row dicts are
        expanded once, when ``diagnostics`` is first read, and
        ``outlier_seqs`` never needs them."""
        import repro.parallel.runner as runner_mod

        x, make_runner = block_diag_case
        expand = runner_mod.expand_diagnostics
        calls = []

        def counting(tuples):
            calls.append(1)
            return expand(tuples)

        monkeypatch.setattr(runner_mod, "expand_diagnostics", counting)
        result = make_runner().run(VectorStream.from_array(x))
        assert calls == []
        flagged = result.outlier_seqs()
        assert calls == []
        assert set(flagged.tolist()) >= {90, 205, 333}

        eager = expand(result.diagnostic_tuples)
        assert result.diagnostics == eager
        assert result.diagnostics is result.diagnostics
        assert calls == [1]
        assert flagged.tolist() == sorted(
            d["seq"] for d in eager if d["is_outlier"]
        )

    def test_engine_reports(self, model, data):
        runner = ParallelStreamingPCA(3, n_engines=3, alpha=0.995)
        result = runner.run(VectorStream.from_array(data))
        assert len(result.engine_reports) == 3
        total = sum(r["n_local"] for r in result.engine_reports)
        assert total == 6000

    def test_run_stats_counters(self, model, data):
        runner = ParallelStreamingPCA(3, n_engines=3, alpha=0.995)
        result = runner.run(VectorStream.from_array(data))
        assert result.run_stats.source_tuples["source"] == 6000
        assert result.run_stats.tuples_in["split"] == 6000

    def test_threaded_fusion_modes(self, model, data):
        """The default placement, every operator apart, and all but the
        source in one PE all converge."""
        for plan in (
            None,
            FusionPlan.per_operator,
            lambda g: FusionPlan.from_groups(
                g, [[op for op in g if op not in g.sources]]
            ),
        ):
            runner = ParallelStreamingPCA(
                3, n_engines=2, alpha=0.995, runtime="threaded",
                collect_diagnostics=False,
            )
            app = runner.build(VectorStream.from_array(data[:2000]))
            fusion = plan(app.graph) if plan is not None else None
            ThreadedEngine(app.graph, fusion=fusion).run(timeout_s=60)
            assert largest_principal_angle(
                app.controller.global_state(3).basis, model.basis
            ) < 0.35

    @pytest.mark.parametrize(
        "runtime", ["synchronous", "threaded", "process", "cluster"]
    )
    def test_engine_places_only_the_pca_engines_remotely(self, runtime):
        """The one launch path, on the app ``chaos.run_scenario`` builds
        (blocks of 64, two engines): the Batcher stays on the coordinator
        and there is exactly one remote end per PCA engine."""
        app = build_parallel_pca_graph(
            VectorStream.from_array(np.zeros((128, 8))),
            2,
            lambda i: RobustIncrementalPCA(3),
            batch_size=64,
            quarantine=True,
            stale_after=12,
            heartbeat_every=25,
        )
        assert app.main_ops == {"split", "sync-controller", "batcher"}
        engine = app.engine(runtime)
        assert type(engine) is ENGINE_CLASSES[runtime]
        if runtime == "synchronous":
            return  # one thread, nothing to place
        local = {op.name for op in engine._local_ops}
        assert {
            "source", "batcher", "split", "sync-controller", "diagnostics"
        } <= local
        if runtime == "threaded":
            assert {op.name for op in app.engines} <= local
            return
        assert [engine._loc_of[op.name] for op in app.engines] == [0, 1]
        assert engine.n_hosts == 2

    def test_engine_options_reach_the_engine_class(self):
        app = build_parallel_pca_graph(
            VectorStream.from_array(np.zeros((8, 4))),
            3,
            lambda i: RobustIncrementalPCA(2),
        )
        engine = app.engine(
            "cluster", tolerate_host_loss=True, flap_hosts={1: 3}
        )
        assert engine.n_hosts == 3
        assert engine.tolerate_host_loss and engine.flap_hosts == {1: 3}
        engine = app.engine("process", tolerate_host_loss=True)
        assert engine.n_hosts == 3 and engine.tolerate_host_loss
        with pytest.raises(ValueError, match="runtime"):
            app.engine("mpi")
        with pytest.raises(TypeError):
            app.engine("threaded", mp_context="fork")

    def test_validation(self):
        with pytest.raises(ValueError, match="runtime"):
            ParallelStreamingPCA(3, runtime="mpi")
        for removed in (
            "fusion", "min_sync_interval", "batch_timeout_s", "delta",
            "snapshot_every", "quarantine", "shed_max_rate_hz",
            "stale_after", "quorum", "heartbeat_every",
        ):
            with pytest.raises(TypeError, match=removed):
                ParallelStreamingPCA(3, **{removed: None})
        stream = VectorStream.from_array(np.zeros((5, 2)))
        with pytest.raises(TypeError, match="dlq"):
            build_parallel_pca_graph(stream, 1, lambda i: None, dlq=None)
        with pytest.raises(ValueError, match="n_engines"):
            build_parallel_pca_graph(stream, 0, lambda i: None)

    def test_estimator_factory_api_check(self):
        class NotAnEstimator:
            pass

        with pytest.raises(TypeError, match="estimator API"):
            build_parallel_pca_graph(
                VectorStream.from_array(np.zeros((5, 2))),
                1,
                lambda i: NotAnEstimator(),
            )


class TestPartitionHelpers:
    def test_partition_random(self, rng):
        x = np.arange(100, dtype=float).reshape(50, 2)
        parts = partition_random(x, 3, rng)
        assert sum(p.shape[0] for p in parts) == 50
        merged = np.vstack([p for p in parts if p.size])
        assert np.array_equal(
            np.sort(merged[:, 0]), np.arange(0, 100, 2, dtype=float)
        )

    def test_partition_round_robin(self):
        x = np.arange(20, dtype=float).reshape(10, 2)
        parts = partition_round_robin(x, 3)
        assert [p.shape[0] for p in parts] == [4, 3, 3]
        assert np.array_equal(parts[0][:, 0], [0, 6, 12, 18])

    def test_partition_contiguous(self):
        x = np.arange(20, dtype=float).reshape(10, 2)
        parts = partition_contiguous(x, 3)
        assert sorted(p.shape[0] for p in parts) == [3, 3, 4]
        assert np.array_equal(np.vstack(parts), x)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            partition_random(np.zeros(5), 2, rng)
        with pytest.raises(ValueError):
            partition_round_robin(np.zeros((5, 2)), 0)
