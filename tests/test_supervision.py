"""Shutdown/stress suite for the supervised fault-tolerant runtime.

Runs the parallel PCA application under injected operator crashes,
delays, and full-queue backpressure, asserting the merged global
eigensystem stays within tolerance of the no-fault run; plus unit
coverage of the policies, watchdog, and fault injector.
"""

import time

import numpy as np
import pytest

from repro.core import RobustIncrementalPCA, largest_principal_angle
from repro.data import PlantedSubspaceModel, VectorStream
from repro.parallel import (
    ParallelStreamingPCA,
    build_parallel_pca_graph,
    engine_restart_supervisor,
)
from repro.streams import (
    CollectingSink,
    Functor,
    Graph,
    SynchronousEngine,
    Telemetry,
    TelemetryConfig,
    ThreadedEngine,
    Union,
    VectorSource,
)
from repro.streams.operators import Sink
from repro.streams.profiling import supervision_report
from repro.streams.supervision import (
    FailFast,
    FaultInjector,
    InjectedFault,
    OperatorFailure,
    RestartFromCheckpoint,
    StallDetected,
    Supervisor,
    Watchdog,
)
from repro.streams.tuples import StreamTuple


@pytest.fixture(scope="module")
def model():
    return PlantedSubspaceModel(
        dim=40, signal_variances=(25.0, 16.0, 9.0), noise_std=0.4, seed=5
    )


@pytest.fixture(scope="module")
def data(model):
    return model.sample(4000, np.random.default_rng(7))


def _build_app(data, n_engines=4, **kwargs):
    return build_parallel_pca_graph(
        VectorStream.from_array(data),
        n_engines,
        lambda i: RobustIncrementalPCA(3, alpha=0.995),
        split_seed=1,
        collect_diagnostics=False,
        **kwargs,
    )


@pytest.fixture(scope="module")
def no_fault_state(data):
    app = _build_app(data)
    SynchronousEngine(app.graph).run()
    return app.controller.global_state(3)


# ---------------------------------------------------------------------------
# Fault injector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def _graph(self, n=20):
        g = Graph("inj")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((n, 2))))
        )
        ident = g.add(Functor("ident", lambda t: t))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, ident)
        g.connect(ident, sink)
        return g, sink

    def test_crash_fires_once_and_aborts_fail_fast(self):
        g, _ = self._graph()
        inj = FaultInjector().crash("ident", at_tuple=5)
        inj.install(g)
        with pytest.raises(InjectedFault, match="ident"):
            SynchronousEngine(g).run()
        assert inj.log == [("ident", "crash", 5)]

    def test_drop_swallows_targeted_tuples(self):
        g, sink = self._graph(n=10)
        inj = FaultInjector().drop("ident", at_tuple=3, repeat=2)
        inj.install(g)
        SynchronousEngine(g).run()
        assert len(sink.tuples) == 8
        assert [k for _, k, _ in inj.log] == ["drop", "drop"]

    def test_delay_slows_but_delivers(self):
        g, sink = self._graph(n=5)
        FaultInjector().delay("ident", at_tuple=2, seconds=0.01).install(g)
        start = time.perf_counter()
        SynchronousEngine(g).run()
        assert time.perf_counter() - start >= 0.01
        assert len(sink.tuples) == 5

    def test_unknown_operator_rejected(self):
        g, _ = self._graph()
        with pytest.raises(ValueError, match="unknown operators"):
            FaultInjector().crash("nope", at_tuple=1).install(g)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="at_tuple"):
            FaultInjector().crash("x", at_tuple=0)
        with pytest.raises(ValueError, match="repeat"):
            FaultInjector().drop("x", at_tuple=1, repeat=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultInjector().delay("x", at_tuple=1, seconds=-1)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class TestPolicyValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RestartFromCheckpoint(checkpoint_every=0)
        with pytest.raises(TypeError, match="resume"):
            RestartFromCheckpoint(resume="retry")
        with pytest.raises(ValueError):
            Watchdog(0)
        with pytest.raises(TypeError, match="FailurePolicy"):
            Supervisor(policies={"x": object()})


class _FailOddOnce:
    """Raise the first time each odd row arrives; pass it on the retry.
    A module-level class, so the operator pickles to a remote host."""

    def __init__(self):
        self.failed = set()

    def __call__(self, t):
        x = int(t["x"][0])
        if x % 2 and x not in self.failed:
            self.failed.add(x)
            raise ValueError("transient")
        return t


class _Restartable(Functor):
    """A stateless Functor that opts into checkpoint restarts."""

    def snapshot_state(self):
        return None

    def restore_state(self, state):
        pass


class TestRetryAndSkip:
    """``RestartFromCheckpoint`` re-dispatches the failing tuple once
    after the rollback; no failure is skipped, neither a data tuple nor
    punctuation (a bad row leaves the stream through the dead-letter
    queue, before it reaches an engine)."""

    def _graph(self, fn, n=20):
        g = Graph("pol")
        src = g.add(
            VectorSource(
                "src",
                VectorStream.from_array(
                    np.arange(n, dtype=float).reshape(n, 1)
                ),
            )
        )
        op = g.add(_Restartable("flaky", fn))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, op)
        g.connect(op, sink)
        return g, sink

    def test_retry_recovers_transient_crash(self):
        g, sink = self._graph(lambda t: t)
        FaultInjector().crash("flaky", at_tuple=4).install(g)
        sup = Supervisor(policies={"flaky": RestartFromCheckpoint()})
        stats = SynchronousEngine(g, supervisor=sup).run()
        # The injector fires once; the retry redelivers the same tuple.
        assert len(sink.tuples) == 20
        assert stats.failures["flaky"] == 1
        assert stats.restarts["flaky"] == 1
        assert stats.total_recoveries() == 1
        assert "flaky" in supervision_report(stats)

    def test_retry_exhaustion_escalates(self):
        g, _ = self._graph(lambda t: t)
        FaultInjector().crash("flaky", at_tuple=4, repeat=10).install(g)
        sup = Supervisor(policies={"flaky": RestartFromCheckpoint()})
        with pytest.raises(OperatorFailure, match="failed again"):
            SynchronousEngine(g, supervisor=sup).run()

    @pytest.mark.parametrize("runtime", ["threaded", "process", "cluster"])
    def test_restart_counters_are_runtime_independent(
        self, runtime, concurrent_engine
    ):
        """Regression: a failure handled on a cluster host never reached
        ``RunStats`` or the ``repro_*_total`` counters — the host's
        ``done`` frame carried no supervision block."""
        g, sink = self._graph(_FailOddOnce(), n=40)
        sup = Supervisor(policies={"flaky": RestartFromCheckpoint()})
        tel = Telemetry(TelemetryConfig(metrics=True, tracing=False))
        stats = concurrent_engine(
            runtime, g, supervisor=sup, telemetry=tel
        ).run(timeout_s=60)
        assert len(sink.tuples) == 40
        assert stats.failures == {"flaky": 20}
        assert stats.restarts == {"flaky": 20}
        assert (
            'repro_restarts_total{operator="flaky"} 20'
            in tel.to_prometheus()
        )

    def test_retry_budget_escalates(self):
        g, _ = self._graph(_FailOddOnce())
        sup = Supervisor(policies={
            "flaky": RestartFromCheckpoint(max_restarts=3)
        })
        with pytest.raises(OperatorFailure, match="restart budget"):
            SynchronousEngine(g, supervisor=sup).run()
        # The fourth failure aborted the run: three were repaired.
        assert sup.stats.failures == {"flaky": 4}
        assert sup.stats.restarts == {"flaky": 3}
        assert sup.stats.total_recoveries() == 3

    def test_punctuation_failure_retried_not_skipped(self):
        class FlakyClose(_Restartable):
            def __init__(self):
                super().__init__("flaky", lambda t: t)
                self.close_attempts = 0

            def close(self):
                self.close_attempts += 1
                if self.close_attempts == 1:
                    raise RuntimeError("transient close failure")

        g = Graph("close")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((3, 1))))
        )
        op = FlakyClose()
        g.add(op)
        sink = g.add(CollectingSink("sink"))
        g.connect(src, op)
        g.connect(op, sink)
        sup = Supervisor(policies={"flaky": RestartFromCheckpoint()})
        SynchronousEngine(g, supervisor=sup).run()
        # close retried to success; punctuation propagated; sink closed.
        assert op.close_attempts == 2
        assert op.is_closed
        assert sink.is_closed

    def test_punctuation_never_silently_skipped(self):
        class BrokenClose(_Restartable):
            def __init__(self):
                super().__init__("broken", lambda t: t)

            def close(self):
                raise RuntimeError("permanent close failure")

        g = Graph("close2")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((3, 1))))
        )
        op = BrokenClose()
        g.add(op)
        sink = g.add(CollectingSink("sink"))
        g.connect(src, op)
        g.connect(op, sink)
        sup = Supervisor(policies={"broken": RestartFromCheckpoint()})
        with pytest.raises(OperatorFailure, match="punctuation"):
            SynchronousEngine(g, supervisor=sup).run()


# ---------------------------------------------------------------------------
# Restart-from-checkpoint (acceptance)
# ---------------------------------------------------------------------------


class TestRestartFromCheckpoint:
    def test_crash_mid_stream_recovers_within_tolerance(
        self, model, data, no_fault_state
    ):
        """A PCA engine crashing mid-stream under restart-from-checkpoint
        completes the run with the global eigensystem close to no-fault."""
        app = _build_app(data)
        sup = engine_restart_supervisor(app, checkpoint_every=100)
        FaultInjector().crash("pca-1", at_tuple=500).install(app.graph)
        stats = SynchronousEngine(app.graph, supervisor=sup).run()

        state = app.controller.global_state(3)
        assert len(app.controller.final_states) == 4
        assert stats.restarts["pca-1"] == 1
        assert stats.failures["pca-1"] == 1
        assert largest_principal_angle(state.basis, model.basis) < 0.15
        assert (
            largest_principal_angle(state.basis, no_fault_state.basis) < 0.25
        )

    def test_repeated_crashes_threaded_runtime(self, model, data):
        app = _build_app(data)
        sup = engine_restart_supervisor(app, checkpoint_every=100)
        FaultInjector().crash("pca-2", at_tuple=300, repeat=1).crash(
            "pca-0", at_tuple=600, repeat=1
        ).install(app.graph)
        ThreadedEngine(app.graph, supervisor=sup).run(timeout_s=60)
        state = app.controller.global_state(3)
        assert len(app.controller.final_states) == 4
        assert largest_principal_angle(state.basis, model.basis) < 0.2

    def test_snapshots_persisted_to_store(self, data, tmp_path):
        app = _build_app(data, n_engines=2)
        sup = engine_restart_supervisor(
            app, directory=tmp_path, checkpoint_every=100
        )
        FaultInjector().crash("pca-0", at_tuple=800).install(app.graph)
        SynchronousEngine(app.graph, supervisor=sup).run()
        snapshots = list(tmp_path.rglob("*.npz"))
        assert snapshots, "expected on-disk eigensystem snapshots"
        assert (tmp_path / "pca-0").is_dir()

    def test_restart_without_hooks_escalates(self):
        g = Graph("nohooks")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((5, 1))))
        )
        op = g.add(
            Functor("f", lambda t: (_ for _ in ()).throw(ValueError("x")))
        )
        sink = g.add(CollectingSink("sink"))
        g.connect(src, op)
        g.connect(op, sink)
        sup = Supervisor(policies={"f": RestartFromCheckpoint()})
        with pytest.raises(OperatorFailure, match="snapshot_state"):
            SynchronousEngine(g, supervisor=sup).run()


# ---------------------------------------------------------------------------
# Watchdog / stall detection
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_backpressure_cycle_detected_quickly(self):
        """An amplifying cycle with tiny queues deadlocks on backpressure;
        the watchdog must report it long before the run timeout."""

        class Amplifier(Functor):
            def __init__(self):
                super().__init__("amp", None)

            def process(self, tup, port):
                self.submit(tup)
                self.submit(tup)

        g = Graph("cycle")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((10, 1))))
        )
        uni = g.add(Union("uni", 2))
        amp = Amplifier()
        g.add(amp)
        sink = g.add(CollectingSink("sink"))
        g.connect(src, uni, in_port=0)
        g.connect(uni, amp)
        g.connect(amp, uni, in_port=1)
        g.connect(amp, sink)

        start = time.perf_counter()
        with pytest.raises(StallDetected, match="backpressure"):
            ThreadedEngine(g, queue_size=4, stall_timeout_s=0.3).run(
                timeout_s=60
            )
        assert time.perf_counter() - start < 30

    def test_slow_but_healthy_run_not_flagged(self):
        class SlowSink(Sink):
            def __init__(self):
                super().__init__("slow")
                self.n = 0

            def consume(self, tup, port):
                time.sleep(0.005)
                self.n += 1

        g = Graph("slow")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((20, 1))))
        )
        sink = SlowSink()
        g.add(sink)
        g.connect(src, sink)
        ThreadedEngine(g, stall_timeout_s=1.0).run(timeout_s=30)
        assert sink.n == 20

    def test_watchdog_api(self):
        wd = Watchdog(0.05)
        assert wd.stalled_for() is None
        time.sleep(0.08)
        assert wd.stalled_for() is not None
        wd.poke()
        assert wd.stalled_for() is None


# ---------------------------------------------------------------------------
# Stress: parallel PCA under delays, backpressure, repeated shutdowns
# ---------------------------------------------------------------------------


class TestParallelStress:
    def test_delays_and_tiny_queues_lose_nothing(self, model, data):
        """Injected delays + queue_size=8 exercise backpressure end to
        end; the merged eigensystem must stay accurate and every engine's
        final state must arrive."""
        app = _build_app(data[:2500], n_engines=3)
        inj = (
            FaultInjector()
            .delay("pca-0", at_tuple=50, seconds=0.02, repeat=3)
            .delay("pca-2", at_tuple=200, seconds=0.02, repeat=2)
        )
        inj.install(app.graph)
        stats = ThreadedEngine(app.graph, queue_size=8).run(timeout_s=120)
        assert len(app.controller.final_states) == 3
        assert stats.tuples_in["split"] == 2500
        state = app.controller.global_state(3)
        assert largest_principal_angle(state.basis, model.basis) < 0.2

    def test_repeated_threaded_shutdown_collects_all_finals(self, model):
        """Shutdown-race stress at the application level: every engine's
        final state survives every iteration."""
        rng = np.random.default_rng(13)
        block = model.sample(800, rng)
        for _ in range(8):
            app = _build_app(block, n_engines=3)
            ThreadedEngine(app.graph).run(timeout_s=60)
            assert sorted(app.controller.final_states) == [0, 1, 2]

    def test_runner_facade_supervised_run(self, model, data):
        """ParallelStreamingPCA carries supervisor + stall watchdog."""
        runner = ParallelStreamingPCA(
            3,
            n_engines=2,
            alpha=0.995,
            runtime="threaded",
            split_seed=1,
            collect_diagnostics=False,
            supervisor=Supervisor(default=FailFast()),
            stall_timeout_s=30.0,
        )
        result = runner.run(VectorStream.from_array(data[:2000]))
        assert largest_principal_angle(
            result.global_state.basis, model.basis
        ) < 0.25
        assert result.run_stats.total_recoveries() == 0

    def test_supervision_report_fault_free(self, data):
        app = _build_app(data[:500], n_engines=2)
        stats = SynchronousEngine(
            app.graph, supervisor=Supervisor()
        ).run()
        assert "no failures" in supervision_report(stats)
