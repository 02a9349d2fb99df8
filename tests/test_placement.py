"""Where the Fig. 2 graph runs on the threaded runtime: one coordination
PE (batcher, split, controller); the PCA engines in one shared PE on the
covariance route and in one PE each on the Gram route
(``repro.core.block_route``); and no thread for a sink — a sink runs on
the thread of whichever operator emits to it.  The remote runtimes give
every engine its own host at any width."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import block_route
from repro.core.robust import RobustIncrementalPCA
from repro.data import PlantedSubspaceModel
from repro.data.streams import VectorStream
from repro.parallel import ParallelStreamingPCA, build_parallel_pca_graph
from repro.streams import (
    FusionPlan,
    Functor,
    Graph,
    Sink,
    Split,
    ThreadedEngine,
    VectorSource,
)

N_ROWS = 960


def _rows(n=N_ROWS, seed=0, dim=8):
    model = PlantedSubspaceModel(
        dim=dim, signal_variances=(9.0, 4.0), noise_std=0.3, seed=1
    )
    return model.sample(n, np.random.default_rng(seed))


def _factory(i):
    return RobustIncrementalPCA(2, alpha=0.98, init_size=20)


def _groups(pes):
    """The operator names of each non-source PE, order-free."""
    return sorted(
        sorted(op.name for op in pe.operators)
        for pe in pes
        if not any(op.name == "source" for op in pe.operators)
    )


class _DuckEstimator:
    """An estimator with the operator's API but no solve route (a
    fitted one: the graph builder's API check reads ``state``)."""

    def __init__(self, inner):
        inner.update_block(_rows(32, dim=8))
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _applied(app):
    return sum(op.diagnostics()["n_local_rows"] for op in app.engines)


class TestFig2Placement:
    N_ENGINES = 3

    def _threaded_run(self, dim):
        return ParallelStreamingPCA(
            2, n_engines=self.N_ENGINES, alpha=0.98, runtime="threaded",
            batch_size=16, estimator_kwargs={"init_size": 20},
        ).run(VectorStream.from_array(_rows(dim=dim)))

    def test_threaded_narrow_run_is_one_source_one_coordinator_one_engine_pe(
        self,
    ):
        """d = 8 <= p + chunk (2 + 12 at α = 0.98): the covariance route,
        so the engines share one thread."""
        assert block_route(8, 2, 0.98).covariance
        result = self._threaded_run(dim=8)
        engine = result.engine
        assert [t.name for t in engine._src_threads] == ["src-source"]
        assert _groups(r.pe for r in engine._runners) == [
            ["batcher", "split", "sync-controller"],
            [f"pca-{i}" for i in range(self.N_ENGINES)],
        ]
        assert sum(r["n_local_rows"] for r in result.engine_reports) == N_ROWS

    def test_threaded_run_is_one_source_one_coordinator_and_n_engines(self):
        """The Gram route (d = 24 > p + chunk): one PE per engine."""
        assert not block_route(24, 2, 0.98).covariance
        result = self._threaded_run(dim=24)
        engine = result.engine
        assert [t.name for t in engine._src_threads] == ["src-source"]
        assert _groups(r.pe for r in engine._runners) == sorted(
            [["batcher", "split", "sync-controller"]]
            + [[f"pca-{i}"] for i in range(self.N_ENGINES)]
        )
        assert sum(r["n_local_rows"] for r in result.engine_reports) == N_ROWS

    def test_duck_typed_estimators_keep_one_pe_per_engine(self):
        app = build_parallel_pca_graph(
            VectorStream.from_array(_rows(64)), 2,
            lambda i: _DuckEstimator(_factory(i)), batch_size=16,
        )
        assert app.graph.shared_ops == ()
        assert _groups(ThreadedEngine(app.graph).fusion.pes) == [
            ["batcher", "split", "sync-controller"], ["pca-0"], ["pca-1"],
        ]

    def test_bare_engine_places_like_the_runner(self):
        runner = ParallelStreamingPCA(
            2, n_engines=2, runtime="threaded", batch_size=16
        )
        app = runner.build(VectorStream.from_array(_rows(64)))
        ran = runner.run(VectorStream.from_array(_rows(64))).engine
        assert _groups(ThreadedEngine(app.graph).fusion.pes) == _groups(
            ran.fusion.pes
        )
        assert app.main_ops == {"batcher", "split", "sync-controller"}

    def test_diagnostics_sink_runs_on_the_emitting_engine_thread(self):
        app = build_parallel_pca_graph(
            VectorStream.from_array(_rows()), 2, _factory, batch_size=16
        )
        seen = []
        process = app.diag_sink.process

        def recording(tup, port):
            seen.append((threading.current_thread().name, tup["engine"]))
            process(tup, port)

        app.diag_sink.process = recording
        engine = app.engine("threaded")
        engine.run(timeout_s=60)
        thread_of = {
            op.engine_id: r.name
            for r in engine._runners
            for op in r.pe.operators
            if op in app.engines
        }
        assert seen
        assert all(name == thread_of[eng] for name, eng in seen)

    def test_sink_grouped_with_the_split_does_not_deadlock(self):
        """The engines emit diagnostics while the split waits on their
        full inboxes: a sink that had to be queued to the split's PE
        would close the cycle."""
        app = build_parallel_pca_graph(
            VectorStream.from_array(_rows()), 2, _factory, batch_size=16
        )
        plan = FusionPlan.from_groups(app.graph, [[app.split, app.diag_sink]])
        ThreadedEngine(app.graph, fusion=plan, queue_size=64).run(
            timeout_s=30
        )
        assert _applied(app) == N_ROWS
        assert sorted(app.controller.final_states) == [0, 1]


class TestRemotePlacement:
    """The shared group is the threaded runtime's alone: at d = 32 (the
    covariance route) a process or cluster run still puts one engine on
    each host."""

    def _app(self):
        assert block_route(32, 2, 0.999).covariance
        return build_parallel_pca_graph(
            VectorStream.from_array(_rows(dim=32)), 2,
            lambda i: RobustIncrementalPCA(2, alpha=0.999, init_size=20),
            batch_size=16,
        )

    @pytest.mark.parametrize("runtime", ["process", "cluster"])
    def test_each_engine_gets_its_own_host(self, runtime):
        app = self._app()
        assert [op.name for op in app.graph.shared_ops] == ["pca-0", "pca-1"]
        engine = app.engine(runtime)
        assert engine.n_hosts == 2
        assert [engine._loc_of[op.name] for op in app.engines] == [0, 1]
        assert {op.name for op in engine._local_ops}.isdisjoint(
            op.name for op in app.engines
        )

    def test_process_run_applies_rows_on_two_hosts(self):
        app = self._app()
        engine = app.engine("process")
        engine.run(timeout_s=120)
        assert engine.cluster_stats["hosts"] == 2
        assert _applied(app) == N_ROWS
        assert sorted(app.controller.final_states) == [0, 1]


class _RacyCounter(Sink):
    """Counts with a read-modify-write that yields the interpreter in
    between: two emitters inside it at once lose an update."""

    def __init__(self, n_inputs):
        super().__init__("counter", n_inputs=n_inputs)
        self.n = 0

    def consume(self, tup, port):
        n = self.n
        time.sleep(0)
        self.n = n + 1


class TestSinkUnderConcurrentEmitters:
    @pytest.fixture
    def busy_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.usefixtures("busy_switching")
    def test_emitters_take_turns_in_a_sink(self):
        """Four PE threads on two cores feed one sink: it runs on each of
        their threads, one at a time."""
        n, ways = 2000, 4
        g = Graph("fan-in")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((n, 2))))
        )
        split = g.add(Split("split", ways, strategy="round_robin"))
        counter = g.add(_RacyCounter(ways))
        g.connect(src, split)
        for i in range(ways):
            stage = g.add(Functor(f"f{i}", lambda t: t))
            g.connect(split, stage, out_port=i)
            g.connect(stage, counter, in_port=i)
        ThreadedEngine(g).run(timeout_s=60)
        assert counter.n == n
