"""Tests for the Batcher operator, its telemetry, and the
batched parallel-PCA pipeline."""

import numpy as np
import pytest

from repro.data import PlantedSubspaceModel, VectorStream
from repro.parallel import ParallelStreamingPCA
from repro.streams import (
    BLOCK_SCHEMA,
    Batcher,
    CollectingSink,
    FusionPlan,
    Graph,
    StreamTuple,
    SynchronousEngine,
    Telemetry,
    TelemetryConfig,
    ThreadedEngine,
    VectorSource,
)


def wire(op):
    out = []
    op.bind(lambda tup, port: out.append((tup, port)))
    return out


def feed_rows(op, n, d=4, start_seq=0):
    for i in range(n):
        op._dispatch(
            StreamTuple.data(x=np.full(d, float(start_seq + i)),
                             seq=start_seq + i),
            0,
        )


class TestBatcher:
    def test_size_flush(self):
        b = Batcher("b", batch_size=4)
        out = wire(b)
        feed_rows(b, 10)
        assert len(out) == 2
        for tup, port in out:
            assert port == 0
            assert tup["xs"].shape == (4, 4)
            assert tup["count"] == 4
        # Row order and seq alignment survive batching.
        assert list(out[0][0]["seqs"]) == [0, 1, 2, 3]
        assert out[1][0]["xs"][0, 0] == 4.0
        assert b.flush_counts["size"] == 2
        assert b.rows_in == 10
        assert b.batches_out == 2

    def test_punctuation_flushes_remainder(self):
        b = Batcher("b", batch_size=8)
        out = wire(b)
        feed_rows(b, 5)
        assert out == []
        b._dispatch(StreamTuple.punctuation(), 0)
        data = [t for t, _ in out if t.is_data]
        punct = [t for t, _ in out if t.is_punctuation]
        assert len(data) == 1 and data[0]["count"] == 5
        assert len(punct) == 1
        # Remainder flushed BEFORE the punctuation propagates.
        assert out[0][0].is_data and out[1][0].is_punctuation
        assert b.flush_counts["punctuation"] == 1

    def test_control_flushes_then_forwards(self):
        b = Batcher("b", batch_size=8)
        out = wire(b)
        feed_rows(b, 3)
        ctl = StreamTuple.control(type="sync")
        b._dispatch(ctl, 0)
        assert len(out) == 2
        assert out[0][0].is_data and out[0][0]["count"] == 3
        assert out[1][0] is ctl
        assert b.flush_counts["control"] == 1

    def test_timeout_flush_is_lazy(self):
        clock = {"t": 0.0}
        b = Batcher("b", batch_size=100, timeout_s=1.0,
                    clock=lambda: clock["t"])
        out = wire(b)
        feed_rows(b, 3)
        assert out == []
        clock["t"] = 2.0  # deadline passed; next arrival triggers flush
        feed_rows(b, 1, start_seq=3)
        assert len(out) == 1
        assert out[0][0]["count"] == 3
        assert b.flush_counts["timeout"] == 1
        # The triggering row starts the next batch.
        b._dispatch(StreamTuple.punctuation(), 0)
        assert out[1][0]["count"] == 1
        assert list(out[1][0]["seqs"]) == [3]

    def test_achieved_batch_size(self):
        b = Batcher("b", batch_size=4)
        wire(b)
        feed_rows(b, 9)
        b._dispatch(StreamTuple.punctuation(), 0)
        # Flushes of 4, 4, 1 -> mean 3.
        assert b.achieved_batch_size() == pytest.approx(3.0)

    def test_empty_stream_no_empty_block(self):
        b = Batcher("b", batch_size=4)
        out = wire(b)
        b._dispatch(StreamTuple.punctuation(), 0)
        assert all(t.is_punctuation for t, _ in out)
        assert b.batches_out == 0

    def test_dimension_change_raises(self):
        b = Batcher("b", batch_size=4)
        wire(b)
        feed_rows(b, 1, d=4)
        with pytest.raises(ValueError, match="dim changed"):
            b._dispatch(StreamTuple.data(x=np.zeros(5), seq=1), 0)

    def _block(self, start, n, d=4, ts=None):
        rows = np.arange(start, start + n, dtype=float)
        tup = StreamTuple.data(
            BLOCK_SCHEMA, xs=np.repeat(rows[:, None], d, axis=1),
            seqs=np.arange(start, start + n), count=n,
        )
        if ts is not None:
            object.__setattr__(tup, "event_ts", ts)
        return tup

    def test_full_block_on_empty_buffer_is_forwarded_uncopied(self):
        b = Batcher("b", batch_size=8)
        out = wire(b)
        full = self._block(0, 8)
        b._dispatch(full, 0)
        assert out == [(full, 0)]
        assert (b.rows_in, b.batches_out) == (8, 1)
        assert b.flush_counts["size"] == 1
        assert b.achieved_batch_size() == 8.0

    def test_misaligned_blocks_rows_and_control_regroup_in_order(self):
        """Blocks of 10, 64, 7 and 100 rows, a control tuple and three
        single rows through a 64-row Batcher: full blocks in arrival
        order, nothing reordered across the control tuple, every seq
        and the oldest event time of each block preserved."""
        b = Batcher("b", batch_size=64)
        out = wire(b)
        ctl = StreamTuple.control(type="sync")
        b._dispatch(self._block(0, 10, ts=50.0), 0)
        b._dispatch(self._block(10, 64, ts=40.0), 0)    # 54 + 10 carried
        b._dispatch(self._block(74, 7, ts=60.0), 0)     # buffer: 17
        b._dispatch(ctl, 0)                             # flushes the 17
        feed_rows(b, 3, start_seq=81)
        b._dispatch(self._block(84, 100, ts=70.0), 0)   # 61 + 39
        b._dispatch(StreamTuple.punctuation(), 0)
        blocks = [t for t, _ in out if t.is_data]
        assert [t["count"] for t in blocks] == [64, 17, 64, 39]
        assert out.index((ctl, 0)) == 2
        assert out[-1][0].is_punctuation
        seqs = np.concatenate([t["seqs"] for t in blocks])
        assert seqs.dtype == np.int64 and list(seqs) == list(range(184))
        np.testing.assert_array_equal(
            np.concatenate([t["xs"] for t in blocks])[:, 0], np.arange(184.0)
        )
        assert [t.event_ts for t in blocks] == [40.0, 40.0, 70.0, 70.0]
        assert all(t.schema is BLOCK_SCHEMA for t in blocks)
        assert b.rows_in == 184 and b.batches_out == 4
        assert b.flush_counts == {
            "size": 2, "timeout": 0, "punctuation": 1, "control": 1,
        }
        assert b.achieved_batch_size() == pytest.approx(46.0)

    def test_block_dimension_change_raises(self):
        b = Batcher("b", batch_size=8)
        wire(b)
        b._dispatch(self._block(0, 3, d=4), 0)
        with pytest.raises(ValueError, match="dim changed"):
            b._dispatch(self._block(3, 3, d=5), 0)

    def test_block_schema_validates(self):
        BLOCK_SCHEMA.validate(
            {"xs": np.zeros((2, 3)), "seqs": np.zeros(2), "count": 2}
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Batcher("b", batch_size=0)
        with pytest.raises(ValueError):
            Batcher("b", timeout_s=0.0)


class TestBatcherTelemetry:
    def test_gauges_and_flush_counters(self):
        rng = np.random.default_rng(0)
        g = Graph("batched")
        src = g.add(
            VectorSource(
                "src", VectorStream.from_array(rng.standard_normal((25, 6)))
            )
        )
        b = g.add(Batcher("batcher", batch_size=10))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, b)
        g.connect(b, sink)

        tel = Telemetry(TelemetryConfig(metrics=True))
        tel.attach_graph(g)
        SynchronousEngine(g).run()

        assert tel.metrics.value(
            "repro_batch_achieved_size", operator="batcher"
        ) == pytest.approx(25 / 3)
        assert tel.metrics.value(
            "repro_batch_flush_total", operator="batcher", reason="size"
        ) == 2
        assert tel.metrics.value(
            "repro_batch_flush_total",
            operator="batcher",
            reason="punctuation",
        ) == 1


class TestBatchedParallelPipeline:
    @pytest.mark.parametrize("runtime", ["synchronous", "threaded"])
    def test_batched_run_matches_unbatched_subspace(self, runtime):
        model = PlantedSubspaceModel(dim=40, seed=3)
        x = model.sample(1200, np.random.default_rng(5))
        results = {}
        for batch in (0, 32):
            runner = ParallelStreamingPCA(
                4,
                n_engines=2,
                alpha=0.999,
                runtime=runtime,
                split_strategy="round_robin",
                batch_size=batch,
            )
            results[batch] = runner.run(VectorStream.from_array(x))
        a = results[0].components
        b = results[32].components
        overlap = np.linalg.svd(a @ b.T, compute_uv=False)
        assert overlap.min() >= 0.98
        # Row accounting: every observation reached exactly one engine.
        for res in results.values():
            assert (
                sum(r["n_local_rows"] for r in res.engine_reports) == 1200
            )

    def test_batched_diagnostics_preserve_outlier_seqs(self):
        model = PlantedSubspaceModel(dim=30, seed=7)
        rng = np.random.default_rng(8)
        x = model.sample(900, rng)
        bad = [200, 450, 700]
        x[bad] += 60.0 * rng.standard_normal((len(bad), 30))

        seqs = {}
        for batch in (0, 16):
            runner = ParallelStreamingPCA(
                3,
                n_engines=1,
                alpha=0.999,
                batch_size=batch,
            )
            result = runner.run(VectorStream.from_array(x))
            seqs[batch] = set(result.outlier_seqs().tolist())
        assert set(bad) <= seqs[16]
        assert seqs[0] == seqs[16]

    @pytest.mark.parametrize("runtime", ["threaded", "process", "cluster"])
    def test_block_diagnostics_cross_every_transport(
        self, block_diag_case, runtime
    ):
        """The per-block diagnostics tuple over the in-process queue and
        TCP from local and cluster hosts: same rows, same flags, same
        values as the synchronous reference."""
        x, make_runner = block_diag_case
        ref = make_runner().run(VectorStream.from_array(x))
        kw = {} if runtime == "threaded" else {"mp_context": "fork"}
        got = make_runner(runtime, timeout_s=120, **kw).run(
            VectorStream.from_array(x)
        )
        assert len(got.diagnostics) == len(ref.diagnostics) == 378
        np.testing.assert_array_equal(
            got.outlier_seqs(), ref.outlier_seqs()
        )
        assert set(ref.outlier_seqs().tolist()) == {90, 205, 333}

        def per_engine(result, engine):
            return [
                (d["seq"], d["is_outlier"], d["weight"], d["r2"])
                for d in result.diagnostics if d["engine"] == engine
            ]

        for engine in (0, 1):
            a, b = per_engine(got, engine), per_engine(ref, engine)
            assert [r[:2] for r in a] == [r[:2] for r in b]
            np.testing.assert_allclose(
                [r[2:] for r in a], [r[2:] for r in b], rtol=1e-9
            )

    def test_batcher_counters_exposed_on_app(self):
        model = PlantedSubspaceModel(dim=20, seed=1)
        x = model.sample(300, np.random.default_rng(2))
        runner = ParallelStreamingPCA(
            3, n_engines=2, batch_size=25, collect_diagnostics=False
        )
        app = runner.build(VectorStream.from_array(x))
        SynchronousEngine(app.graph).run()
        assert app.batcher is not None
        assert app.batcher.rows_in == 300
        assert app.batcher.achieved_batch_size() == pytest.approx(25.0)


class TestThrottleBlockDrainShutdown:
    """Satellite: Throttle(mode='block') sleeping inside a PE thread must
    not stall the ThreadedEngine's two-phase drain shutdown or lose the
    in-flight control (sync) tuple queued behind the sleep."""

    def _graph(self, n_rows, rate_hz):
        from repro.streams import Source

        rng = np.random.default_rng(0)
        rows = rng.standard_normal((n_rows, 4))
        items = [
            StreamTuple.data(x=rows[i], seq=i) for i in range(n_rows)
        ]
        # A sync-style control tuple rides at the very end of the stream:
        # it must survive the blocked throttle and reach the sink.
        items.append(StreamTuple.control(type="sync", epoch=1))

        from repro.streams import Throttle

        g = Graph("throttle-drain")
        src = g.add(Source("src", items))
        thr = g.add(
            Throttle("thr", rate_hz=rate_hz, mode="block")
        )
        sink = g.add(CollectingSink("sink"))
        g.connect(src, thr)
        g.connect(thr, sink)
        return g, thr, sink

    def test_blocked_throttle_completes_drain_without_loss(self):
        n_rows = 30
        # ~0.3 s of enforced sleeping spread over the run: enough to have
        # tuples in flight at punctuation time, small enough for CI.
        g, thr, sink = self._graph(n_rows, rate_hz=100.0)
        stats = ThreadedEngine(
            g, fusion=FusionPlan.per_operator(g)
        ).run(timeout_s=30.0)
        data = [t for t in sink.tuples if t.is_data]
        ctl = [t for t in sink.tuples if t.is_control]
        assert len(data) == n_rows  # no tuple dropped at shutdown
        assert len(ctl) == 1 and ctl[0]["type"] == "sync"
        assert thr.n_dropped == 0
        assert thr.n_forwarded == n_rows + 1
        assert stats.wall_time_s < 30.0

    def test_blocked_throttle_fused_with_sink(self):
        """Same guarantee when the throttle is fused into one PE with
        its consumer (sleep happens inside the fused dispatch)."""
        g, thr, sink = self._graph(20, rate_hz=100.0)
        stats = ThreadedEngine(
            g, fusion=FusionPlan.fuse_chains(g)
        ).run(timeout_s=30.0)
        assert len([t for t in sink.tuples if t.is_data]) == 20
        assert len([t for t in sink.tuples if t.is_control]) == 1
        assert thr.n_dropped == 0

    def test_blocked_throttle_quiesce_within_deadline(self):
        """A sleep in progress at quiesce time delays, but never stalls,
        the drain: total shutdown stays well under the engine timeout."""
        import time

        g, thr, sink = self._graph(10, rate_hz=50.0)
        start = time.perf_counter()
        ThreadedEngine(g, fusion=FusionPlan.per_operator(g)).run(
            timeout_s=30.0
        )
        elapsed = time.perf_counter() - start
        # 10 tuples at 50 Hz ≈ 0.2 s of throttling; anything close to
        # the 30 s timeout means the drain was stalled by the sleep.
        assert elapsed < 10.0
        assert len([t for t in sink.tuples if t.is_data]) == 10


class TestDrainTimeFlush:
    """Satellite: the tail of a quiet stream must exit at drain.

    The timeout flush is *lazy* — it fires on the next arrival — so rows
    buffered when the stream goes quiet are only released by the
    end-of-stream punctuation flush.  That release must happen on every
    engine, including across the process boundary."""

    N_ROWS = 7  # strictly fewer than batch_size: the whole stream is tail

    def _graph(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((self.N_ROWS, 4))
        g = Graph("drain-flush")
        src = g.add(VectorSource("src", VectorStream.from_array(rows)))
        b = g.add(Batcher("batch", batch_size=64, timeout_s=0.05))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, b)
        g.connect(b, sink)
        return g, b, sink, rows

    def _check_sink(self, sink, rows):
        blocks = [t for t in sink.tuples if t.is_data]
        assert sum(t["count"] for t in blocks) == self.N_ROWS
        got = np.concatenate([t["xs"] for t in blocks])
        np.testing.assert_allclose(got, rows)
        seqs = np.concatenate([t["seqs"] for t in blocks])
        assert list(seqs) == list(range(self.N_ROWS))

    def test_threaded_engine_flushes_tail_at_drain(self):
        g, b, sink, rows = self._graph()
        ThreadedEngine(g, fusion=FusionPlan.per_operator(g)).run(
            timeout_s=30.0
        )
        self._check_sink(sink, rows)
        # Released by the punctuation flush — never dropped, never stuck
        # waiting for a timeout check that no further arrival triggers.
        assert b.flush_counts["punctuation"] == 1
        assert b.flush_counts["timeout"] == 0
        assert b.rows_in == self.N_ROWS

    def test_process_engine_flushes_tail_at_drain(self):
        from repro.parallel import ENGINE_CLASSES

        g, b, sink, rows = self._graph()
        engine = ENGINE_CLASSES["process"](g, mp_context="fork")
        assert engine.n_hosts == 1  # the batcher is the one host
        engine.run(timeout_s=60.0)
        # The sink (running in the coordinator) proves the tail crossed
        # the boundary.
        self._check_sink(sink, rows)
