"""The block-fed ≡ row-fed contract.

With ``batch_size > 1`` the pull sources emit ``(k, d)`` block tuples
themselves instead of one tuple per row for a Batcher to re-assemble.
Nothing a row-fed graph guaranteed may change: same rows in the same
blocks, every row judged by the ingress guards with its own dead-letter
record and its own valve token, one event-time stamp per emitted tuple,
and backpressure that still bounds what a stalled consumer lets in.
"""

import threading
import time

import numpy as np
import pytest

from repro.data import VectorStream
from repro.streams import (
    BLOCK_SCHEMA,
    CollectingSink,
    CSVFileSource,
    DirectorySource,
    Graph,
    GuardedVectorSource,
    Operator,
    SynchronousEngine,
    Telemetry,
    TelemetryConfig,
    ThreadedEngine,
    VectorSource,
)


def emitted(src):
    """Every tuple ``src`` submits when driven to exhaustion."""
    out = []
    src.bind(lambda tup, port: out.append(tup))
    for tup in src.generate():
        src.submit(tup)
    return out


class TestSourcesEmitBlocks:
    def test_blocks_rows_seqs_and_one_stamp_each(self):
        x = np.arange(40.0).reshape(10, 4)
        blocks = emitted(VectorSource("s", VectorStream.from_array(x),
                                      batch_size=4))
        assert [t["count"] for t in blocks] == [4, 4, 2]
        assert all(t.schema is BLOCK_SCHEMA for t in blocks)
        np.testing.assert_array_equal(
            np.concatenate([t["xs"] for t in blocks]), x
        )
        seqs = np.concatenate([t["seqs"] for t in blocks])
        assert seqs.dtype == np.int64 and list(seqs) == list(range(10))
        # Stamped once per emitted tuple, at the ingest boundary.
        stamps = [t.event_ts for t in blocks]
        assert all(ts is not None for ts in stamps)
        assert stamps == sorted(stamps)
        # Each block owns its rows: refilling the buffer for the next
        # block must not rewrite one already emitted.
        assert blocks[0]["xs"][0, 0] == 0.0 and blocks[1]["xs"][0, 0] == 16.0

    @pytest.mark.parametrize("batch_size", [0, 1])
    def test_batch_size_up_to_one_is_the_per_row_path(self, batch_size):
        x = np.arange(12.0).reshape(3, 4)
        rows = emitted(VectorSource("s", VectorStream.from_array(x),
                                    batch_size=batch_size))
        assert [t["seq"] for t in rows] == [0, 1, 2]
        assert all(t["x"].shape == (4,) for t in rows)

    def test_wrong_dim_row_never_enters_a_block(self):
        rows = [np.zeros(4), np.zeros(4), np.zeros(5)]
        src = VectorSource(
            "s", VectorStream.from_iterable(rows, dim=4), batch_size=8
        )
        with pytest.raises(ValueError, match="dim changed from 4 to 5"):
            emitted(src)

    def test_csv_sources_take_the_same_path(self, tmp_path):
        x = np.arange(21.0).reshape(7, 3)
        for i, part in enumerate((x[:3], x[3:])):
            np.savetxt(tmp_path / f"{i}.csv", part, delimiter=",")
        for src in (
            CSVFileSource("c", sorted(tmp_path.glob("*.csv")), batch_size=5),
            DirectorySource("d", tmp_path, batch_size=5),
        ):
            blocks = emitted(src)
            assert [t["count"] for t in blocks] == [5, 2]
            np.testing.assert_allclose(
                np.concatenate([t["xs"] for t in blocks]), x
            )
            assert list(blocks[1]["seqs"]) == [5, 6]


class TestBlockFedEqualsRowFed:
    def test_synchronous_run_is_identical(self, block_diag_case):
        """Same stream through a source that emits blocks and through
        the parent's feed (one observation tuple per row into the
        Batcher): the Batcher forwards or assembles the same blocks, so
        every number downstream is the same."""
        x, make_runner = block_diag_case
        from repro.parallel import expand_diagnostics

        def run(row_fed):
            app = make_runner().build(VectorStream.from_array(x))
            if row_fed:
                app.source.batch_size = 0
            stats = SynchronousEngine(app.graph).run()
            return app, stats

        blk, blk_stats = run(row_fed=False)
        row, row_stats = run(row_fed=True)
        assert blk_stats.tuples_in["batcher"] == 7
        assert row_stats.tuples_in["batcher"] == 420
        assert blk_stats.tuples_in["split"] == row_stats.tuples_in["split"]
        assert expand_diagnostics(blk.diag_sink.tuples) == expand_diagnostics(
            row.diag_sink.tuples
        )
        a = blk.controller.global_state(3)
        b = row.controller.global_state(3)
        np.testing.assert_allclose(a.basis, b.basis, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            a.eigenvalues, b.eigenvalues, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(a.mean, b.mean, rtol=0, atol=1e-12)
        # Both feeds leave the Batcher's books reading rows.
        for app in (blk, row):
            assert app.batcher.rows_in == 420
            assert app.batcher.batches_out == 7
            assert app.batcher.flush_counts["size"] == 6
            assert app.batcher.flush_counts["punctuation"] == 1

    def test_one_event_stamp_per_block_reaches_the_sink(self):
        from repro.core import RobustIncrementalPCA
        from repro.parallel import build_parallel_pca_graph

        x = np.random.default_rng(3).standard_normal((600, 8))
        app = build_parallel_pca_graph(
            VectorStream.from_array(x), 2,
            lambda i: RobustIncrementalPCA(3, init_size=10),
            batch_size=32, split_strategy="round_robin",
        )
        tel = Telemetry(TelemetryConfig())
        stats = SynchronousEngine(app.graph, telemetry=tel).run()
        n_blocks = stats.source_tuples["source"]
        assert n_blocks == 19
        (hist,) = [
            m for m in tel.metrics.collect()
            if getattr(m, "name", "") == "repro_e2e_latency_seconds"
            and m.labels.get("sink") == "diagnostics"
        ]
        assert hist.count == n_blocks == len(app.diag_sink.tuples)
        assert all(t.event_ts is not None for t in app.diag_sink.tuples)


def poisoned_rows(n=100, dim=6, seed=5):
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(dim) for _ in range(n)]
    for i in (0, 17, 18, 63):
        rows[i] = np.zeros(dim + 2)            # wrong dimensionality
    for i in (5, 40, 99):
        rows[i] = np.full(dim, np.nan)         # no information
    rows[7][0] = np.nan                        # a gap is not poison
    return rows, {0, 5, 17, 18, 40, 63, 99}


class TestGuardsJudgeEveryRow:
    def _source(self, rows, batch_size, **kw):
        return GuardedVectorSource(
            "src", VectorStream.from_iterable(rows, dim=6),
            batch_size=batch_size, expected_dim=6, **kw,
        )

    def test_dead_letters_equal_the_per_row_path(self):
        rows, poison = poisoned_rows()
        by_row = self._source(rows, 0)
        by_block = self._source(rows, 8)
        singles, blocks = emitted(by_row), emitted(by_block)
        assert by_block.n_quarantined == by_row.n_quarantined == len(poison)
        a, b = by_row.dlq.records, by_block.dlq.records
        assert [(r.seq, r.reason, r.origin) for r in a] == [
            (r.seq, r.reason, r.origin) for r in b
        ]
        assert {r.seq for r in b} == poison
        for ra, rb in zip(a, b):
            assert ra.payload["seq"] == rb.payload["seq"] == ra.seq
            np.testing.assert_array_equal(ra.payload["x"], rb.payload["x"])
        # Survivors keep filling the buffer: blocks stay full, their
        # seqs skip the dropped indices, and the rows are the same rows.
        assert [t["count"] for t in blocks] == [8] * 11 + [5]
        seqs = np.concatenate([t["seqs"] for t in blocks])
        assert list(seqs) == [t["seq"] for t in singles]
        assert not poison & set(seqs.tolist())
        np.testing.assert_array_equal(
            np.concatenate([t["xs"] for t in blocks]),
            np.stack([t["x"] for t in singles]),
        )

    def test_custom_validator_still_judges_rows(self):
        rows, _ = poisoned_rows()
        src = self._source(
            rows[20:40], 4,
            validator=lambda tup, dim: "odd" if tup["seq"] % 2 else None,
        )
        blocks = emitted(src)
        assert src.n_quarantined == 10
        assert list(np.concatenate([t["seqs"] for t in blocks])) == list(
            range(0, 20, 2)
        )

    def test_valve_spends_one_token_per_row(self):
        """Same stream, same injected clock (one tick per admission
        attempt): the valve trips, sheds and recovers at the same rows
        whether the survivors leave one at a time or in blocks."""
        rows, _ = poisoned_rows(n=400)

        def run(batch_size):
            # 20 ms per attempt: the default valve (1 s of burst, open
            # for 0.5 s) trips and recovers several times in 400 rows.
            ticks = iter(np.arange(0.0, 200.0, 0.02))
            src = self._source(
                rows, batch_size, max_rate_hz=20.0,
                clock=lambda: next(ticks),
            )
            out = emitted(src)
            if batch_size:
                seqs = np.concatenate([t["seqs"] for t in out]).tolist()
            else:
                seqs = [t["seq"] for t in out]
            return src.n_shed, src.n_trips, src.n_quarantined, seqs

        by_row, by_block = run(0), run(16)
        assert by_row == by_block
        assert by_row[0] > 50 and by_row[1] >= 3     # it did shed
        assert len(by_row[3]) + by_row[0] + by_row[2] == 400


class _Gate(Operator):
    """Holds every tuple until ``gate`` is set."""

    def __init__(self, name, gate):
        super().__init__(name)
        self.gate = gate

    def process(self, tup, port):
        assert self.gate.wait(30.0)
        self.submit(tup)


class TestInboxesBoundRows:
    BLOCK = 16

    def _graph(self, n_rows, gate):
        g = Graph("row-bound")
        src = g.add(VectorSource(
            "src", VectorStream.from_array(np.zeros((n_rows, 4))),
            batch_size=self.BLOCK,
        ))
        stage = g.add(_Gate("stage", gate))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, stage)
        g.connect(stage, sink)
        return g, src, sink

    def test_stalled_consumer_backpressures_within_the_row_bound(self):
        gate = threading.Event()
        g, src, sink = self._graph(4000, gate)
        tel = Telemetry(TelemetryConfig(sampler_interval_s=0.005))
        engine = ThreadedEngine(g, queue_size=64, telemetry=tel)
        runner = threading.Thread(target=engine.run, daemon=True)
        runner.start()
        try:
            deadline = time.monotonic() + 10.0
            emitted_blocks, since = -1, time.monotonic()
            while time.monotonic() - since < 0.3:     # source has stopped
                assert time.monotonic() < deadline
                if src.tuples_out != emitted_blocks:
                    emitted_blocks, since = src.tuples_out, time.monotonic()
                time.sleep(0.01)
            # 64 rows at the stage (the block its stalled dispatch holds
            # counts until dispatched, plus three queued), one block in
            # the source's blocked put — not 64 *tuples*.
            assert emitted_blocks == 64 // self.BLOCK + 1
        finally:
            gate.set()
            runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert sum(t["count"] for t in sink.tuples) == 4000
        depths = [
            e["depth"] for e in tel.events.events()
            if e.get("kind") == "sample" and e.get("pe")
        ]
        assert max(depths) == 64                      # reached the bound
        assert max(depths) <= 64 + self.BLOCK         # never beyond a block

    def test_block_larger_than_the_whole_bound_passes(self):
        gate = threading.Event()
        gate.set()
        g, src, sink = self._graph(160, gate)
        ThreadedEngine(g, queue_size=self.BLOCK // 2).run(timeout_s=30.0)
        assert [t["count"] for t in sink.tuples] == [self.BLOCK] * 10
