"""ProcessEngine: wire format, shm rings, parity, shutdown, restart."""

import multiprocessing as mp
import os
import threading
import time
import uuid

import numpy as np
import pytest

from repro.core import largest_principal_angle
from repro.core.eigensystem import Eigensystem
from repro.data import PlantedSubspaceModel
from repro.data.streams import VectorStream
from repro.parallel.app import engine_restart_supervisor
from repro.parallel.runner import ParallelStreamingPCA
from repro.streams import (
    BlockRing,
    CollectingSink,
    Functor,
    Graph,
    ProcessEngine,
    StreamTuple,
    TupleKind,
    VectorSource,
    from_wire,
    to_wire,
    wire_stats,
)
from repro.streams.batcher import BLOCK_SCHEMA
from repro.streams.tuples import reset_wire_stats, tuple_from_fields

# ---------------------------------------------------------------------------
# Wire round-trips
# ---------------------------------------------------------------------------


class TestWireRoundTrip:
    def test_scalar_data_tuple(self):
        tup = StreamTuple.data(x=np.arange(3.0), label="a")
        back = from_wire(to_wire(tup))
        assert back.is_data
        assert back.seq == tup.seq
        assert back.payload["label"] == "a"
        np.testing.assert_array_equal(back.payload["x"], tup.payload["x"])

    def test_block_schema_travels_by_name(self):
        xs = np.arange(12.0).reshape(3, 4)
        seqs = np.array([5, 6, 7], dtype=np.int64)
        tup = tuple_from_fields(
            {"xs": xs, "seqs": seqs, "count": 3},
            TupleKind.DATA,
            BLOCK_SCHEMA,
            123,
        )
        back = from_wire(to_wire(tup))
        assert back.schema is BLOCK_SCHEMA  # interned by registered name
        assert back.seq == 123
        np.testing.assert_array_equal(back.payload["xs"], xs)
        np.testing.assert_array_equal(back.payload["seqs"], seqs)

    def test_punctuation_and_control(self):
        punct = from_wire(to_wire(StreamTuple.punctuation()))
        assert punct.is_punctuation
        ctl = from_wire(to_wire(StreamTuple.control(type="share")))
        assert ctl.is_control
        assert ctl.payload["type"] == "share"

    def test_eigensystem_ships_as_dict_not_pickle(self):
        state = Eigensystem(
            mean=np.zeros(4),
            basis=np.eye(4, 2),
            eigenvalues=np.array([2.0, 1.0]),
            n_seen=10,
        )
        tup = StreamTuple.control(type="state", engine=0, state=state)
        reset_wire_stats()
        back = from_wire(to_wire(tup))
        assert wire_stats()["pickled_payloads"] == 0
        got = back.payload["state"]
        assert isinstance(got, Eigensystem)
        np.testing.assert_allclose(got.basis, state.basis)
        np.testing.assert_allclose(got.eigenvalues, state.eigenvalues)

    def test_opaque_payload_falls_back_to_counted_pickle(self):
        tup = StreamTuple.data(weird={"a", "b"})
        reset_wire_stats()
        back = from_wire(to_wire(tup))
        assert wire_stats()["pickled_payloads"] == 1
        assert back.payload["weird"] == {"a", "b"}


# ---------------------------------------------------------------------------
# BlockRing
# ---------------------------------------------------------------------------


def _ring_name():
    return f"repro-test-{uuid.uuid4().hex[:8]}"


class TestBlockRing:
    def test_fill_drain_wraparound(self):
        name = _ring_name()
        ring = BlockRing(name, slots=3, slot_rows=4, dim=2, create=True)
        try:
            for i in range(10):  # > slots: exercises cursor wraparound
                xs = np.full((2, 2), float(i))
                seqs = np.array([2 * i, 2 * i + 1])
                assert ring.try_put(7, 1, xs, seqs, tuple_seq=100 + i)
                item = ring.get()
                assert item is not None
                assert (item.dst_idx, item.dst_port) == (7, 1)
                assert item.tuple_seq == 100 + i
                np.testing.assert_array_equal(item.xs, xs)
                np.testing.assert_array_equal(item.seqs, seqs)
                ring.release()
            assert ring.depth() == 0
            assert ring.blocks_in == 10 and ring.blocks_out == 10
        finally:
            item = None  # drop the shared-memory views before unmapping
            ring.close()
            ring.unlink()

    def test_full_ring_rejects_put(self):
        ring = BlockRing(
            _ring_name(), slots=2, slot_rows=2, dim=1, create=True
        )
        try:
            xs = np.zeros((1, 1))
            assert ring.try_put(0, 0, xs, None, 1)
            assert ring.try_put(0, 0, xs, None, 2)
            assert not ring.try_put(0, 0, xs, None, 3)
            assert ring.depth() == 2
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_block_raises(self):
        ring = BlockRing(
            _ring_name(), slots=2, slot_rows=2, dim=3, create=True
        )
        try:
            with pytest.raises(ValueError, match="does not fit"):
                ring.try_put(0, 0, np.zeros((4, 3)), None, 1)
            with pytest.raises(ValueError, match="does not fit"):
                ring.try_put(0, 0, np.zeros((1, 2)), None, 1)
        finally:
            ring.close()
            ring.unlink()

    def test_crashed_consumer_gets_redelivery(self):
        # A consumer that dies between get() and release() never commits
        # the read cursor: a re-attached consumer sees the same block.
        name = _ring_name()
        prod = BlockRing(name, slots=4, slot_rows=2, dim=2, create=True)
        try:
            a = np.array([[1.0, 2.0], [3.0, 4.0]])
            b = np.array([[5.0, 6.0]])
            assert prod.try_put(0, 0, a, None, 11)
            assert prod.try_put(0, 0, b, None, 12)

            dead = BlockRing(name, slots=4, slot_rows=2, dim=2)
            item = dead.get()
            assert item.tuple_seq == 11
            dead.close()  # dies without release()

            survivor = BlockRing(name, slots=4, slot_rows=2, dim=2)
            item = survivor.get()  # re-delivered, not lost
            assert item.tuple_seq == 11
            np.testing.assert_array_equal(item.xs, a)
            survivor.release()
            item = survivor.get()
            assert item.tuple_seq == 12
            survivor.release()
            assert survivor.get() is None
            item = None  # drop the shared-memory views before unmapping
            survivor.close()
        finally:
            prod.close()
            prod.unlink()


# ---------------------------------------------------------------------------
# End-to-end: parallel PCA on the process runtime
# ---------------------------------------------------------------------------


def _spectra(n=1200, d=24, seed=0):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(d, 4)))[0]
    scales = np.array([8.0, 5.0, 3.0, 1.5])
    return (
        rng.normal(size=(n, 4)) @ (basis.T * scales[:, None])
        + 0.1 * rng.normal(size=(n, d))
    )


def _pca_runner(runtime, **kw):
    # sync_gate_factor inf => no mid-run syncs, so each engine's input
    # subsequence (fixed by split_seed) fully determines its state and
    # the runtimes must agree to floating-point identity.
    return ParallelStreamingPCA(
        n_components=4,
        n_engines=2,
        alpha=1.0,
        runtime=runtime,
        batch_size=8,
        split_seed=7,
        sync_gate_factor=1e9,
        **kw,
    )


class TestProcessParity:
    def test_matches_synchronous_engine(self):
        X = _spectra()
        ref = _pca_runner("synchronous").run(VectorStream.from_array(X))
        got = _pca_runner("process", mp_context="fork").run(
            VectorStream.from_array(X)
        )

        assert set(got.engine_states) == set(ref.engine_states)
        for i, ref_state in ref.engine_states.items():
            state = got.engine_states[i]
            assert state.n_seen == ref_state.n_seen
            np.testing.assert_allclose(
                state.eigenvalues, ref_state.eigenvalues, rtol=1e-10
            )
            np.testing.assert_allclose(
                state.mean, ref_state.mean, rtol=0, atol=1e-10
            )
            np.testing.assert_allclose(
                state.basis, ref_state.basis, rtol=0, atol=1e-10
            )
        np.testing.assert_allclose(
            got.eigenvalues, ref.eigenvalues, rtol=1e-10
        )
        np.testing.assert_array_equal(
            got.outlier_seqs(), ref.outlier_seqs()
        )
        assert len(got.diagnostics) == len(ref.diagnostics)

    def test_zero_copy_block_transport(self):
        X = _spectra(n=800)
        runner = _pca_runner("process")
        app = runner.build(VectorStream.from_array(X))
        reset_wire_stats()
        engine = ProcessEngine(
            app.graph, main_ops=app.main_ops, mp_context="fork"
        )
        engine.run(timeout_s=120)
        stats = engine.transport_stats
        assert stats["blocks_ring"] > 0
        # The hot path never pickles a block payload:
        assert stats["blocks_queue"] == 0
        assert stats["blocks_ring_in"] == stats["blocks_ring"]
        assert wire_stats()["pickled_payloads"] == 0
        rows = sum(r["n_local_rows"] for r in [
            op.diagnostics() for op in app.engines
        ])
        assert rows == X.shape[0]


class TestProcessFacade:
    """``ParallelStreamingPCA(runtime="process")`` end to end (cases
    carried over from the deleted ``ProcessParallelStreamingPCA``)."""

    @pytest.fixture(scope="class")
    def model(self):
        return PlantedSubspaceModel(
            dim=50, signal_variances=(25.0, 16.0, 9.0), noise_std=0.4, seed=6
        )

    def _run(self, x, **kw):
        runner = ParallelStreamingPCA(
            3, runtime="process", mp_context="fork", **kw
        )
        return runner.run(VectorStream.from_array(x))

    def test_every_observation_processed(self, model):
        x = model.sample(3000, np.random.default_rng(3))
        result = self._run(x, n_engines=4, alpha=0.995, split_seed=2)
        rows = sum(r["n_local_rows"] for r in result.engine_reports)
        assert rows == 3000
        assert len(result.engine_states) == 4

    def test_sync_traffic_happens(self, model):
        x = model.sample(6000, np.random.default_rng(4))
        # alpha=0.99 is N=100: many sync rounds in 6000 rows.
        result = self._run(x, n_engines=3, alpha=0.99, split_seed=3)
        assert result.sync_stats.n_states_routed > 0
        assert (
            result.sync_stats.n_merge_commands
            >= result.sync_stats.n_states_routed
        )

    def test_single_engine(self, model):
        x = model.sample(2000, np.random.default_rng(5))
        result = self._run(x, n_engines=1, alpha=0.995)
        assert result.sync_stats.n_merge_commands == 0
        assert largest_principal_angle(
            result.global_state.basis, model.basis
        ) < 0.2

    def test_too_short_stream_raises(self, model):
        x = model.sample(5, np.random.default_rng(6))
        with pytest.raises(RuntimeError, match="no final states"):
            self._run(x, n_engines=2)


# ---------------------------------------------------------------------------
# Worker death → restart from checkpoint
# ---------------------------------------------------------------------------


class TestWorkerRestart:
    def test_sigkilled_worker_restarts_from_checkpoint(self, tmp_path):
        X = _spectra(n=20000, d=32, seed=3)
        runner = ParallelStreamingPCA(
            n_components=4,
            n_engines=2,
            alpha=0.999,
            runtime="process",
            batch_size=8,
            collect_diagnostics=False,
        )
        app = runner.build(VectorStream.from_array(X))
        supervisor = engine_restart_supervisor(
            app, directory=tmp_path, checkpoint_every=5
        )
        # mp_context defaults: restart policies auto-prefer forkserver.
        engine = ProcessEngine(
            app.graph, main_ops=app.main_ops, supervisor=supervisor
        )
        wid0 = engine._loc_of["pca-0"]

        errors: list[BaseException] = []
        done = threading.Event()

        def go():
            try:
                engine.run(timeout_s=180)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)
            finally:
                done.set()

        t = threading.Thread(target=go)
        t.start()
        try:
            # Kill pca-0's process once it has persisted a checkpoint.
            ckpt_dir = tmp_path / "pca-0"
            deadline = time.time() + 120
            killed = False
            while not done.is_set() and time.time() < deadline:
                if (
                    ckpt_dir.is_dir()
                    # Ignore the hidden .tmp files save_eigensystem stages
                    # before os.replace: kill only once a checkpoint has
                    # actually been committed.
                    and any(
                        not p.name.startswith(".")
                        for p in ckpt_dir.iterdir()
                    )
                    and engine.kill_remote(wid0)
                ):
                    killed = True
                    break
                time.sleep(0.001)
            assert killed, "run finished before a checkpoint appeared"
            assert done.wait(timeout=180)
        finally:
            t.join(timeout=10)

        assert not errors, errors
        assert engine._worker_deaths >= 1
        assert supervisor.stats.restarts.get("pca-0", 0) >= 1
        # Both engines still handed their final state to the controller;
        # the restarted one resumed from its checkpoint, so the global
        # merge is computable and loss is bounded, not total.
        assert set(app.controller.final_states) == {0, 1}
        resumed = app.controller.final_states[0]
        assert resumed.n_seen > 0
        merged = app.controller.global_state(4)
        assert merged.eigenvalues.shape == (4,)
        # Bounded loss AND bounded duplication.  Rows since the last
        # checkpoint are lost; but in-flight transport is at-least-once
        # across a crash — the worker checkpoints during dispatch and
        # releases its ring slot after, so a kill in between re-delivers
        # blocks already captured in the checkpoint.  Either way the
        # deviation is bounded by the per-edge backpressure window
        # (ring_slots x ring_slot_rows), never the whole stream.
        window = engine.ring_slots * engine.ring_slot_rows
        ckpt_slack = 5 * 8  # checkpoint_every dispatches x batch_size rows
        total_rows = sum(
            op.diagnostics()["n_local_rows"] for op in app.engines
        )
        lo = X.shape[0] - window - ckpt_slack
        hi = X.shape[0] + window
        assert lo <= total_rows <= hi, (total_rows, lo, hi)


# ---------------------------------------------------------------------------
# Wedged worker → watchdog kill → restart (not a coordinator hang)
# ---------------------------------------------------------------------------


class _WedgeOnce(Functor):
    """Spins forever on its Nth tuple — alive but progress-free, the
    failure mode process liveness checks cannot see.  A marker file on
    disk makes sure only the *first* incarnation wedges, so the
    respawned worker can finish the stream.  (Module-level so worker
    processes can unpickle it.)"""

    def __init__(self, name, marker, wedge_at=10):
        super().__init__(name, None)
        self.marker = str(marker)
        self.wedge_at = wedge_at
        self._seen = 0

    def process(self, tup, port):
        self._seen += 1
        if self._seen == self.wedge_at and not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("wedged")
            while True:
                time.sleep(0.05)
        self.submit(tup)


def _wedge_graph(tmp_path, n=40):
    g = Graph("wedge")
    src = g.add(
        VectorSource(
            "src", VectorStream.from_array(np.zeros((n, 2)))
        )
    )
    wedge = g.add(_WedgeOnce("wedge", tmp_path / "wedged.marker"))
    sink = g.add(CollectingSink("sink"))
    g.connect(src, wedge)
    g.connect(wedge, sink)
    return g, sink


class TestCmdQueueUnpoison:
    """A worker SIGKILLed inside ``Queue.get`` dies holding the queue's
    shared reader lock; the respawn path must force-release it or the
    new worker reads nothing and the run livelocks (producers spinning
    on Full, the replacement spinning on Empty)."""

    def _engine_with_queue(self, q):
        eng = ProcessEngine.__new__(ProcessEngine)
        eng._cmd_qs = {0: q}
        return eng

    def test_orphaned_reader_lock_is_released(self):
        ctx = mp.get_context("forkserver")
        q = ctx.Queue(maxsize=4)
        q.put({"t": "tuple"})
        # Simulate the victim's orphaned hold: take the reader lock and
        # never release it (the SIGKILLed process can't).
        assert q._rlock.acquire(block=False)
        eng = self._engine_with_queue(q)
        eng._unpoison_cmd_queue(0)
        # A fresh consumer can read again.
        assert q._rlock.acquire(block=False)
        q._rlock.release()
        assert q.get(timeout=5.0) == {"t": "tuple"}
        q.close()
        q.join_thread()

    def test_healthy_queue_is_left_alone(self):
        ctx = mp.get_context("forkserver")
        q = ctx.Queue(maxsize=4)
        eng = self._engine_with_queue(q)
        eng._unpoison_cmd_queue(0)
        eng._unpoison_cmd_queue(0)  # idempotent, never over-releases
        assert q._rlock.acquire(block=False)
        q._rlock.release()
        q.close()
        q.join_thread()

    def test_missing_worker_id_is_a_noop(self):
        eng = ProcessEngine.__new__(ProcessEngine)
        eng._cmd_qs = {}
        eng._unpoison_cmd_queue(7)


class TestStallRecovery:
    def test_wedged_worker_is_killed_and_restarted(self, tmp_path):
        from repro.streams import (
            RestartFromCheckpoint,
            Supervisor,
        )

        g, sink = _wedge_graph(tmp_path)
        supervisor = Supervisor(
            policies={"wedge": RestartFromCheckpoint(checkpoint_every=5)}
        )
        engine = ProcessEngine(
            g,
            supervisor=supervisor,
            stall_timeout_s=1.5,
            mp_context="fork",
        )
        engine.run(timeout_s=120)  # must complete, not hang
        assert (tmp_path / "wedged.marker").exists()
        assert engine._worker_deaths >= 1
        assert supervisor.stats.restarts.get("wedge", 0) >= 1
        # Only the tuple wedged mid-process may be lost; everything
        # queued behind the wedge is redelivered to the respawn.
        assert len(sink.tuples) >= 38

    def test_without_restart_policy_raises_instead_of_hanging(
        self, tmp_path
    ):
        from repro.streams import StallDetected

        g, _ = _wedge_graph(tmp_path)
        engine = ProcessEngine(
            g, stall_timeout_s=1.0, mp_context="fork"
        )
        start = time.monotonic()
        with pytest.raises(StallDetected, match="no coordinator-visible"):
            engine.run(timeout_s=120)
        assert time.monotonic() - start < 60
