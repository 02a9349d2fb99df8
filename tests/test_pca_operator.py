"""Tests for the StreamingPCAOperator control protocol."""

import json
import pathlib

import numpy as np
import pytest

from repro.core import RobustIncrementalPCA, largest_principal_angle
from repro.data import PlantedSubspaceModel
from repro.data import VectorStream
from repro.parallel.pca_operator import (
    DIAGNOSTICS_SCHEMA,
    StreamingPCAOperator,
    expand_diagnostics,
)
from repro.streams import BLOCK_SCHEMA, SynchronousEngine
from repro.streams.tuples import StreamTuple


@pytest.fixture
def model():
    return PlantedSubspaceModel(
        dim=30, signal_variances=(16.0, 9.0, 4.0), noise_std=0.3, seed=2
    )


def _make_op(engine_id=0, alpha=0.99, **kwargs):
    est = RobustIncrementalPCA(3, alpha=alpha, init_size=20)
    op = StreamingPCAOperator(
        f"pca-{engine_id}", engine_id=engine_id, estimator=est, **kwargs
    )
    out = []
    op.bind(lambda tup, port: out.append((tup, port)))
    return op, out


def _feed(op, model, rng, n):
    for i, x in enumerate(model.sample(n, rng)):
        op._dispatch(StreamTuple.data(x=x, seq=i), 0)


class TestDataPath:
    def test_updates_estimator_and_emits_diagnostics(self, model, rng):
        op, out = _make_op()
        _feed(op, model, rng, 100)
        assert op.estimator.n_seen == 100
        diags = [t for t, port in out if port == 1 and "weight" in t.payload]
        assert len(diags) == 80  # after init_size warm-up
        assert all(t["engine"] == 0 for t in diags)

    def test_diagnostics_can_be_disabled(self, model, rng):
        op, out = _make_op(emit_diagnostics=False)
        _feed(op, model, rng, 100)
        assert [t for t, port in out if port == 1] == []


class TestBlockDiagnostics:
    """A block tuple leaves as ONE diagnostics tuple; the per-row view
    is recovered by ``expand_diagnostics``."""

    def _block(self, model, rng, n, start):
        xs = model.sample(n, rng)
        seqs = np.arange(start, start + n, dtype=np.int64)
        return StreamTuple.data(BLOCK_SCHEMA, xs=xs, seqs=seqs, count=n)

    def test_one_schema_tuple_per_block(self, model, rng):
        op, out = _make_op()
        _feed(op, model, rng, 20)                       # warm-up, per row
        tup = self._block(model, rng, 64, start=1000)
        tup.payload["xs"][5] = np.nan                   # skipped row
        tup.payload["xs"][9] += 80.0                    # gross outlier
        op._dispatch(tup, 0)
        diags = [t for t, port in out if port == 1]
        assert len(diags) == 1
        d = diags[0]
        assert d.schema is DIAGNOSTICS_SCHEMA
        assert d["engine"] == 0
        want_seqs = np.delete(np.arange(1000, 1064), 5)
        np.testing.assert_array_equal(d["seqs"], want_seqs)
        assert d["seqs"].dtype == np.int64
        assert d["outliers"].dtype == bool
        for key in ("weights", "r2s", "outliers"):
            assert d[key].shape == (63,)
        assert d["outliers"][8] and d["weights"][8] == 0.0

        rows = expand_diagnostics(diags)
        assert [r["seq"] for r in rows] == want_seqs.tolist()
        assert list(rows[0]) == ["seq", "weight", "r2", "is_outlier", "engine"]
        assert [type(v) for v in rows[0].values()] == [
            int, float, float, bool, int
        ]
        assert [r["seq"] for r in rows if r["is_outlier"]] == [1009]

    def test_block_without_seqs_reports_minus_one(self, model, rng):
        op, out = _make_op()
        _feed(op, model, rng, 20)
        op._dispatch(StreamTuple.data(xs=model.sample(8, rng)), 0)
        (d,) = [t for t, port in out if port == 1]
        np.testing.assert_array_equal(d["seqs"], np.full(8, -1))

    def test_warmup_only_block_emits_nothing(self, model, rng):
        op, out = _make_op()
        op._dispatch(self._block(model, rng, 10, start=0), 0)
        assert [t for t, port in out if port == 1] == []

    def test_expand_mixes_row_and_block_forms(self, model, rng):
        op, out = _make_op()
        _feed(op, model, rng, 30)                       # 10 per-row tuples
        op._dispatch(self._block(model, rng, 16, start=30), 0)
        port1 = [t for t, port in out if port == 1]
        # A tuple that is neither form is dropped.
        port1.insert(5, StreamTuple.data(kind="other", engine=0))
        rows = expand_diagnostics(port1)
        assert [r["seq"] for r in rows] == list(range(20, 46))
        assert all(set(r) == set(rows[0]) for r in rows)

    def test_run_result_matches_parent_commit_golden(self, block_diag_case):
        """``ParallelRunResult.diagnostics`` at batch_size=64 is the
        list the per-row emission produced before the block tuple
        existed: seqs, engines and flags as captured then; weights and
        r2 as re-captured when the covariance route began solving once
        per forgetting window instead of once per chunk, and again when
        that window became the documented ⌊0.25/(1-α)⌋ = 50 rows at
        α = 0.995 (floating point had read 49)."""
        x, make_runner = block_diag_case
        golden = json.loads(
            (
                pathlib.Path(__file__).parent
                / "data" / "block_diagnostics_golden.json"
            ).read_text()
        )
        got = make_runner().run(VectorStream.from_array(x)).diagnostics
        assert all(
            list(r) == ["seq", "weight", "r2", "is_outlier", "engine"]
            for r in got
        )
        for key in ("seq", "engine", "is_outlier"):
            assert [r[key] for r in got] == golden[key]
        for key in ("weight", "r2"):
            np.testing.assert_allclose(
                [r[key] for r in got], golden[key], rtol=1e-7, atol=1e-9
            )
        seqs = {r["seq"] for r in got}
        assert len(got) == 420 - 2 * 20 - 2
        assert not {150, 300} & seqs                    # skipped rows

    def test_sink_holds_one_tuple_per_block(self, block_diag_case):
        x, make_runner = block_diag_case
        app = make_runner().build(VectorStream.from_array(x))
        stats = SynchronousEngine(app.graph).run()
        n_blocks = stats.tuples_in[app.split.name]
        assert n_blocks == 7
        assert len(app.diag_sink.tuples) == n_blocks
        assert all(
            t.schema is DIAGNOSTICS_SCHEMA for t in app.diag_sink.tuples
        )


class TestSyncProtocol:
    def test_ready_announced_once_when_gate_opens(self, model, rng):
        op, out = _make_op(alpha=0.99)  # N=100, gate at 150
        _feed(op, model, rng, 400)
        readies = [t for t, port in out if port == 0 and t.get("type") == "ready"]
        assert len(readies) == 1
        assert readies[0]["engine"] == 0

    def test_share_replies_with_state(self, model, rng):
        op, out = _make_op()
        _feed(op, model, rng, 100)
        op._dispatch(StreamTuple.control(type="share"), 1)
        states = [t for t, port in out if port == 0 and t.get("type") == "state"]
        assert len(states) == 1
        assert states[0]["state"].n_components == 3
        assert op.n_states_shared == 1
        # The controller gets a private copy: later updates never reach
        # a state that was already handed out.
        frozen = states[0]["state"].basis.copy()
        _feed(op, model, rng, 200)
        np.testing.assert_array_equal(states[0]["state"].basis, frozen)

    def test_share_before_init_is_noop(self, model, rng):
        op, out = _make_op()
        _feed(op, model, rng, 5)  # still warming up
        op._dispatch(StreamTuple.control(type="share"), 1)
        assert [t for t, _ in out if t.get("type") == "state"] == []

    def test_merge_installs_combined_state(self, model, rng):
        op, out = _make_op(alpha=0.99)
        _feed(op, model, rng, 200)
        # Build a second, independent engine's state.
        other = RobustIncrementalPCA(3, alpha=0.99, init_size=20)
        other.partial_fit(model.sample(200, np.random.default_rng(5)))
        incoming = other.public_state()

        before = op.estimator.state.basis.copy()
        op._dispatch(StreamTuple.control(type="merge", state=incoming), 1)
        assert op.n_syncs_received == 1
        assert op.estimator.state.n_since_sync == 0
        after = op.estimator.state.basis
        # Merged basis differs from the local one but spans ~the truth.
        assert not np.allclose(after[:, :3], before[:, :3])
        assert largest_principal_angle(after[:, :3], model.basis) < 0.3

    def test_ready_rearmed_after_merge(self, model, rng):
        op, out = _make_op(alpha=0.99)  # N = 100
        _feed(op, model, rng, 200)
        assert sum(1 for t, _ in out if t.get("type") == "ready") == 1
        other = RobustIncrementalPCA(3, alpha=0.99, init_size=20)
        other.partial_fit(model.sample(150, np.random.default_rng(5)))
        op._dispatch(
            StreamTuple.control(type="merge", state=other.public_state()), 1
        )
        _feed(op, model, rng, 200)
        assert sum(1 for t, _ in out if t.get("type") == "ready") == 2

    def test_merge_before_init_is_dropped(self, model, rng):
        op, out = _make_op()
        other = RobustIncrementalPCA(3, alpha=0.99, init_size=20)
        other.partial_fit(model.sample(100, np.random.default_rng(5)))
        op._dispatch(
            StreamTuple.control(type="merge", state=other.public_state()), 1
        )
        assert op.n_syncs_received == 0

    def test_unknown_control_message(self, model, rng):
        op, _ = _make_op()
        with pytest.raises(ValueError, match="unknown control"):
            op._dispatch(StreamTuple.control(type="reboot"), 1)


class TestLifecycle:
    def test_final_state_on_close(self, model, rng):
        op, out = _make_op()
        _feed(op, model, rng, 100)
        op._dispatch(StreamTuple.punctuation(), 0)
        finals = [t for t, port in out if port == 0 and t.get("type") == "final"]
        assert len(finals) == 1
        assert finals[0]["state"].n_seen == 100
        assert op.is_closed

    def test_control_punctuation_does_not_close(self, model, rng):
        op, _ = _make_op()
        _feed(op, model, rng, 50)
        op._dispatch(StreamTuple.punctuation(), 1)  # control port
        assert not op.is_closed

    def test_diagnostics_dict(self, model, rng):
        op, _ = _make_op()
        _feed(op, model, rng, 100)
        d = op.diagnostics()
        assert d["engine"] == 0
        assert d["n_seen"] == 100

    def test_validation(self):
        est = RobustIncrementalPCA(2)
        with pytest.raises(ValueError, match="sync_gate_factor"):
            StreamingPCAOperator("p", 0, est, sync_gate_factor=0.0)
        with pytest.raises(ValueError, match="heartbeat_every"):
            StreamingPCAOperator("p", 0, est, heartbeat_every=-1)


class TestConcurrentStateReads:
    """Regression tests for the serving-layer thread-safety guard: the
    estimator's block update mutates the eigensystem *in place*, so a
    reader on another thread must only ever see state through
    ``published_state()`` (copied under the state lock)."""

    def test_published_state_none_during_warmup(self):
        op, _ = _make_op()
        assert op.published_state() is None

    def test_published_state_is_a_torn_free_copy(self, model, rng):
        op, _ = _make_op()
        _feed(op, model, rng, 100)
        state = op.published_state()
        before = state.basis.copy()
        _feed(op, model, rng, 500)  # keep mutating in place
        np.testing.assert_array_equal(state.basis, before)

    def test_concurrent_reads_during_block_updates(self, model, rng):
        """Hammer ``published_state`` from two reader threads while the
        owner thread streams block updates; every observed state must be
        internally consistent (orthonormal basis, finite eigenvalues,
        matching shapes) — a torn read fails these invariants."""
        import threading

        op, _ = _make_op()
        op.estimator.update_block(model.sample(100, rng))
        stop = threading.Event()
        problems: list[str] = []

        def reader():
            while not stop.is_set():
                state = op.published_state()
                if state is None:
                    continue
                basis, eigs = state.basis, state.eigenvalues
                if basis.shape[1] != eigs.shape[0]:
                    problems.append("shape mismatch")
                    return
                if not np.all(np.isfinite(basis)):
                    problems.append("non-finite basis")
                    return
                gram = basis.T @ basis
                if not np.allclose(gram, np.eye(gram.shape[0]), atol=1e-6):
                    problems.append("basis not orthonormal (torn read?)")
                    return

        threads = [
            threading.Thread(target=reader, daemon=True) for _ in range(2)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(60):
                with op._lock():
                    op.estimator.update_block(model.sample(64, rng))
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        assert problems == []

    def test_operator_survives_pickle_roundtrip(self, model, rng):
        """The remote runtimes ship operators to engine hosts (pickled
        under forkserver/spawn) and their ``__dict__`` payloads back; the
        state lock must never reach a pickler."""
        import pickle

        est = RobustIncrementalPCA(3, alpha=0.99, init_size=20)
        op = StreamingPCAOperator("pca-0", engine_id=0, estimator=est)
        op.estimator.update_block(model.sample(60, rng))
        clone = pickle.loads(pickle.dumps(op))
        assert clone.estimator.n_seen == 60
        # the revived lock is a real lock, usable immediately
        assert clone.published_state() is not None
