"""ClusterEngine: the TCP runtime behind ``"process"`` and ``"cluster"``
— parity, the data window, restart, stall, chaos, bookkeeping.

Every test here spawns real engine-host processes connected to the
coordinator over real TCP sockets on localhost; nothing is mocked below
the wire layer.
"""

import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import largest_principal_angle
from repro.data import PlantedSubspaceModel
from repro.data.streams import VectorStream
from repro.parallel.app import engine_restart_supervisor
from repro.parallel.runner import ParallelStreamingPCA
from repro.streams import (
    ChaosScenario,
    ClusterEngine,
    CollectingSink,
    FaultSpec,
    Functor,
    Graph,
    OperatorFailure,
    RestartFromCheckpoint,
    StallDetected,
    Supervisor,
    Telemetry,
    TelemetryConfig,
    VectorSource,
    cluster_flap_scenario,
    cluster_kill_host_scenario,
    run_scenario,
    wire_stats,
)
from repro.streams.clusterengine import _WINDOW_ROWS
from repro.streams.tuples import reset_wire_stats

MIN_AFFINITY = 0.98


def _spectra(n=900, d=16, seed=0):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(d, 3)))[0]
    scales = np.array([8.0, 4.0, 2.0])
    return (
        rng.normal(size=(n, 3)) @ (basis.T * scales[:, None])
        + 0.1 * rng.normal(size=(n, d))
    )


def _pca_runner(runtime, **kw):
    # sync_gate_factor inf => no mid-run syncs, so each engine's input
    # subsequence (fixed by split_seed) fully determines its state and
    # the runtimes must agree numerically.
    return ParallelStreamingPCA(
        n_components=3,
        n_engines=3,
        alpha=1.0,
        runtime=runtime,
        batch_size=8,
        split_seed=7,
        sync_gate_factor=1e9,
        **kw,
    )


def _assert_sync_parity(runtime, **kw):
    X = _spectra()
    ref = _pca_runner("synchronous").run(VectorStream.from_array(X))
    got = _pca_runner(runtime, **kw).run(VectorStream.from_array(X))

    assert set(got.engine_states) == set(ref.engine_states)
    for i, ref_state in ref.engine_states.items():
        state = got.engine_states[i]
        assert state.n_seen == ref_state.n_seen
        np.testing.assert_allclose(
            state.eigenvalues, ref_state.eigenvalues, rtol=1e-8
        )
        np.testing.assert_allclose(
            state.mean, ref_state.mean, rtol=0, atol=1e-8
        )
        np.testing.assert_allclose(
            state.basis, ref_state.basis, rtol=0, atol=1e-8
        )
    np.testing.assert_allclose(got.eigenvalues, ref.eigenvalues, rtol=1e-8)
    np.testing.assert_array_equal(got.outlier_seqs(), ref.outlier_seqs())
    assert len(got.diagnostics) == len(ref.diagnostics)


class TestClusterParity:
    def test_matches_synchronous_engine_over_tcp(self):
        _assert_sync_parity("cluster")


class TestThreadedParity:
    """The in-process coordinator on its default placement: one PE for
    the coordination plane, one per engine, the diagnostics sink on the
    engines' threads."""

    def test_matches_synchronous_engine(self):
        _assert_sync_parity("threaded")


class TestProcessParity:
    """``runtime="process"``: the same engine, its hosts local."""

    def test_matches_synchronous_engine(self):
        _assert_sync_parity("process", mp_context="fork")

    def test_zero_copy_block_transport(self):
        X = _spectra(n=800)
        app = _pca_runner("process").build(VectorStream.from_array(X))
        reset_wire_stats()
        engine = app.engine("process", mp_context="fork")
        assert type(engine) is ClusterEngine and engine.n_hosts == 3
        engine.run(timeout_s=120)
        stats = engine.cluster_stats
        assert stats["tuples_to_hosts"] > 0
        assert stats["tuples_dropped"] == 0 and stats["tuples_lost"] == 0
        # The hot path never pickles a payload:
        assert wire_stats()["pickled_payloads"] == 0
        rows = sum(op.diagnostics()["n_local_rows"] for op in app.engines)
        assert rows == X.shape[0]


class TestProcessFacade:
    """``ParallelStreamingPCA(runtime="process")`` end to end."""

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


def _slow_identity(tup):
    time.sleep(0.001)
    return tup


class TestDataWindow:
    def test_slow_host_keeps_the_link_within_the_window(self):
        """Regression: the link to a slow host queued the whole stream
        on the coordinator.  A data tuple now waits for credit, so the
        rows outstanding on the link — queued, in flight or not yet
        consumed — never exceed the window."""
        n = 2000
        g = Graph("slow-host")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((n, 2))))
        )
        slow = g.add(Functor("slow", _slow_identity))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, slow)
        g.connect(slow, sink)
        engine = ClusterEngine(g, mp_context="fork")
        loc = engine._loc_of["slow"]
        depths = []
        done = threading.Event()

        def sample():
            while not done.is_set():
                depths.append(engine._links[loc].outstanding)
                time.sleep(0.002)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            engine.run(timeout_s=120)
        finally:
            done.set()
            sampler.join(timeout=5)
        assert not sampler.is_alive()
        assert len(sink.tuples) == n
        assert _WINDOW_ROWS // 2 < max(depths) <= _WINDOW_ROWS


class TestLossStep:
    """The loss step of quiescence, driven by hand on an engine that is
    built but never run: no hosts, no sockets, no local threads (so
    ``_quiescent()`` reads the links alone), link counters set here.
    After a death or a flap, frames inside the dead socket are gone and
    the counters can never balance; a frozen imbalance first nudges
    every live host with ``finish`` (the loss may have swallowed an
    end-of-stream punctuation, which weighs nothing against the
    window), and a second freeze ends the run, counting the residue."""

    @pytest.fixture
    def engine(self, monkeypatch):
        from repro.streams import clusterengine as ce

        monkeypatch.setattr(ce, "_LOSS_GRACE_S", -1.0)
        g = Graph("loss")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((4, 2))))
        )
        a = g.add(Functor("a", _slow_identity))
        b = g.add(Functor("b", _slow_identity))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, a)
        g.connect(a, b)
        g.connect(b, sink)
        engine = ClusterEngine(g, mp_context="fork")
        assert engine.n_hosts == 2
        for link in engine._links.values():
            link.sent_to = link.received_from = 5
            link.report = {"quiesced": True, "received": 5, "sent": 5}
        return engine

    @staticmethod
    def _finishes(link):
        return [item for item, _ in link.outq if item == {"t": "finish"}]

    def test_quiesced_balanced_links_read_as_quiet(self, engine):
        assert engine._quiescent()
        engine._links[1].report["quiesced"] = False
        assert not engine._quiescent()

    def test_imbalance_without_death_or_reconnect_is_never_loss(
        self, engine
    ):
        link = engine._links[0]
        link.sent_to = 9
        assert not any(engine._quiescent() for _ in range(6))
        assert not any(l.outq for l in engine._links.values())
        engine._fold_reports()
        assert engine.cluster_stats["tuples_lost"] == 0

    def test_frozen_imbalance_after_reconnect_nudges_once_then_counts(
        self, engine
    ):
        l0, l1 = engine._links.values()
        l1.reconnects = 1
        l0.sent_to = 10  # the host received 5: 5 lost towards it
        l1.report["sent"] = 8  # the coordinator received 5: 3 lost back
        nudged_at = ended_at = None
        for i in range(10):
            ended = engine._quiescent()
            if nudged_at is None and l0.outq:
                nudged_at = i
            if ended:
                ended_at = i
                break
        assert nudged_at is not None and ended_at is not None
        assert nudged_at < ended_at
        assert [self._finishes(l) for l in (l0, l1)] == [
            [{"t": "finish"}], [{"t": "finish"}]
        ]
        engine._fold_reports()
        assert engine.cluster_stats["tuples_lost"] == 5 + 3


class TestHostBlasPool:
    def test_host_caps_its_openblas_pool(self):
        """A host's BLAS pool is its share of the cores, not the whole
        machine's: spinning pools of several hosts starve each other."""
        import ctypes
        import glob
        import multiprocessing as mp

        from repro.streams import clusterengine as ce

        libs = glob.glob(os.path.join(
            os.path.dirname(np.__file__), os.pardir, "numpy.libs",
            "*openblas*",
        ))
        if not libs:
            pytest.skip("numpy does not run its bundled OpenBLAS here")
        get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_

        def child():
            ce._cap_blas_threads(1)
            os._exit(get_threads())

        proc = mp.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 1


class TestWorkerRestart:
    def test_sigkilled_worker_restarts_from_checkpoint(self, tmp_path):
        X = _spectra(n=20000, d=32, seed=3)
        # sync_gate_factor inf => no merges, so each engine's final
        # n_seen counts exactly the rows its state absorbed.
        runner = ParallelStreamingPCA(
            n_components=3,
            n_engines=2,
            alpha=0.999,
            runtime="process",
            batch_size=8,
            sync_gate_factor=1e9,
            collect_diagnostics=False,
        )
        app = runner.build(VectorStream.from_array(X))
        supervisor = engine_restart_supervisor(
            app, directory=tmp_path, checkpoint_every=5
        )
        # mp_context defaults: restart policies prefer forkserver.
        engine = app.engine("process", supervisor=supervisor)
        loc0 = engine._loc_of["pca-0"]

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
            # Kill pca-0's host once it has persisted a checkpoint.
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
                    and engine.kill_remote(loc0)
                ):
                    killed = True
                    break
                time.sleep(0.001)
            assert killed, "run finished before a checkpoint appeared"
            assert done.wait(timeout=180)
        finally:
            t.join(timeout=10)

        assert not errors, errors
        assert engine._host_deaths >= 1
        assert supervisor.stats.restarts.get("pca-0", 0) >= 1
        # Both engines still handed their final state to the controller;
        # the respawned one resumed from its checkpoint, so the global
        # merge is computable and loss is bounded, not total.
        assert set(app.controller.final_states) == {0, 1}
        merged = app.controller.global_state(3)
        assert merged.eigenvalues.shape == (3,)
        # Lost: what the dead host had been sent and not consumed (one
        # window at most) plus what it consumed after its last
        # checkpoint (checkpoint_every dispatches x batch_size rows).
        # Nothing is redelivered, so nothing is counted twice.
        absorbed = sum(
            s.n_seen for s in app.controller.final_states.values()
        )
        ckpt_slack = 5 * 8
        lo = X.shape[0] - _WINDOW_ROWS - ckpt_slack
        assert lo <= absorbed <= X.shape[0], (absorbed, lo)


class _WedgeOnce(Functor):
    """Spins forever on its Nth tuple — alive but progress-free, the
    failure mode process liveness checks cannot see.  A marker file on
    disk makes sure only the *first* incarnation wedges, so the
    respawned host can finish the stream.  (Module-level so host
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


class TestStallRecovery:
    def test_wedged_worker_is_killed_and_restarted(self, tmp_path):
        g, sink = _wedge_graph(tmp_path)
        supervisor = Supervisor(
            policies={"wedge": RestartFromCheckpoint(checkpoint_every=5)}
        )
        engine = ClusterEngine(
            g,
            supervisor=supervisor,
            stall_timeout_s=1.5,
            mp_context="fork",
        )
        engine.run(timeout_s=120)  # must complete, not hang
        assert (tmp_path / "wedged.marker").exists()
        assert engine._host_deaths >= 1
        assert supervisor.stats.restarts.get("wedge", 0) >= 1
        # What the host finished before it wedged reached the sink; what
        # it had been sent and not finished died with it (no
        # redelivery), and the respawn closed the stream.
        assert 9 <= len(sink.tuples) <= 40

    def test_without_restart_policy_raises_instead_of_hanging(
        self, tmp_path
    ):
        g, _ = _wedge_graph(tmp_path)
        engine = ClusterEngine(g, stall_timeout_s=1.0, mp_context="fork")
        start = time.monotonic()
        with pytest.raises(StallDetected, match="no coordinator-visible"):
            engine.run(timeout_s=120)
        assert time.monotonic() - start < 60


class TestClusterBookkeeping:
    def test_clean_run_stats_and_telemetry(self):
        X = _spectra(n=600)
        runner = _pca_runner("cluster")
        app = runner.build(VectorStream.from_array(X))
        tel = Telemetry(TelemetryConfig(metrics=True, tracing=False))
        engine = ClusterEngine(
            app.graph, n_hosts=3, telemetry=tel
        )
        engine.run(timeout_s=120)

        stats = engine.cluster_stats
        assert stats["hosts"] == 3
        assert stats["host_deaths"] == 0
        assert stats["reconnects"] == 0
        assert stats["tuples_dropped"] == 0 and stats["tuples_lost"] == 0
        # Real traffic crossed the sockets in both directions.
        assert stats["tuples_to_hosts"] > 0
        assert stats["tuples_from_hosts"] > 0
        assert stats["frames_in"] > 0 and stats["frames_out"] > 0
        assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0

        events = tel.events.events()
        connected = [
            e for e in events if e.get("kind") == "cluster_host_connected"
        ]
        assert {e["host"] for e in connected} == {0, 1, 2}
        # Host metric shards merged back under process=h<id> labels.
        shard_labels = {
            s.labels.get("process")
            for s in tel.metrics.collect()
            if hasattr(s, "labels") and s.labels.get("process")
        }
        assert {"h0", "h1", "h2"} <= shard_labels

    def test_fail_fast_without_tolerate_host_loss(self):
        X = _spectra(n=4000)
        runner = _pca_runner("cluster")
        app = runner.build(VectorStream.from_array(X))
        engine = ClusterEngine(
            app.graph, n_hosts=3,
            tolerate_host_loss=False,
        )

        def _assassin():
            deadline = time.perf_counter() + 30.0
            while time.perf_counter() < deadline:
                link = engine._links.get(0)
                if link is not None and link.sent_to > 0:
                    engine.kill_remote(0)
                    return
                time.sleep(0.01)

        threading.Thread(target=_assassin, daemon=True).start()
        with pytest.raises(OperatorFailure, match="host0"):
            engine.run(timeout_s=120)


class TestClusterChaos:
    @pytest.mark.parametrize("kind", ["host_kill", "netsplit"])
    def test_rejected_on_threaded_and_synchronous(self, kind):
        fault = FaultSpec(kind=kind, op="pca-0")
        for runtime in ("threaded", "synchronous"):
            with pytest.raises(ValueError, match="places operators on hosts"):
                ChaosScenario(name="bad", faults=(fault,), runtime=runtime)
        for runtime in ("process", "cluster"):
            ChaosScenario(name="ok", faults=(fault,), runtime=runtime)

    def test_kill_engine_rejected_on_cluster(self):
        with pytest.raises(ValueError, match="host_kill"):
            ChaosScenario(
                name="bad",
                faults=(FaultSpec(kind="kill_engine", op="pca-0"),),
                runtime="cluster",
            )

    def test_survives_kill_one_of_three_hosts(self):
        report = run_scenario(cluster_kill_host_scenario(seed=0))
        assert report.ok, report.error
        assert report.affinity is not None
        assert report.affinity >= MIN_AFFINITY
        assert report.n_evictions >= 1
        kinds = [e.get("kind") for e in report.events]
        assert "cluster_host_dead" in kinds

    def test_survives_network_flap(self):
        report = run_scenario(cluster_flap_scenario(seed=0))
        assert report.ok, report.error
        assert report.n_reconnects >= 1
        assert report.affinity is not None
        assert report.affinity >= MIN_AFFINITY


class TestAcceptLoopResilience:
    def test_garbage_connections_do_not_kill_the_run(self):
        # Regression: a single malformed/hostile connection to the
        # coordinator port (the untrusted boundary) used to raise an
        # uncaught json/struct error in the accept thread, after which
        # hosts could never connect or redial and the run hung until
        # timeout.
        import struct

        X = _spectra(n=600)
        runner = _pca_runner("cluster")
        app = runner.build(VectorStream.from_array(X))
        engine = ClusterEngine(
            app.graph, n_hosts=3
        )

        def _attack():
            # Wait for the accept thread, which starts right after the
            # hosts fork: a host forked while this thread sits inside
            # getaddrinfo can inherit the resolver's lock held, and
            # hang dialing in.
            deadline = time.perf_counter() + 30.0
            while getattr(engine, "_accept", None) is None:
                if time.perf_counter() > deadline:
                    return
                time.sleep(0.001)
            addr = engine._listener.getsockname()
            junk_json = b"this is not json"
            payloads = [
                b"GET / HTTP/1.1\r\n\r\n",  # wrong protocol entirely
                b"RPW1" + b"\x00" * 16,  # empty body: junk JSON header
                # Valid magic, n_blobs pointing far past the buffer.
                b"RPW1"
                + struct.pack(
                    "!QII", len(junk_json), len(junk_json), 1 << 20
                )
                + junk_json,
                b"",  # connect-and-vanish
            ]
            for payload in payloads:
                try:
                    s = socket.create_connection(addr, timeout=5.0)
                    if payload:
                        s.sendall(payload)
                    s.close()
                except OSError:
                    return

        attacker = threading.Thread(target=_attack, daemon=True)
        attacker.start()
        engine.run(timeout_s=120)
        attacker.join(timeout=10.0)
        stats = engine.cluster_stats
        assert stats["host_deaths"] == 0
        assert stats["tuples_from_hosts"] > 0


class _ThreadCensus(Functor):
    """Records the threads of the process it runs in.  (Module-level so
    host processes can unpickle it.)"""

    def __init__(self, name):
        super().__init__(name, None)
        self.threads = []

    def process(self, tup, port):
        self.threads = sorted(t.name for t in threading.enumerate())
        self.submit(tup)


class TestHostThreads:
    def test_a_host_runs_its_engine_and_one_sender(self):
        """Relaying, acking and reporting state share one sender thread:
        every ``"tuples"`` frame carries the host's state."""
        g = Graph("census")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((50, 2))))
        )
        census = g.add(_ThreadCensus("census"))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, census)
        g.connect(census, sink)
        engine = ClusterEngine(g, mp_context="fork")
        engine.run(timeout_s=120)
        assert len(sink.tuples) == 50
        assert len(census.threads) == 2
        assert "host0-sender" in census.threads
        assert engine.cluster_stats["frames_out"] > 0


class TestHostThreadFailure:
    def test_sender_budget_exhaustion_exits_host_process(
        self, monkeypatch, capsys
    ):
        # Regression: a ConnectionError (redial budget exhausted) used
        # to kill only the daemon sender thread — the host kept
        # computing with output silently never sent, and the
        # coordinator saw a live, never-quiescing host until the run
        # timeout.  The thread must take the whole host process down so
        # death detection takes over.
        from collections import deque

        from repro.streams import clusterengine as ce

        exits = []
        monkeypatch.setattr(ce.os, "_exit", lambda code: exits.append(code))

        class _DeadChannel:
            def send(self, msg):
                raise ConnectionError("reconnect budget exhausted")

        outq = deque([("dst", 0, {"kind": "control"})])
        ce._host_sender_loop(
            _DeadChannel(), outq, threading.Condition(),
            {"received": 0, "sent": 0, "consumed": 0}, [], threading.Event(),
            7,
        )
        assert exits == [1]
        assert "death detection" in capsys.readouterr().out


class TestPickleGate:
    def test_is_loopback_bind(self):
        from repro.streams.clusterengine import _is_loopback_bind

        assert _is_loopback_bind("127.0.0.1")
        assert _is_loopback_bind("127.1.2.3")
        assert _is_loopback_bind("::1")
        assert _is_loopback_bind("localhost")
        assert not _is_loopback_bind("0.0.0.0")
        assert not _is_loopback_bind("::")
        assert not _is_loopback_bind("")
        assert not _is_loopback_bind("10.0.0.5")
        assert not _is_loopback_bind("example.com")

    def test_non_loopback_bind_refuses_pickled_done_payloads(self):
        # Regression: "done" frames were decoded with allow_pickle=True
        # gated only by the cleartext run_id — on a non-loopback bind an
        # on-path observer could replay it and deliver a pickle
        # (arbitrary code execution on the coordinator).
        import pickle

        from repro.streams.tuples import WireDecodeError

        X = _spectra(n=60)
        app = _pca_runner("cluster").build(VectorStream.from_array(X))
        with pytest.warns(RuntimeWarning, match="non-loopback"):
            engine = ClusterEngine(
                app.graph, n_hosts=3,
                bind_host="0.0.0.0",
            )
        assert engine._pickle_ok is False
        op_name = engine._remote_ops[0][0].name
        engine._links[0].done = {
            "ops": {
                op_name: {
                    "attr": {
                        "__wire__": "pickle",
                        "data": pickle.dumps({1, 2}),
                    }
                }
            },
            "metrics": [],
            "counters": {"received": 0, "sent": 0},
            "transport": {},
        }
        with pytest.raises(WireDecodeError, match="allow_pickle=False"):
            engine._fold_reports()

    def test_loopback_bind_still_trusts_done_payloads(self):
        import pickle

        X = _spectra(n=60)
        app = _pca_runner("cluster").build(VectorStream.from_array(X))
        engine = ClusterEngine(
            app.graph, n_hosts=3
        )
        assert engine._pickle_ok is True
        op = engine._remote_ops[0][0]
        engine._links[0].done = {
            "ops": {
                op.name: {
                    "extra_attr": {
                        "__wire__": "pickle",
                        "data": pickle.dumps({1, 2}),
                    }
                }
            },
            "metrics": [],
            "counters": {"received": 0, "sent": 0},
            "transport": {},
        }
        engine._fold_reports()
        assert op.extra_attr == {1, 2}


class TestClusterCLI:
    def test_cluster_command_smoke(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "cluster.jsonl"
        rc = main([
            "cluster", "--rows", "900", "--engines", "3",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists() and out.stat().st_size > 0
