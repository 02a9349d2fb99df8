"""ClusterEngine: multi-node TCP runtime — parity, chaos, bookkeeping.

Every test here spawns real engine-host processes connected to the
coordinator over real TCP sockets on localhost; nothing is mocked below
the wire layer.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.data.streams import VectorStream
from repro.parallel.runner import ParallelStreamingPCA
from repro.streams import (
    ChaosScenario,
    ClusterEngine,
    FaultSpec,
    OperatorFailure,
    Telemetry,
    TelemetryConfig,
    cluster_flap_scenario,
    cluster_kill_host_scenario,
    run_scenario,
)

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


class TestClusterParity:
    def test_matches_synchronous_engine_over_tcp(self):
        X = _spectra()
        ref = _pca_runner("synchronous").run(VectorStream.from_array(X))
        got = _pca_runner("cluster").run(VectorStream.from_array(X))

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
        np.testing.assert_allclose(
            got.eigenvalues, ref.eigenvalues, rtol=1e-8
        )
        np.testing.assert_array_equal(
            got.outlier_seqs(), ref.outlier_seqs()
        )
        assert len(got.diagnostics) == len(ref.diagnostics)


class TestClusterBookkeeping:
    def test_clean_run_stats_and_telemetry(self):
        X = _spectra(n=600)
        runner = _pca_runner("cluster")
        app = runner.build(VectorStream.from_array(X))
        tel = Telemetry(TelemetryConfig(metrics=True, tracing=False))
        engine = ClusterEngine(
            app.graph, main_ops=app.main_ops, n_hosts=3, telemetry=tel
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
            app.graph, main_ops=app.main_ops, n_hosts=3,
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
    def test_host_kill_needs_cluster_runtime(self):
        with pytest.raises(ValueError, match="cluster runtime"):
            ChaosScenario(
                name="bad",
                faults=(FaultSpec(kind="host_kill", op="pca-0"),),
                runtime="process",
            )

    def test_netsplit_needs_cluster_runtime(self):
        with pytest.raises(ValueError, match="cluster runtime"):
            ChaosScenario(
                name="bad",
                faults=(FaultSpec(kind="netsplit", op="pca-0"),),
                runtime="threaded",
            )

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
            app.graph, main_ops=app.main_ops, n_hosts=3
        )

        def _attack():
            deadline = time.perf_counter() + 30.0
            while engine._listener is None:
                if time.perf_counter() > deadline:
                    return
                time.sleep(0.005)
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
            {"received": 0, "sent": 0}, threading.Event(), 7,
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
                app.graph, main_ops=app.main_ops, n_hosts=3,
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
            app.graph, main_ops=app.main_ops, n_hosts=3
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
