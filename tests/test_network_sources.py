"""Tests for live sources (TCP, tailing file) and operator profiling."""

import threading
import time

import numpy as np
import pytest

from repro.data import VectorStream
from repro.streams import (
    CollectingSink,
    Functor,
    Graph,
    SynchronousEngine,
    TailingFileSource,
    TCPVectorSource,
    ThreadedEngine,
    VectorSource,
    serve_vectors,
)


class TestTCPVectorSource:
    def test_streams_vectors_over_socket(self, rng):
        x = rng.standard_normal((20, 5))
        port, thread = serve_vectors(x)
        g = Graph("tcp")
        src = g.add(TCPVectorSource("tcp-src", "127.0.0.1", port))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, sink)
        SynchronousEngine(g).run()
        thread.join(timeout=5)
        got = np.vstack([t["x"] for t in sink.tuples])
        assert np.allclose(got, x)
        assert [t["seq"] for t in sink.tuples] == list(range(20))

    def test_nan_cells_become_gaps(self):
        x = np.array([[1.0, np.nan, 3.0]])
        port, thread = serve_vectors(x)
        src = TCPVectorSource("tcp-src", "127.0.0.1", port)
        tuples = list(src.generate())
        thread.join(timeout=5)
        assert np.isnan(tuples[0]["x"][1])

    def test_slow_feeder(self, rng):
        x = rng.standard_normal((5, 3))
        port, thread = serve_vectors(x, delay_s=0.02)
        src = TCPVectorSource("tcp-src", "127.0.0.1", port)
        assert len(list(src.generate())) == 5
        thread.join(timeout=5)

    def test_connect_failure(self):
        src = TCPVectorSource(
            "tcp-src", "127.0.0.1", 1, connect_timeout_s=0.2
        )
        with pytest.raises(OSError):
            list(src.generate())


class TestTailingFileSource:
    def test_follows_growing_file(self, tmp_path, rng):
        path = tmp_path / "feed.csv"
        path.write_text("")
        x = rng.standard_normal((10, 4))

        def writer():
            with path.open("a") as fh:
                for row in x:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
                    fh.flush()
                    time.sleep(0.01)
                fh.write("__END__\n")

        t = threading.Thread(target=writer, daemon=True)
        src = TailingFileSource("tail", path, poll_interval_s=0.005)
        t.start()
        got = np.vstack([tup["x"] for tup in src.generate()])
        t.join(timeout=5)
        assert np.allclose(got, x)

    def test_idle_timeout_ends_stream(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("1.0,2.0\n")
        src = TailingFileSource(
            "tail", path, poll_interval_s=0.01, idle_timeout_s=0.1
        )
        start = time.monotonic()
        tuples = list(src.generate())
        assert len(tuples) == 1
        assert time.monotonic() - start < 5.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TailingFileSource("tail", tmp_path / "nope.csv")

    def test_validation(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="poll_interval"):
            TailingFileSource("t", path, poll_interval_s=0.0)
        with pytest.raises(ValueError, match="idle_timeout"):
            TailingFileSource("t", path, idle_timeout_s=0.0)


class TestProfilingAndOptimizer:
    def _graph(self, n=400):
        g = Graph("opt")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((n, 4))))
        )

        def heavy(t):
            time.sleep(0.0002)
            return t

        f_light1 = g.add(Functor("light1", lambda t: t))
        f_heavy = g.add(Functor("heavy", heavy))
        f_light2 = g.add(Functor("light2", lambda t: t))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, f_light1)
        g.connect(f_light1, f_heavy)
        g.connect(f_heavy, f_light2)
        g.connect(f_light2, sink)
        return g, f_heavy

    def test_profiling_attributes_exclusive_time(self):
        g, f_heavy = self._graph()
        stats = SynchronousEngine(g, profile=True).run()
        times = stats.processing_time_s
        assert times["heavy"] > 5 * times["light1"]
        assert times["heavy"] > 5 * times["light2"]

    def test_unprofiled_run_records_nothing(self):
        g, _ = self._graph(n=10)
        stats = SynchronousEngine(g).run()
        assert stats.processing_time_s == {}

    def test_threaded_profiling(self):
        g, f_heavy = self._graph(n=100)
        stats = ThreadedEngine(g, profile=True).run(timeout_s=30)
        assert stats.processing_time_s["heavy"] > 0


@pytest.mark.usefixtures("fast_backoff")
class TestReconnect:
    """Sources survive connection flaps within the retry budget."""

    def test_tcp_reconnects_across_flaps(self, rng):
        from repro.streams import FlakyVectorServer

        x = rng.standard_normal((60, 4))
        server = FlakyVectorServer(
            x, flap_every=25, max_flaps=2, settle_s=0.05
        ).start()
        src = TCPVectorSource(
            "tcp-src", "127.0.0.1", server.port,
            max_retries=10,
        )
        tuples = list(src.generate())
        server.join(timeout=5)
        assert src.n_reconnects == 2
        seqs = [t["seq"] for t in tuples]
        assert len(set(seqs)) == len(seqs)  # no duplicates
        assert len(tuples) == 60  # settle window let the client drain
        assert np.allclose(np.vstack([t["x"] for t in tuples]), x)

    def test_retry_budget_exhaustion_raises(self):
        from repro.streams import FlakyVectorServer

        x = np.ones((30, 3))
        server = FlakyVectorServer(
            x, flap_every=5, max_flaps=1, settle_s=0.02
        ).start()
        src = TCPVectorSource(
            "tcp-src", "127.0.0.1", server.port,
            max_retries=0,
        )
        got = []
        with pytest.raises(OSError):
            for tup in src.generate():
                got.append(tup)
        assert len(got) == 5  # everything before the reset was delivered

    def test_connect_retries_until_listener_appears(self, rng):
        import socket as socket_mod

        x = rng.standard_normal((6, 3))
        server = socket_mod.socket(
            socket_mod.AF_INET, socket_mod.SOCK_STREAM
        )
        server.setsockopt(
            socket_mod.SOL_SOCKET, socket_mod.SO_REUSEADDR, 1
        )
        server.bind(("127.0.0.1", 0))  # bound but NOT listening yet
        port = server.getsockname()[1]

        def serve_late():
            time.sleep(0.2)
            server.listen(1)
            conn, _ = server.accept()
            with conn, conn.makefile("w", encoding="utf-8") as writer:
                for row in x:
                    writer.write(
                        ",".join(repr(float(v)) for v in row) + "\n"
                    )
                writer.write("__END__\n")
            server.close()

        t = threading.Thread(target=serve_late, daemon=True)
        t.start()
        src = TCPVectorSource(
            "tcp-src", "127.0.0.1", port,
            connect_timeout_s=1.0, max_retries=20,
        )
        got = np.vstack([tup["x"] for tup in src.generate()])
        t.join(timeout=5)
        assert np.allclose(got, x)
        # Pre-connect retries are not "reconnects": nothing was lost.
        assert src.n_reconnects == 0

    def test_zero_retries_fails_fast(self):
        src = TCPVectorSource(
            "tcp-src", "127.0.0.1", 1,
            connect_timeout_s=0.2, max_retries=0,
        )
        start = time.monotonic()
        with pytest.raises(OSError):
            list(src.generate())
        assert time.monotonic() - start < 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            TCPVectorSource("t", "127.0.0.1", 1, max_retries=-1)


class TestMalformedLines:
    """Unparsable input goes to the dead-letter queue, not up the stack."""

    def _feed(self, tmp_path, lines):
        path = tmp_path / "feed.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_tailing_source_quarantines_garbage(self, tmp_path):
        path = self._feed(
            tmp_path,
            ["1.0,2.0", "1.0,banana", "3.0,4.0", "__END__"],
        )
        src = TailingFileSource("tail", path, idle_timeout_s=1.0)
        tuples = list(src.generate())
        assert len(tuples) == 2
        assert [t["seq"] for t in tuples] == [0, 1]
        assert src.n_quarantined == 1
        [rec] = src.dlq.records
        assert rec.payload == "1.0,banana"
        assert "unparsable" in rec.reason
        assert rec.seq == 2  # line number, for finding it in the feed

    def test_strict_mode_raises_instead(self, tmp_path):
        path = self._feed(tmp_path, ["nope", "__END__"])
        src = TailingFileSource(
            "tail", path, idle_timeout_s=1.0, strict=True
        )
        with pytest.raises(ValueError, match="unparsable"):
            list(src.generate())

    def test_tcp_source_quarantines_garbage(self):
        import socket as socket_mod

        server = socket_mod.socket(
            socket_mod.AF_INET, socket_mod.SOCK_STREAM
        )
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            with conn, conn.makefile("w", encoding="utf-8") as writer:
                writer.write("1.0,2.0\ngarbage line\n3.0,4.0\n__END__\n")
            server.close()

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        src = TCPVectorSource("tcp-src", "127.0.0.1", port)
        tuples = list(src.generate())
        t.join(timeout=5)
        assert len(tuples) == 2
        assert src.n_quarantined == 1
        assert src.dlq.records[0].payload == "garbage line"

    def test_dlq_counter_exported_via_collector(self, tmp_path):
        from repro.streams import Telemetry, TelemetryConfig

        path = self._feed(tmp_path, ["1.0,2.0", "bad", "__END__"])
        g = Graph("dlq")
        src = g.add(TailingFileSource("tail", path, idle_timeout_s=1.0))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, sink)
        tel = Telemetry(TelemetryConfig())
        tel.attach_graph(g)
        SynchronousEngine(g).run()
        samples = {
            s["name"]: s.get("value") for s in tel.metrics.snapshot()
        }
        assert samples.get("repro_dlq_total") == 1
