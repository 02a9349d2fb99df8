"""Tests for the synchronous and threaded runtimes, and the abort/drain
contract the threaded coordinator hands down to process and cluster."""

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro.data.streams import VectorStream
from repro.streams import (
    CollectingSink,
    Functor,
    FusionPlan,
    Graph,
    OperatorFailure,
    RunStats,
    Split,
    SynchronousEngine,
    ThreadedEngine,
    Union,
    VectorSource,
)
from repro.streams.operators import Sink, Source
from repro.streams.tuples import StreamTuple


def _fan_graph(x, n_ways=3, split_strategy="round_robin"):
    g = Graph("fan")
    src = g.add(VectorSource("src", VectorStream.from_array(x)))
    split = g.add(Split("split", n_ways, strategy=split_strategy, seed=1))
    uni = g.add(Union("union", n_ways))
    sink = g.add(CollectingSink("sink"))
    g.connect(src, split)
    for i in range(n_ways):
        g.connect(split, uni, out_port=i, in_port=i)
    g.connect(uni, sink)
    return g, sink


class TestSynchronousEngine:
    def test_delivers_everything_in_order_per_channel(self, rng):
        x = np.arange(60, dtype=float).reshape(30, 2)
        g, sink = _fan_graph(x)
        stats = SynchronousEngine(g).run()
        assert len(sink.tuples) == 30
        seqs = [t["seq"] for t in sink.tuples]
        assert sorted(seqs) == list(range(30))
        assert stats.source_tuples["src"] == 30

    def test_deterministic_across_runs(self):
        x = np.arange(40, dtype=float).reshape(20, 2)
        orders = []
        for _ in range(2):
            g, sink = _fan_graph(x, split_strategy="random")
            SynchronousEngine(g).run()
            orders.append([t["seq"] for t in sink.tuples])
        assert orders[0] == orders[1]

    def test_multiple_sources_interleaved(self):
        g = Graph("two-src")
        a = g.add(VectorSource("a", VectorStream.from_array(np.zeros((5, 1)))))
        b = g.add(VectorSource("b", VectorStream.from_array(np.ones((3, 1)))))
        uni = g.add(Union("u", 2))
        sink = g.add(CollectingSink("sink"))
        g.connect(a, uni, in_port=0)
        g.connect(b, uni, in_port=1)
        g.connect(uni, sink)
        SynchronousEngine(g).run()
        vals = [float(t["x"][0]) for t in sink.tuples]
        assert len(vals) == 8
        # Round-robin interleaving: first four alternate.
        assert vals[:4] == [0.0, 1.0, 0.0, 1.0]

    def test_control_loop_quiesces(self):
        """A cyclic request/response exchange terminates."""
        g = Graph("loop")

        class Pinger(Source):
            def generate(self):
                yield StreamTuple.control(type="ping", hops=0)

        class Bouncer(Functor):
            def __init__(self, name):
                super().__init__(name, None)

            def process(self, tup, port):
                hops = tup.get("hops", 0)
                if hops < 5:
                    self.submit(
                        StreamTuple.control(type="ping", hops=hops + 1)
                    )

        src = g.add(Pinger("src"))
        a = g.add(Union("in", 2))
        b = g.add(Bouncer("bounce"))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, a, in_port=0)
        g.connect(a, b)
        g.connect(b, a, in_port=1)
        g.connect(b, sink)
        SynchronousEngine(g).run()  # must terminate

    def test_stats_collects_counters(self):
        x = np.zeros((10, 2))
        g, sink = _fan_graph(x)
        stats = SynchronousEngine(g).run()
        assert stats.tuples_in["sink"] == 10
        assert stats.wall_time_s > 0
        assert stats.throughput() > 0


class TestThreadedEngine:
    @pytest.mark.parametrize("fusion_name", ["per_operator", "fused", "fuse_chains"])
    def test_delivers_everything_under_all_fusions(self, fusion_name):
        x = np.arange(200, dtype=float).reshape(100, 2)
        g, sink = _fan_graph(x)
        plan = getattr(FusionPlan, fusion_name)(g)
        ThreadedEngine(g, fusion=plan).run(timeout_s=30)
        assert len(sink.tuples) == 100
        assert sorted(t["seq"] for t in sink.tuples) == list(range(100))

    def test_backpressure_with_tiny_queues(self):
        """A slow consumer with queue_size=1 must not lose tuples."""
        x = np.arange(60, dtype=float).reshape(30, 2)
        g = Graph("bp")
        src = g.add(VectorSource("src", VectorStream.from_array(x)))

        class SlowSink(Sink):
            def __init__(self):
                super().__init__("slow")
                self.got = []

            def consume(self, tup, port):
                time.sleep(0.002)
                self.got.append(tup)

        sink = g.add(SlowSink())
        g.connect(src, sink)
        ThreadedEngine(g, queue_size=1).run(timeout_s=30)
        assert len(sink.got) == 30

    def test_profiler_does_not_bill_backpressure_as_work(self):
        """An operator blocked on its consumer's full inbox is waiting,
        not processing: the wait is the consumer's exclusive time."""
        n, nap = 40, 0.005
        g = Graph("bp-profile")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((n, 2))))
        )
        up = g.add(Functor("up", lambda t: t))

        def slow(t):
            time.sleep(nap)
            return t

        down = g.add(Functor("down", slow))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, up)
        g.connect(up, down)
        g.connect(down, sink)
        stats = ThreadedEngine(g, queue_size=1, profile=True).run(
            timeout_s=30
        )
        assert len(sink.tuples) == n
        busy = stats.processing_time_s
        assert busy["down"] >= n * nap
        # ``up`` spent about as long as ``down`` slept inside its own
        # ``submit`` (queue_size=1); none of that is processing.
        assert busy["up"] < 0.25 * n * nap

    def test_least_loaded_probe_installed(self):
        x = np.zeros((50, 2))
        g, sink = _fan_graph(x, split_strategy="least_loaded")
        ThreadedEngine(g).run(timeout_s=30)
        assert len(sink.tuples) == 50

    def test_no_leftover_threads(self):
        before = threading.active_count()
        x = np.zeros((20, 2))
        g, sink = _fan_graph(x)
        ThreadedEngine(g).run(timeout_s=30)
        time.sleep(0.05)
        assert threading.active_count() <= before + 1

    def test_queue_size_validation(self):
        x = np.zeros((5, 2))
        g, _ = _fan_graph(x)
        with pytest.raises(ValueError, match="queue_size"):
            ThreadedEngine(g, queue_size=0)


class _FinalOnClose(Functor):
    """Forwards tuples slowly; ships a ``final`` control tuple at close
    (the same shape as the PCA engines' final-state handoff)."""

    def __init__(self, name, delay_s=0.001):
        super().__init__(name, None)
        self._delay_s = delay_s

    def process(self, tup, port):
        time.sleep(self._delay_s)
        self.submit(tup)

    def close(self):
        self.submit(StreamTuple.control(type="final"))


class _LooseCollector(Sink):
    """Two-input sink that completes as soon as port 0 punctuates —
    forcing the close-vs-late-arrivals race on port 1."""

    def __init__(self, name):
        super().__init__(name, n_inputs=2)
        self.punctuation_ports = {0}
        self.port1_data = 0
        self.finals = 0

    def consume(self, tup, port):
        if tup.is_control and tup.get("type") == "final":
            self.finals += 1
        elif port == 1:
            self.port1_data += 1


def _race_graph(n=5):
    g = Graph("race")
    fast = g.add(
        VectorSource("fast", VectorStream.from_array(np.zeros((n, 1))))
    )
    slow_src = g.add(
        VectorSource("slow-src", VectorStream.from_array(np.ones((n, 1))))
    )
    slow = g.add(_FinalOnClose("slow"))
    col = g.add(_LooseCollector("collector"))
    g.connect(fast, col, in_port=0)
    g.connect(slow_src, slow)
    g.connect(slow, col, in_port=1)
    return g, col


class _Ticker(Source):
    """Never ends on its own: one tuple every few milliseconds."""

    def generate(self):
        while True:
            yield StreamTuple.data(x=np.zeros(1))
            time.sleep(0.005)


def _explode(t):
    raise ValueError("kaboom")


def _identity(t):
    return t


def _pipe_graph(name, src, fn=_identity):
    """``src → f → sink``; ``f`` is the operator a process/cluster run
    places on a remote end."""
    g = Graph(name)
    f = g.add(Functor("f", fn))
    sink = g.add(CollectingSink("sink"))
    g.connect(g.add(src), f)
    g.connect(f, sink)
    return g


class TestAbortDrainContract:
    """The run protocol every concurrent runtime inherits from the one
    coordinator: nothing lost on a clean drain, prompt failure on an
    operator error, a timeout that says what is stuck — and, after
    ``run()`` returns or raises, no thread or child process left over."""

    RUNTIMES = ["threaded", "process", "cluster"]

    @pytest.fixture(autouse=True)
    def no_leftovers(self):
        before = set(threading.enumerate())
        yield
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            threads = [
                t.name for t in threading.enumerate() if t not in before
            ]
            children = mp.active_children()
            if not threads and not children:
                return
            time.sleep(0.02)
        pytest.fail(f"left running: threads {threads}, children {children}")

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_final_tuple_never_lost_in_shutdown_race(
        self, runtime, concurrent_engine
    ):
        # Regression: the collector closes as soon as the fast path
        # punctuates, while the slow path (a remote end under process
        # and cluster) is still streaming; a lost `final` state would
        # corrupt the global merge.  Repeats of the race lose nothing.
        for _ in range(50 if runtime == "threaded" else 8):
            g, col = _race_graph(n=5)
            concurrent_engine(runtime, g).run(timeout_s=60)
            assert col.finals == 1
            assert col.port1_data == 5

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_operator_exception_fails_the_run_promptly(
        self, runtime, concurrent_engine
    ):
        src = VectorSource("src", VectorStream.from_array(np.zeros((5, 1))))
        engine = concurrent_engine(runtime, _pipe_graph("boom", src, _explode))
        t0 = time.perf_counter()
        # The original exception where it was raised in this process,
        # an OperatorFailure carrying its repr from a remote end — never
        # the run timeout.
        with pytest.raises((ValueError, OperatorFailure), match="kaboom"):
            engine.run(timeout_s=60)
        assert time.perf_counter() - t0 < 30

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_timeout_names_what_is_still_running(
        self, runtime, concurrent_engine
    ):
        engine = concurrent_engine(runtime, _pipe_graph("hang", _Ticker("src")))
        with pytest.raises(RuntimeError, match="did not finish") as exc:
            engine.run(timeout_s=0.5)
        assert "src-src" in str(exc.value)


class TestShutdownDrain:
    def test_synchronous_engine_same_semantics(self):
        g, col = _race_graph(n=5)
        SynchronousEngine(g).run()
        assert col.finals == 1
        assert col.port1_data == 5


class _EarlyEOSSource(Source):
    """Two-port source that ends port 1 early with explicit punctuation —
    more than one punctuation flows on that port overall."""

    def __init__(self, name, n):
        super().__init__(name, n_outputs=2)
        self._n = n

    def generate(self):
        for i in range(self._n):
            if i == 2:
                self.submit(StreamTuple.data(x=np.zeros(1)), 1)
                self.submit(StreamTuple.punctuation(), 1)
            yield StreamTuple.data(x=np.zeros(1))


class TestRunStats:
    def test_throughput_zero_cases(self):
        stats = RunStats()
        assert stats.throughput() == 0.0

    def test_source_tuples_counts_punctuation_explicitly(self):
        """Regression: source_tuples assumed exactly one punctuation per
        output port; a source flowing extra punctuation was miscounted."""
        n = 6
        g = Graph("early-eos")
        src = g.add(_EarlyEOSSource("src", n))
        a = g.add(CollectingSink("a"))
        b = g.add(CollectingSink("b"))
        g.connect(src, a, out_port=0)
        g.connect(src, b, out_port=1)
        stats = SynchronousEngine(g).run()
        # n data tuples on port 0 plus one on port 1; three punctuation
        # marks total (early EOS + one per port at completion).
        assert stats.source_tuples["src"] == n + 1
        assert src.punct_out == 3

    def test_least_loaded_fallback_round_robin_synchronous(self):
        """Without a load probe the split degrades deterministically."""
        x = np.zeros((30, 2))
        g, sink = _fan_graph(x, n_ways=3, split_strategy="least_loaded")
        split = next(op for op in g if op.name == "split")
        with pytest.warns(RuntimeWarning, match="no load probe"):
            SynchronousEngine(g).run()
        assert len(sink.tuples) == 30
        assert list(split.sent_per_target) == [10, 10, 10]

    def test_least_loaded_threaded_has_probe_no_warning(self):
        import warnings as _warnings

        x = np.zeros((30, 2))
        g, sink = _fan_graph(x, n_ways=3, split_strategy="least_loaded")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            ThreadedEngine(g).run(timeout_s=30)
        assert len(sink.tuples) == 30
