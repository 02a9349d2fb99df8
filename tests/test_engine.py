"""Tests for the synchronous and threaded runtimes, and the abort/drain
contract the threaded coordinator hands down to process and cluster."""

import multiprocessing as mp
import sys
import threading
import time

import numpy as np
import pytest

import repro.streams.engine as engine_mod
from repro.core.robust import RobustIncrementalPCA
from repro.data import PlantedSubspaceModel
from repro.data.streams import VectorStream
from repro.parallel import build_parallel_pca_graph
from repro.streams import (
    CollectingSink,
    Functor,
    FusionPlan,
    Graph,
    OperatorFailure,
    ProcessingElement,
    RunStats,
    Split,
    SynchronousEngine,
    ThreadedEngine,
    Union,
    VectorSource,
)
from repro.streams.operators import Operator, Sink, Source
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


#: Plans over ``_fan_graph``, keyed by the plans they replace: every
#: operator apart; everything but the source in one PE (what the named
#: "fused" plan built); and the default placement, which on this graph
#: is what chain fusion gave — the sink on the union's thread.
_FAN_PLANS = {
    "per_operator": FusionPlan.per_operator,
    "fused": lambda g: FusionPlan.from_groups(
        g, [[op for op in g if op not in g.sources]]
    ),
    "fuse_chains": lambda g: None,
}


class TestThreadedEngine:
    @pytest.mark.parametrize("fusion_name", list(_FAN_PLANS))
    def test_delivers_everything_under_all_fusions(self, fusion_name):
        x = np.arange(200, dtype=float).reshape(100, 2)
        g, sink = _fan_graph(x)
        plan = _FAN_PLANS[fusion_name](g)
        ThreadedEngine(g, fusion=plan).run(timeout_s=30)
        assert len(sink.tuples) == 100
        assert sorted(t["seq"] for t in sink.tuples) == list(range(100))

    def test_backpressure_with_tiny_queues(self):
        """A slow consumer with queue_size=1 must not lose tuples."""
        x = np.arange(60, dtype=float).reshape(30, 2)
        g = Graph("bp")
        src = g.add(VectorSource("src", VectorStream.from_array(x)))

        def slow(t):
            time.sleep(0.002)
            return t

        # The slow consumer is a stage: a sink would run on the
        # source's own thread, behind no queue at all.
        stage = g.add(Functor("slow", slow))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, stage)
        g.connect(stage, sink)
        ThreadedEngine(g, queue_size=1).run(timeout_s=30)
        assert len(sink.tuples) == 30

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


class _Gate(Operator):
    """Forwards tuples; the first data tuple waits for ``gate`` (and
    sets ``entered`` while it does)."""

    def __init__(self, name, gate):
        super().__init__(name)
        self.gate = gate
        self.entered = threading.Event()

    def process(self, tup, port):
        self.entered.set()
        assert self.gate.wait(30.0)
        self.submit(tup)


class _ThenBurst(Source):
    """One tuple, then — once ``after`` is set — ``n - 1`` more."""

    def __init__(self, name, n, after):
        super().__init__(name)
        self.n = n
        self.after = after

    def generate(self):
        yield StreamTuple.data(x=np.zeros(1))
        assert self.after.wait(10.0)
        for _ in range(self.n - 1):
            yield StreamTuple.data(x=np.zeros(1))


def _gated_pipe(src, gate):
    g = Graph("gated")
    src = g.add(src)
    stage = g.add(_Gate("stage", gate))
    sink = g.add(CollectingSink("sink"))
    g.connect(src, stage)
    g.connect(stage, sink)
    return g, stage, sink


def _pe_id(engine, op):
    return next(pe.pe_id for pe in engine.fusion.pes if op in pe.operators)


def _wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.005)


class TestInbox:
    """A PE inbox hands work over by the burst: its consumer takes the
    whole backlog per wake-up, a blocked producer is woken once the
    depth has fallen to half the bound, and a tuple counts on the depth
    until its dispatch has finished."""

    def test_released_consumer_takes_the_backlog_in_one_wakeup(
        self, monkeypatch
    ):
        handed = {}
        take = engine_mod._Inbox.take

        def counting_take(inbox, timeout=0.0):
            items = take(inbox, timeout)
            if items:
                handed.setdefault(id(inbox), []).append(len(items))
            return items

        monkeypatch.setattr(engine_mod._Inbox, "take", counting_take)
        gate, entered = threading.Event(), threading.Event()
        src = _ThenBurst("src", 40, entered)
        g, stage, sink = _gated_pipe(src, gate)
        stage.entered = entered
        engine = ThreadedEngine(g, queue_size=64)
        runner = threading.Thread(target=engine.run, daemon=True)
        runner.start()
        try:
            # The rest (39 rows + end-of-stream) queue behind the gate.
            _wait_for(lambda: src.tuples_out == 41)
        finally:
            gate.set()
            runner.join(timeout=30.0)
        assert len(sink.tuples) == 40
        stage_inbox = engine._inboxes[_pe_id(engine, stage)]
        # The wake-up that met the gate, then one for the whole backlog.
        assert handed[id(stage_inbox)] == [1, 40]

    def test_blocked_producer_woken_once_per_half_bound(self, monkeypatch):
        n, bound = 400, 16
        waits = []
        wait = threading.Condition.wait

        def counting_wait(cond, timeout=None):
            if threading.current_thread().name == "src-src":
                waits.append(timeout)
            return wait(cond, timeout)

        monkeypatch.setattr(threading.Condition, "wait", counting_wait)

        def slow(t):
            time.sleep(0.0003)
            return t

        # A sink runs on its producer's thread, so the inbox under test
        # is the slow stage's.
        g = Graph("slow")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((n, 2))))
        )
        stage = g.add(Functor("slow", slow))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, stage)
        g.connect(stage, sink)
        ThreadedEngine(g, queue_size=bound).run(timeout_s=30)
        assert len(sink.tuples) == n
        # ~(n - bound) / (bound / 2) = 48 wake-ups; one per tuple drained
        # would be ~384.
        assert 0 < len(waits) <= 1.5 * n / (bound // 2)

    def test_tuple_in_hand_counts_on_the_depth(self):
        gate = threading.Event()
        g, stage, sink = _gated_pipe(VectorSource(
            "src", VectorStream.from_array(np.zeros((16, 2))), batch_size=16
        ), gate)
        engine = ThreadedEngine(g, queue_size=64)
        runner = threading.Thread(target=engine.run, daemon=True)
        runner.start()
        try:
            assert stage.entered.wait(10.0)
            # The one block is in the stage's hands, not in its queue.
            assert engine._inboxes[_pe_id(engine, stage)].qsize() == 16
        finally:
            gate.set()
            runner.join(timeout=30.0)
        assert sum(t["count"] for t in sink.tuples) == 16

    def test_control_is_handed_over_ahead_of_the_data_backlog(self):
        """A sync command does not wait behind queued blocks; data and
        punctuation keep their order, so an edge's end never overtakes
        its rows."""
        inbox = engine_mod._Inbox(bound=64)
        op = Functor("op", _identity)
        tuples = [
            StreamTuple.data(x=1.0), StreamTuple.data(x=2.0),
            StreamTuple.control(type="share"), StreamTuple.punctuation(),
            StreamTuple.control(type="merge"),
        ]
        for tup in tuples:
            assert inbox.put(op, 0, tup, timeout=1.0)
        taken = [id(tup) for _, _, tup, _ in inbox.take()]
        assert taken == [id(tuples[i]) for i in (2, 4, 0, 1, 3)]
        assert inbox.qsize() == 2

    def test_control_arriving_mid_batch_goes_before_the_rest(self):
        """The batch in hand is the whole backlog of a wake-up; a sync
        command that arrives while it is dispatched does not wait for
        its end."""
        inbox = engine_mod._Inbox(bound=64)
        op = Functor("op", _identity)
        data = [StreamTuple.data(x=float(i)) for i in range(3)]
        control = StreamTuple.control(type="share")
        order = []

        class _Engine:
            def _dispatch(self, dst, tup, port):
                order.append(tup)
                if tup is data[0]:
                    inbox.put(op, 1, control, timeout=1.0)

            def _tuple_done(self):
                pass

        for tup in data:
            inbox.put(op, 0, tup, timeout=1.0)
        pe = ProcessingElement(0, (op,))
        runner = engine_mod._PERunner(pe, inbox, _Engine())
        runner._batch = inbox.take()
        runner._dispatch_batch(None)
        assert [id(t) for t in order] == [
            id(data[0]), id(control), id(data[1]), id(data[2])
        ]
        assert inbox.qsize() == 0

    @pytest.mark.usefixtures("busy_switching")
    def test_two_lanes_lose_and_reorder_nothing_under_contention(self):
        """Four producers put data, control and a final punctuation
        while a consumer takes in bursts: every tuple arrives once, each
        producer's data-then-punctuation and its control stay in order,
        and within a burst control comes first."""
        inbox = engine_mod._Inbox(bound=16)
        op = Functor("op", _identity)
        n_producers, n_each = 4, 300
        stop = threading.Event()
        bursts = []

        def produce(p):
            for i in range(n_each):
                tup = (
                    StreamTuple.control(p=p, i=i) if i % 3 == 0
                    else StreamTuple.data(p=p, i=i)
                )
                while not inbox.put(op, 0, tup, timeout=0.05):
                    pass
            inbox.put(op, 0, StreamTuple.punctuation(), timeout=1.0)

        def consume():
            while not stop.is_set() or inbox.qsize():
                items = inbox.take(timeout=0.01)
                bursts.append([tup for _, _, tup, _ in items])
                for _, _, _, rows in items:
                    inbox.done(rows)

        consumer = threading.Thread(target=consume, daemon=True)
        producers = [
            threading.Thread(target=produce, args=(p,), daemon=True)
            for p in range(n_producers)
        ]
        consumer.start()
        for t in producers:
            t.start()
        for t in producers:
            t.join(timeout=30.0)
            assert not t.is_alive()
        stop.set()
        consumer.join(timeout=30.0)
        assert not consumer.is_alive()
        bursts.append([tup for _, _, tup, _ in inbox.take()])

        got = [tup for burst in bursts for tup in burst]
        assert len(got) == n_producers * (n_each + 1)
        for burst in bursts:
            kinds = [tup.is_control for tup in burst]
            assert kinds == sorted(kinds, reverse=True)
        for p in range(n_producers):
            for control in (True, False):
                seen = [
                    tup["i"] for tup in got
                    if not tup.is_punctuation and tup["p"] == p
                    and tup.is_control == control
                ]
                assert seen == sorted(seen)
                assert len(seen) == len(
                    [i for i in range(n_each) if (i % 3 == 0) == control]
                )
        assert sum(tup.is_punctuation for tup in got) == n_producers

    #: Wall budget of 50 runs (~2–4 s on 2 vCPUs).  The put and take
    #: polls would paper over a lost wake-up at 50 ms a time, so one
    #: shows up as a blown budget, not as a hang.
    BUDGET_S = 20.0

    @pytest.fixture
    def busy_switching(self):
        """More threads than cores, and the interpreter switching
        between them far more often than its 5 ms default."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.usefixtures("busy_switching")
    @pytest.mark.parametrize("queue_size", [1, 16])
    def test_no_lost_wakeup_through_a_per_operator_chain(self, queue_size):
        deadline = time.monotonic() + self.BUDGET_S
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 200))
            g = Graph("chain")
            prev = g.add(VectorSource(
                "src", VectorStream.from_array(np.zeros((n, 2))),
                batch_size=int(rng.choice([0, 3, 16])),
            ))
            for i in range(4):
                stage = g.add(Functor(f"f{i}", _identity))
                g.connect(prev, stage)
                prev = stage
            sink = g.add(CollectingSink("sink"))
            g.connect(prev, sink)
            ThreadedEngine(g, queue_size=queue_size).run(
                timeout_s=max(deadline - time.monotonic(), 0.0)
            )
            got = sum(
                t["count"] if "xs" in t.payload else 1 for t in sink.tuples
            )
            assert got == n, f"seed {seed}: {got} of {n} rows"

    @pytest.mark.usefixtures("busy_switching")
    @pytest.mark.parametrize("queue_size", [1, 16])
    def test_no_lost_wakeup_through_the_fig2_graph(self, queue_size):
        model = PlantedSubspaceModel(
            dim=8, signal_variances=(9.0, 4.0), noise_std=0.3, seed=1
        )
        deadline = time.monotonic() + self.BUDGET_S
        for seed in range(50):
            x = model.sample(480, np.random.default_rng(seed))
            app = build_parallel_pca_graph(
                VectorStream.from_array(x), 2,
                lambda i: RobustIncrementalPCA(2, alpha=0.98, init_size=20),
                batch_size=16, split_seed=seed,
            )
            app.engine("threaded", queue_size=queue_size).run(
                timeout_s=max(deadline - time.monotonic(), 0.0)
            )
            applied = sum(op.diagnostics()["n_local_rows"] for op in app.engines)
            assert applied == 480, f"seed {seed}: {applied} of 480 rows"
            assert sorted(app.controller.final_states) == [0, 1]
            assert app.controller.stats.n_states_routed > 0


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

