"""Tests for the telemetry layer: metrics registry, tracing, sampling,
exporters, the report CLI, and the engine/simulator integrations."""

import threading

import numpy as np
import pytest

from repro.cluster import (
    PAPER_TESTBED,
    PCACostModel,
    Placement,
    SimConfig,
    simulate_streaming_pca,
)
from repro.data import VectorStream
from repro.streams import (
    CollectingSink,
    FaultInjector,
    Functor,
    Graph,
    Retry,
    Split,
    Supervisor,
    SynchronousEngine,
    Telemetry,
    TelemetryConfig,
    ThreadedEngine,
    Union,
    VectorSource,
    load_events,
    render_report,
)
from repro.streams.telemetry import (
    EventLog,
    Histogram,
    MetricsRegistry,
)
from repro.streams.tuples import StreamTuple


def pipeline_graph(x, n_ways=2):
    """src -> split -> union -> sink, the standard fan-out pipeline."""
    g = Graph("telemetry-test")
    src = g.add(VectorSource("src", VectorStream.from_array(x)))
    split = g.add(Split("split", n_ways, strategy="round_robin"))
    uni = g.add(Union("union", n_ways))
    sink = g.add(CollectingSink("sink"))
    g.connect(src, split)
    for i in range(n_ways):
        g.connect(split, uni, out_port=i, in_port=i)
    g.connect(uni, sink)
    return g, sink


def spans_of(events):
    return [e for e in events if e.get("kind") == "span"]


def traces_of(events):
    """Group span events by trace_id."""
    traces = {}
    for s in spans_of(events):
        traces.setdefault(s["trace_id"], []).append(s)
    return traces


# ---------------------------------------------------------------------------
# Registry primitives
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_get_or_create_by_labels(self):
        reg = MetricsRegistry()
        c1 = reg.counter("repro_x_total", operator="a")
        c2 = reg.counter("repro_x_total", operator="a")
        c3 = reg.counter("repro_x_total", operator="b")
        assert c1 is c2 and c1 is not c3
        c1.inc()
        c1.inc(2)
        assert c1.read() == 3
        assert reg.value("repro_x_total", operator="a") == 3
        assert reg.value("repro_x_total", operator="b") == 0

    def test_gauge_set_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_depth", pe="0")
        g.set(7)
        assert reg.value("repro_depth", pe="0") == 7.0
        live = reg.gauge("repro_live", fn=lambda: 42.0)
        assert live.read() == 42.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_m", operator="a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("repro_m", operator="a")

    def test_collector_values_appear_in_collect(self):
        reg = MetricsRegistry()
        state = {"n": 0}
        reg.register_collector(
            lambda: [("repro_ext_total", "counter", {"operator": "op"},
                      state["n"])]
        )
        state["n"] = 5
        assert reg.value("repro_ext_total", operator="op") == 5.0

    def test_histogram_percentiles_bracket_observations(self):
        h = Histogram("repro_lat", {}, buckets=(0.001, 0.01, 0.1, 1.0))
        for _ in range(90):
            h.observe(0.005)       # second bucket
        for _ in range(10):
            h.observe(0.5)         # fourth bucket
        s = h.summary()
        assert s["count"] == 100
        assert 0.001 <= s["p50"] <= 0.01
        assert 0.1 <= s["p99"] <= 1.0
        assert s["mean"] == pytest.approx((90 * 0.005 + 10 * 0.5) / 100)
        assert h.percentile(0.0) >= 0.0
        assert h.percentile(1.0) <= 1.0

    def test_histogram_empty_summary(self):
        h = Histogram("repro_lat", {})
        assert h.summary()["p95"] == 0.0
        with pytest.raises(ValueError, match="q must be"):
            h.percentile(1.5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", {}, buckets=(1.0, 0.5))

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_t_total", operator="a b", pe="0").inc(2)
        reg.gauge("repro_g").set(1.5)
        h = reg.histogram("repro_h", buckets=(0.1, 1.0), operator="a")
        h.observe(0.05)
        h.observe(0.5)
        text = reg.to_prometheus()
        assert "# TYPE repro_t_total counter" in text
        assert 'repro_t_total{operator="a b",pe="0"} 2' in text
        assert "# TYPE repro_g gauge" in text
        assert "repro_g 1.5" in text
        # Histogram: cumulative buckets, +Inf, sum and count series.
        assert 'repro_h_bucket{le="0.1",operator="a"} 1' in text
        assert 'repro_h_bucket{le="1.0",operator="a"} 2' in text
        assert 'repro_h_bucket{le="+Inf",operator="a"} 2' in text
        assert 'repro_h_count{operator="a"} 2' in text

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("repro_t_total", operator='we"ird\\op').inc()
        text = reg.to_prometheus()
        assert 'operator="we\\"ird\\\\op"' in text

    def test_counters_are_thread_safe_via_registry(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("repro_shared_total", operator="x")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Get-or-create under contention never created duplicates.
        assert len(reg.collect()) == 1


class TestEventLog:
    def test_bounded_with_drop_counter(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.append({"ts": float(i), "kind": "span"})
        assert len(log) == 3
        assert log.n_dropped == 2
        assert [e["ts"] for e in log.events()] == [0.0, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_events"):
            EventLog(max_events=0)


class TestTelemetryConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="trace_sample_every"):
            TelemetryConfig(trace_sample_every=0)
        with pytest.raises(ValueError, match="sampler_interval_s"):
            TelemetryConfig(sampler_interval_s=0.0)


# ---------------------------------------------------------------------------
# Engine integration: acceptance criteria
# ---------------------------------------------------------------------------


class TestThreadedEngineTelemetry:
    """The PR's acceptance run: threaded engine, full telemetry."""

    def _run(self, tmp_path, n=60):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, 8))
        g, sink = pipeline_graph(x)
        tel = Telemetry(TelemetryConfig(
            timing=True, tracing=True, trace_sample_every=10,
            sampler_interval_s=0.005,
        ))
        eng = ThreadedEngine(g, telemetry=tel)
        stats = eng.run(timeout_s=60)
        assert len(sink.tuples) == n
        path = tmp_path / "events.jsonl"
        tel.write_jsonl(path)
        return tel, stats, path

    def test_prometheus_export_has_counter_and_histogram_series(
        self, tmp_path
    ):
        tel, stats, _ = self._run(tmp_path)
        text = tel.to_prometheus()
        # Per-operator counters with PE labels.
        for op in ("src", "split", "union", "sink"):
            assert f'repro_tuples_in_total{{operator="{op}"' in text
        assert 'pe="' in text
        # Per-operator latency histograms (timing tier).
        assert "# TYPE repro_dispatch_seconds histogram" in text
        assert 'repro_dispatch_seconds_bucket{le="+Inf",operator="sink"}' in text
        assert 'repro_dispatch_seconds_count{operator="union"}' in text
        # Split per-target counters.
        assert 'repro_split_sent_total{operator="split",' in text
        # Counters agree with RunStats (one source of truth); a sink has
        # no PE, so its series carries no PE label.
        for op in ("union", "sink"):
            want = float(stats.tuples_in[op])
            labels = {"pe": tel_pe_of(tel, op)} if op == "union" else {}
            assert tel.metrics.value(
                "repro_tuples_in_total", operator=op, **labels
            ) == want

    def test_jsonl_has_complete_trace_across_queue_hop(self, tmp_path):
        _, _, path = self._run(tmp_path)
        events = load_events(path)
        kinds = {e["kind"] for e in events}
        assert {"run_start", "span", "sample", "run_end",
                "metrics"} <= kinds
        traces = traces_of(events)
        assert len(traces) >= 2
        complete = 0
        for spans in traces.values():
            roots = [s for s in spans if s["span_kind"] == "root"]
            queues = [s for s in spans if s["span_kind"] == "queue"]
            dispatches = [s for s in spans if s["span_kind"] == "dispatch"]
            if not (roots and queues and dispatches):
                continue
            complete += 1
            # Every non-root span's parent exists within the trace.
            ids = {s["span_id"] for s in spans}
            for s in spans:
                if s["span_kind"] != "root":
                    assert s["parent_id"] in ids
            # A queue span parents the dispatch on the far side.
            q_ids = {s["span_id"] for s in queues}
            assert any(d["parent_id"] in q_ids for d in dispatches)
        assert complete >= 1

    def test_cli_renders_report(self, tmp_path, capsys):
        from repro.__main__ import main

        _, _, path = self._run(tmp_path)
        assert main(["telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "top operators by exclusive time" in out
        assert "hottest queues" in out
        assert "slowest traces" in out
        assert "split" in out

    def test_cli_rejects_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["telemetry", str(tmp_path / "nope.jsonl")])

    def test_sampler_records_queue_depths(self, tmp_path):
        tel, _, path = self._run(tmp_path, n=200)
        events = load_events(path)
        pe_samples = [e for e in events
                      if e["kind"] == "sample" and e.get("pe")]
        global_samples = [e for e in events
                         if e["kind"] == "sample" and e.get("pe") is None]
        assert pe_samples and global_samples
        assert all(e["depth"] >= 0 and e["capacity"] > 0
                   for e in pe_samples)
        assert all("throughput_tps" in e for e in global_samples)
        assert tel.metrics.value("repro_inflight_tuples") is not None


def tel_pe_of(tel, op_name):
    """Find the PE label attached to an operator's exported counters."""
    for sample in tel.metrics.collect():
        labels = getattr(sample, "labels", None)
        if (labels and labels.get("operator") == op_name
                and "pe" in labels):
            return labels["pe"]
    raise AssertionError(f"no pe label exported for {op_name}")


# ---------------------------------------------------------------------------
# Trace propagation (satellite: fused chains + thread boundaries)
# ---------------------------------------------------------------------------


class TestTracePropagation:
    def test_fused_chain_parent_child_ids_line_up(self):
        """Functors re-emit *new* tuples: the context must follow via the
        thread-local current span, and each child's parent must be the
        previous hop's span."""
        x = np.arange(12, dtype=float).reshape(12, 1)
        g = Graph("chain")
        src = g.add(VectorSource("src", VectorStream.from_array(x)))
        f1 = g.add(Functor("f1", lambda t: StreamTuple.data(x=t["x"])))
        f2 = g.add(Functor("f2", lambda t: StreamTuple.data(x=t["x"])))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, f1)
        g.connect(f1, f2)
        g.connect(f2, sink)
        tel = Telemetry(TelemetryConfig(tracing=True, trace_sample_every=4))
        SynchronousEngine(g, telemetry=tel).run()

        traces = traces_of(tel.events.events())
        assert len(traces) == 3  # tuples 0, 4, 8
        for spans in traces.values():
            by_name = {s["name"]: s for s in spans}
            assert set(by_name) == {"src", "f1", "f2", "sink"}
            root = by_name["src"]
            assert root["span_kind"] == "root"
            assert root["parent_id"] is None
            assert by_name["f1"]["parent_id"] == root["span_id"]
            assert by_name["f2"]["parent_id"] == by_name["f1"]["span_id"]
            assert by_name["sink"]["parent_id"] == by_name["f2"]["span_id"]
            # The dispatch spans nest in time inside the root.
            for name in ("f1", "f2", "sink"):
                assert root["t_start"] <= by_name[name]["t_start"]
                assert by_name[name]["t_end"] <= root["t_end"]

    def test_threaded_queue_hop_links_threads(self):
        """Across a ThreadedEngine queue hop the dispatch runs in another
        thread; the chain root -> queue -> dispatch must stay linked."""
        x = np.arange(30, dtype=float).reshape(30, 1)
        g = Graph("hop")
        src = g.add(VectorSource("src", VectorStream.from_array(x)))
        # A stage to hop to: a sink would run on the source's thread.
        stage = g.add(Functor("stage", lambda t: t))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, stage)
        g.connect(stage, sink)
        tel = Telemetry(TelemetryConfig(tracing=True, trace_sample_every=5))
        ThreadedEngine(g, telemetry=tel).run(timeout_s=30)

        traces = traces_of(tel.events.events())
        assert len(traces) == 6
        for spans in traces.values():
            kinds = {s["span_kind"] for s in spans}
            assert {"root", "queue", "dispatch"} <= kinds
            root = next(s for s in spans if s["span_kind"] == "root")
            queue = next(s for s in spans if s["span_kind"] == "queue")
            disp = {
                s["name"]: s for s in spans if s["span_kind"] == "dispatch"
            }
            assert queue["parent_id"] == root["span_id"]
            assert disp["stage"]["parent_id"] == queue["span_id"]
            # The sink runs inside the stage's dispatch, on its thread.
            assert disp["sink"]["parent_id"] == disp["stage"]["span_id"]

    def test_no_state_leaks_between_runs(self):
        """run_finished resets the tracer: live contexts and thread-local
        current spans must not survive into a second run."""
        tel = Telemetry(TelemetryConfig(tracing=True, trace_sample_every=1))
        for _ in range(2):
            x = np.arange(10, dtype=float).reshape(10, 1)
            g, sink = pipeline_graph(x)
            ThreadedEngine(g, telemetry=tel).run(timeout_s=30)
            assert len(sink.tuples) == 10
            assert tel.tracer._live == {}
            assert tel.tracer._enqueued == {}
            assert tel.tracer.current_ctx() is None
        # Both runs traced every tuple, and every span closed (t_end set).
        spans = spans_of(tel.events.events())
        assert tel.tracer.n_traces == 20
        assert all(s["t_end"] >= s["t_start"] for s in spans)

    def test_sampling_rate_honoured(self):
        x = np.arange(40, dtype=float).reshape(40, 1)
        g, _ = pipeline_graph(x)
        tel = Telemetry(TelemetryConfig(tracing=True, trace_sample_every=8))
        SynchronousEngine(g, telemetry=tel).run()
        assert tel.tracer.n_traces == 5  # tuples 0, 8, 16, 24, 32

    def test_metrics_only_mode_traces_nothing(self):
        x = np.arange(20, dtype=float).reshape(20, 1)
        g, _ = pipeline_graph(x)
        tel = Telemetry()  # defaults: metrics only
        SynchronousEngine(g, telemetry=tel).run()
        assert spans_of(tel.events.events()) == []
        assert tel.metrics.value(
            "repro_tuples_in_total", operator="sink"
        ) == 20.0


# ---------------------------------------------------------------------------
# Supervision events
# ---------------------------------------------------------------------------


class TestSupervisionTelemetry:
    def test_failure_and_retry_events_and_counters(self):
        x = np.arange(20, dtype=float).reshape(20, 1)
        g, sink = pipeline_graph(x)
        FaultInjector().crash("union", at_tuple=5).install(g)
        tel = Telemetry()
        sup = Supervisor(policies={"union": Retry(max_attempts=2,
                                                  backoff_s=0.0)})
        SynchronousEngine(g, supervisor=sup, telemetry=tel).run()
        assert len(sink.tuples) == 20  # retry repaired the crash

        sup_events = [e for e in tel.events.events()
                      if e["kind"] == "supervision"]
        assert [e["event"] for e in sup_events] == ["failure", "retry"]
        assert all(e["op"] == "union" for e in sup_events)
        assert "error" in sup_events[0]
        assert tel.metrics.value(
            "repro_failures_total", operator="union") == 1.0
        assert tel.metrics.value(
            "repro_retries_total", operator="union") == 1.0
        recovery = tel.metrics.value(
            "repro_recovery_seconds_total", operator="union")
        assert recovery is not None and recovery >= 0.0

    def test_supervision_report_shows_recovery_only_operators(self):
        """A retry that succeeds on attempt 1 can record recovery time
        without a failure count; the report must still show the row."""
        from repro.streams.engine import RunStats
        from repro.streams.profiling import supervision_report

        stats = RunStats()
        stats.recovery_time_s = {"pca-1": 0.0123}
        report = supervision_report(stats)
        assert "pca-1" in report
        assert "0.0123" in report


# ---------------------------------------------------------------------------
# Sync controller + simulator telemetry
# ---------------------------------------------------------------------------


class TestSyncTelemetry:
    def test_controller_emits_merge_events_with_bytes(self):
        from repro.core.eigensystem import Eigensystem
        from repro.parallel.sync import SyncController

        ctrl = SyncController("sync", 2, strategy="ring")
        sent = []
        ctrl.bind(lambda tup, port: sent.append((tup, port)))
        tel = Telemetry()
        ctrl.bind_telemetry(tel)

        basis, _ = np.linalg.qr(np.random.default_rng(0)
                                .standard_normal((6, 2)))
        state = Eigensystem(
            mean=np.zeros(6), basis=basis,
            eigenvalues=np.array([2.0, 1.0]), n_seen=10,
        )
        ctrl._dispatch(
            StreamTuple.control(type="state", engine=0, state=state), 0
        )
        syncs = [e for e in tel.events.events() if e["kind"] == "sync"]
        assert len(syncs) == 1
        evt = syncs[0]
        assert evt["sender"] == "engine-0" and evt["target"] == "engine-1"
        expected_bytes = 128 + state.mean.nbytes + state.basis.nbytes \
            + state.eigenvalues.nbytes
        assert evt["bytes"] == expected_bytes
        assert tel.metrics.value(
            "repro_sync_merges_total", operator="sync") == 1.0
        assert tel.metrics.value(
            "repro_sync_bytes_total", operator="sync") == expected_bytes
        assert sent and sent[0][1] == 1  # merge command went to engine 1

    def test_simulator_emits_same_schema(self, tmp_path):
        tel = Telemetry(TelemetryConfig(sampler_interval_s=0.05))
        cfg = SimConfig(
            spec=PAPER_TESTBED,
            placement=Placement.distributed_even(2, 10),
            cost=PCACostModel.paper_scale(),
            warmup_s=0.2,
            window_s=0.5,
            sync_window=200,
        )
        report = simulate_streaming_pca(cfg, telemetry=tel)
        assert report.tuples_processed > 0

        events = tel.events.events()
        kinds = {e["kind"] for e in events}
        assert {"run_start", "sample", "run_end"} <= kinds
        if report.n_syncs:
            syncs = [e for e in events if e["kind"] == "sync"]
            assert len(syncs) == report.n_syncs
            assert all(e["bytes"] > 0 for e in syncs)
        # Same metric names as the real engines; the per-engine counters
        # sum to the report's processed-tuple total.
        per_engine = [
            tel.metrics.value("repro_tuples_in_total",
                              operator=f"engine-{i}")
            for i in range(2)
        ]
        assert all(v is not None and v > 0 for v in per_engine)
        assert sum(per_engine) == report.tuples_processed
        depth = tel.metrics.value("repro_queue_depth", pe="chan-0")
        assert depth is not None and depth >= 0
        # The same report tooling renders a simulated log.
        path = tmp_path / "sim.jsonl"
        tel.write_jsonl(path)
        text = render_report(load_events(path))
        assert "hottest queues" in text
        assert "chan-0" in text


# ---------------------------------------------------------------------------
# Exporters round-trip
# ---------------------------------------------------------------------------


class TestExporters:
    def test_write_jsonl_roundtrip_and_metrics_snapshot(self, tmp_path):
        x = np.arange(25, dtype=float).reshape(25, 1)
        g, _ = pipeline_graph(x)
        tel = Telemetry(TelemetryConfig(timing=True))
        SynchronousEngine(g, telemetry=tel).run()
        path = tmp_path / "run.jsonl"
        n = tel.write_jsonl(path)
        events = load_events(path)
        assert len(events) == n
        # Every line parsed back as JSON; ts is numeric everywhere.
        assert all(isinstance(e["ts"], (int, float)) for e in events)
        snap = [e for e in events if e["kind"] == "metrics"]
        assert len(snap) == 1
        names = {m["name"] for m in snap[0]["metrics"]}
        assert "repro_tuples_in_total" in names
        assert "repro_dispatch_seconds" in names
        hist = next(m for m in snap[0]["metrics"]
                    if m["name"] == "repro_dispatch_seconds"
                    and m["labels"]["operator"] == "sink")
        assert hist["count"] == 26  # 25 data dispatches + 1 punctuation
        assert hist["p50"] >= 0.0

    def test_render_report_on_in_memory_telemetry(self):
        x = np.arange(25, dtype=float).reshape(25, 1)
        g, _ = pipeline_graph(x)
        tel = Telemetry(TelemetryConfig(timing=True, tracing=True,
                                        trace_sample_every=5))
        SynchronousEngine(g, telemetry=tel).run()
        text = tel.render_report()
        assert "top operators by exclusive time" in text
        assert "slowest traces" in text
