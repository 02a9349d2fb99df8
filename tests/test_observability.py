"""Tests for the observability plane: event-time watermarks and e2e
latency on all three runtimes, the model-health monitors and rule
engine, the live ``/metrics``-``/health`` endpoint, and the
telemetry-report/CLI surfaces that ride along."""

import json
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.robust import RobustIncrementalPCA
from repro.data import VectorStream
from repro.parallel.app import ENGINE_CLASSES, build_parallel_pca_graph
from repro.parallel.sync import SyncController
from repro.streams import (
    CollectingSink,
    Functor,
    FusionPlan,
    Graph,
    HealthMonitor,
    HealthRule,
    HealthRuleEngine,
    HealthSampler,
    ObservabilityServer,
    Split,
    SynchronousEngine,
    Telemetry,
    TelemetryConfig,
    ThreadedEngine,
    Union,
    VectorSource,
    default_rules,
    load_events,
    render_report,
)
from repro.streams.batcher import Batcher
from repro.streams.telemetry import EventLog, Histogram, WatermarkTracker
from repro.streams.tuples import (
    StreamTuple,
    from_wire,
    inherit_event_time,
    stamp_event_time,
    to_wire,
)


def pipeline_graph(x, n_ways=2):
    g = Graph("obs-test")
    src = g.add(VectorSource("src", VectorStream.from_array(x)))
    split = g.add(Split("split", n_ways, strategy="round_robin"))
    uni = g.add(Union("union", n_ways))
    sink = g.add(CollectingSink("sink"))
    g.connect(src, split)
    for i in range(n_ways):
        g.connect(split, uni, out_port=i, in_port=i)
    g.connect(uni, sink)
    return g, sink


def e2e_hist(tel, sink="sink"):
    for m in tel.metrics.collect():
        if (
            getattr(m, "name", "") == "repro_e2e_latency_seconds"
            and m.labels.get("sink") == sink
        ):
            return m
    return None


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


# ---------------------------------------------------------------------------
# Event time: stamping, inheritance, wire round-trips
# ---------------------------------------------------------------------------


class TestEventTime:
    def test_stamp_is_idempotent(self):
        tup = StreamTuple.data(x=np.zeros(2))
        assert tup.event_ts is None
        stamp_event_time(tup, 100.0)
        stamp_event_time(tup, 200.0)  # replay keeps the original lineage
        assert tup.event_ts == 100.0

    def test_inherit_keeps_minimum(self):
        old = stamp_event_time(StreamTuple.data(x=np.zeros(2)), 10.0)
        new = stamp_event_time(StreamTuple.data(x=np.zeros(2)), 20.0)
        derived = StreamTuple.data(y=1.0)
        inherit_event_time(derived, new)
        assert derived.event_ts == 20.0
        inherit_event_time(derived, old)  # older input wins (low watermark)
        assert derived.event_ts == 10.0
        inherit_event_time(derived, new)  # newer input does not regress it
        assert derived.event_ts == 10.0

    def test_inherit_from_unstamped_is_noop(self):
        derived = StreamTuple.data(y=1.0)
        inherit_event_time(derived, StreamTuple.data(x=np.zeros(2)))
        assert derived.event_ts is None

    def test_source_stamps_data_not_punctuation(self):
        x = np.zeros((3, 2))
        g = Graph("stamp")
        src = g.add(VectorSource("src", VectorStream.from_array(x)))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, sink)
        t0 = time.time()
        SynchronousEngine(g).run()
        assert len(sink.tuples) == 3
        for tup in sink.tuples:
            assert tup.event_ts is not None
            assert t0 - 1.0 <= tup.event_ts <= time.time()

    def test_wire_roundtrip_preserves_event_ts(self):
        tup = stamp_event_time(
            StreamTuple.data(x=np.arange(3.0), seq=7), 123.5
        )
        back = from_wire(to_wire(tup))
        assert back.event_ts == 123.5
        unstamped = StreamTuple.data(x=np.arange(3.0), seq=8)
        assert from_wire(to_wire(unstamped)).event_ts is None

    def test_batcher_stamps_block_with_min_event_ts(self):
        b = Batcher("b", batch_size=3)
        out = []
        b.bind(lambda t, port: out.append(t))
        for ts in (30.0, 10.0, 20.0):
            b.process(
                stamp_event_time(
                    StreamTuple.data(x=np.zeros(2), seq=0), ts
                ),
                0,
            )
        assert len(out) == 1
        assert out[0].event_ts == 10.0  # the oldest buffered row


# ---------------------------------------------------------------------------
# Watermarks + e2e latency on the three runtimes
# ---------------------------------------------------------------------------


class TestWatermarksAcrossRuntimes:
    N = 400

    def _data(self):
        return np.random.default_rng(0).standard_normal((self.N, 4))

    def _check(self, tel, n_expected):
        hist = e2e_hist(tel)
        assert hist is not None and hist.count == n_expected
        assert hist.sum >= 0.0
        lag = tel.metrics.value("repro_watermark_lag_seconds", sink="sink")
        assert lag is not None and lag >= 0.0
        # The watermark advanced: lag is measured from the *newest*
        # completed event time, so it is far below the run's age.
        assert lag < 60.0

    def test_synchronous(self):
        g, sink = pipeline_graph(self._data())
        tel = Telemetry(TelemetryConfig())
        SynchronousEngine(g, telemetry=tel).run()
        assert len(sink.tuples) == self.N
        self._check(tel, self.N)

    def test_threaded(self):
        g, sink = pipeline_graph(self._data())
        tel = Telemetry(TelemetryConfig())
        ThreadedEngine(
            g, fusion=FusionPlan.fuse_chains(g), telemetry=tel
        ).run(timeout_s=120)
        assert len(sink.tuples) == self.N
        self._check(tel, self.N)

    def test_process(self):
        g, sink = pipeline_graph(self._data())
        tel = Telemetry(TelemetryConfig())
        ENGINE_CLASSES["process"](g, telemetry=tel, mp_context="fork").run(
            timeout_s=120
        )
        assert len(sink.tuples) == self.N
        self._check(tel, self.N)

    def test_sync_e2e_matches_dispatch_time(self):
        """Parity: on the synchronous engine (no queue waits), sink e2e
        latency is the per-operator dispatch time of the chain."""
        n = 40
        g = Graph("parity")
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((n, 2))))
        )

        def slow(tup):
            time.sleep(0.002)
            return StreamTuple.data(x=tup["x"])

        fn = g.add(Functor("slow", slow))
        sink = g.add(CollectingSink("sink"))
        g.connect(src, fn)
        g.connect(fn, sink)
        tel = Telemetry(TelemetryConfig(timing=True))
        SynchronousEngine(g, telemetry=tel).run()
        e2e = e2e_hist(tel)
        assert e2e is not None and e2e.count == n
        dispatch_sum = sum(
            m.sum
            for m in tel.metrics.collect()
            if getattr(m, "name", "") == "repro_dispatch_seconds"
        )
        # Both sides are dominated by the 2 ms sleep; generous bounds
        # absorb clock-domain skew (event time is wall clock, dispatch
        # timing is perf_counter) and scheduler noise.
        assert dispatch_sum > 0
        assert 0.5 * dispatch_sum < e2e.sum < 2.0 * dispatch_sum


class TestWatermarkTracker:
    def test_watermark_is_max_and_lag_nonnegative(self):
        tr = WatermarkTracker()
        assert tr.lag() == 0.0  # before any tuple
        now = time.time()
        tr.note(now - 5.0)
        tr.note(now - 1.0)
        tr.note(now - 3.0)  # out-of-order completion keeps the max
        assert tr.watermark_ts == now - 1.0
        assert 0.0 <= tr.lag() <= 5.0
        assert tr.n_noted == 3


class TestClockSkew:
    """The signed ``repro_clock_skew_seconds`` gauge.

    On a multi-host cluster ``event_ts`` comes from the *producer's*
    wall clock; a producer running ahead shows up here as a negative
    raw lag, which used to be silently clamped away by ``lag()``.
    """

    def test_skew_is_signed_and_tracks_most_negative_lag(self):
        tr = WatermarkTracker()
        now = time.time()
        assert tr.skew() == 0.0
        tr.note(now, raw_lag=-0.1)  # below warn threshold, still signed
        assert tr.skew() == pytest.approx(-0.1)
        with pytest.warns(RuntimeWarning, match="clocks are skewed"):
            tr.note(now, raw_lag=-0.5)
        assert tr.skew() == pytest.approx(-0.5)
        # Skew is a high-water bound: a later consistent tuple does not
        # shrink it.
        tr.note(now, raw_lag=2.0)
        assert tr.skew() == pytest.approx(-0.5)

    def test_warns_once_per_tracker(self):
        tr = WatermarkTracker()
        now = time.time()
        with pytest.warns(RuntimeWarning):
            tr.note(now, raw_lag=-1.0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            tr.note(now, raw_lag=-2.0)  # worse skew, but no re-warn
        assert tr.skew() == pytest.approx(-2.0)

    def test_positive_lag_keeps_skew_zero(self):
        tr = WatermarkTracker()
        tr.note(time.time() - 3.0, raw_lag=3.0)
        assert tr.skew() == 0.0

    def test_gauge_registered_per_sink(self, rng):
        g, _sink = pipeline_graph(rng.standard_normal((40, 6)))
        tel = Telemetry(TelemetryConfig(metrics=True))
        SynchronousEngine(g, telemetry=tel).run()
        # Same-host run: the gauge exists and reads a clean 0.0.
        assert tel.metrics.value(
            "repro_clock_skew_seconds", sink="sink"
        ) == 0.0


# ---------------------------------------------------------------------------
# Satellites: histogram thread safety, dropped-event surfacing
# ---------------------------------------------------------------------------


class TestHistogramThreadSafety:
    def test_concurrent_observe_loses_nothing(self):
        """Regression test: pre-lock, concurrent observes lost counts
        (read-modify-write races on counts/sum)."""
        hist = Histogram("h", {}, buckets=(1.0, 2.0, 4.0))
        n_threads, n_obs = 8, 5_000
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for i in range(n_obs):
                hist.observe(float(i % 5))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * n_obs
        assert hist.count == total
        assert sum(hist.counts) == total
        expected_sum = n_threads * sum(float(i % 5) for i in range(n_obs))
        assert hist.sum == pytest.approx(expected_sum)


class TestDroppedEvents:
    def test_len_and_drop_counter(self):
        log = EventLog(max_events=3)
        for i in range(7):
            log.append({"kind": "x", "i": i})
        assert len(log) == 3
        assert log.n_dropped == 4

    def test_dropped_total_exported_and_reported(self, tmp_path):
        tel = Telemetry(TelemetryConfig(max_events=2))
        for i in range(6):
            tel.events.append({"ts": 0.0, "kind": "sample", "i": i})
        assert tel.metrics.value("repro_events_dropped_total") == 4
        assert "repro_events_dropped_total 4" in tel.to_prometheus()
        path = tmp_path / "log.jsonl"
        tel.write_jsonl(path)
        report = render_report(load_events(path))
        assert "WARNING: 4 telemetry events dropped" in report


# ---------------------------------------------------------------------------
# Satellites: tolerant log loading + report edge cases
# ---------------------------------------------------------------------------


class TestReportEdgeCases:
    def test_empty_jsonl(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        events = load_events(path)
        assert events == []
        report = render_report(events)
        assert "telemetry run report" in report

    def test_garbage_lines_skipped_and_warned(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"ts": 0.0, "kind": "run_start", "engine": "t",
                        "graph": "g"})
            + "\n"
            + '{"ts": 1.0, "kind": "run_e'  # torn mid-write
            + "\n[1, 2, 3]\n"               # valid JSON, not an event dict
        )
        events = load_events(path)
        kinds = [e.get("kind") for e in events]
        assert kinds == ["run_start", "load_error"]
        assert events[-1]["n_bad_lines"] == 2
        report = render_report(events)
        assert "WARNING: 2 unparseable log lines skipped" in report

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text("not json\n")
        with pytest.raises(json.JSONDecodeError):
            load_events(path, strict=True)

    def test_report_without_run_end(self):
        events = [
            {"ts": 0.0, "kind": "run_start", "engine": "threaded",
             "graph": "g"},
            {"ts": 0.5, "kind": "sample", "pe": "pe-0", "depth": 3,
             "capacity": 64},
        ]
        report = render_report(events)
        assert "g (threaded)" in report
        assert "wall time" not in report

    def test_report_health_section(self):
        events = [
            {"ts": 0.1, "kind": "health", "engine": 0, "event": "check",
             "affinity": 0.95, "eig_drift": 0.01, "gap_rate": 0.0,
             "outlier_rate": 0.02, "r2_window_mean": 1.2,
             "chart_status": "ok"},
            {"ts": 0.2, "kind": "health", "engine": 0, "event": "merge",
             "reseed": True, "affinity": 0.9, "n_merges": 1},
            {"ts": 0.3, "kind": "health_verdict", "status": "OK",
             "firing": []},
            {"ts": 0.4, "kind": "health_verdict", "status": "DEGRADED",
             "firing": [{"rule": "peer-evicted", "severity": "warn",
                         "value": 1}]},
        ]
        report = render_report(events)
        assert "model health" in report
        assert "0.9500" in report            # affinity column
        assert "1 merge events (1 re-seeds)" in report
        assert "DEGRADED (peer-evicted)" in report
        assert "final DEGRADED, worst DEGRADED" in report


# ---------------------------------------------------------------------------
# HealthMonitor
# ---------------------------------------------------------------------------


def _fake_estimator(basis, eigenvalues):
    return SimpleNamespace(
        is_initialized=True,
        state=SimpleNamespace(
            basis=np.asarray(basis, dtype=float),
            eigenvalues=np.asarray(eigenvalues, dtype=float),
        ),
    )


def _basis(d, k, rotate=0.0):
    b = np.zeros((d, k))
    for j in range(k):
        b[j, j] = np.cos(rotate)
        b[(j + k) % d, j] = np.sin(rotate)
    q, _ = np.linalg.qr(b)
    return q[:, :k]


class TestHealthMonitor:
    def _feed_check(self, mon, est, r2_mean=1.0, n=None, gaps=0, outliers=0):
        n = n or mon.check_every
        mon.note_rows(
            n, n_gap_rows=gaps, n_outliers=outliers,
            weight_sum=float(n), r2_sum=r2_mean * n,
        )
        assert mon.maybe_check(est)

    def test_affinity_anchor_and_drop(self):
        mon = HealthMonitor(0, check_every=10, baseline_checks=1)
        est = _fake_estimator(_basis(8, 3), [3.0, 2.0, 1.0])
        self._feed_check(mon, est)
        assert mon.affinity == pytest.approx(1.0)
        # Rotate the basis hard: affinity vs the anchor collapses.
        est.state.basis = _basis(8, 3, rotate=np.pi / 2)
        self._feed_check(mon, est)
        assert mon.affinity < 0.5

    def test_checks_gate_on_window_and_init(self):
        mon = HealthMonitor(0, check_every=10)
        est = _fake_estimator(_basis(4, 2), [2.0, 1.0])
        mon.note_rows(9)
        assert not mon.maybe_check(est)  # window not full
        mon.note_rows(1)
        est.is_initialized = False
        assert not mon.maybe_check(est)  # estimator still warming up
        est.is_initialized = True
        assert mon.maybe_check(est)
        assert mon.n_checks == 1

    def test_eigenspectrum_drift(self):
        mon = HealthMonitor(0, check_every=10, top_k=2)
        est = _fake_estimator(_basis(4, 2), [4.0, 2.0])
        self._feed_check(mon, est)
        assert mon.eig_drift == 0.0  # no previous spectrum yet
        est.state.eigenvalues = np.array([6.0, 2.0])  # top-1 moved 50%
        self._feed_check(mon, est)
        assert mon.eig_drift == pytest.approx(0.5)

    def test_r2_control_chart_pages_on_excursion(self):
        mon = HealthMonitor(
            0, check_every=10, baseline_checks=3,
            warn_sigma=3.0, page_sigma=6.0, ewma_alpha=0.2,
        )
        est = _fake_estimator(_basis(4, 2), [2.0, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(10):  # jittered baseline arms the bands (sd > 0)
            self._feed_check(mon, est, r2_mean=1.0 + rng.normal(0, 0.02))
        assert mon.chart_status == "ok"
        self._feed_check(mon, est, r2_mean=50.0)
        assert mon.chart_status == "page"
        # The excursion is not folded into the baseline: it keeps paging.
        self._feed_check(mon, est, r2_mean=50.0)
        assert mon.chart_status == "page"
        self._feed_check(mon, est, r2_mean=1.0)
        assert mon.chart_status == "ok"

    def test_gap_and_outlier_rates(self):
        mon = HealthMonitor(0, check_every=10)
        est = _fake_estimator(_basis(4, 2), [2.0, 1.0])
        self._feed_check(mon, est, gaps=3, outliers=2)
        assert mon.gap_rate == pytest.approx(0.3)
        assert mon.outlier_rate == pytest.approx(0.2)

    def test_reseed_reanchors(self):
        mon = HealthMonitor(0, check_every=10)
        est = _fake_estimator(_basis(8, 3), [3.0, 2.0, 1.0])
        self._feed_check(mon, est)
        est.state.basis = _basis(8, 3, rotate=np.pi / 2)
        mon.on_merge(est, reseed=True)  # adopted a new lineage
        assert mon.n_reseeds == 1
        self._feed_check(mon, est)
        assert mon.affinity == pytest.approx(1.0)  # new anchor

    def test_emits_health_events(self):
        tel = Telemetry(TelemetryConfig())
        mon = HealthMonitor(3, check_every=10)
        mon.bind_telemetry(tel)
        est = _fake_estimator(_basis(4, 2), [2.0, 1.0])
        self._feed_check(mon, est)
        mon.on_merge(est, reseed=False)
        events = [e for e in tel.events.events() if e["kind"] == "health"]
        assert [e["event"] for e in events] == ["check", "merge"]
        assert all(e["engine"] == 3 for e in events)
        assert tel.metrics.value(
            "repro_health_affinity", engine="3"
        ) == pytest.approx(1.0)

    def test_monitor_rides_the_real_operator(self):
        """End-to-end: health=True on the app wires monitors that see
        rows, checks, and sync merges on a live run."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3000, 6))
        app = build_parallel_pca_graph(
            VectorStream.from_array(x),
            2,
            lambda i: RobustIncrementalPCA(3),
            health=True,
            health_check_every=100,
        )
        tel = Telemetry(TelemetryConfig())
        SynchronousEngine(app.graph, telemetry=tel).run()
        assert len(app.health_monitors) == 2
        assert sum(m.n_rows for m in app.health_monitors) == 3000
        assert all(m.n_checks > 0 for m in app.health_monitors)
        assert any(m.n_merges > 0 for m in app.health_monitors)
        snap = app.health_monitors[0].snapshot()
        assert 0.0 <= snap["affinity"] <= 1.0


def _scanning_note_block(self, xs, result):
    """``HealthMonitor.note_block`` as it was: an ``isfinite`` scan of
    every block, whatever the estimator already knew."""
    n_gaps = int(np.count_nonzero(~np.isfinite(xs).all(axis=1)))
    if result.n_processed:
        self.note_rows(
            xs.shape[0], n_gap_rows=n_gaps, n_outliers=result.n_outliers,
            weight_sum=float(np.sum(result.weights)),
            r2_sum=float(np.sum(result.residual_norm2)),
        )
    else:
        self.note_rows(xs.shape[0], n_gap_rows=n_gaps)


class TestGapRowsFromTheEstimator:
    """An updating block's gap rows come from the mask the estimator
    builds anyway (``BlockUpdateResult.n_gap_rows``); the monitor's
    ``gap_rate`` must read exactly what the per-block scan read."""

    @staticmethod
    def _gappy(n=1600, d=12):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((n, d)) * np.linspace(3.0, 0.5, d)
        for i in rng.choice(np.arange(n), size=n // 5, replace=False):
            x[i, rng.random(d) < 0.3] = np.nan
        x[[2, 7, 11]] = np.nan              # gappy warm-up rows
        x[[25, 400, 401, 900]] = np.nan     # too gappy: skipped
        return x

    @staticmethod
    def _gap_rates(tel):
        return [
            e["gap_rate"] for e in tel.events.events()
            if e.get("event") == "check"
        ]

    def _operator_rates(self, x):
        app = build_parallel_pca_graph(
            VectorStream.from_array(x), 2,
            lambda i: RobustIncrementalPCA(3, init_size=20),
            batch_size=32, split_strategy="round_robin",
            health=True, health_check_every=64,
        )
        tel = Telemetry(TelemetryConfig())
        SynchronousEngine(app.graph, telemetry=tel).run()
        return self._gap_rates(tel)

    def _tenant_rates(self, x):
        from repro.serving.tenancy import TenantModel, TenantSpec

        model = TenantModel(
            TenantSpec("gappy", n_components=3, health_check_every=64)
        )
        tel = Telemetry(TelemetryConfig())
        model.monitor.bind_telemetry(tel)
        for lo in range(0, x.shape[0], 48):
            model.apply_block(x[lo:lo + 48])
        return self._gap_rates(tel)

    @pytest.mark.parametrize("path", ["_operator_rates", "_tenant_rates"])
    def test_gap_rate_matches_the_block_scan(self, path, monkeypatch):
        x = self._gappy()
        rates = getattr(self, path)(x)
        monkeypatch.setattr(HealthMonitor, "note_block", _scanning_note_block)
        scanned = getattr(self, path)(x)
        assert len(rates) > 5
        assert rates == scanned
        assert any(0.0 < rate < 1.0 for rate in rates)

    def test_result_counts_filled_skipped_and_warmup_gap_rows(self):
        x = self._gappy()
        est = RobustIncrementalPCA(3, init_size=20)
        for lo in range(0, x.shape[0], 32):
            block = x[lo:lo + 32]
            result = est.update_block(block)
            assert result.n_gap_rows == np.count_nonzero(
                ~np.isfinite(block).all(axis=1)
            )


# ---------------------------------------------------------------------------
# Rules + rule engine
# ---------------------------------------------------------------------------


class TestHealthRules:
    def test_rule_validates_severity(self):
        with pytest.raises(ValueError, match="severity"):
            HealthRule("bad", "fatal", lambda s: None)

    def test_ok_when_nothing_fires(self):
        engine = HealthRuleEngine(rules=default_rules())
        verdict = engine.evaluate()
        assert verdict.status == "OK" and verdict.firing == []
        assert verdict.ok

    def test_warn_and_critical_severities(self):
        rules = [
            HealthRule("always-warn", "warn", lambda s: 1),
            HealthRule("always-critical", "critical", lambda s: "boom"),
        ]
        verdict = HealthRuleEngine(rules=rules).evaluate()
        assert verdict.status == "CRITICAL"
        assert {f["rule"] for f in verdict.firing} == {
            "always-warn", "always-critical"
        }

    def test_broken_rule_degrades_not_crashes(self):
        rules = [HealthRule("broken", "warn", lambda s: 1 / 0)]
        verdict = HealthRuleEngine(rules=rules).evaluate()
        assert verdict.status == "DEGRADED"
        assert "rule error" in verdict.firing[0]["value"]

    def test_snapshot_aggregates_monitors(self):
        mons = [HealthMonitor(i, check_every=10) for i in range(2)]
        est = _fake_estimator(_basis(8, 3), [3.0, 2.0, 1.0])
        for m in mons:
            m.note_rows(10, r2_sum=10.0, weight_sum=10.0)
            m.maybe_check(est)
        # Engine 1 drifts away from its anchor.
        mons[1]._anchor_basis = _basis(8, 3, rotate=np.pi / 2)
        mons[1].note_rows(10, n_gap_rows=8, r2_sum=10.0, weight_sum=10.0)
        mons[1].maybe_check(est)
        engine = HealthRuleEngine(monitors=mons)
        snap = engine.snapshot()
        assert set(snap["engines"]) == {0, 1}
        assert snap["min_affinity"] < 0.5
        assert snap["max_gap_rate"] == pytest.approx(0.8)
        verdict = engine.evaluate()
        assert verdict.status == "DEGRADED"
        firing = {f["rule"] for f in verdict.firing}
        assert "subspace-affinity-low" in firing
        assert "gap-rate-high" in firing

    def test_watermark_lag_rule_reads_gauges(self):
        tel = Telemetry(TelemetryConfig())
        tracker = WatermarkTracker()
        tracker.note(time.time() - 500.0)  # ancient watermark: huge lag
        tel.metrics.gauge(
            "repro_watermark_lag_seconds", tracker.lag, sink="sink"
        )
        engine = HealthRuleEngine(tel, rules=default_rules())
        verdict = engine.evaluate()
        assert verdict.status == "DEGRADED"
        assert verdict.firing[0]["rule"] == "watermark-lag-high"
        assert verdict.snapshot["max_watermark_lag_s"] > 400.0

    def test_health_status_gauge_tracks_verdict(self):
        tel = Telemetry(TelemetryConfig())
        engine = HealthRuleEngine(
            tel, rules=[HealthRule("boom", "critical", lambda s: 1)]
        )
        assert tel.metrics.value("repro_health_status") == 0.0
        engine.evaluate()
        assert tel.metrics.value("repro_health_status") == 2.0

    def test_sampler_records_verdict_events(self):
        tel = Telemetry(TelemetryConfig())
        engine = HealthRuleEngine(tel, rules=default_rules())
        sampler = HealthSampler(engine, interval_s=0.01)
        sampler.start()
        time.sleep(0.06)
        sampler.stop()
        verdicts = [
            e for e in tel.events.events()
            if e["kind"] == "health_verdict"
        ]
        assert len(verdicts) >= 2
        assert all(v["status"] == "OK" for v in verdicts)


# ---------------------------------------------------------------------------
# Live endpoint
# ---------------------------------------------------------------------------


class TestObservabilityServer:
    def test_metrics_health_and_model_endpoints(self):
        tel = Telemetry(TelemetryConfig())
        tel.metrics.counter("repro_test_total").inc(3)
        mon = HealthMonitor(0, check_every=10)
        est = _fake_estimator(_basis(4, 2), [2.0, 1.0])
        mon.note_rows(10, r2_sum=10.0, weight_sum=10.0)
        mon.maybe_check(est)
        engine = HealthRuleEngine(tel, monitors=[mon])
        with ObservabilityServer(tel, rule_engine=engine) as srv:
            status, body = http_get(srv.url + "/metrics")
            assert status == 200
            assert "# TYPE repro_test_total counter" in body
            assert "repro_test_total 3" in body

            status, body = http_get(srv.url + "/health")
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "OK"
            assert payload["firing"] == []
            assert payload["rules_wired"]

            status, body = http_get(srv.url + "/health/model")
            payload = json.loads(body)
            assert status == 200
            assert payload["engines"]["0"]["affinity"] == pytest.approx(1.0)

            status, _ = http_get(srv.url + "/nope")
            assert status == 404
        assert srv.n_requests == 4 and srv.n_errors == 0

    def test_health_without_rules_is_liveness_only(self):
        tel = Telemetry(TelemetryConfig())
        with ObservabilityServer(tel) as srv:
            status, body = http_get(srv.url + "/health")
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "OK"
            assert not payload["rules_wired"]

    def test_critical_verdict_returns_503(self):
        tel = Telemetry(TelemetryConfig())
        engine = HealthRuleEngine(
            tel, rules=[HealthRule("down", "critical", lambda s: 1)]
        )
        with ObservabilityServer(tel, rule_engine=engine) as srv:
            status, body = http_get(srv.url + "/health")
            assert status == 503
            assert json.loads(body)["status"] == "CRITICAL"

    def test_kill_one_of_four_degrades_then_recovers(self):
        """The chaos scenario through the real endpoint: engine 3 of 4
        goes silent, the controller's membership sweep evicts it, and
        ``/health`` flips to DEGRADED naming ``peer-evicted``; when the
        engine speaks again it rejoins and the verdict returns to OK."""
        tel = Telemetry(TelemetryConfig())
        ctrl = SyncController("sync", 4, stale_after=3)

        def beat(engine):
            ctrl.process(
                StreamTuple.control(type="heartbeat", engine=engine),
                engine,
            )

        for e in range(4):  # all four peers tracked and alive
            beat(e)
        rule_engine = HealthRuleEngine(
            tel, controller=ctrl, rules=default_rules()
        )
        with ObservabilityServer(tel, rule_engine=rule_engine) as srv:
            status, body = http_get(srv.url + "/health")
            assert status == 200
            assert json.loads(body)["status"] == "OK"

            # Kill engine 3: its siblings keep talking past stale_after.
            for _ in range(4):
                for e in range(3):
                    beat(e)
            assert ctrl.live_peers() == [0, 1, 2]
            status, body = http_get(srv.url + "/health")
            payload = json.loads(body)
            assert status == 200  # degraded-but-serving stays routable
            assert payload["status"] == "DEGRADED"
            firing = {f["rule"] for f in payload["firing"]}
            assert "peer-evicted" in firing
            assert rule_engine.last_verdict.snapshot["dead_engines"] == [3]

            beat(3)  # the engine rejoins
            assert ctrl.live_peers() == [0, 1, 2, 3]
            status, body = http_get(srv.url + "/health")
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "OK"
            assert payload["firing"] == []

    def test_quorum_lost_is_critical(self):
        tel = Telemetry(TelemetryConfig())
        ctrl = SyncController("sync", 4, stale_after=3, quorum=3)

        def beat(engine):
            ctrl.process(
                StreamTuple.control(type="heartbeat", engine=engine),
                engine,
            )

        for e in range(4):
            beat(e)
        for _ in range(5):  # only engine 0 still talks: 1-3 evicted
            beat(0)
        assert ctrl.live_peers() == [0]
        rule_engine = HealthRuleEngine(tel, controller=ctrl)
        with ObservabilityServer(tel, rule_engine=rule_engine) as srv:
            status, body = http_get(srv.url + "/health")
            payload = json.loads(body)
            assert status == 503
            assert payload["status"] == "CRITICAL"
            assert "quorum-lost" in {f["rule"] for f in payload["firing"]}


class TestObservabilityServerHardening:
    """JSON 404s on unknown engine ids.  (Unknown paths, hung clients
    and the other connection-level cases are the transport's:
    ``tests/test_httpd.py`` runs them against this front end too.)"""

    def _engine(self):
        tel = Telemetry(TelemetryConfig())
        mon = HealthMonitor(7, check_every=10)
        est = _fake_estimator(_basis(4, 2), [2.0, 1.0])
        mon.note_rows(10, r2_sum=10.0, weight_sum=10.0)
        mon.maybe_check(est)
        return tel, HealthRuleEngine(tel, monitors=[mon])

    def test_engine_snapshot_endpoint(self):
        tel, engine = self._engine()
        with ObservabilityServer(tel, rule_engine=engine) as srv:
            status, body = http_get(srv.url + "/health/model/7")
            payload = json.loads(body)
            assert status == 200
            assert payload["engine"] == "7"
            assert payload["snapshot"]["affinity"] == pytest.approx(1.0)
            assert payload["rules_wired"]

    def test_unknown_engine_is_json_404_listing_known_ids(self):
        tel, engine = self._engine()
        with ObservabilityServer(tel, rule_engine=engine) as srv:
            status, body = http_get(srv.url + "/health/model/99")
            payload = json.loads(body)
            assert status == 404
            assert "99" in payload["error"]
            assert payload["known_engines"] == ["7"]

    def test_unknown_engine_without_rules(self):
        tel = Telemetry(TelemetryConfig())
        with ObservabilityServer(tel) as srv:
            status, body = http_get(srv.url + "/health/model/0")
            payload = json.loads(body)
            assert status == 404
            assert payload["known_engines"] == []
            assert not payload["rules_wired"]

    def test_conn_timeout_must_be_positive(self):
        tel = Telemetry(TelemetryConfig())
        with pytest.raises(ValueError):
            ObservabilityServer(tel, conn_timeout_s=0.0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestHealthCLI:
    def _write_log(self, tmp_path, critical=False):
        tel = Telemetry(TelemetryConfig())
        mon = HealthMonitor(0, check_every=10)
        mon.bind_telemetry(tel)
        est = _fake_estimator(_basis(4, 2), [2.0, 1.0])
        mon.note_rows(10, r2_sum=10.0, weight_sum=10.0)
        mon.maybe_check(est)
        rules = (
            [HealthRule("down", "critical", lambda s: 1)]
            if critical else default_rules()
        )
        HealthSampler(HealthRuleEngine(tel, monitors=[mon], rules=rules)
                      ).sample()
        path = tmp_path / "events.jsonl"
        tel.write_jsonl(path)
        return path

    def test_health_report_renders(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._write_log(tmp_path)
        assert main(["health", str(path)]) == 0
        out = capsys.readouterr().out
        assert "model health" in out
        assert "final OK" in out

    def test_health_exit_code_on_critical(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._write_log(tmp_path, critical=True)
        assert main(["health", str(path)]) == 1
        out = capsys.readouterr().out
        assert "CRITICAL (down)" in out

    def test_health_on_log_without_health_events(self, tmp_path, capsys):
        from repro.__main__ import main

        tel = Telemetry(TelemetryConfig())
        tel.run_started(engine="synchronous", graph="g")
        path = tmp_path / "plain.jsonl"
        tel.write_jsonl(path)
        assert main(["health", str(path)]) == 0
        assert "no health events" in capsys.readouterr().out
