"""Dead-letter queue, validators, load-shed valve, and the guarded source."""

import threading
import time

import numpy as np
import pytest

from repro.data.streams import VectorStream
from repro.streams import (
    DeadLetterQueue,
    GuardedVectorSource,
    LoadShedValve,
    StreamTuple,
    SynchronousEngine,
    Telemetry,
    TelemetryConfig,
    default_validator,
)
from repro.streams.resilience import DeadLetterRecord


def _obs(x, seq=0):
    return StreamTuple.data(x=np.asarray(x, dtype=np.float64), seq=seq)


class TestDeadLetterQueue:
    def test_capacity_bounds_records_not_total(self):
        dlq = DeadLetterQueue(capacity=2)
        for i in range(5):
            dlq.quarantine("src", "bad", payload=i, seq=i)
        assert dlq.total == 5
        assert [r.payload for r in dlq.records] == [3, 4]

    def test_counts_by_origin_and_merge(self):
        dlq = DeadLetterQueue()
        dlq.quarantine("a", "r1")
        dlq.quarantine("a", "r2")
        dlq.quarantine("b", "r3")
        assert dlq.counts_by_origin() == {"a": 2, "b": 1}
        dlq.merge_counts({"b": 4, "c": 1})
        assert dlq.counts_by_origin() == {"a": 2, "b": 5, "c": 1}
        assert dlq.total == 8

    def test_record_captures_context(self):
        dlq = DeadLetterQueue()
        rec = dlq.quarantine("src", "why", payload=[1, 2], seq=7)
        assert isinstance(rec, DeadLetterRecord)
        assert (rec.origin, rec.reason, rec.seq) == ("src", "why", 7)
        assert rec.payload == [1, 2]
        assert rec.ts > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            DeadLetterQueue(capacity=0)

    def test_telemetry_event_per_quarantine(self):
        tel = Telemetry(TelemetryConfig())
        dlq = DeadLetterQueue()
        dlq.bind_telemetry(tel)
        dlq.quarantine("src", "bad line", seq=3)
        events = [e for e in tel.events.events() if e["kind"] == "dlq"]
        assert len(events) == 1
        assert events[0]["reason"] == "bad line"
        assert events[0]["seq"] == 3


class TestDefaultValidator:
    def test_healthy_vector_passes(self):
        assert default_validator(_obs([1.0, 2.0]), 2) is None

    def test_nan_cells_are_gaps_not_poison(self):
        assert default_validator(_obs([np.nan, 2.0]), 2) is None

    def test_all_nan_is_poison(self):
        assert "NaN" in default_validator(_obs([np.nan, np.nan]), 2)

    def test_wrong_dim_is_poison(self):
        assert "dim" in default_validator(_obs([1.0, 2.0, 3.0]), 2)

    def test_non_numeric_is_poison(self):
        tup = StreamTuple.data(x="not a vector", seq=0)
        assert "numeric" in default_validator(tup, 2)

    def test_missing_x_is_poison(self):
        tup = StreamTuple.data(y=1.0)
        assert "missing" in default_validator(tup, 2)

    def test_block_dim_checked(self):
        tup = StreamTuple.data(xs=np.zeros((3, 4)), count=3)
        assert default_validator(tup, 4) is None
        assert "dim" in default_validator(tup, 5)


class TestQuarantineOperator:
    """What the operator form pinned, on its parts as the guarded source
    wires them: the tuple validator's verdict decides, and a rejected
    row's context lands in the dead-letter queue."""

    def _run(self, rows, name="q", **kw):
        stream = VectorStream.from_iterable(rows, dim=2, length=len(rows))
        src = GuardedVectorSource(
            name, stream, expected_dim=2, validator=default_validator, **kw
        )
        return src, list(src.generate())

    def test_healthy_tuples_flow_through(self):
        src, out = self._run([np.array([1.0, 2.0])])
        assert len(out) == 1
        assert src.n_quarantined == 0

    def test_poison_is_captured_not_raised(self):
        rows = [np.array([1.0, 2.0])] * 5 + [np.array([1.0, 2.0, 3.0])]
        src, out = self._run(rows)
        assert len(out) == 5
        assert src.n_quarantined == 1
        [rec] = src.dlq.records
        assert rec.seq == 5
        assert rec.origin == "q"
        assert "dim" in rec.reason
        np.testing.assert_array_equal(
            rec.payload["x"], [1.0, 2.0, 3.0]
        )

    def test_shared_dlq(self):
        dlq = DeadLetterQueue()
        self._run([np.full(2, np.nan)], name="a", dlq=dlq)
        self._run([np.ones(3)], name="b", dlq=dlq)
        assert dlq.total == 2
        assert dlq.counts_by_origin() == {"a": 1, "b": 1}


class TestCircuitBreaker:
    """Per-row admission (``admit``) through burst, trip, cooldown and
    the trip event, driven by a fake clock."""

    def _breaker(self, **kw):
        clock = {"t": 0.0}
        kw.setdefault("clock", lambda: clock["t"])
        return LoadShedValve(**kw), clock

    def test_disabled_is_pure_passthrough(self):
        br, _ = self._breaker(max_rate_hz=None)
        assert all(br.admit() for _ in range(100))
        assert br.n_shed == 0

    def test_burst_within_bucket_passes(self):
        br, _ = self._breaker(max_rate_hz=10.0, burst_s=1.0)
        assert all(br.admit() for _ in range(10))
        assert br.state == "closed"

    def test_sustained_overload_trips_and_sheds(self):
        br, clock = self._breaker(
            max_rate_hz=10.0, burst_s=1.0, open_for_s=0.5
        )
        # No time passes: instant overload.
        admitted = sum(br.admit() for _ in range(15))
        assert br.state == "open"
        assert br.n_trips == 1
        assert br.n_shed == 5
        assert admitted == 10
        # Still open: keeps shedding.
        clock["t"] = 0.4
        assert not br.admit()
        assert br.n_shed == 6
        # Cooldown over: closes and admits again.
        clock["t"] = 0.6
        assert br.admit()
        assert br.state == "closed"

    def test_trip_emits_event(self):
        tel = Telemetry(TelemetryConfig())
        br, _ = self._breaker(max_rate_hz=1.0)
        br.bind_telemetry(tel, origin="br")
        br.admit()
        br.admit()
        events = [
            e for e in tel.events.events() if e["kind"] == "breaker"
        ]
        assert [(e["event"], e["op"]) for e in events] == [("open", "br")]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_rate_hz"):
            LoadShedValve(max_rate_hz=0.0)
        with pytest.raises(ValueError, match="burst_s"):
            LoadShedValve(max_rate_hz=1.0, burst_s=0)
        with pytest.raises(ValueError, match="open_for_s"):
            LoadShedValve(max_rate_hz=1.0, open_for_s=0)


class TestGuardedVectorSource:
    """The source-inline form of the ingress guards."""

    def _source(self, rows, **kw):
        stream = VectorStream.from_iterable(
            rows, dim=4, length=len(rows)
        )
        return GuardedVectorSource("src", stream, **kw)

    def test_counters_surface_only_for_armed_guards(self):
        rows = [np.zeros(4)]
        q_only = self._source(rows)
        assert q_only.n_quarantined == 0
        assert getattr(q_only, "n_shed", None) is None

        v_only = self._source(rows, quarantine=False, max_rate_hz=10.0)
        assert v_only.n_shed == 0
        assert v_only.state == "closed"
        assert getattr(v_only, "n_quarantined", None) is None
        assert v_only.dlq is None

    def test_quarantines_inline_without_graph_dispatch(self):
        rows = [np.zeros(4), np.full(4, np.nan), np.ones(4)]
        src = self._source(rows)
        out = list(src.generate())
        assert [t["seq"] for t in out] == [0, 2]
        assert src.n_quarantined == 1
        [rec] = src.dlq.records
        assert rec.origin == "src"
        assert rec.seq == 1

    def test_inline_valve_sheds_on_a_dry_bucket(self):
        clock = [0.0]
        rows = [np.zeros(4)] * 4
        src = self._source(
            rows, quarantine=False, max_rate_hz=1.0,
            clock=lambda: clock[0],
        )
        gen = src.generate()
        assert next(gen)["seq"] == 0  # spends the single token
        # At a frozen clock the bucket never refills: the valve trips
        # on the next arrival and sheds the rest inline.  (Cooldown /
        # recovery semantics are pinned by TestCircuitBreaker, on the
        # LoadShedValve itself.)
        assert list(gen) == []
        assert src.n_shed == 3
        assert src.n_trips == 1
        assert src.state == "open"


class TestGuardsOnArrayBlocks:
    """An array-backed stream's blocks are judged in bulk (the default
    validator clears whole blocks in one call); every verdict, dead
    letter and valve token must be the per-row path's."""

    @staticmethod
    def _rows():
        x = np.random.default_rng(8).standard_normal((300, 6))
        x[[5, 40, 99, 150]] = np.nan       # no information: poison
        x[7, 0] = np.nan                   # a gap in the first cell
        x[63, 2:] = np.nan                 # a gappy row
        return x

    def _run(self, x, batch_size, from_array, **kw):
        # One 20 ms tick per admission: the default valve (1 s of burst,
        # open for 0.5 s) trips, sheds and recovers within 300 rows.
        ticks = iter(np.arange(0.0, 200.0, 0.02))
        stream = (
            VectorStream.from_array(x) if from_array
            else VectorStream.from_iterable(list(x), dim=x.shape[1])
        )
        src = GuardedVectorSource(
            "src", stream, batch_size=batch_size, clock=lambda: next(ticks),
            **kw,
        )
        out = list(src.generate())
        if batch_size > 1:
            assert all(t["count"] == batch_size for t in out[:-1])
            seqs = [s for t in out for s in t["seqs"].tolist()]
            parts = [t["xs"] for t in out]
        else:
            seqs = [t["seq"] for t in out]
            parts = [t["x"][None, :] for t in out]
        rows = np.concatenate(parts + [np.zeros((0, x.shape[1]))])
        records = [(r.seq, r.reason) for r in src.dlq.records] if src.dlq else []
        shed = (src.n_shed, src.n_trips) if "max_rate_hz" in kw else None
        return seqs, rows, records, shed

    @pytest.mark.parametrize("kw", [
        {"expected_dim": 6},
        {"expected_dim": 6, "max_rate_hz": 20.0},
        {"expected_dim": 5},
        {"validator": lambda tup, dim: "odd" if tup["seq"] % 3 else None},
        {"quarantine": False, "max_rate_hz": 15.0},
    ], ids=["default", "default+valve", "wrong-dim", "custom", "valve-only"])
    def test_block_verdicts_equal_the_per_row_path(self, kw):
        x = self._rows()
        seqs, rows, records, shed = self._run(x, 0, False, **kw)
        for from_array in (True, False):
            got = self._run(x, 16, from_array, **kw)
            assert got[0] == seqs
            np.testing.assert_array_equal(got[1], rows)
            assert got[2:] == (records, shed)
        if kw.get("expected_dim") == 6 and "max_rate_hz" not in kw:
            assert [s for s, _ in records] == [5, 40, 99, 150]


class TestGraphWiring:
    """The resilience stages inside the full parallel application."""

    def _app(self, rows, **kw):
        from repro.parallel.app import build_parallel_pca_graph
        from repro.core.robust import RobustIncrementalPCA

        stream = VectorStream.from_iterable(
            rows, dim=4, length=len(rows)
        )
        return build_parallel_pca_graph(
            stream,
            2,
            lambda i: RobustIncrementalPCA(2, alpha=0.99),
            split_seed=1,
            **kw,
        )

    def test_default_graph_has_no_resilience_guards(self):
        from repro.streams.sources import GuardedVectorSource

        rows = list(np.random.default_rng(0).standard_normal((20, 4)))
        app = self._app(rows)
        assert not isinstance(app.source, GuardedVectorSource)
        assert app.dlq is None
        assert app.n_shed == 0

    def test_poison_rows_quarantined_output_is_input_minus_dlq(self):
        rng = np.random.default_rng(0)
        rows = [rng.standard_normal(4) for _ in range(120)]
        poison_at = {17: np.zeros(7), 40: np.full(4, np.nan)}
        for idx, bad in poison_at.items():
            rows[idx] = bad
        app = self._app(rows, quarantine=True)
        SynchronousEngine(app.graph).run()

        assert app.dlq.total == len(poison_at)
        assert {r.seq for r in app.dlq.records} == set(poison_at)
        # Payloads captured for post-mortem.
        for rec in app.dlq.records:
            assert "x" in rec.payload
        # Output = input - quarantined: every healthy row reached an
        # engine, and the run completed without any operator crash.
        processed = sum(op.n_data_tuples for op in app.engines)
        assert processed == len(rows) - len(poison_at)
        merged = app.controller.global_state(2)
        assert merged.eigenvalues.shape == (2,)

    def test_guards_fused_into_source_add_no_graph_stages(self):
        from repro.streams.sources import GuardedVectorSource

        rows = list(np.random.default_rng(0).standard_normal((10, 4)))
        plain = self._app(rows)
        app = self._app(
            rows, quarantine=True, shed_max_rate_hz=1e9
        )
        assert isinstance(app.source, GuardedVectorSource)
        # Arming the guards must not change the graph topology — no
        # extra operators means no extra dispatch hops or PE threads
        # (the ≤5% fault-free overhead budget rests on this).
        assert {op.name for op in app.graph} == {
            op.name for op in plain.graph
        }
        SynchronousEngine(app.graph).run()
        assert app.n_shed == 0  # generous rate: nothing shed
        assert app.source.state == "closed"

    def test_dlq_metric_exported_via_collector(self):
        rows = [np.zeros(7)] * 3  # all poison
        app = self._app(rows, quarantine=True)
        tel = Telemetry(TelemetryConfig())
        tel.attach_graph(app.graph)
        SynchronousEngine(app.graph).run()
        samples = [
            s for s in tel.metrics.snapshot()
            if s["name"] == "repro_dlq_total"
        ]
        assert len(samples) == 1  # one producer, exported exactly once
        assert samples[0]["value"] == 3


class TestLoadShedValveBlocks:
    """Block admission (``admit_n``) and retry hints — the serving
    layer's admission-control contract, driven by a fake clock."""

    def _valve(self, rate=10.0, burst=1.0, open_for=0.5):
        clock = [0.0]
        valve = LoadShedValve(
            rate, burst_s=burst, open_for_s=open_for,
            clock=lambda: clock[0],
        )
        return valve, clock

    def test_admit_n_is_all_or_nothing(self):
        valve, clock = self._valve()  # capacity 10 tokens
        assert valve.admit_n(8)
        assert not valve.admit_n(4)  # only 2 left: whole block shed
        assert valve.n_shed == 4
        assert valve.state == "open"  # the failed block tripped it

    def test_open_valve_sheds_everything_until_cooldown(self):
        valve, clock = self._valve()
        assert not valve.admit_n(11)  # bigger than the bucket: trips
        assert not valve.admit_n(1)  # even tiny blocks shed while open
        assert valve.n_shed == 12
        clock[0] += 0.6  # past open_for_s: closes with a half bucket
        assert valve.admit_n(5)
        assert valve.state == "closed"

    def test_retry_after_while_open_is_remaining_cooldown(self):
        valve, clock = self._valve(open_for=0.5)
        valve.admit_n(11)  # trip
        assert valve.retry_after_s() == pytest.approx(0.5)
        clock[0] += 0.2
        assert valve.retry_after_s() == pytest.approx(0.3)

    def test_retry_after_while_closed_is_token_deficit(self):
        valve, clock = self._valve(rate=10.0)
        valve.admit_n(8)  # 2 tokens left
        assert valve.retry_after_s(4) == pytest.approx(0.2)  # 2 short
        assert valve.retry_after_s(1) == 0.0  # fits right now
        clock[0] += 1.0  # fully refilled
        assert valve.retry_after_s(4) == 0.0

    def test_admit_n_validates(self):
        valve, _ = self._valve()
        with pytest.raises(ValueError):
            valve.admit_n(0)

    def test_disabled_valve_admits_everything(self):
        valve = LoadShedValve(None)
        assert valve.admit_n(10**9)
        assert valve.retry_after_s(10**9) == 0.0
        assert valve.n_shed == 0


class TestLoadShedValveContention:
    """Bursty multi-client admission: concurrent handlers hammering the
    valves must never lose or double-count a block, and one tenant's
    overload must not bleed into another tenant's budget."""

    N_THREADS = 8

    def _hammer(self, valve, n_threads, n_attempts, block=4):
        admitted = [0] * n_threads
        shed = [0] * n_threads
        start = threading.Barrier(n_threads)

        def worker(tid):
            start.wait()
            for _ in range(n_attempts):
                if valve.admit_n(block):
                    admitted[tid] += block
                else:
                    shed[tid] += block

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        return sum(admitted), sum(shed)

    def test_accounting_exact_under_contention(self):
        valve = LoadShedValve(2000.0, burst_s=0.1, open_for_s=0.01)
        n_attempts, block = 200, 4
        admitted, shed = self._hammer(
            valve, self.N_THREADS, n_attempts, block
        )
        total = self.N_THREADS * n_attempts * block
        assert admitted + shed == total  # nothing lost, nothing doubled
        assert valve.n_shed == shed  # server-side counter agrees
        assert shed > 0  # the burst genuinely overloaded the valve

    def test_no_token_oversubscription(self):
        """Admitted volume can never exceed bucket + refill: a racy
        read-modify-write on the token count would let concurrent
        admitters spend the same token twice."""
        rate, burst = 500.0, 0.2  # capacity 100 tokens
        valve = LoadShedValve(rate, burst_s=burst, open_for_s=10.0)
        t0 = time.monotonic()
        admitted, shed = self._hammer(valve, self.N_THREADS, 100, 2)
        elapsed = time.monotonic() - t0
        budget = rate * burst + rate * elapsed + 2  # bucket + refill
        assert admitted <= budget
        assert admitted + shed == self.N_THREADS * 100 * 2

    def test_per_tenant_valves_isolate_overload(self):
        """Fairness across tenants: a bulk tenant slamming its own
        valve cannot starve a polite tenant under a separate valve."""
        bulk = LoadShedValve(200.0, burst_s=0.1, open_for_s=0.05)
        polite = LoadShedValve(200.0, burst_s=0.1, open_for_s=0.05)
        stop = threading.Event()
        results = {"bulk_admitted": 0, "bulk_shed": 0}

        def bulk_client():
            while not stop.is_set():
                if bulk.admit_n(8):
                    results["bulk_admitted"] += 8
                else:
                    results["bulk_shed"] += 8

        noise = [
            threading.Thread(target=bulk_client, daemon=True)
            for _ in range(self.N_THREADS - 2)
        ]
        for t in noise:
            t.start()
        try:
            # The polite tenant stays far under its own rate budget.
            polite_ok = 0
            for _ in range(10):
                if polite.admit_n(1):
                    polite_ok += 1
                time.sleep(0.01)
        finally:
            stop.set()
            for t in noise:
                t.join(timeout=10.0)
        assert polite_ok == 10  # never shed despite the neighbour's burst
        assert results["bulk_shed"] > 0  # the bulk tenant was shedding
        assert bulk.n_shed == results["bulk_shed"]
        assert polite.n_shed == 0
