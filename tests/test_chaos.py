"""Chaos harness: scenarios, fault injection, reports, acceptance."""

from dataclasses import replace

import pytest

from repro.core import block_route
from repro.streams.chaos import (
    ChaosScenario,
    FaultSpec,
    kill_engine_scenario,
    load_chaos_reports,
    network_flap_scenario,
    poison_scenario,
    queue_stall_scenario,
    run_scenario,
    run_suite,
    slow_operator_scenario,
    smoke_suite,
    write_chaos_reports,
)
from repro.streams.telemetry import Telemetry, TelemetryConfig

#: The acceptance bar: chaos must not push the merged global basis
#: further than this from the fault-free solution.
MIN_AFFINITY = 0.98


class TestSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_op_required_except_poison(self):
        with pytest.raises(ValueError, match="needs an op"):
            FaultSpec(kind="crash")
        FaultSpec(kind="poison")  # fine

    def test_windows_validated(self):
        with pytest.raises(ValueError, match="at_tuple"):
            FaultSpec(kind="poison", at_tuple=0)
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="poison", duration=0)

    def test_kill_engine_rejected_on_process_runtime(self):
        with pytest.raises(ValueError, match="host_kill"):
            ChaosScenario(
                name="x",
                faults=(FaultSpec(kind="kill_engine", op="pca-0"),),
                runtime="process",
            )

    def test_injector_cannot_target_worker_side_op(self):
        with pytest.raises(ValueError, match="pickle|worker process"):
            ChaosScenario(
                name="x",
                faults=(
                    FaultSpec(kind="delay", op="pca-0", seconds=0.01),
                ),
                runtime="process",
            )

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            ChaosScenario(name="x", runtime="quantum")


class TestKillEngine:
    """Acceptance: kill 1 of 4 engines mid-stream, merge must survive."""

    @pytest.mark.parametrize("runtime", ["synchronous", "threaded"])
    def test_evict_rejoin_reseed_and_affinity(self, runtime):
        report = run_scenario(kill_engine_scenario(runtime))
        assert report.ok, report.error
        assert report.n_evictions >= 1
        assert report.n_rejoins >= 1
        assert report.n_reseeds >= 1
        assert report.n_duplicated == 0
        # Only the blackout window is lost, never the whole partition.
        fault = kill_engine_scenario(runtime).faults[0]
        assert 0 < report.n_lost <= fault.duration
        assert report.affinity is not None
        assert report.affinity >= MIN_AFFINITY
        kinds = {
            (e.get("kind"), e.get("event") or e.get("fault"))
            for e in report.events
        }
        assert ("chaos", "kill_engine") in kinds
        assert ("membership", "evictions") in kinds
        assert ("membership", "rejoins") in kinds
        assert ("membership", "reseeds") in kinds
        assert report.recovery_time_s is not None
        assert report.recovery_time_s > 0

    def test_synchronous_runtime_is_deterministic(self):
        a = run_scenario(kill_engine_scenario("synchronous"))
        b = run_scenario(kill_engine_scenario("synchronous"))
        assert (a.n_lost, a.n_evictions, a.n_rejoins, a.n_reseeds) == (
            b.n_lost, b.n_evictions, b.n_rejoins, b.n_reseeds
        )
        assert a.affinity == pytest.approx(b.affinity, abs=0)
        assert a.membership == b.membership

    def test_worker_sigkill_on_process_runtime(self):
        report = run_scenario(kill_engine_scenario("process"))
        assert report.ok, report.error
        assert report.n_evictions >= 1
        assert report.n_rejoins >= 1
        assert report.affinity is not None
        assert report.affinity >= MIN_AFFINITY
        kinds = {
            (e.get("kind"), e.get("event") or e.get("fault"))
            for e in report.events
        }
        assert ("chaos", "host_kill") in kinds
        assert ("membership", "evictions") in kinds
        assert ("membership", "rejoins") in kinds
        # A SIGKILL loses at most the in-flight transport window plus
        # updates since the last checkpoint — bounded, not the stream.
        assert report.n_lost < report.n_input // 2


class TestPoison:
    """Acceptance: poison tuples land in the DLQ, nothing crashes."""

    def _check(self, scenario):
        report = run_scenario(scenario)
        assert report.ok, report.error
        assert report.n_quarantined == 12
        assert report.n_processed == report.n_input - 12
        assert report.n_lost == 0
        assert report.n_duplicated == 0
        dlq_events = [
            e for e in report.events if e.get("kind") == "dlq"
        ]
        assert len(dlq_events) == 12

    @pytest.mark.parametrize("runtime", ["synchronous", "threaded"])
    def test_output_is_input_minus_quarantined(self, runtime):
        self._check(poison_scenario(runtime, n_poison=12))

    @pytest.mark.parametrize("runtime", ["synchronous", "threaded"])
    def test_batched_output_is_input_minus_quarantined(self, runtime):
        """Rows, not tuples, are what the books balance: with
        ``batch_size=64`` the engines' 25 block tuples carry the same
        1588 rows."""
        self._check(replace(
            poison_scenario(runtime, n_poison=12), batch_size=64
        ))

    def test_block_guard_dead_letters_equal_the_per_row_run(self):
        def dead_letters(batch_size):
            report = run_scenario(replace(
                poison_scenario("synchronous", n_poison=12),
                batch_size=batch_size,
            ))
            return [
                (e["seq"], e["reason"], e["op"])
                for e in report.events if e.get("kind") == "dlq"
            ]

        batched = dead_letters(64)
        assert batched == dead_letters(0)
        assert len(batched) == 12


class TestBackgroundFaults:
    def test_batched_process_run_spawns_one_worker_per_engine(self):
        """The chaos harness launches the placement the product runs:
        at ``batch_size=64`` the Batcher stays on the coordinator, so a
        2-engine process run has 2 engine hosts (a host of its own for
        the Batcher would be a third metrics shard)."""
        tel = Telemetry(TelemetryConfig(metrics=True, tracing=False))
        report = run_scenario(
            ChaosScenario(
                name="batched-clean", runtime="process", n_engines=2,
                n_samples=640, batch_size=64, supervise=False,
            ),
            telemetry=tel,
        )
        assert report.ok, report.error
        assert report.n_lost == 0
        shards = {
            s.labels.get("process")
            for s in tel.metrics.collect()
            if hasattr(s, "labels") and s.labels.get("process")
        }
        assert shards == {"h0", "h1"}

    def test_slow_operator_loses_nothing(self):
        report = run_scenario(slow_operator_scenario("threaded"))
        assert report.ok, report.error
        assert report.n_lost == 0
        assert report.n_duplicated == 0
        assert report.affinity >= MIN_AFFINITY

    def test_queue_stall_is_absorbed(self):
        report = run_scenario(queue_stall_scenario("threaded"))
        assert report.ok, report.error
        assert report.n_lost == 0
        assert report.affinity >= MIN_AFFINITY


class TestSharedEngineThread:
    """At d = 32 on the covariance route the threaded runtime runs every
    engine on one thread; a fault on one engine must still stay with
    it: no other engine is evicted, nothing outside a kill's blackout
    window is lost, and the merged basis holds the affinity bar."""

    #: α = 0.992 makes a chunk 31 rows, so d = 32 <= p + chunk: the
    #: covariance route, with a sync window short enough for a few
    #: rounds in 2 400 rows.
    SHARED = dict(dim=32, alpha=0.992, n_samples=2400)

    @staticmethod
    def _evicted(report):
        return {
            e.get("engine") for e in report.events
            if e.get("kind") == "membership" and e.get("event") == "evictions"
        }

    def test_the_engines_share_one_thread(self):
        assert block_route(32, 4, self.SHARED["alpha"]).covariance

    def test_delay_on_one_engine(self):
        scenario = replace(
            slow_operator_scenario("threaded"),
            faults=(
                FaultSpec(
                    kind="delay", op="pca-0", at_tuple=50, duration=20,
                    seconds=0.01,
                ),
            ),
            **self.SHARED,
        )
        report = run_scenario(scenario)
        assert report.ok, report.error
        assert self._evicted(report) <= {0}
        assert report.n_lost == 0
        assert report.n_duplicated == 0
        assert report.affinity >= MIN_AFFINITY

    def test_kill_engine(self):
        scenario = replace(kill_engine_scenario("threaded"), **self.SHARED)
        report = run_scenario(scenario)
        assert report.ok, report.error
        assert self._evicted(report) == {1}
        assert report.n_rejoins >= 1
        assert report.n_duplicated == 0
        assert 0 < report.n_lost <= scenario.faults[0].duration
        assert report.affinity >= MIN_AFFINITY


class TestReports:
    def test_jsonl_round_trip(self, tmp_path):
        scenario = poison_scenario("synchronous", n_poison=4)
        reports = run_suite([scenario], out=tmp_path / "chaos.jsonl")
        loaded = load_chaos_reports(tmp_path / "chaos.jsonl")
        assert len(loaded) == 1
        back = loaded[0]
        assert back["scenario"] == scenario.name
        assert back["ok"] is True
        assert back["n_quarantined"] == 4
        assert back["n_input"] == reports[0].n_input
        assert isinstance(back["events"], list)

    def test_write_appends(self, tmp_path):
        path = tmp_path / "chaos.jsonl"
        r = run_scenario(poison_scenario("synchronous", n_poison=2))
        write_chaos_reports([r], path)
        write_chaos_reports([r], path)
        assert len(load_chaos_reports(path)) == 2

    def test_smoke_suite_covers_fault_families(self):
        suite = smoke_suite("threaded")
        kinds = {f.kind for s in suite for f in s.faults}
        assert kinds == {"kill_engine", "poison", "delay"}
        assert all(s.runtime == "threaded" for s in suite)
        suite = smoke_suite("process")
        assert {f.kind for s in suite for f in s.faults} == {
            "host_kill", "poison", "delay"
        }


class TestNetworkFlap:
    def test_reconnects_and_completes(self):
        report = network_flap_scenario(
            seed=3, n_samples=150, flap_every=40, max_flaps=2
        )
        assert report.ok, report.error
        assert report.n_reconnects >= 1
        assert report.n_duplicated == 0
        # RST may discard in-flight rows; the loss must stay bounded by
        # what was on the wire, never a whole connection's worth.
        assert report.n_lost <= 2 * 40
        assert report.n_observed + report.n_lost == report.n_input
