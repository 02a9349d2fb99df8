"""Tests for the cluster model: topology, network, costs, placement,
and the simulated streaming-PCA application."""

import numpy as np
import pytest

from repro.cluster import (
    PAPER_TESTBED,
    ClusterSpec,
    Network,
    PCACostModel,
    Placement,
    SimConfig,
    Simulator,
    simulate_streaming_pca,
)


class TestClusterSpec:
    def test_paper_testbed_matches_paper(self):
        assert PAPER_TESTBED.n_nodes == 10
        assert PAPER_TESTBED.cores_per_node == 4
        assert PAPER_TESTBED.link_bandwidth_bps == 1e9
        assert PAPER_TESTBED.total_cores == 40

    def test_wire_time(self):
        spec = ClusterSpec(link_bandwidth_bps=1e9, frame_overhead_bytes=0)
        assert spec.wire_time(125) == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(link_bandwidth_bps=0)
        with pytest.raises(ValueError):
            ClusterSpec(connection_overhead_s=-1)


class TestNetwork:
    def test_local_transfer_is_free(self):
        sim = Simulator()
        net = Network(sim, PAPER_TESTBED)

        def proc():
            yield from net.transfer(2, 2, 10_000)

        sim.process(proc())
        sim.run()
        assert sim.now == 0.0
        assert net.bytes_sent[2] == 0

    def test_remote_transfer_time(self):
        spec = ClusterSpec(connection_overhead_s=0.0)
        sim = Simulator()
        net = Network(sim, spec)
        done = []

        def proc():
            yield from net.transfer(0, 1, 1000)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        expected = 2 * spec.wire_time(1000) + spec.hop_latency_s
        assert done[0] == pytest.approx(expected)
        assert net.bytes_sent[0] == 1000
        assert net.messages_sent[0] == 1

    def test_connection_overhead_scales_with_flows(self):
        spec = ClusterSpec(connection_overhead_s=1e-3)
        sim = Simulator()
        net = Network(sim, spec)
        for dst in (1, 2, 3):
            net.register_flow(0, dst)
        assert net.active_flows(0) == 3
        done = []

        def proc():
            yield from net.transfer(0, 1, 1000)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        base = 2 * spec.wire_time(1000) + spec.hop_latency_s
        assert done[0] == pytest.approx(base + 3e-3)

    def test_self_flow_not_counted(self):
        sim = Simulator()
        net = Network(sim, PAPER_TESTBED)
        net.register_flow(1, 1)
        assert net.active_flows(1) == 0

    def test_egress_serializes(self):
        """Two messages from one node queue on the NIC."""
        spec = ClusterSpec(connection_overhead_s=0.0, link_latency_s=0.0,
                           connector_latency_s=0.0, frame_overhead_bytes=0)
        sim = Simulator()
        net = Network(sim, spec)
        done = []

        def proc(tag):
            yield from net.transfer(0, 1, 10_000_000)  # 80 ms wire
            done.append((sim.now, tag))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        # a: egress 0.08 + ingress 0.08 = 0.16; b waits for a's egress.
        assert done[0][0] == pytest.approx(0.16)
        assert done[1][0] == pytest.approx(0.24)

    def test_node_range_checked(self):
        sim = Simulator()
        net = Network(sim, ClusterSpec(n_nodes=2))
        with pytest.raises(ValueError, match="out of range"):
            net.register_flow(0, 5)


class TestCostModel:
    def test_update_cost_monotone(self):
        cost = PCACostModel.paper_scale()
        assert cost.update_cost(500, 8) > cost.update_cost(250, 8)
        assert cost.update_cost(250, 16) > cost.update_cost(250, 8)

    def test_merge_more_expensive_than_update(self):
        cost = PCACostModel.paper_scale()
        assert cost.merge_cost(250, 8) > cost.update_cost(250, 8)

    def test_wire_sizes(self):
        assert PCACostModel.tuple_bytes(250) == 8 * 250 + 64
        assert PCACostModel.state_bytes(250, 8) == 8 * 250 * 10 + 128

    def test_send_recv_costs(self):
        cost = PCACostModel.paper_scale()
        assert cost.send_cost(1000) > cost.send_cost(0)
        assert cost.recv_cost(1000) > cost.recv_cost(0)

    def test_paper_scale_operating_point(self):
        cost = PCACostModel.paper_scale()
        # ~1.2k tuples/s for one engine at the paper's d=250, p=8.
        rate = 1.0 / cost.update_cost(250, 8)
        assert 1000 < rate < 1500

    def test_calibrate_fits_real_operator(self):
        cost = PCACostModel.calibrate(
            dims=(64, 1024), ps=(4, 8), n_updates=40
        )
        assert cost.a >= 0 and cost.b >= 0 and cost.c >= 0
        # Cost increases with dimension after calibration.
        assert cost.update_cost(2000, 8) > cost.update_cost(64, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            PCACostModel(a=-1, b=0, c=0)


class TestPlacement:
    def test_single_node(self):
        p = Placement.single_node(5, node=2)
        assert p.splitter_node == 2
        assert p.engine_nodes == (2,) * 5
        assert p.engines_on(2) == 5
        assert p.max_node() == 2

    def test_distributed_even(self):
        p = Placement.distributed_even(20, 10)
        counts = [p.engines_on(n) for n in range(10)]
        assert counts == [2] * 10  # the paper's "grouped by 2" layout
        assert p.engine_nodes[0] == 1  # starts after the splitter

    def test_default_unoptimized_relay_rule(self):
        # Few engines on a big cluster: relay hop appears.
        p1 = Placement.default_unoptimized(1, 10)
        assert p1.relay_node is not None
        assert p1.relay_node not in (p1.splitter_node, *p1.engine_nodes)
        # Busy cluster: no relay.
        p20 = Placement.default_unoptimized(20, 10)
        assert p20.relay_node is None
        p5 = Placement.default_unoptimized(5, 10)
        assert p5.relay_node is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Placement.single_node(0)
        with pytest.raises(ValueError):
            Placement(splitter_node=-1, engine_nodes=(0,))
        with pytest.raises(ValueError):
            Placement(splitter_node=0, engine_nodes=())


class TestSimulatedApplication:
    def _config(self, placement, **kwargs):
        defaults = dict(
            spec=PAPER_TESTBED,
            placement=placement,
            cost=PCACostModel.paper_scale(),
            warmup_s=0.2,
            window_s=0.5,
        )
        defaults.update(kwargs)
        return SimConfig(**defaults)

    def test_single_engine_rate_matches_cost_model(self):
        report = simulate_streaming_pca(
            self._config(Placement.single_node(1))
        )
        cost = PCACostModel.paper_scale()
        ideal = 1.0 / cost.update_cost(250, 8)
        assert report.throughput == pytest.approx(ideal, rel=0.05)

    def test_single_node_saturates_at_core_count(self):
        r4 = simulate_streaming_pca(self._config(Placement.single_node(4)))
        r8 = simulate_streaming_pca(self._config(Placement.single_node(8)))
        assert r8.throughput == pytest.approx(r4.throughput, rel=0.05)
        assert max(r8.node_cpu_utilization) > 0.95

    def test_distributed_beats_single_at_scale(self):
        single = simulate_streaming_pca(
            self._config(Placement.single_node(10))
        )
        dist = simulate_streaming_pca(
            self._config(Placement.distributed_even(10, 10))
        )
        assert dist.throughput > 2 * single.throughput

    def test_determinism(self):
        cfg = self._config(Placement.distributed_even(5, 10))
        r1 = simulate_streaming_pca(cfg)
        r2 = simulate_streaming_pca(cfg)
        assert r1.throughput == r2.throughput
        assert r1.n_events == r2.n_events

    def test_sync_traffic_occurs(self):
        report = simulate_streaming_pca(
            self._config(
                Placement.distributed_even(4, 10), sync_window=100
            )
        )
        assert report.n_syncs > 0

    def test_sync_can_be_disabled(self):
        report = simulate_streaming_pca(
            self._config(
                Placement.distributed_even(4, 10),
                sync_window=100,
                sync_enabled=False,
            )
        )
        assert report.n_syncs == 0

    def test_batching_preserves_rates(self):
        cfg1 = self._config(Placement.distributed_even(5, 10), batch_size=1)
        cfg4 = self._config(Placement.distributed_even(5, 10), batch_size=4)
        r1, r4 = simulate_streaming_pca(cfg1), simulate_streaming_pca(cfg4)
        assert r4.throughput == pytest.approx(r1.throughput, rel=0.1)
        assert r4.n_events < r1.n_events

    def test_per_thread_property(self):
        report = simulate_streaming_pca(
            self._config(Placement.distributed_even(5, 10))
        )
        assert report.per_thread == pytest.approx(report.throughput / 5)

    def test_placement_must_fit_cluster(self):
        with pytest.raises(ValueError, match="placement references node"):
            self._config(
                Placement(splitter_node=0, engine_nodes=(15,))
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self._config(Placement.single_node(1), dim=0)
        with pytest.raises(ValueError):
            self._config(Placement.single_node(1), window_s=0.0)
        with pytest.raises(ValueError):
            self._config(Placement.single_node(1), batch_size=0)


class TestLatencyAndOpenLoop:
    def _cfg(self, placement, **kwargs):
        defaults = dict(
            spec=PAPER_TESTBED,
            placement=placement,
            cost=PCACostModel.paper_scale(),
            warmup_s=0.2,
            window_s=0.5,
        )
        defaults.update(kwargs)
        return SimConfig(**defaults)

    def test_open_loop_matches_offered_rate(self):
        report = simulate_streaming_pca(
            self._cfg(
                Placement.distributed_even(4, 10),
                offered_rate_per_engine=300.0,
            )
        )
        assert report.throughput == pytest.approx(4 * 300.0, rel=0.05)

    def test_open_loop_cannot_exceed_capacity(self):
        cost = PCACostModel.paper_scale()
        capacity = 1.0 / cost.update_cost(250, 8)
        report = simulate_streaming_pca(
            self._cfg(
                Placement.single_node(1),
                offered_rate_per_engine=10 * capacity,
            )
        )
        assert report.throughput == pytest.approx(capacity, rel=0.05)

    def test_fused_latency_below_distributed(self):
        kwargs = dict(offered_rate_per_engine=500.0)
        fused = simulate_streaming_pca(
            self._cfg(Placement.single_node(4), **kwargs)
        )
        dist = simulate_streaming_pca(
            self._cfg(Placement.distributed_even(4, 10), **kwargs)
        )
        assert 0 < fused.latency_p50_s < dist.latency_p50_s
        assert fused.latency_p95_s <= dist.latency_p95_s

    def test_latency_percentiles_ordered(self):
        report = simulate_streaming_pca(
            self._cfg(
                Placement.distributed_even(4, 10),
                offered_rate_per_engine=500.0,
            )
        )
        assert (
            report.latency_p50_s
            <= report.latency_mean_s * 1.5 + 1e-12
        )
        assert report.latency_p50_s <= report.latency_p95_s

    def test_offered_rate_validation(self):
        with pytest.raises(ValueError, match="offered_rate"):
            self._cfg(
                Placement.single_node(1), offered_rate_per_engine=0.0
            )


class TestHeterogeneousNodes:
    def test_faster_nodes_get_more_data(self):
        """The paper's load-balancer property: work-conserving delivery
        sends more tuples to faster engines."""
        spec = ClusterSpec(n_nodes=3)
        factors = (1.0, 1.0, 2.0)  # node 2 twice as fast
        placement = Placement(splitter_node=0, engine_nodes=(1, 2))
        # d=1000 keeps even the fast engine compute-bound (below the
        # per-channel supply cap), so the ratio is purely speed-driven.
        cfg = SimConfig(
            spec=spec,
            placement=placement,
            cost=PCACostModel.paper_scale(),
            node_speed_factors=factors,
            dim=1000,
            warmup_s=0.2,
            window_s=0.5,
        )
        report = simulate_streaming_pca(cfg)
        slow, fast = report.per_engine
        assert fast == pytest.approx(2 * slow, rel=0.1)

    def test_homogeneous_default_unchanged(self):
        placement = Placement.distributed_even(4, 10)
        base = SimConfig(
            spec=PAPER_TESTBED, placement=placement,
            cost=PCACostModel.paper_scale(), warmup_s=0.2, window_s=0.5,
        )
        uniform = SimConfig(
            spec=PAPER_TESTBED, placement=placement,
            cost=PCACostModel.paper_scale(),
            node_speed_factors=(1.0,) * 10,
            warmup_s=0.2, window_s=0.5,
        )
        assert simulate_streaming_pca(base).throughput == pytest.approx(
            simulate_streaming_pca(uniform).throughput
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="one entry per node"):
            SimConfig(
                spec=PAPER_TESTBED,
                placement=Placement.single_node(1),
                cost=PCACostModel.paper_scale(),
                node_speed_factors=(1.0, 2.0),
            )
        with pytest.raises(ValueError, match="positive"):
            SimConfig(
                spec=PAPER_TESTBED,
                placement=Placement.single_node(1),
                cost=PCACostModel.paper_scale(),
                node_speed_factors=(0.0,) * 10,
            )
