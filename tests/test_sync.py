"""Tests for sync strategies and the SyncController."""

import numpy as np
import pytest

from repro.core import BatchPCA, Eigensystem
from repro.parallel.sync import (
    BroadcastStrategy,
    GroupStrategy,
    PeerToPeerStrategy,
    RingStrategy,
    SyncController,
    make_strategy,
)
from repro.streams.tuples import StreamTuple


class TestStrategies:
    def test_ring(self):
        s = RingStrategy()
        assert s.targets(0, 4) == [1]
        assert s.targets(3, 4) == [0]
        assert s.targets(0, 1) == []

    def test_broadcast(self):
        s = BroadcastStrategy()
        assert s.targets(1, 4) == [0, 2, 3]
        assert s.targets(0, 1) == []

    def test_group(self):
        s = GroupStrategy(2)
        # Groups {0,1}, {2,3}: ring inside each.
        assert s.targets(0, 4) == [1]
        assert s.targets(1, 4) == [0]
        assert s.targets(2, 4) == [3]
        assert s.targets(3, 4) == [2]

    def test_group_tail_singleton_falls_back(self):
        s = GroupStrategy(2)
        # 5 engines: group {4} alone -> global ring fallback.
        assert s.targets(4, 5) == [0]

    def test_group_validation(self):
        with pytest.raises(ValueError):
            GroupStrategy(1)

    def test_p2p_never_self(self):
        s = PeerToPeerStrategy(seed=0)
        for _ in range(200):
            t = s.targets(2, 5)
            assert len(t) == 1
            assert t[0] != 2
            assert 0 <= t[0] < 5

    def test_make_strategy(self):
        assert isinstance(make_strategy("ring"), RingStrategy)
        assert isinstance(make_strategy("broadcast"), BroadcastStrategy)
        assert isinstance(make_strategy("group", group_size=3), GroupStrategy)
        assert isinstance(make_strategy("p2p"), PeerToPeerStrategy)
        with pytest.raises(ValueError, match="unknown sync strategy"):
            make_strategy("gossip")


def _dummy_state(rng, n=500) -> Eigensystem:
    x = rng.standard_normal((n, 10))
    st = BatchPCA(2).fit(x).to_eigensystem()
    st.sum_count = st.sum_weight = float(n)
    return st


class TestSyncController:
    def _controller(self, n=3, **kwargs):
        ctl = SyncController("ctl", n, **kwargs)
        out = []
        ctl.bind(lambda tup, port: out.append((tup, port)))
        return ctl, out

    def test_ready_grants_share(self):
        ctl, out = self._controller()
        ctl._dispatch(StreamTuple.control(type="ready", engine=1), 1)
        assert len(out) == 1
        tup, port = out[0]
        assert port == 1
        assert tup["type"] == "share"
        assert ctl.stats.n_ready == 1

    def test_state_routed_to_ring_successor(self, rng):
        ctl, out = self._controller()
        state = _dummy_state(rng)
        ctl._dispatch(StreamTuple.control(type="state", engine=1,
                                          state=state), 1)
        assert len(out) == 1
        tup, port = out[0]
        assert port == 2
        assert tup["type"] == "merge"
        assert tup["sender"] == 1
        assert tup["state"] is state
        assert ctl.stats.n_merge_commands == 1
        assert ctl.stats.per_engine_syncs == {2: 1}

    def test_broadcast_routes_to_all_others(self, rng):
        ctl, out = self._controller(strategy="broadcast")
        ctl._dispatch(
            StreamTuple.control(type="state", engine=0,
                                state=_dummy_state(rng)), 0
        )
        assert sorted(port for _, port in out) == [1, 2]

    def test_every_ready_is_granted(self):
        """The engines' 1.5·N gate is the only control on the sync rate:
        an engine announces ``ready`` once per opened gate and waits for
        the grant, so the controller answers every one, back to back."""
        ctl, out = self._controller()
        for _ in range(4):
            ctl._dispatch(StreamTuple.control(type="ready", engine=0), 0)
        ctl._dispatch(StreamTuple.control(type="ready", engine=1), 1)
        assert [(t["type"], port) for t, port in out] == (
            [("share", 0)] * 4 + [("share", 1)]
        )
        assert ctl.stats.n_ready == 5

    def test_final_states_and_global_state(self, rng):
        ctl, _ = self._controller(n=2)
        s0, s1 = _dummy_state(rng), _dummy_state(rng)
        ctl._dispatch(StreamTuple.control(type="final", engine=0, state=s0), 0)
        ctl._dispatch(StreamTuple.control(type="final", engine=1, state=s1), 1)
        merged = ctl.global_state(2)
        assert merged.n_components == 2
        assert merged.sum_count == pytest.approx(1000)

    def test_global_state_before_completion_raises(self):
        ctl, _ = self._controller()
        with pytest.raises(RuntimeError, match="no final states"):
            ctl.global_state(2)

    def test_rejects_data_tuples(self):
        ctl, _ = self._controller()
        with pytest.raises(ValueError, match="non-control"):
            ctl._dispatch(StreamTuple.data(x=np.zeros(2), seq=0), 0)

    def test_rejects_unknown_type(self):
        ctl, _ = self._controller()
        with pytest.raises(ValueError, match="unknown control"):
            ctl._dispatch(StreamTuple.control(type="hello"), 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_engines"):
            SyncController("c", 0)


class TestConsistencyCheck:
    def test_vacuous_with_fewer_than_two_states(self, rng):
        ctl = SyncController("c", 3)
        ctl.bind(lambda t, p: None)
        assert ctl.check_consistency()
        ctl._dispatch(
            StreamTuple.control(type="state", engine=0,
                                state=_dummy_state(rng)), 0
        )
        assert ctl.check_consistency()

    def test_detects_wandering_engine(self, rng):
        ctl = SyncController("c", 2)
        ctl.bind(lambda t, p: None)
        good = _dummy_state(rng)
        bad = good.copy()
        bad.scale = good.scale * 50  # exploded residual scale
        ctl._dispatch(
            StreamTuple.control(type="state", engine=0, state=good), 0
        )
        ctl._dispatch(
            StreamTuple.control(type="state", engine=1, state=bad), 1
        )
        assert not ctl.check_consistency()

    def test_consistent_after_parallel_run(self):
        from repro.core import BatchPCA  # noqa: F401  (doc import)
        from repro.data import PlantedSubspaceModel, VectorStream
        from repro.parallel import ParallelStreamingPCA

        model = PlantedSubspaceModel(dim=30, seed=9)
        x = model.sample(5000, np.random.default_rng(4))
        runner = ParallelStreamingPCA(3, n_engines=3, alpha=0.995)
        app = runner.build(VectorStream.from_array(x))
        from repro.streams import SynchronousEngine

        SynchronousEngine(app.graph).run()
        assert app.controller.check_consistency()


class TestMembership:
    """Peer liveness tracking: eviction, rejoin, reseed, quorum."""

    def _controller(self, n=3, **kwargs):
        kwargs.setdefault("stale_after", 3)
        ctl = SyncController("ctl", n, **kwargs)
        out = []
        ctl.bind(lambda tup, port: out.append((tup, port)))
        return ctl, out

    def _hb(self, ctl, engine, times=1):
        for _ in range(times):
            ctl._dispatch(
                StreamTuple.control(type="heartbeat", engine=engine),
                engine,
            )

    def test_peers_tracked_on_first_message(self):
        ctl, _ = self._controller()
        assert ctl.membership() == {}
        self._hb(ctl, 0)
        assert ctl.live_peers() == [0]
        assert ctl.membership()[0]["n_messages"] == 1
        assert ctl.stats.n_heartbeats == 1

    def test_untracked_peer_is_never_evicted(self):
        # Engine 2 has not spoken yet (warm-up); silence is not death.
        ctl, _ = self._controller()
        self._hb(ctl, 0, times=20)
        assert ctl.stats.n_evictions == 0
        assert ctl.live_peers() == [0]

    def test_eviction_after_stale_window(self):
        ctl, _ = self._controller()
        self._hb(ctl, 1)
        self._hb(ctl, 0, times=4)  # > stale_after=3 messages of silence
        assert ctl.stats.n_evictions == 1
        assert ctl.live_peers() == [0]
        assert not ctl.membership()[1]["alive"]

    def test_rejoin_counts_and_revives(self, rng):
        ctl, _ = self._controller()
        self._hb(ctl, 1)
        self._hb(ctl, 0, times=4)
        assert ctl.live_peers() == [0]
        self._hb(ctl, 1)  # back from the dead
        assert ctl.live_peers() == [0, 1]
        assert ctl.stats.n_rejoins == 1
        assert ctl.membership()[1]["n_rejoins"] == 1

    def test_rejoin_reseeds_from_known_states(self, rng):
        ctl, out = self._controller()
        state = _dummy_state(rng)
        ctl._dispatch(
            StreamTuple.control(type="state", engine=0, state=state), 0
        )
        self._hb(ctl, 1)
        self._hb(ctl, 0, times=4)  # evict 1
        out.clear()
        self._hb(ctl, 1)  # rejoin
        reseeds = [
            (t, p) for t, p in out
            if t["type"] == "merge" and t.get("reseed")
        ]
        assert len(reseeds) == 1
        tup, port = reseeds[0]
        assert port == 1
        assert tup["sender"] == -1
        assert tup["state"].n_components == state.n_components
        assert ctl.stats.n_reseeds == 1

    def test_rejoin_without_states_skips_reseed(self):
        ctl, out = self._controller()
        self._hb(ctl, 1)
        self._hb(ctl, 0, times=4)
        out.clear()
        self._hb(ctl, 1)
        assert ctl.stats.n_rejoins == 1
        assert ctl.stats.n_reseeds == 0
        assert out == []

    def test_finished_peer_is_not_evicted(self, rng):
        ctl, _ = self._controller()
        ctl._dispatch(
            StreamTuple.control(
                type="final", engine=1, state=_dummy_state(rng)
            ),
            1,
        )
        self._hb(ctl, 0, times=10)
        assert ctl.stats.n_evictions == 0
        assert ctl.live_peers() == [0, 1]

    def test_ring_heals_around_evicted_peer(self, rng):
        ctl, out = self._controller()
        self._hb(ctl, 1)
        self._hb(ctl, 0, times=4)  # evict 1 (ring successor of 0)
        out.clear()
        ctl._dispatch(
            StreamTuple.control(
                type="state", engine=0, state=_dummy_state(rng)
            ),
            0,
        )
        merges = [(t, p) for t, p in out if t["type"] == "merge"]
        assert [p for _, p in merges] == [2]  # rerouted past engine 1
        assert ctl.stats.n_rerouted == 1

    def test_no_membership_means_raw_strategy(self, rng):
        ctl = SyncController("ctl", 3)  # stale_after=None
        out = []
        ctl.bind(lambda tup, port: out.append((tup, port)))
        ctl._dispatch(
            StreamTuple.control(
                type="state", engine=0, state=_dummy_state(rng)
            ),
            0,
        )
        assert [p for _, p in out] == [1]
        assert ctl.stats.n_rerouted == 0

    def test_quorum_blocks_short_merge(self, rng):
        from repro.parallel.sync import QuorumError

        ctl, _ = self._controller(n=3, quorum=2)
        ctl._dispatch(
            StreamTuple.control(
                type="final", engine=0, state=_dummy_state(rng)
            ),
            0,
        )
        with pytest.raises(QuorumError, match="quorum"):
            ctl.global_state(2)

    def test_quorum_met_with_stale_contribution(self, rng):
        from repro.parallel.sync import QuorumError

        ctl, _ = self._controller(n=3, quorum=2)
        ctl._dispatch(
            StreamTuple.control(
                type="final", engine=0, state=_dummy_state(rng)
            ),
            0,
        )
        # Engine 1 never sent a final, but it shared a state earlier.
        ctl._dispatch(
            StreamTuple.control(
                type="state", engine=1, state=_dummy_state(rng)
            ),
            1,
        )
        merged = ctl.global_state(2)
        assert merged.n_components == 2
        with pytest.raises(QuorumError):
            ctl.global_state(2, include_stale=False)

    def test_validation(self):
        with pytest.raises(ValueError, match="stale_after"):
            SyncController("c", 2, stale_after=0)
        with pytest.raises(ValueError, match="quorum"):
            SyncController("c", 2, quorum=3)
        with pytest.raises(ValueError, match="quorum"):
            SyncController("c", 2, quorum=0)
