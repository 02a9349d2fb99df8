"""Tests for the serving layer (``repro.serving``).

Covers the full stack bottom-up — immutable basis snapshots and the
copy-on-publish cache, tenant specs/queues/models, the fixed-slot
engine-lane pool with chaos kill and automatic respawn, the
transport-independent service core, the asyncio HTTP/WS front end —
and finishes with the end-to-end acceptance test: ≥16 concurrent
clients over ≥2 tenants ingesting while querying, overload shedding
with zero loss on admitted traffic, and a lane kill driving
``/ready`` through 503 and back.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.core.robust import RobustIncrementalPCA
from repro.serving import (
    BasisSnapshot,
    EigenbasisCache,
    EngineLane,
    EnginePool,
    EventBus,
    IngestQueue,
    PCAService,
    QueueFull,
    ServingClient,
    ServingConfig,
    ServingServer,
    TenantModel,
    TenantSpec,
    TenantState,
    WebSocketClient,
)
from repro.serving import http as serving_http
from repro.serving import pool as serving_pool
from repro.serving.codec import BlockCodecError, decode_block, encode_block

SEED = 20120513


def _rows(n, dim=8, seed=SEED):
    # One planted 3-d subspace shared by every draw (so rows from any
    # seed are inliers of a model fitted on any other seed's rows).
    plant = np.random.default_rng(SEED).normal(size=(3, dim))
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=(n, 3)) * np.array([5.0, 3.0, 2.0])
    return coeff @ plant + 0.1 * rng.normal(size=(n, dim))


def _fitted_state(n=400, dim=8, n_components=4):
    est = RobustIncrementalPCA(n_components, init_size=20)
    est.update_block(_rows(n, dim))
    return est.public_state()


def _spec(name="t0", **kw):
    kw.setdefault("n_components", 4)
    kw.setdefault("init_size", 10)
    kw.setdefault("publish_every_blocks", 1)
    return TenantSpec(name, **kw)


def _service(*specs, **cfg_kw):
    cfg_kw.setdefault("n_lanes", 2)
    svc = PCAService(ServingConfig(**cfg_kw))
    for spec in specs:
        svc.add_tenant(spec)
    return svc


def _wait(pred, timeout_s=10.0, interval_s=0.005):
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if pred():
            return True
        time.sleep(interval_s)
    return pred()


# ---------------------------------------------------------------------------
# the block codec (WAL record body == octet-stream request body)
# ---------------------------------------------------------------------------


def _forged(header: bytes, payload: bytes = b"") -> bytes:
    return struct.pack("!I", len(header)) + header + payload


def _hdr(**fields) -> bytes:
    return json.dumps(fields).encode()


class TestBlockCodec:
    def test_round_trip_is_bit_exact(self):
        block = np.random.default_rng(SEED).normal(size=(5, 7))
        block[0, 2] = np.nan
        block[1] = np.inf
        block[2, ::2] = -np.inf
        block[3, 0] = -0.0
        block[4, 1] = 5e-324  # smallest subnormal
        got, ts = decode_block(encode_block(block, ts=12.25))
        assert ts == 12.25
        assert got.dtype == np.float64 and got.shape == block.shape
        assert got.tobytes() == block.tobytes()
        assert got.flags.writeable and got.flags.aligned

    def test_one_row_travels_as_a_one_row_block(self):
        row = np.array([1.5, np.nan, -2.0])
        got, ts = decode_block(encode_block(row))
        assert ts == 0.0
        assert got.shape == (1, 3)
        assert got.tobytes() == row.tobytes()

    def test_other_dtypes_and_layouts_encode_as_float64(self):
        ints = np.arange(6, dtype=np.int32).reshape(2, 3)
        assert np.array_equal(decode_block(encode_block(ints))[0], ints)
        strided = np.arange(24.0).reshape(4, 6)[::2, ::3]
        assert np.array_equal(
            decode_block(encode_block(strided))[0], strided
        )

    def test_unencodable_rows_rejected(self):
        for bad in (np.zeros((2, 2, 2)), np.zeros((3, 0)), np.float64(1.0),
                    [["a"]]):
            with pytest.raises(BlockCodecError):
                encode_block(bad)

    def test_malformed_bodies_rejected(self):
        good = encode_block(np.zeros((2, 3)))
        payload = good[-48:]
        cases = {
            "empty": b"",
            "short prefix": b"\x00\x00",
            "truncated payload": good[:-1],
            "extra payload": good + b"\x00",
            "header_len past body": struct.pack("!I", len(good)) + good[4:],
            "header_len huge": b"\xff\xff\xff\xff" + good[4:],
            "rows too many": _forged(_hdr(rows=9, dim=3, ts=0.0), payload),
            "rows negative": _forged(_hdr(rows=-2, dim=-3, ts=0.0), payload),
            "dim zero": _forged(_hdr(rows=0, dim=0, ts=0.0)),
            "dim negative": _forged(_hdr(rows=2, dim=-3, ts=0.0), payload),
            "huge product": _forged(_hdr(rows=2**62, dim=2**62, ts=0.0),
                                    payload),
            "wraps to 48 in u64": _forged(
                _hdr(rows=2**61 + 2, dim=3, ts=0.0), payload),
            "float shape": _forged(_hdr(rows=2.0, dim=3, ts=0.0), payload),
            "bool shape": _forged(_hdr(rows=True, dim=6, ts=0.0),
                                  payload),
            "infinite shape": _forged(
                b'{"rows":Infinity,"dim":3,"ts":0}', payload),
            "missing key": _forged(_hdr(rows=2, ts=0.0), payload),
            "header not an object": _forged(b"[2,3]", payload),
            "header not JSON": _forged(b"{rows:2}", payload),
            "header not UTF-8": _forged(b'{"rows":2,"dim":3,"\xff":0}',
                                        payload),
            "ts not a number": _forged(_hdr(rows=2, dim=3, ts="x"), payload),
            "oversized header": _forged(b"[" * 2048, payload),
        }
        for name, body in cases.items():
            with pytest.raises(BlockCodecError):
                decode_block(body)

    def test_mutation_fuzz_raises_or_stays_inside_the_input(self):
        """Seeded byte/length mutations of a valid body: the decoder
        either raises BlockCodecError or returns a block exactly as big
        as the payload bytes it was given — a length read from the body
        never sizes an allocation on its own."""
        rng = np.random.default_rng(8)
        good = encode_block(rng.normal(size=(6, 5)), ts=3.5)
        (header_len,) = struct.unpack_from("!I", good)
        head_end = 4 + header_len
        n_raised = n_decoded = 0
        for _ in range(600):
            data = bytearray(good)
            kind = int(rng.integers(0, 5))
            if kind == 0:    # bit flip in the length prefix or header
                pos = int(rng.integers(0, head_end))
                data[pos] ^= 1 << int(rng.integers(0, 8))
            elif kind == 1:  # random byte anywhere
                data[int(rng.integers(0, len(data)))] = int(
                    rng.integers(0, 256))
            elif kind == 2:  # truncate
                del data[int(rng.integers(0, len(data))):]
            elif kind == 3:  # random length prefix
                struct.pack_into("!I", data, 0, int(rng.integers(0, 2**32)))
            else:            # forged shape over the real payload
                header = json.dumps({
                    "rows": int(rng.integers(-4, 2**40)),
                    "dim": int(rng.integers(-4, 2**40)), "ts": 0.0,
                }).encode()
                data = bytearray(_forged(header, good[head_end:]))
            body = bytes(data)
            try:
                block, _ts = decode_block(body)
            except BlockCodecError:
                n_raised += 1
                continue
            n_decoded += 1
            (hl,) = struct.unpack_from("!I", body)
            assert block.nbytes == len(body) - 4 - hl
        # Only a mutation that leaves the framing intact decodes (a flip
        # inside the float payload, or in "ts"); every other one raises.
        assert n_raised > 400 and n_decoded > 0


# ---------------------------------------------------------------------------
# snapshots: BasisSnapshot + EigenbasisCache
# ---------------------------------------------------------------------------


class TestBasisSnapshot:
    def _snap(self, version=1):
        return BasisSnapshot(
            tenant="t0",
            version=version,
            state=_fitted_state(),
            rows_applied=400,
            blocks_applied=1,
            outlier_t=9.0,
        )

    def test_transform_roundtrip_shapes(self):
        snap = self._snap()
        x = _rows(5)
        z = snap.transform(x)
        assert z.shape == (5, snap.n_components)
        back = snap.inverse_transform(z)
        assert back.shape == x.shape

    def test_transform_matches_manual_projection(self):
        snap = self._snap()
        x = _rows(7, seed=1)
        want = (x - snap.state.mean) @ snap.state.basis
        np.testing.assert_allclose(snap.transform(x), want)

    def test_reconstruction_error_small_on_inliers(self):
        snap = self._snap()
        err = snap.reconstruction_error(_rows(50, seed=2))
        assert err.shape == (50,)
        assert np.all(err >= 0)
        assert np.median(err) < 1.0

    def test_outlier_score_flags_gross_outliers(self):
        snap = self._snap()
        x = _rows(20, seed=3)
        x[::4] += 40.0  # blast a quarter of the rows off the subspace
        scores, flags = snap.outlier_score(x)
        assert scores.shape == flags.shape == (20,)
        assert flags[::4].all()
        assert not flags[1::4].any()

    def test_eigenspectra_topk(self):
        snap = self._snap()
        spec = snap.eigenspectra(top_k=2)
        assert len(spec["eigenvalues"]) == 2
        assert spec["eigenvalues"][0] >= spec["eigenvalues"][1]
        assert "basis" not in spec
        with_basis = snap.eigenspectra(top_k=2, include_basis=True)
        assert np.asarray(with_basis["basis"]).shape == (2, snap.dim)

    def test_meta_and_age(self):
        snap = self._snap(version=3)
        meta = snap.meta()
        assert meta["tenant"] == "t0"
        assert meta["snapshot_version"] == 3
        assert meta["model_rows"] == 400
        assert meta["n_components"] == snap.n_components
        assert meta["dim"] == snap.dim
        assert snap.age_s() >= 0.0

    def test_snapshot_state_is_a_copy(self):
        est = RobustIncrementalPCA(4, init_size=20)
        est.update_block(_rows(100))
        cache = EigenbasisCache()
        snap = cache.publish(
            "t0", est.state, rows_applied=100, blocks_applied=1
        )
        before = snap.state.basis.copy()
        est.update_block(_rows(500, seed=9) + 3.0)  # keep mutating
        np.testing.assert_array_equal(snap.state.basis, before)


class TestEigenbasisCache:
    def test_versions_monotone_per_tenant(self):
        cache = EigenbasisCache()
        state = _fitted_state()
        for i in range(1, 4):
            snap = cache.publish(
                "a", state, rows_applied=i, blocks_applied=i
            )
            assert snap.version == i
        assert cache.version("a") == 3
        assert cache.version("nope") == 0

    def test_get_counts_hits_and_misses(self):
        cache = EigenbasisCache()
        assert cache.get("a") is None
        cache.publish("a", _fitted_state(), rows_applied=1, blocks_applied=1)
        assert cache.get("a") is not None
        stats = cache.stats()
        assert stats["n_hits"] == 1
        assert stats["n_misses"] == 1
        # peek must not touch the counters
        cache.peek("a")
        assert cache.stats()["n_hits"] == 1

    def test_listener_fires_and_errors_are_swallowed(self):
        cache = EigenbasisCache()
        seen = []
        cache.add_listener(seen.append)
        cache.add_listener(lambda s: 1 / 0)
        snap = cache.publish(
            "a", _fitted_state(), rows_applied=1, blocks_applied=1
        )
        assert seen == [snap]

    def test_drop_and_tenants(self):
        cache = EigenbasisCache()
        cache.publish("a", _fitted_state(), rows_applied=1, blocks_applied=1)
        cache.publish("b", _fitted_state(), rows_applied=1, blocks_applied=1)
        assert sorted(cache.tenants()) == ["a", "b"]
        cache.drop("a")
        assert cache.tenants() == ["b"]


# ---------------------------------------------------------------------------
# tenancy: spec validation, ingest queue, tenant model, router
# ---------------------------------------------------------------------------


class TestTenantSpec:
    def test_rejects_bad_names(self):
        for bad in ("", ".hidden", "a/b", "x" * 65, "sp ace"):
            with pytest.raises(ValueError):
                TenantSpec(bad)

    def test_accepts_reasonable_names(self):
        for good in ("a", "bulk", "team-1", "a.b_c", "X" * 64):
            TenantSpec(good)

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            TenantSpec("t", n_components=0)
        with pytest.raises(ValueError):
            TenantSpec("t", max_rate_hz=-1.0)
        with pytest.raises(ValueError):
            TenantSpec("t", queue_capacity_rows=0)

    def test_unknown_runtime_rejected(self):
        # The parallel chunk mode and its three fields are gone (every
        # tenant is one estimator on its lane, whatever a caller asks),
        # and so is the snapshot-cutoff fallback nothing could reach.
        for retired in (
            "runtime", "n_engines", "parallel_chunk_rows", "outlier_t"
        ):
            with pytest.raises(TypeError):
                TenantSpec("t", **{retired: 2})
        stats = TenantModel(TenantSpec("t")).stats()
        assert stats["pending_rows"] == 0
        assert not {"parallel", "n_engines", "runtime"} & set(stats)


class TestIngestQueue:
    def test_push_pop_coalesces_blocks(self):
        q = IngestQueue(capacity_rows=1000)
        q.push(_rows(10))
        q.push(_rows(20, seed=1))
        got, _ = q.pop_block(max_rows=256)
        assert got.shape[0] == 30
        assert q.depth_rows == 0

    def test_pop_respects_max_rows(self):
        q = IngestQueue(capacity_rows=1000)
        for i in range(5):
            q.push(_rows(10, seed=i))
        first, _ = q.pop_block(max_rows=25)
        second, _ = q.pop_block(max_rows=25)
        third, _ = q.pop_block(max_rows=25)
        assert first.shape[0] == 20  # whole blocks only, under the cap
        assert second.shape[0] == 20
        assert third.shape[0] == 10
        assert q.pop_block(max_rows=25) is None

    def test_push_raises_when_full(self):
        q = IngestQueue(capacity_rows=25)
        q.push(_rows(20))
        with pytest.raises(QueueFull):
            q.push(_rows(10))
        assert q.depth_rows == 20  # rejected block not partially taken

    def test_requeue_front_preserves_rows(self):
        q = IngestQueue(capacity_rows=100)
        q.push(_rows(40))
        block, _ = q.pop_block(max_rows=40)
        q.requeue_front(block)
        assert q.depth_rows == 40
        assert q.rows_requeued == 40


class TestTenantModel:
    def test_direct_apply_and_publish(self):
        model = TenantModel(_spec())
        cache = EigenbasisCache()
        model.apply_block(_rows(64))
        assert model.is_initialized
        assert model.should_publish()
        snap = model.publish(cache)
        assert snap is not None and snap.version == 1
        assert cache.get("t0").rows_applied == 64
        # The cutoff queries flag outliers by is the estimator's own.
        assert snap.outlier_t == model._estimator.outlier_threshold()

    def test_inf_cell_counts_as_a_gap_row(self):
        # The estimator patches every non-finite cell, and nothing on
        # the wire rejects ±inf, so the monitor counts inf rows as gaps.
        model = TenantModel(_spec())
        model.apply_block(_rows(64))
        before = model.monitor._w_gap_rows
        xs = _rows(64, seed=1)
        xs[5, 2] = np.inf
        model.apply_block(xs)
        assert model.monitor._w_gap_rows == before + 1

    def test_reseed_adopts_snapshot(self):
        model = TenantModel(_spec())
        cache = EigenbasisCache()
        model.apply_block(_rows(128))
        snap = model.publish(cache)
        other = TenantModel(_spec())
        other.reseed(snap)
        assert other.is_initialized
        state = other._estimator.public_state()
        np.testing.assert_allclose(state.basis, snap.state.basis)


# ---------------------------------------------------------------------------
# pool: lanes drain queues, chaos kill → evict → respawn → reseed
# ---------------------------------------------------------------------------


class TestEnginePool:
    def _pool(self, tenants, **kw):
        cache = EigenbasisCache()
        kw.setdefault("n_lanes", 2)
        pool = EnginePool(cache, lambda: tenants, **kw)
        return cache, pool

    def test_lanes_drain_and_publish(self):
        t = TenantState(_spec("a"))
        cache, pool = self._pool({"a": t})
        pool.start()
        try:
            t.queue.push(_rows(64))
            pool.wake("a")
            assert _wait(lambda: cache.get("a") is not None)
            assert pool.drain(10.0)
            assert t.model.rows_applied == 64
        finally:
            pool.stop()

    def test_drain_waits_for_the_block_in_flight(self, monkeypatch):
        # The lane pops the only block at once and then spends 0.2 s
        # applying it: the queue is empty long before the rows count.
        t = TenantState(_spec("a"))
        apply_block = t.model.apply_block

        def slow_apply(*args, **kwargs):
            time.sleep(0.2)
            apply_block(*args, **kwargs)

        monkeypatch.setattr(t.model, "apply_block", slow_apply)
        cache, pool = self._pool({"a": t})
        pool.start()
        try:
            t.queue.push(_rows(64))
            pool.wake("a")
            assert pool.drain(10.0)
            assert t.model.rows_applied == 64
        finally:
            pool.stop()

    def test_wake_sets_only_the_owning_lane(self):
        names = [f"tenant-{i}" for i in range(8)]
        tenants = {n: TenantState(_spec(n)) for n in names}
        cache, pool = self._pool(tenants)
        # Lanes built but never started, so no loop clears an event.
        lanes = {slot: EngineLane(slot, pool) for slot in range(2)}
        pool._lanes = lanes
        owners = {n: zlib.crc32(n.encode()) % 2 for n in names}
        assert set(owners.values()) == {0, 1}
        for name, owner in owners.items():
            pool.wake(name)
            assert [lane.wake.is_set() for lane in lanes.values()] == [
                slot == owner for slot in lanes
            ]
            lanes[owner].wake.clear()
            assert tenants[name] in pool.tenants_for(owner)

    def test_kill_lane_evicts_reseeds_respawns(self):
        tenants = {
            n: TenantState(_spec(n)) for n in ("a", "b", "c", "d")
        }
        events = []
        cache, pool = self._pool(
            tenants, on_event=lambda kind, **p: events.append(kind)
        )
        pool.start()
        try:
            for i, t in enumerate(tenants.values()):
                t.queue.push(_rows(64, seed=i))
                pool.wake(t.name)
            assert pool.drain(10.0)
            assert _wait(lambda: all(
                cache.get(n) is not None for n in tenants
            ))

            victim = max(range(2), key=lambda s: len(pool.tenants_for(s)))
            victims = {t.name for t in pool.tenants_for(victim)}
            assert victims
            with pool._lock:
                pool._lanes[victim].kill()
            assert _wait(lambda: victim not in pool.live_lane_ids())
            assert pool.stats.n_evictions == 1
            assert "lane_dead" in events

            # No caller action: the pool refills the slot by itself, and
            # the replacement reseeds exactly the dead slot's tenants.
            assert _wait(lambda: pool.stats.n_rejoins == 1)
            assert _wait(lambda: len(pool.live_lane_ids()) == 2)
            assert "lane_respawned" in events
            assert _wait(lambda: all(
                tenants[n].model.n_reseeds == 1 for n in victims
            ))
            assert all(
                t.model.n_reseeds == 0
                for n, t in tenants.items() if n not in victims
            )

            # The pool keeps serving after the rejoin, losing nothing.
            for t in tenants.values():
                t.queue.push(_rows(32, seed=7))
                pool.wake(t.name)
            assert pool.drain(10.0)
            assert all(
                t.model.rows_applied == 96 for t in tenants.values()
            )
        finally:
            pool.stop()

    def test_no_respawn_after_stop(self, monkeypatch):
        monkeypatch.setattr(serving_pool, "RESPAWN_DELAY_S", 0.5)
        t = TenantState(_spec("a"))
        cache, pool = self._pool({"a": t})
        pool.start()
        with pool._lock:
            pool._lanes[0].kill()
        assert _wait(lambda: pool.stats.n_evictions == 1)
        pool.stop()
        time.sleep(0.7)
        assert pool.stats.n_rejoins == 0
        assert pool.live_lane_ids() == []

    def test_membership_quorum(self):
        cache, pool = self._pool({}, n_lanes=4)
        pool.start()
        try:
            m = pool.membership
            assert m.quorum == 4 // 2 + 1
            assert len(m.peers) == 4
        finally:
            pool.stop()

    def test_backpressure_probe_shape(self):
        t = TenantState(_spec("a"))
        cache, pool = self._pool({"a": t})
        pool.start()
        try:
            per_pe, inflight, dispatched = pool.backpressure_probe()
            assert isinstance(per_pe, list)
            for label, depth, capacity in per_pe:
                assert label.startswith("lane-")
                assert depth >= 0
        finally:
            pool.stop()


# ---------------------------------------------------------------------------
# service core (transport-independent)
# ---------------------------------------------------------------------------


class TestPCAService:
    def test_ingest_and_query_codes(self):
        svc = _service(_spec("a"))
        svc.start()
        try:
            code, body = svc.ingest("nope", _rows(4).tolist())
            assert code == 404
            code, body = svc.ingest("a", {"bogus": True})
            assert code == 422
            code, body = svc.ingest("a", _rows(64).tolist())
            assert code == 202
            assert body["accepted_rows"] == 64

            # query before any snapshot exists on an unknown tenant
            code, body = svc.transform("nope", _rows(2).tolist())
            assert code == 404

            assert _wait(lambda: svc.cache.get("a") is not None)
            code, body = svc.transform("a", _rows(2).tolist())
            assert code == 200
            assert body["snapshot_version"] >= 1
            assert "snapshot_age_s" in body
            code, body = svc.outlier_score("a", _rows(2).tolist())
            assert code == 200
            code, body = svc.eigenspectra("a", top_k=2)
            assert code == 200
            assert len(body["spectra"]["eigenvalues"]) == 2
        finally:
            svc.stop()

    def test_query_409_before_first_snapshot(self):
        svc = _service(_spec("a"))
        svc.start()
        try:
            code, body = svc.transform("a", _rows(2).tolist())
            assert code == 409
            assert "snapshot" in body["error"]
        finally:
            svc.stop()

    def test_rate_limited_tenant_gets_429_with_retry_after(self):
        svc = _service(
            _spec("slow", max_rate_hz=64.0, burst_s=1.0)
        )
        svc.start()
        try:
            codes = []
            for _ in range(8):
                code, body = svc.ingest("slow", _rows(32).tolist())
                codes.append(code)
                if code == 429:
                    assert body["retry_after_s"] > 0
            assert 202 in codes and 429 in codes
            st = svc.tenant("slow")
            assert st.rows_shed > 0
            assert st.rows_accepted + st.rows_shed == 8 * 32
        finally:
            svc.stop()

    def test_queue_full_gets_429_shed_not_drop(self):
        svc = _service(_spec("tiny", queue_capacity_rows=64))
        svc.start()
        svc.pool.stop()  # freeze draining so the queue can actually fill
        try:
            codes = [
                svc.ingest("tiny", _rows(32).tolist())[0] for _ in range(4)
            ]
            assert codes.count(202) == 2
            assert codes.count(429) == 2
            st = svc.tenant("tiny")
            # shed-not-drop: everything admitted is still in the queue
            assert st.queue.depth_rows == st.rows_accepted == 64
            assert st.rows_rejected_full == 64
        finally:
            svc.stop()

    def test_ready_flips_on_lane_kill_and_recovers(self):
        svc = _service(_spec("a"), n_lanes=2)
        svc.start()
        try:
            code, _ = svc.ingest("a", _rows(64).tolist())
            assert code == 202
            assert _wait(lambda: svc.ready()[0] == 200)
            assert _wait(lambda: svc.cache.get("a") is not None)

            # Kill the lane that owns "a"; nothing calls the pool after.
            victim = zlib.crc32(b"a") % 2
            t_kill = time.perf_counter()
            with svc.pool._lock:
                svc.pool._lanes[victim].kill()
            assert _wait(lambda: svc.ready()[0] == 503)
            code, body = svc.ready()
            assert body["health_status"] == "CRITICAL"
            assert body["desired_lanes"] == 2
            # ingest during the outage is admitted and queued
            code, _ = svc.ingest("a", _rows(32).tolist())
            assert code == 202

            assert _wait(lambda: svc.ready()[0] == 200)
            assert time.perf_counter() - t_kill < 1.0
            # the replacement took the dead lane's slot
            assert sorted(svc.pool.live_lane_ids()) == [0, 1]
            assert svc.pool.stats.n_rejoins == 1
            st = svc.tenant("a")
            assert _wait(lambda: st.model.n_reseeds == 1)
            assert svc.pool.drain(10.0)
            assert st.model.rows_applied == 96
            assert st.rows_accepted == 96 and st.queue.depth_rows == 0
        finally:
            svc.stop()

    def test_status_and_metrics_exposed(self):
        svc = _service(_spec("a"))
        svc.start()
        try:
            svc.ingest("a", _rows(64).tolist())
            assert _wait(lambda: svc.cache.get("a") is not None)
            code, body = svc.status()
            assert code == 200
            assert "a" in body["tenants"]
            text = svc.telemetry.metrics.to_prometheus()
            assert "repro_serving_queue_depth" in text
            assert "repro_serving_live_lanes" in text
        finally:
            svc.stop()

    def test_auto_tenant_template(self):
        svc = PCAService(ServingConfig(
            n_lanes=1,
            auto_tenant_template=_spec("template"),
        ))
        svc.start()
        try:
            code, _ = svc.ingest("fresh", _rows(64).tolist())
            assert code == 202
            assert svc.tenant("fresh") is not None
        finally:
            svc.stop()


class TestEventBus:
    def test_publish_drain_and_overflow(self):
        bus = EventBus(max_queue=4)
        sid = bus.subscribe()
        for i in range(8):
            bus.publish({"i": i})
        got = bus.drain(sid)
        assert len(got) == 4
        assert got[-1]["i"] == 7  # oldest dropped, newest kept
        assert bus.n_dropped == 4
        bus.unsubscribe(sid)

    def test_waker_called_on_publish(self):
        bus = EventBus()
        woke = threading.Event()
        bus.subscribe(waker=woke.set)
        bus.publish({"k": 1})
        assert woke.is_set()


# ---------------------------------------------------------------------------
# HTTP/WS front end
# ---------------------------------------------------------------------------


@pytest.fixture
def server():
    svc = _service(_spec("a"), _spec("b"))
    srv = ServingServer(svc, port=0)
    srv.start()
    yield srv
    srv.stop()


class TestServingHTTP:
    def test_basic_routes(self, server):
        with ServingClient(server.host, server.port) as c:
            assert c.live().code == 200
            assert c.ready().code in (200, 503)
            r = c.ingest("a", _rows(64).tolist())
            assert r.code == 202
            assert _wait(lambda: c.snapshot("a").code == 200)
            meta = c.snapshot("a").body
            assert meta["snapshot_version"] >= 1
            r = c.transform("a", _rows(3).tolist())
            assert r.code == 200
            assert len(r.body["coefficients"]) == 3
            r = c.eigenspectra("a", top_k=2)
            assert r.code == 200
            assert len(r.body["spectra"]["eigenvalues"]) == 2
            assert "repro_serving_requests_total" in c.metrics_text()

    def test_json_errors(self, server):
        with ServingClient(server.host, server.port) as c:
            r = c.request("GET", "/v1/nope/snapshot")
            assert r.code == 404
            r = c.request("GET", "/v1/a/transform")  # GET on a POST route
            assert r.code == 405
            r = c.request("POST", "/v1/a/ingest", {"x": 1})
            assert r.code == 422

    def test_malformed_json_body_gets_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10.0
        )
        try:
            conn.request(
                "POST", "/v1/a/ingest", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert "error" in json.loads(resp.read())
        finally:
            conn.close()

    def test_binary_and_json_queries_agree(self, server):
        """The three query POSTs take the octet-stream body through the
        same parser as ingest: an ndarray and its list give one answer."""
        rows = _rows(5, seed=3)
        with ServingClient(server.host, server.port) as c:
            assert c.ingest("a", _rows(64)).code == 202
            assert _wait(lambda: c.snapshot("a").code == 200)
            version = c.snapshot("a").body["snapshot_version"]
            for call, key in (
                (c.transform, "coefficients"),
                (c.reconstruction_error, "reconstruction_error"),
                (c.outlier_score, "scores"),
            ):
                binary, text = call("a", rows), call("a", rows.tolist())
                assert binary.code == text.code == 200
                assert binary.body["snapshot_version"] == version
                assert binary.body[key] == text.body[key]

    def _post(self, server, path, body, ctype):
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10.0
        )
        try:
            headers = {} if ctype is None else {"Content-Type": ctype}
            conn.request("POST", path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_unknown_content_type_gets_415(self, server):
        body = json.dumps({"rows": _rows(2).tolist()}).encode()
        for op in ("ingest", "transform", "reconstruction_error",
                   "outlier_score"):
            code, doc = self._post(server, f"/v1/a/{op}", body, "text/csv")
            assert code == 415 and "text/csv" in doc["error"]
        # A parameter after the type, and no header at all, stay JSON.
        for ctype in ("application/json; charset=utf-8", None):
            code, _ = self._post(server, "/v1/a/ingest", body, ctype)
            assert code == 202
        assert server.service.tenant("a").rows_accepted == 4

    def test_malformed_block_body_gets_400_never_5xx(self, server):
        good = encode_block(_rows(4))
        payload = good[-4 * 8 * 8:]
        bodies = [
            b"",
            good[:10],
            good[:-8],                                       # truncated
            struct.pack("!I", len(good)) + good[4:],         # header_len
            _forged(_hdr(rows=5, dim=8, ts=0.0), payload),    # != len
            _forged(_hdr(rows=-4, dim=-8, ts=0.0), payload),  # rows < 0
            _forged(_hdr(rows=0, dim=0, ts=0.0)),             # dim <= 0
            _forged(b'{"rows":4,"dim":8,"\xff\xfe":0}', payload),
            _forged(_hdr(rows=2**62, dim=2**62, ts=0.0), payload),
        ]
        for op in ("ingest", "transform"):
            for body in bodies:
                code, doc = self._post(
                    server, f"/v1/a/{op}", body, "application/octet-stream"
                )
                assert code == 400, (op, body[:40], code, doc)
                assert "error" in doc
        st = server.service.tenant("a")
        assert st.rows_accepted == 0 and st.queue.depth_rows == 0

    def test_health_routes_follow_the_lanes(self, server):
        """The observability routes on the serving front end (what
        ``python -m repro serve`` answers): the rule engine's live
        verdict, 503 once the lanes are killed below quorum."""
        svc = server.service
        with ServingClient(server.host, server.port) as c:
            assert c.ingest("a", _rows(64)).code == 202
            r = c.request("GET", "/health")
            assert r.code == 200
            assert r.body["rules_wired"] and r.body["status"] != "CRITICAL"
            r = c.request("GET", "/health/model")
            assert r.code == 200
            monitors = {str(m.engine_id) for m in svc._live_monitors()}
            assert set(r.body["engines"]) == monitors and len(monitors) == 2
            one = c.request("GET", f"/health/model/{min(monitors)}")
            assert one.code == 200 and one.body["engine"] == min(monitors)
            r = c.request("GET", "/health/model/nope")
            assert r.code == 404 and r.body["known_engines"]

            victim = svc.pool.live_lane_ids()[0]
            with svc.pool._lock:
                svc.pool._lanes[victim].kill()
            seen = []
            assert _wait(lambda: (
                seen.append(c.request("GET", "/health"))
                or seen[-1].code == 503
            ))
            body = seen[-1].body
            assert body["status"] == "CRITICAL"
            assert "quorum-lost" in {f["rule"] for f in body["firing"]}
            assert c.live().code == 200  # liveness is not health

    def test_snapshot_409_then_200(self, server):
        with ServingClient(server.host, server.port) as c:
            assert c.transform("b", _rows(2).tolist()).code == 409
            c.ingest("b", _rows(64).tolist())
            assert _wait(
                lambda: c.transform("b", _rows(2).tolist()).code == 200
            )

    def test_websocket_event_push(self, server):
        with ServingClient(server.host, server.port) as c:
            with WebSocketClient(
                server.host, server.port, "a", timeout_s=10.0
            ) as ws:
                first = ws.recv_event()
                assert first["event"] == "subscribed"
                c.ingest("a", _rows(64).tolist())
                kinds = set()
                deadline = time.perf_counter() + 10.0
                while time.perf_counter() < deadline:
                    ev = ws.recv_event()
                    if ev is None:
                        break
                    kinds.add(ev["event"])
                    if "snapshot_published" in kinds:
                        break
                assert "snapshot_published" in kinds


# ---------------------------------------------------------------------------
# acceptance: the end-to-end contract from ISSUE.md
# ---------------------------------------------------------------------------


class TestServingEndToEnd:
    N_CLIENTS = 16
    DIM = 8

    def test_concurrent_clients_two_tenants_chaos(self):
        rng = np.random.default_rng(SEED)
        svc = _service(
            _spec("bulk", max_block_rows=128),
            _spec("throttled", max_rate_hz=600.0, burst_s=0.5),
            n_lanes=2,
        )
        srv = ServingServer(svc, port=0)
        srv.start()
        stop = threading.Event()
        errors: list[str] = []
        lock = threading.Lock()
        sent = {"bulk": 0, "throttled": 0}
        shed_seen = {"throttled": 0}
        queries_ok = [0]
        versions: dict[int, int] = {}

        def client_loop(cid: int) -> None:
            tenant = "bulk" if cid % 2 == 0 else "throttled"
            crng = np.random.default_rng(SEED + cid)
            try:
                with ServingClient(srv.host, srv.port) as c:
                    while not stop.is_set():
                        rows = _rows(16, self.DIM, seed=int(
                            crng.integers(0, 2**31)
                        ))
                        r = c.ingest(tenant, rows.tolist())
                        if r.code == 202:
                            with lock:
                                sent[tenant] += 16
                        elif r.code == 429:
                            with lock:
                                if tenant == "throttled":
                                    shed_seen[tenant] += 16
                            ra = r.retry_after_s
                            time.sleep(min(ra or 0.01, 0.02))
                        elif r.code >= 500:
                            with lock:
                                errors.append(f"{cid}: ingest {r.code}")
                            return
                        # interleave reads with writes on every pass
                        q = c.transform(tenant, rows[:2].tolist())
                        if q.code == 200:
                            v = q.body["snapshot_version"]
                            with lock:
                                queries_ok[0] += 1
                                # versions only ever move forward
                                if v < versions.get(cid, 0):
                                    errors.append(
                                        f"{cid}: version went backwards"
                                    )
                                versions[cid] = v
                        elif q.code not in (409,):
                            with lock:
                                errors.append(f"{cid}: query {q.code}")
                            return
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(f"{cid}: {exc!r}")

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(self.N_CLIENTS)
        ]
        try:
            for t in threads:
                t.start()
            time.sleep(1.5)

            # chaos: kill one lane mid-traffic, watch /ready flip and
            # recover with no caller action
            victim = int(rng.integers(0, 2))
            victims = svc.pool.tenants_for(victim)
            with ServingClient(srv.host, srv.port) as probe:
                with svc.pool._lock:
                    svc.pool._lanes[victim].kill()
                assert _wait(lambda: probe.ready().code == 503, 10.0)
                assert _wait(lambda: probe.ready().code == 200, 10.0)

            time.sleep(1.0)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)

        try:
            assert not errors, errors[:5]
            assert svc.pool.drain(30.0)
            # zero loss on admitted traffic, per tenant
            for name in ("bulk", "throttled"):
                st = svc.tenant(name)
                assert st.model.rows_applied == sent[name], (
                    name, st.model.rows_applied, sent[name]
                )
                assert st.rows_accepted == sent[name]
            # overload actually happened and was shed, not dropped
            assert shed_seen["throttled"] > 0
            assert svc.tenant("throttled").rows_shed >= shed_seen[
                "throttled"
            ]
            # reads really ran against published snapshots
            assert queries_ok[0] > 0
            assert svc.cache.stats()["n_hits"] > 0
            assert svc.pool.stats.n_evictions >= 1
            assert svc.pool.stats.n_rejoins >= 1
            assert all(st.model.n_reseeds >= 1 for st in victims)
        finally:
            srv.stop()

    def test_queries_never_take_the_model_lock(self):
        """Readers are served from the cache even while a writer holds
        the tenant model lock (the copy-on-publish contract)."""
        svc = _service(_spec("a"))
        svc.start()
        srv = ServingServer(svc, port=0)
        srv.start()
        try:
            with ServingClient(srv.host, srv.port) as c:
                c.ingest("a", _rows(64).tolist())
                assert _wait(
                    lambda: c.transform("a", _rows(2).tolist()).code == 200
                )
                st = svc.tenant("a")
                acquired = st.model.lock.acquire()
                assert acquired
                try:
                    t0 = time.perf_counter()
                    r = c.transform("a", _rows(2).tolist())
                    elapsed = time.perf_counter() - t0
                finally:
                    st.model.lock.release()
                assert r.code == 200
                # a lock-waiting reader would block until release; a
                # cache reader answers immediately
                assert elapsed < 1.0
        finally:
            srv.stop()


    def test_binary_and_json_ingest_build_the_same_model(self):
        """Same rows (NaN gaps included) through either wire format:
        identical accounting and bit-identical snapshots."""
        rows = _rows(320, seed=5)
        rows[::7, 3] = np.nan
        states = []
        for as_wire in (lambda b: b, lambda b: b.tolist()):
            svc = _service(_spec("a"), n_lanes=1)
            srv = ServingServer(svc, port=0).start()
            try:
                model = svc.tenant("a").model
                with ServingClient(srv.host, srv.port) as c:
                    for lo in range(0, len(rows), 32):
                        assert c.ingest(
                            "a", as_wire(rows[lo:lo + 32])
                        ).code == 202
                        # One block per update on both sides: how the
                        # lane coalesces must not be what differs.
                        assert _wait(
                            lambda: model.rows_applied == lo + 32
                        )
                assert _wait(lambda: model.n_publishes == 10)
                snap = svc.cache.peek("a")
                states.append((
                    model.rows_applied, snap.version, snap.rows_applied,
                    snap.state.basis.tobytes(),
                    snap.state.eigenvalues.tobytes(),
                    snap.state.mean.tobytes(),
                ))
            finally:
                srv.stop()
        assert states[0][:3] == (320, 10, 320)
        assert states[0] == states[1]

    def test_ack_pacing_with_the_lane_stalled(self, monkeypatch):
        """With the model lock held the lane cannot drain: ingest acks
        are withheld once the queue is more than one lane block deep,
        queries on another connection are not, a caught-up lane releases
        the ack at once, an expired hold falls through to the unchanged
        429 admission, and no admitted row is lost."""
        block = _rows(16)
        svc = _service(
            _spec("a", max_block_rows=32, queue_capacity_rows=128),
            n_lanes=1,
        )
        srv = ServingServer(svc, port=0).start()
        st = svc.tenant("a")
        writer = ServingClient(srv.host, srv.port)
        reader = ServingClient(srv.host, srv.port)
        acked = 0
        try:
            assert writer.ingest("a", _rows(64)).code == 202
            acked += 64
            assert _wait(lambda: reader.transform("a", block).code == 200)
            assert _wait(lambda: st.model.rows_applied == 64)

            monkeypatch.setattr(serving_http, "ACK_HOLD_MAX_S", 30.0)
            st.model.lock.acquire()
            try:
                # Up to and including the threshold acks are immediate:
                # the lane takes one block and stalls on the lock (wait
                # until it holds it — a lane that had not popped yet
                # would coalesce the first two blocks), the next three
                # leave 48 > 32 rows queued.
                t0 = time.perf_counter()
                assert writer.ingest("a", block).code == 202
                acked += 16
                assert _wait(
                    lambda: st.queue.rows_popped == acked
                    and st.queue.depth_rows == 0
                )
                for _ in range(3):
                    assert writer.ingest("a", block).code == 202
                    acked += 16
                assert time.perf_counter() - t0 < 5.0
                assert st.queue.depth_rows == 48
                assert st.ack_holds == 0

                held: list = []
                thread = threading.Thread(
                    target=lambda: held.append(writer.ingest("a", block))
                )
                thread.start()
                thread.join(0.3)
                assert thread.is_alive() and not held  # ack withheld
                assert st.queue.depth_rows == 48       # and not routed
                t0 = time.perf_counter()
                assert reader.transform("a", block).code == 200
                assert reader.snapshot("a").code == 200
                assert time.perf_counter() - t0 < 1.0
                assert thread.is_alive()
            finally:
                st.model.lock.release()
            thread.join(10.0)  # far inside the 30 s bound: lane caught up
            assert not thread.is_alive()
            assert held[0].code == 202
            acked += 16
            assert st.ack_holds == 1 and 0.3 <= st.ack_hold_s < 10.0
            assert svc.pool.drain(10)
            assert st.model.rows_applied == acked

            # An expired hold is not a refusal: the request goes through
            # the usual admission, which still says 429 at capacity.
            monkeypatch.setattr(serving_http, "ACK_HOLD_MAX_S", 0.05)
            st.model.lock.acquire()
            try:
                codes = []
                for _ in range(12):
                    t0 = time.perf_counter()
                    reply = writer.ingest("a", block)
                    codes.append(reply.code)
                    if reply.code == 429:
                        break
                    acked += 16
                assert codes[-1] == 429, codes
                assert reply.body["reason"] == "queue_full"
                assert reply.retry_after_s is not None
                assert 0.05 <= time.perf_counter() - t0 < 5.0
                assert set(codes[:-1]) == {202}
                assert st.queue.depth_rows + 16 > 128
                assert st.rows_rejected_full == 16
                assert reader.transform("a", block).code == 200
            finally:
                st.model.lock.release()
            assert svc.pool.drain(10)
            assert st.model.rows_applied == acked
            stats = st.stats()
            assert stats["rows_accepted"] == acked == (
                stats["rows_applied"] + stats["queue_depth_rows"]
                + stats["pending_rows"]
            )
            assert stats["ack_holds"] == st.ack_holds > 1
            text = reader.metrics_text()
            assert (
                f'repro_serving_ack_holds_total{{tenant="a"}} '
                f"{st.ack_holds}" in text
            )
            assert (
                f"repro_serving_ack_hold_seconds_count {st.ack_holds}"
                in text
            )
            tenant_status = reader.status().body["tenants"]["a"]
            assert tenant_status["ack_holds"] == st.ack_holds
        finally:
            writer.close()
            reader.close()
            srv.stop()


# ---------------------------------------------------------------------------
# smoke entrypoint (short run of the CI job's driver)
# ---------------------------------------------------------------------------


class TestSmokeDriver:
    def test_run_smoke_short(self, tmp_path):
        from repro.serving.smoke import run_smoke

        out = tmp_path / "telemetry.jsonl"
        report = run_smoke(
            n_clients=6,
            duration_s=2.0,
            seed=SEED,
            dim=8,
            block_rows=16,
            n_lanes=2,
            overload=True,
            telemetry_out=str(out),
            verbose=False,
        )
        assert report["ok"] is True
        assert report["failures"] == []
        assert out.exists()
        lines = [json.loads(l) for l in out.read_text().splitlines() if l]
        assert lines
