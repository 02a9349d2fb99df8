"""Tests for the serving durability plane (``repro.serving.durability``).

Bottom-up: WAL record framing and the segmented log, the torn-write /
bit-flip fuzz suite (recovery must always yield a *prefix* of acked
records and never crash or replay garbage), the hardened checkpoint
stores, client retry discipline, in-process service recovery with
``/ready`` gating — and the end-to-end acceptance test: a real
subprocess SIGKILLed mid-ingest under ``--durability fsync`` restarts
with zero acked-row loss, monotone snapshot versions, and a recovered
basis that answers like an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.robust import RobustIncrementalPCA
from repro.io import (
    CheckpointStore,
    load_eigensystem,
    load_eigensystem_extras,
    save_eigensystem,
)
from repro.serving import (
    DurabilityPlane,
    PCAService,
    RecoveryManager,
    ServingClient,
    ServingConfig,
    TenantSpec,
    WalError,
    WriteAheadLog,
)
from repro.serving.codec import BlockCodecError, decode_block
from repro.serving.durability import _encode_record


def _blocks(n, rows=6, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(rows, dim)) for _ in range(n)]


def _state(n_seen=100, dim=8, k=3, seed=1):
    est = RobustIncrementalPCA(k)
    est.update_block(np.random.default_rng(seed).normal(size=(n_seen, dim)))
    return est.public_state()


# ---------------------------------------------------------------------------
# record framing


class TestWalFraming:
    def test_round_trip(self):
        block = np.arange(12.0).reshape(3, 4)
        data = _encode_record(7, block, 123.5)
        got, ts = decode_block(data[24:])  # past the 24-byte head
        assert np.array_equal(got, block)
        assert ts == 123.5

    def test_rejects_non_2d(self):
        with pytest.raises(WalError):
            _encode_record(0, np.zeros(5), 0.0)

    def test_decode_rejects_garbage(self):
        with pytest.raises(BlockCodecError):
            decode_block(b"\x00\x00\x00\x04abcdxyz")
        with pytest.raises(BlockCodecError):
            decode_block(b"\xff\xff\xff\xff")

    def test_decode_rejects_shape_mismatch(self):
        data = _encode_record(0, np.zeros((2, 3)), 0.0)
        body = bytearray(data[24:])
        # Claim more rows than the payload holds.
        hdr = json.dumps({"rows": 9, "dim": 3, "ts": 0.0}).encode()
        forged = (
            len(hdr).to_bytes(4, "big") + hdr + bytes(body[-48:])
        )
        with pytest.raises(BlockCodecError):
            decode_block(forged)


# ---------------------------------------------------------------------------
# the segmented log


class TestWriteAheadLog:
    def test_append_assigns_monotone_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert [wal.append(b) for b in _blocks(5)] == [0, 1, 2, 3, 4]
        assert wal.next_seq == 5

    def test_replay_round_trips_blocks(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        blocks = _blocks(8)
        for b in blocks:
            wal.append(b)
        wal.close()
        recs = list(WriteAheadLog(tmp_path).replay())
        assert [r.seq for r in recs] == list(range(8))
        for r, b in zip(recs, blocks):
            assert np.array_equal(r.block, b)

    def test_replay_after_seq_filters(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for b in _blocks(6):
            wal.append(b)
        assert [r.seq for r in wal.replay(after_seq=3)] == [4, 5]
        assert wal.records_on_disk(3) == 2

    def test_bad_durability_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, durability="sync")

    def test_fsync_mode_counts_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "flat", durability="fsync")
        for b in _blocks(3):
            wal.append(b)
        assert wal.n_fsyncs == 3

        # Append, rotation and sync() all feed one count, and the
        # metric callback sees exactly what n_fsyncs says.
        counted = []
        wal = WriteAheadLog(
            tmp_path / "rotating", durability="fsync",
            segment_max_bytes=1024,
            on_metric=lambda name, n: counted.append(n)
            if name == "fsyncs" else None,
        )
        for b in _blocks(13):  # four records fill a segment
            wal.append(b)
        wal.sync()
        assert wal.n_rotations == 3
        assert wal.n_fsyncs == 13 + 3 + 1
        assert sum(counted) == wal.n_fsyncs
        assert wal.stats()["n_fsyncs"] == wal.n_fsyncs

    def test_rotation_creates_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_bytes=1024)
        for b in _blocks(12):
            wal.append(b)
        assert len(wal.segments()) > 1
        assert wal.n_rotations >= 1
        # All records survive across the segment boundary.
        assert [r.seq for r in wal.replay()] == list(range(12))

    def test_next_seq_resumes_across_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_bytes=1024)
        for b in _blocks(10):
            wal.append(b)
        wal.close()
        wal2 = WriteAheadLog(tmp_path, segment_max_bytes=1024)
        assert wal2.next_seq == 10
        assert wal2.append(np.zeros((2, 5))) == 10

    def test_truncate_upto_removes_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_bytes=1024)
        for b in _blocks(20):
            wal.append(b)
        segs = wal.segments()
        assert len(segs) >= 3
        # A checkpoint covering the first two segments exactly.
        assert wal.truncate_upto(segs[2][0] - 1) == 2
        assert wal.segments()[0][0] == segs[2][0]
        # Remaining records still replay cleanly and chain.
        assert [r.seq for r in wal.replay()] == list(
            range(segs[2][0], 20)
        )

    def test_truncate_upto_keeps_uncovered(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_bytes=1024)
        for b in _blocks(20):
            wal.append(b)
        wal.truncate_upto(wal.segments()[1][0] - 1)  # cover segment 0 only
        assert wal.segments()[0][0] >= 1
        assert wal.records_on_disk(-1) == 20 - wal.segments()[0][0]

    def test_torn_tail_truncated_on_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for b in _blocks(5):
            wal.append(b)
        wal.close()
        seg = wal.segments()[-1][1]
        seg.write_bytes(seg.read_bytes()[:-7])  # tear the last record
        wal2 = WriteAheadLog(tmp_path)
        assert wal2.n_torn_records == 1
        assert wal2.next_seq == 4
        assert [r.seq for r in wal2.replay()] == [0, 1, 2, 3]
        # The torn bytes are physically gone: a fresh append chains.
        assert wal2.append(np.zeros((1, 5))) == 4
        assert [r.seq for r in wal2.replay()] == [0, 1, 2, 3, 4]

    def test_stats_surface(self, tmp_path):
        wal = WriteAheadLog(tmp_path, durability="async")
        for b in _blocks(4):
            wal.append(b)
        s = wal.stats()
        assert s["n_appends"] == 4
        assert s["durability"] == "async"
        assert s["next_seq"] == 4
        assert s["size_bytes"] > 0


# ---------------------------------------------------------------------------
# torn-write / bit-flip fuzz: recovery always yields a prefix, never crashes


class TestWalTornWriteFuzz:
    def _committed(self, tmp_path, n=10, segment_max_bytes=1024):
        wal = WriteAheadLog(tmp_path, segment_max_bytes=segment_max_bytes)
        blocks = _blocks(n, rows=4, dim=6, seed=3)
        for b in blocks:
            wal.append(b)
        wal.close()
        return wal, blocks

    def _assert_prefix(self, tmp_path, blocks):
        """Replay must be a (possibly empty) prefix of the acked records
        with bit-exact payloads — never an exception, never garbage."""
        recs = list(WriteAheadLog(tmp_path).replay())
        assert [r.seq for r in recs] == list(range(len(recs)))
        assert len(recs) <= len(blocks)
        for r, b in zip(recs, blocks):
            assert np.array_equal(r.block, b)
        return len(recs)

    def test_truncation_at_every_record_boundary(self, tmp_path):
        wal, blocks = self._committed(tmp_path)
        # Record the byte boundaries of every record in every segment.
        layouts = []
        for first_seq, path in wal.segments():
            ends = [end for _r, end in wal._scan_segment(path, first_seq)]
            layouts.append((path, path.read_bytes(), ends))
        for path, data, ends in layouts:
            for end in [0] + ends:
                path.write_bytes(data[:end])
                self._assert_prefix(tmp_path, blocks)
            path.write_bytes(data)  # restore for the next segment's turn

    def test_truncation_at_random_offsets(self, tmp_path):
        wal, blocks = self._committed(tmp_path)
        rng = np.random.default_rng(7)
        originals = {p: p.read_bytes() for _s, p in wal.segments()}
        for path, data in originals.items():
            for cut in rng.integers(0, len(data), size=12):
                path.write_bytes(data[: int(cut)])
                self._assert_prefix(tmp_path, blocks)
            path.write_bytes(data)

    def test_bit_flips_never_crash_or_forge(self, tmp_path):
        wal, blocks = self._committed(tmp_path)
        rng = np.random.default_rng(11)
        originals = {p: p.read_bytes() for _s, p in wal.segments()}
        for path, data in originals.items():
            for _ in range(30):
                corrupt = bytearray(data)
                pos = int(rng.integers(0, len(data)))
                corrupt[pos] ^= 1 << int(rng.integers(0, 8))
                path.write_bytes(bytes(corrupt))
                self._assert_prefix(tmp_path, blocks)
            path.write_bytes(data)

    def test_flipped_seq_field_detected(self, tmp_path):
        """The CRC covers only the body — a flipped header seq must be
        caught by the segment's seq chain, not replayed under a wrong
        sequence number."""
        wal, blocks = self._committed(tmp_path, n=4,
                                      segment_max_bytes=1 << 20)
        path = wal.segments()[0][1]
        data = bytearray(path.read_bytes())
        ends = [0] + [
            end for _r, end in wal._scan_segment(path, 0)
        ]
        # Flip the low bit of record 2's seq (bytes 8..16 of its head).
        data[ends[2] + 15] ^= 1
        path.write_bytes(bytes(data))
        assert self._assert_prefix(tmp_path, blocks) == 2

    def test_corrupt_earlier_segment_stops_later_ones(self, tmp_path):
        wal, blocks = self._committed(tmp_path)
        segs = wal.segments()
        assert len(segs) >= 2
        first_path = segs[0][1]
        data = first_path.read_bytes()
        first_path.write_bytes(data[: len(data) // 2])
        n = self._assert_prefix(tmp_path, blocks)
        # Nothing from the second segment may be replayed over the gap.
        assert n < segs[1][0]


# ---------------------------------------------------------------------------
# checkpoint stores


class TestTenantCheckpointStore:
    """``io.CheckpointStore`` as the durability plane drives it: keyed
    by snapshot version, accounting in ``extras``."""

    def test_save_load_extras_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = _state()
        extras = {
            "tenant": "t0", "snapshot_version": 5, "rows_applied": 100,
            "blocks_applied": 9, "wal_seq": 42, "outlier_t": 9.0,
            "published_unix": 1.0,
        }
        path = store.save(state, key=5, extras=extras)
        assert path.name == "eigensystem-000000000005.npz"
        loaded = store.load_latest(with_extras=True)
        assert loaded is not None
        got_state, got_extras = loaded
        assert got_extras["wal_seq"] == 42
        assert got_extras["snapshot_version"] == 5
        np.testing.assert_allclose(got_state.basis, state.basis)
        # Without the flag the eigensystem alone comes back.
        np.testing.assert_allclose(store.load_latest().basis, state.basis)
        assert store.age_s() < 60.0

    def test_keep_last_gc(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for v in range(6):
            store.save(_state(), key=v, extras={"snapshot_version": v})
        assert [v for v, _p in store.list()] == [4, 5]

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save(_state(seed=1), key=1, extras={"wal_seq": 7})
        store.save(_state(seed=2), key=2, extras={"wal_seq": 9})
        newest = store.list()[-1][1]
        newest.write_bytes(b"not an npz")
        loaded = store.load_latest(with_extras=True)
        assert loaded is not None
        assert loaded[1]["wal_seq"] == 7

    def test_empty_store(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load_latest(with_extras=True) is None
        assert store.age_s() is None

    def test_older_ckpt_file_name_is_read_and_collected(self, tmp_path):
        """Tenant stores once wrote ``ckpt-<version>.npz``: such files
        are listed, loaded and garbage-collected with the rest."""
        save_eigensystem(
            tmp_path / "ckpt-000000000005.npz", _state(seed=1),
            extras={"snapshot_version": 5, "wal_seq": 4},
        )
        store = CheckpointStore(tmp_path, keep=2)
        assert [v for v, _p in store.list()] == [5]
        assert store.load_latest(with_extras=True)[1]["wal_seq"] == 4
        assert store.age_s() is not None
        for v in (6, 7):
            store.save(_state(seed=v), key=v, extras={"wal_seq": v})
        assert [p.name for _v, p in store.list()] == [
            "eigensystem-000000000006.npz", "eigensystem-000000000007.npz",
        ]


class TestCheckpointStoreHardening:
    """Satellite: io.CheckpointStore fsync + keep_last GC + extras."""

    def test_gc_retention(self, tmp_path):
        store = CheckpointStore(tmp_path, every=1)
        for n in (10, 20, 30, 40, 50):
            st = _state()
            st.n_seen = n
            store.save(st)
        assert store.gc(keep_last=2) == 3
        assert [n for n, _p in store.list()] == [40, 50]
        # load_latest still works after GC.
        assert store.load_latest().n_seen == 50

    def test_gc_validates(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path).gc(0)

    def test_keep_option_prunes_via_gc(self, tmp_path):
        store = CheckpointStore(tmp_path, every=1, keep=1)
        for n in (10, 20):
            st = _state()
            st.n_seen = n
            store.save(st)
        assert [n for n, _p in store.list()] == [20]

    def test_fsync_save_round_trips(self, tmp_path):
        store = CheckpointStore(tmp_path, every=1, fsync=True)
        st = _state()
        path = store.save(st)
        assert load_eigensystem(path).n_seen == st.n_seen

    def test_save_eigensystem_extras(self, tmp_path):
        st = _state()
        p = tmp_path / "x.npz"
        save_eigensystem(p, st, extras={"a": 1, "b": [2, 3]}, fsync=True)
        got, extras = load_eigensystem_extras(p)
        assert extras == {"a": 1, "b": [2, 3]}
        np.testing.assert_allclose(got.mean, st.mean)

    def test_extras_absent_is_empty_dict(self, tmp_path):
        st = _state()
        p = tmp_path / "x.npz"
        save_eigensystem(p, st)
        _got, extras = load_eigensystem_extras(p)
        assert extras == {}


# ---------------------------------------------------------------------------
# client retry discipline


class _StubHTTP(threading.Thread):
    """Scripted HTTP server: each entry in ``script`` handles one
    connection — 'close' drops it immediately, 'close_after_read' reads
    the request then drops, else it's a canned (code, headers, body)."""

    def __init__(self, script):
        super().__init__(daemon=True)
        import socket

        self.script = list(script)
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.n_conns = 0

    def run(self):
        import socket as _socket

        while self.script:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.n_conns += 1
            action = self.script.pop(0)
            try:
                if action == "close":
                    conn.close()
                    continue
                conn.settimeout(5.0)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(4096)
                head = data.split(b"\r\n\r\n", 1)[0].decode()
                clen = 0
                for line in head.split("\r\n"):
                    if line.lower().startswith("content-length:"):
                        clen = int(line.split(":", 1)[1])
                body_got = data.split(b"\r\n\r\n", 1)[1]
                while len(body_got) < clen:
                    body_got += conn.recv(4096)
                if action == "close_after_read":
                    conn.close()
                    continue
                code, headers, body = action
                payload = json.dumps(body).encode()
                lines = [f"HTTP/1.1 {code} X"]
                lines += [f"{k}: {v}" for k, v in headers.items()]
                lines += [
                    "Content-Type: application/json",
                    f"Content-Length: {len(payload)}",
                    "Connection: close", "", "",
                ]
                conn.sendall("\r\n".join(lines).encode() + payload)
                conn.close()
            except (_socket.timeout, OSError):
                conn.close()

    def stop(self):
        self.sock.close()


@pytest.mark.usefixtures("fast_backoff")
class TestClientRetry:
    def _client(self, port, **kw):
        kw.setdefault("timeout_s", 5.0)
        return ServingClient("127.0.0.1", port, **kw)

    def test_idempotent_get_retried_on_reset(self):
        srv = _StubHTTP(["close", "close", (200, {}, {"live": True})])
        srv.start()
        c = self._client(srv.port, max_retries=3)
        reply = c.request("GET", "/live")
        assert reply.code == 200
        assert c.n_retries == 2
        srv.stop()

    def test_budget_bounds_retries(self):
        srv = _StubHTTP(["close"] * 10)
        srv.start()
        c = self._client(srv.port, max_retries=2)
        with pytest.raises(OSError):
            c.request("GET", "/live")
        assert c.n_retries == 2
        srv.stop()

    def test_non_idempotent_not_retried_after_send(self):
        srv = _StubHTTP(["close_after_read", (200, {}, {})])
        srv.start()
        c = self._client(srv.port, max_retries=3)
        with pytest.raises(OSError):
            c.request("POST", "/v1/t/ingest", {"rows": [[1.0]]},
                      idempotent=False)
        # The budget was never spent re-sending a possibly-applied write.
        assert c.n_retries == 0
        srv.stop()

    def test_retry_429_honors_retry_after(self):
        srv = _StubHTTP([
            (429, {"Retry-After": "0.02"},
             {"error": "shedding", "retry_after_s": 0.02}),
            (202, {}, {"accepted_rows": 1}),
        ])
        srv.start()
        c = self._client(srv.port, max_retries=3, retry_429=True)
        t0 = time.monotonic()
        reply = c.request("POST", "/v1/t/ingest", {"rows": [[1.0]]},
                          idempotent=False)
        assert reply.code == 202
        assert time.monotonic() - t0 >= 0.02
        assert c.n_retries == 1
        srv.stop()

    def test_429_surfaces_by_default(self):
        srv = _StubHTTP([
            (429, {"Retry-After": "0.01"}, {"error": "shedding"}),
        ])
        srv.start()
        c = self._client(srv.port)
        reply = c.request("POST", "/v1/t/ingest", {"rows": [[1.0]]},
                          idempotent=False)
        assert reply.code == 429
        assert c.n_retries == 0
        srv.stop()

    def test_retry_counter_lands_in_telemetry(self):
        from repro.streams.telemetry import Telemetry, TelemetryConfig

        tel = Telemetry(TelemetryConfig(metrics=True))
        srv = _StubHTTP(["close", (200, {}, {"live": True})])
        srv.start()
        c = self._client(srv.port, max_retries=2, telemetry=tel)
        assert c.request("GET", "/live").code == 200
        assert tel.metrics.value(
            "repro_client_retries_total", kind="reconnect"
        ) == 1
        srv.stop()


# ---------------------------------------------------------------------------
# service-level durability (in-process)


def _cfg(tmp_path, **kw):
    kw.setdefault("n_lanes", 1)
    kw.setdefault("data_dir", str(tmp_path / "data"))
    kw.setdefault("durability", "fsync")
    kw.setdefault("checkpoint_every_publishes", 2)
    kw.setdefault("checkpoint_interval_s", 0.05)
    return ServingConfig(**kw)


def _spec(name="t0", **kw):
    kw.setdefault("n_components", 3)
    kw.setdefault("init_size", 10)
    kw.setdefault("publish_every_blocks", 1)
    return TenantSpec(name, **kw)


def _ingest_n(svc, tenant, n_blocks, rows=16, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(n_blocks):
        code, payload = svc.ingest(tenant, rng.normal(size=(rows, dim)))
        assert code == 202, (code, payload)
        total += rows
    return total


class TestServiceDurability:
    def test_ack_carries_wal_seq_and_mode(self, tmp_path):
        svc = PCAService(_cfg(tmp_path))
        svc.add_tenant(_spec())
        svc.start()
        svc.durability.recovery.wait(5)
        try:
            code, payload = svc.ingest(
                "t0", np.random.default_rng(0).normal(size=(4, 8))
            )
            assert code == 202
            assert payload["wal_seq"] == 0
            assert payload["durability"] == "fsync"
        finally:
            svc.stop()

    def test_spec_persisted_and_wal_grows(self, tmp_path):
        svc = PCAService(_cfg(tmp_path))
        svc.add_tenant(_spec())
        svc.start()
        svc.durability.recovery.wait(5)
        try:
            _ingest_n(svc, "t0", 4)
            root = svc.durability.tenant_dir("t0")
            assert (root / "spec.json").is_file()
            assert svc.durability.wal_for("t0").n_appends == 4
        finally:
            svc.stop()

    def test_checkpointer_truncates_covered_wal(self, tmp_path):
        cfg = _cfg(tmp_path, wal_segment_bytes=2048)
        svc = PCAService(cfg)
        svc.add_tenant(_spec())
        svc.start()
        svc.durability.recovery.wait(5)
        try:
            _ingest_n(svc, "t0", 30)
            assert svc.pool.drain(10)
            deadline = time.monotonic() + 5
            wal = svc.durability.wal_for("t0")
            while time.monotonic() < deadline:
                if (svc.durability.checkpointer.n_checkpoints
                        and wal.n_truncated_segments):
                    break
                time.sleep(0.05)
            assert svc.durability.checkpointer.n_checkpoints >= 1
            assert wal.n_truncated_segments >= 1
        finally:
            svc.stop()

    def test_clean_restart_recovers_everything(self, tmp_path):
        cfg = _cfg(tmp_path)
        svc = PCAService(cfg)
        svc.add_tenant(_spec())
        svc.start()
        svc.durability.recovery.wait(5)
        total = _ingest_n(svc, "t0", 20)
        assert svc.pool.drain(10)
        v1 = svc.cache.version("t0")
        svc.stop()

        svc2 = PCAService(_cfg(tmp_path))
        svc2.start()
        assert svc2.durability.recovery.wait(10)
        try:
            st = svc2.tenant("t0")
            assert st is not None
            assert st.model.rows_applied >= total
            assert svc2.cache.version("t0") >= v1
            code, _ = svc2.transform(
                "t0", np.random.default_rng(1).normal(size=(2, 8))
            )
            assert code == 200
        finally:
            svc2.stop()

    def test_hard_crash_replays_wal_tail(self, tmp_path):
        """No checkpoint at all (cadence too slow to fire): recovery
        must rebuild the whole model from the WAL alone."""
        cfg = _cfg(tmp_path, checkpoint_every_publishes=10_000,
                   checkpoint_interval_s=60.0)
        svc = PCAService(cfg)
        svc.add_tenant(_spec())
        svc.start()
        svc.durability.recovery.wait(5)
        total = _ingest_n(svc, "t0", 15)
        assert svc.pool.drain(10)
        # Simulate SIGKILL: abandon the service without stop() — no
        # final publish, no checkpoint flush, WAL unsynced buffers are
        # all fsync-acked already.
        svc.pool.stop()
        svc._started = False

        svc2 = PCAService(_cfg(tmp_path))
        svc2.start()
        assert svc2.durability.recovery.wait(10)
        try:
            prog = svc2.durability.recovery.progress()["tenants"]["t0"]
            assert prog["checkpoint_version"] == 0
            assert prog["rows_replayed"] == total
            assert svc2.tenant("t0").model.rows_applied == total
        finally:
            svc2.stop()

    def test_ready_gates_on_recovery_with_progress(self, tmp_path):
        # Seed a data dir with a tenant and a WAL tail.
        svc = PCAService(_cfg(tmp_path, checkpoint_every_publishes=10_000,
                              checkpoint_interval_s=60.0))
        svc.add_tenant(_spec())
        svc.start()
        svc.durability.recovery.wait(5)
        _ingest_n(svc, "t0", 10)
        assert svc.pool.drain(10)
        svc.pool.stop()
        svc._started = False

        # Second service: drive recovery by hand with a throttle so the
        # 503 window is observable.
        cfg2 = ServingConfig(n_lanes=1)
        svc2 = PCAService(cfg2)
        svc2.start()
        plane = DurabilityPlane(
            str(tmp_path / "data"), durability="fsync")
        svc2.durability = plane
        rec = RecoveryManager(plane, svc2)
        rec.throttle_s = 0.05
        plane.recovery = rec
        rec.start()
        try:
            saw_503 = False
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not rec.done.is_set():
                code, payload = svc2.ready()
                if code == 503 and payload.get("recovering"):
                    assert "recovery" in payload
                    assert payload["retry_after_s"] > 0
                    saw_503 = True
                    # Ingest is refused while replaying.
                    icode, ipayload = svc2.ingest(
                        "t0", np.zeros((1, 8))
                    )
                    assert icode == 503
                    assert ipayload["reason"] == "recovering"
                    break
                time.sleep(0.01)
            assert saw_503, "recovery window was never observable"
            assert rec.done.wait(10)
            code, payload = svc2.ready()
            assert code == 200
            assert payload["recovering"] is False
        finally:
            plane.stop()
            svc2.stop()

    def test_ready_not_judged_on_the_replayed_tail(self, tmp_path):
        """A WAL tail that ends on a residual excursion pages the live
        service (rightly, and the next window could clear it).  Replayed
        after a restart, the same tail must not leave ``/ready`` at 503:
        no traffic is arriving to move the chart off its last verdict,
        so a restart would otherwise never become ready."""
        def cfg():
            return _cfg(tmp_path, checkpoint_every_publishes=10_000,
                        checkpoint_interval_s=60.0)

        svc = PCAService(cfg())
        svc.add_tenant(_spec(health_check_every=64))
        svc.start()
        svc.durability.recovery.wait(5)
        rng = np.random.default_rng(0)
        plant = rng.normal(size=(3, 8))
        for noise, n_blocks in ((0.05, 40), (1.0, 8)):
            for _ in range(n_blocks):
                block = (rng.normal(size=(16, 3)) @ plant
                         + noise * rng.normal(size=(16, 8)))
                assert svc.ingest("t0", block)[0] == 202
        assert svc.pool.drain(10)
        code, body = svc.ready()
        assert code == 503
        assert [f["rule"] for f in body["firing"]] == ["r2-above-page-band"]
        svc.pool.stop()  # SIGKILL stand-in: no stop(), no checkpoint
        svc._started = False

        svc2 = PCAService(cfg())
        svc2.start()
        assert svc2.durability.recovery.wait(10)
        try:
            code, body = svc2.ready()
            assert code == 200, body
            assert body["recovering"] is False
            model = svc2.tenant("t0").model
            assert model.rows_applied == 48 * 16
            assert model.monitor.n_reseeds == 1  # anchored on the result
        finally:
            svc2.stop()

    def test_status_and_metrics_expose_durability(self, tmp_path):
        svc = PCAService(_cfg(tmp_path))
        svc.add_tenant(_spec())
        svc.start()
        svc.durability.recovery.wait(5)
        try:
            _ingest_n(svc, "t0", 6)
            assert svc.pool.drain(10)
            time.sleep(0.3)
            _code, status = svc.status()
            dur = status["durability"]
            assert dur["durability"] == "fsync"
            assert dur["recovery"]["done"] is True
            assert "t0" in dur["tenants"]
            assert dur["tenants"]["t0"]["wal"]["n_appends"] == 6
            text = svc.telemetry.metrics.to_prometheus()
            assert "repro_wal_appends_total" in text
            assert "repro_checkpoint_age_seconds" in text
            assert "repro_recovery_duration_seconds" in text
        finally:
            svc.stop()

    def test_wal_error_fails_request_not_silent(self, tmp_path):
        svc = PCAService(_cfg(tmp_path))
        svc.add_tenant(_spec())
        svc.start()
        svc.durability.recovery.wait(5)
        try:
            def boom(tenant, block):
                raise OSError("disk full")

            svc.durability.append = boom
            code, payload = svc.ingest("t0", np.zeros((2, 8)))
            assert code == 503
            assert payload["reason"] == "wal_error"
            st = svc.tenant("t0")
            assert st.rows_accepted == 0
        finally:
            svc.stop()

    def test_no_data_dir_means_no_plane(self, tmp_path):
        svc = PCAService(ServingConfig(n_lanes=1))
        svc.add_tenant(_spec())
        svc.start()
        try:
            code, payload = svc.ingest("t0", np.zeros((2, 8)))
            assert code == 202
            assert "wal_seq" not in payload
            assert svc.status()[1]["durability"] is None
        finally:
            svc.stop()


class TestOlderDataDirLayout:
    """A data dir as older commits wrote it: ``spec.json`` carrying the
    three parallel-chunk-mode keys and ``outlier_t``, a
    ``ckpt-<version>.npz`` checkpoint, and a WAL tail past it."""

    ROWS, DIM, N_BLOCKS, CKPT_BLOCKS = 16, 8, 8, 5

    def _write(self, data_dir, name="t0", **retired):
        tdir = data_dir / "tenants" / name
        (tdir / "ckpt").mkdir(parents=True)
        spec = {
            **_spec(name).__dict__,
            "n_engines": 1, "runtime": "synchronous",
            "parallel_chunk_rows": 0, "outlier_t": 9.0, **retired,
        }
        (tdir / "spec.json").write_text(json.dumps(spec))
        blocks = _blocks(self.N_BLOCKS, rows=self.ROWS, dim=self.DIM)
        wal = WriteAheadLog(tdir / "wal", durability="fsync")
        for block in blocks:
            wal.append(block)
        wal.close()
        est = RobustIncrementalPCA(3, init_size=10)
        for block in blocks[:self.CKPT_BLOCKS]:
            est.update_block(block)
        save_eigensystem(
            tdir / "ckpt" / f"ckpt-{self.CKPT_BLOCKS:012d}.npz",
            est.public_state(),
            extras={
                "tenant": name, "snapshot_version": self.CKPT_BLOCKS,
                "rows_applied": self.CKPT_BLOCKS * self.ROWS,
                "blocks_applied": self.CKPT_BLOCKS,
                "wal_seq": self.CKPT_BLOCKS - 1, "outlier_t": 9.0,
                "published_unix": time.time(),
            },
            fsync=True,
        )

    def test_recovers_rows_version_and_tenants(self, tmp_path):
        data_dir = tmp_path / "data"
        self._write(data_dir)
        svc = PCAService(_cfg(tmp_path))
        svc.start()
        assert svc.durability.recovery.wait(10)
        try:
            assert sorted(svc.get_tenants()) == ["t0"]
            prog = svc.durability.recovery.progress()["tenants"]["t0"]
            assert prog["checkpoint_version"] == self.CKPT_BLOCKS
            assert prog["wal_records_replayed"] == (
                self.N_BLOCKS - self.CKPT_BLOCKS
            )
            model = svc.tenant("t0").model
            assert model.rows_applied == self.N_BLOCKS * self.ROWS
            assert model.last_wal_seq == self.N_BLOCKS - 1
            assert svc.cache.version("t0") == self.N_BLOCKS
            # One block at a time: a lane that finds several blocks queued
            # coalesces them into one apply and one publish.
            total = self.N_BLOCKS * self.ROWS
            for seed in range(4):
                total += _ingest_n(svc, "t0", 1, seed=seed)
                assert svc.pool.drain(10)
        finally:
            svc.stop()
        # New checkpoints land beside the old file, under the one
        # store's own name, and a second restart reads those.
        names = {p.name for p in (
            data_dir / "tenants" / "t0" / "ckpt"
        ).iterdir()}
        assert any(n.startswith("eigensystem-") for n in names), names
        svc2 = PCAService(_cfg(tmp_path))
        svc2.start()
        assert svc2.durability.recovery.wait(10)
        try:
            assert svc2.tenant("t0").model.rows_applied == total
            assert svc2.cache.version("t0") >= self.N_BLOCKS + 4
        finally:
            svc2.stop()

    def test_chunk_mode_tenant_loads_as_a_plain_tenant(self, tmp_path):
        data_dir = tmp_path / "data"
        self._write(data_dir)
        self._write(
            data_dir, "wide", n_engines=4, runtime="threaded",
            parallel_chunk_rows=512,
        )
        plane = DurabilityPlane(data_dir)
        with pytest.warns(RuntimeWarning, match="wide.*n_engines"):
            specs = plane.load_specs()
        assert [s.name for s in specs] == ["t0", "wide"]
        assert specs[1] == _spec("wide")
        with pytest.raises(TypeError):
            TenantSpec("t", n_engines=2)


# ---------------------------------------------------------------------------
# the acceptance test: subprocess SIGKILL + restart, fsync, zero loss


class TestCrashRestartAcceptance:
    def test_sigkill_restart_zero_acked_loss(self, tmp_path):
        from repro.serving.crashtest import run_crash_restart

        report = run_crash_restart(
            data_dir=str(tmp_path / "crash"),
            durability="fsync",
            seed=4242,
            pre_kill_blocks=30,
            post_kill_blocks=6,
            out_dir=str(tmp_path / "out"),
        )
        assert report["ok"]
        for t, entry in report["tenants"].items():
            assert entry["recovered_rows"] >= entry["acked_rows"], t
            assert entry["recovered_version"] >= entry["pre_kill_version"]
            assert entry["affinity"] >= 0.98
        assert 0.0 < report["restart_to_ready_s"] < 60.0
        assert (tmp_path / "out" / "crash_report.json").is_file()
        assert (tmp_path / "out" / "crash-events.jsonl").is_file()
