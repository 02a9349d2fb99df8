"""The durability plane: WAL, crash-consistent checkpoints, recovery.

The serving layer's zero-loss accounting contract (``rows_accepted ==
rows_applied + queued``) held only while the process lived:
every tenant model was pure memory, so one ``kill -9`` discarded months
of accumulated eigenbasis.  This module makes an *acknowledged* ingest
durable:

* :class:`WriteAheadLog` — a per-tenant segmented append-only log of
  admitted blocks.  Records reuse the wireproto framing discipline
  (magic, length prefix, CRC32, raw float64 payload — no pickle) so a
  torn tail or a flipped bit is detected and truncated, never replayed
  into a model.  Three durability modes trade latency for the ack
  guarantee: ``none`` (buffered, lost on crash), ``async`` (written to
  the OS before ack — survives process death, not power loss),
  ``fsync`` (fsynced before ack — survives power loss).
* :class:`TenantCheckpointer` — rides the
  :class:`~.snapshots.EigenbasisCache` publish listeners and persists
  eigenbasis + accounting (``rows_applied``, ``snapshot_version``, last
  applied WAL ``seq``, ``outlier_t``) into one
  :class:`repro.io.checkpoint.CheckpointStore` per tenant, keyed by
  snapshot version (atomic replace + file/dir fsync + ``keep`` GC,
  corrupt-newest fallback on load).  A checkpoint *covers* every WAL
  record up to its ``wal_seq``, so covered segments are truncated.
* :class:`RecoveryManager` — on startup, loads the latest readable
  checkpoint per tenant, replays the WAL tail through the tenant
  model, truncates at the first torn/bad-CRC record instead of
  crashing, and republishes the recovered snapshot at its pre-crash
  version so snapshot versions stay monotone across the restart.
  ``/ready`` returns 503 with per-tenant replay progress until
  recovery completes.

:class:`DurabilityPlane` is the facade :class:`~.service.PCAService`
holds: one WAL + checkpoint store per tenant under ``data_dir``::

    data_dir/
      tenants/<name>/spec.json          # TenantSpec, for re-creation
      tenants/<name>/wal/seg-<seq>.wal  # segmented write-ahead log
      tenants/<name>/ckpt/eigensystem-<version>.npz
                                        # (the older ckpt-<version>.npz
                                        # name is still read)
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import struct
import threading
import time
import warnings
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from ..io.checkpoint import CheckpointStore, fsync_directory
from .codec import BlockCodecError, decode_block, encode_block

__all__ = [
    "DurabilityPlane",
    "RecoveryManager",
    "TenantCheckpointer",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "DURABILITY_MODES",
]

#: First bytes of every WAL record; a segment position that does not
#: start with this is a torn tail (or corruption) and ends replay.
WAL_MAGIC = b"RWL1"

#: ``magic | seq:u64 | body_len:u32 | crc32:u32`` — the fixed prefix of
#: every record, in wireproto's length-prefix discipline.
_REC_HEAD = struct.Struct("!8sQII")
# 8s: 4 magic bytes + 4 reserved (keeps the header 8-aligned and gives
# future record kinds a place to live without a format break).

#: Upper bound on one record body; a length prefix read from disk must
#: never size an allocation unchecked (same rule as wireproto frames).
MAX_RECORD_BYTES = 1 << 28  # 256 MiB

DURABILITY_MODES = ("none", "async", "fsync")

_SEG_RE = re.compile(r"^seg-(\d{12})\.wal$")


class WalError(ValueError):
    """A WAL record violates the on-disk protocol."""


@dataclass(frozen=True)
class WalRecord:
    """One replayed record: the admitted block and its sequence number."""

    seq: int
    block: np.ndarray
    ts: float = 0.0


def _encode_record(seq: int, block: np.ndarray, ts: float) -> bytes:
    """Frame one admitted block as a self-checking WAL record: the
    record head, then the shared block body of :mod:`.codec`."""
    if np.ndim(block) != 2:
        raise WalError(
            f"WAL blocks must be 2-D, got shape {np.shape(block)}"
        )
    body = encode_block(block, ts)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _REC_HEAD.pack(WAL_MAGIC + b"\x00" * 4, seq, len(body), crc) + body


class WriteAheadLog:
    """One tenant's segmented append-only log of admitted blocks.

    Single writer (the ingest path, serialized by the caller), replayed
    only at recovery.  Appends go to the *active* segment; rotation
    starts a new segment once the active one exceeds
    ``segment_max_bytes``, and :meth:`truncate_upto` deletes segments a
    checkpoint fully covers.

    The ack contract per durability mode — what an ``append`` return
    means the record survives:

    ========  =====================================================
    ``none``  nothing (buffered in-process; lost on any crash)
    ``async`` process death (written to the OS page cache)
    ``fsync`` power loss (fsynced to stable storage before return)
    ========  =====================================================
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        durability: str = "async",
        segment_max_bytes: int = 4 << 20,
        on_metric: Callable[[str, int], None] | None = None,
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        if segment_max_bytes < 1024:
            raise ValueError("segment_max_bytes must be >= 1024")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.durability = durability
        self.segment_max_bytes = int(segment_max_bytes)
        self._on_metric = on_metric
        self._lock = threading.Lock()
        self._fh: Any = None
        self._active: pathlib.Path | None = None
        self._active_bytes = 0
        self.n_appends = 0
        self.n_bytes = 0
        self.n_fsyncs = 0
        self.n_rotations = 0
        self.n_truncated_segments = 0
        self.n_torn_records = 0
        # Resume: the next seq continues after the last *valid* record
        # on disk, and a torn tail left by a crash is cut off now so
        # the first append after restart lands on a clean boundary.
        self.next_seq = self._recover_tail()

    # -- metrics ----------------------------------------------------------

    def _metric(self, name: str, n: int = 1) -> None:
        if self._on_metric is not None:
            try:
                self._on_metric(name, n)
            except Exception:
                pass

    # -- segment bookkeeping ----------------------------------------------

    def segments(self) -> list[tuple[int, pathlib.Path]]:
        """All segments as ``(first_seq, path)``, ascending."""
        out = []
        for path in self.directory.iterdir():
            m = _SEG_RE.match(path.name)
            if m:
                out.append((int(m.group(1)), path))
        return sorted(out)

    def _seg_path(self, first_seq: int) -> pathlib.Path:
        return self.directory / f"seg-{first_seq:012d}.wal"

    def size_bytes(self) -> int:
        total = 0
        for _seq, path in self.segments():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _recover_tail(self) -> int:
        """Scan the newest segment; truncate torn bytes; return next seq."""
        segs = self.segments()
        if not segs:
            return 0
        first_seq, path = segs[-1]
        last_seq = first_seq - 1
        good_end = 0
        for rec, end in self._scan_segment(path, first_seq):
            last_seq = rec.seq
            good_end = end
        try:
            actual = path.stat().st_size
        except OSError:
            actual = good_end
        if actual > good_end:
            self.n_torn_records += 1
            self._metric("torn_records")
            with open(path, "r+b") as fh:
                fh.truncate(good_end)
        return last_seq + 1

    # -- append path -------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._fh is not None:
            return
        segs = self.segments()
        if segs and segs[-1][1].stat().st_size < self.segment_max_bytes:
            self._active = segs[-1][1]
        else:
            self._active = self._seg_path(self.next_seq)
        self._fh = open(self._active, "ab")
        self._active_bytes = self._active.stat().st_size

    def append(self, block: np.ndarray, *, ts: float | None = None) -> int:
        """Persist one admitted block; returns its sequence number.

        The returned seq is only *acked* per the durability-mode table
        above — callers must not acknowledge the client before this
        returns.
        """
        record_ts = time.time() if ts is None else float(ts)
        with self._lock:
            seq = self.next_seq
            data = _encode_record(seq, block, record_ts)
            self._ensure_open()
            self._fh.write(data)
            if self.durability == "async":
                self._fh.flush()
            elif self.durability == "fsync":
                self._fsync_locked(self._fh)
            self.next_seq = seq + 1
            self.n_appends += 1
            self.n_bytes += len(data)
            self._active_bytes += len(data)
            self._metric("appends")
            self._metric("bytes", len(data))
            if self._active_bytes >= self.segment_max_bytes:
                self._rotate_locked()
            return seq

    def _rotate_locked(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            if self.durability == "fsync":
                self._fsync_locked(fh)
            fh.close()
        if self.durability == "fsync":
            # The new segment's directory entry must be durable before
            # anything is acked out of it.
            fsync_directory(self.directory)
        self._active = None
        self._active_bytes = 0
        self.n_rotations += 1
        self._metric("rotations")

    def sync(self) -> None:
        """Force everything buffered so far to stable storage."""
        with self._lock:
            if self._fh is not None:
                self._fsync_locked(self._fh)

    def _fsync_locked(self, fh) -> None:
        # Every segment fsync goes through here, so ``n_fsyncs`` and
        # the ``repro_wal_fsyncs_total`` counter cannot drift apart.
        fh.flush()
        os.fsync(fh.fileno())
        self.n_fsyncs += 1
        self._metric("fsyncs")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None

    # -- replay path -------------------------------------------------------

    def _scan_segment(
        self, path: pathlib.Path, first_seq: int | None = None
    ) -> Iterator[tuple[WalRecord, int]]:
        """Yield ``(record, end_offset)`` until EOF or the first bad
        record — a torn tail or a flipped bit ends the segment's usable
        prefix; nothing after it is trusted.

        ``first_seq`` (from the segment's file name) pins the expected
        sequence of every record: the CRC only covers the *body*, so a
        flipped bit in the header's seq field would otherwise replay a
        valid block under the wrong sequence number.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return
        if first_seq is None:
            m = _SEG_RE.match(path.name)
            first_seq = int(m.group(1)) if m else None
        expect_seq = first_seq
        pos = 0
        while pos + _REC_HEAD.size <= len(data):
            magic8, seq, body_len, crc = _REC_HEAD.unpack_from(data, pos)
            if magic8[:4] != WAL_MAGIC or body_len > MAX_RECORD_BYTES:
                return
            if expect_seq is not None and seq != expect_seq:
                return
            body_start = pos + _REC_HEAD.size
            body_end = body_start + body_len
            if body_end > len(data):
                return  # torn tail
            body = data[body_start:body_end]
            if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                return
            try:
                block, ts = decode_block(body)
            except BlockCodecError:
                return
            yield WalRecord(seq=seq, block=block, ts=ts), body_end
            pos = body_end
            if expect_seq is not None:
                expect_seq += 1

    def replay(self, after_seq: int = -1) -> Iterator[WalRecord]:
        """Every valid record with ``seq > after_seq``, in order.

        Replay is prefix-faithful: within a segment it stops at the
        first record that fails the magic/CRC/shape checks, and a
        later segment is only entered if the previous one ended
        cleanly (its seqs must chain), so corruption can never cause
        records to be skipped *over* and replayed out of order.
        """
        expect = None
        for first_seq, path in self.segments():
            if expect is not None and first_seq != expect:
                # A gap means the segment before this one lost records
                # (truncated tail): everything after is untrusted.
                return
            end_seq = first_seq - 1
            for rec, _end in self._scan_segment(path, first_seq):
                end_seq = rec.seq
                if rec.seq > after_seq:
                    yield rec
            # The next segment must start where this one ended; if this
            # one ended early (torn tail), the gap check above stops the
            # replay there.
            expect = end_seq + 1

    def records_on_disk(self, after_seq: int = -1) -> int:
        """Count of valid records past ``after_seq`` (recovery sizing)."""
        return sum(1 for _ in self.replay(after_seq))

    def truncate_upto(self, seq: int) -> int:
        """Delete segments fully covered by a checkpoint at ``seq``.

        A segment is deletable when every record in it has
        ``seq <= covered`` — i.e. the *next* segment starts at or below
        ``seq + 1``.  The active segment is never deleted.  Returns the
        number of segments removed.
        """
        removed = 0
        with self._lock:
            segs = self.segments()
            for i, (first_seq, path) in enumerate(segs):
                next_first = (
                    segs[i + 1][0] if i + 1 < len(segs) else self.next_seq
                )
                if next_first > seq + 1:
                    break
                if path == self._active:
                    break
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    break
            if removed:
                self.n_truncated_segments += removed
                self._metric("truncated_segments", removed)
                if self.durability == "fsync":
                    fsync_directory(self.directory)
        return removed

    def stats(self) -> dict[str, Any]:
        return {
            "durability": self.durability,
            "next_seq": self.next_seq,
            "n_appends": self.n_appends,
            "n_bytes": self.n_bytes,
            "n_fsyncs": self.n_fsyncs,
            "n_rotations": self.n_rotations,
            "n_truncated_segments": self.n_truncated_segments,
            "n_torn_records": self.n_torn_records,
            "n_segments": len(self.segments()),
            "size_bytes": self.size_bytes(),
        }


class TenantCheckpointer(threading.Thread):
    """Background persister riding the cache's publish listeners.

    The cache listener only records "tenant X has a newer snapshot" —
    publishing stays cheap and lane threads never block on disk.  This
    thread then checkpoints each dirty tenant when its snapshot has
    advanced ``every_publishes`` versions past the last checkpoint (or
    immediately on :meth:`flush`), and truncates the tenant's WAL up to
    the checkpointed ``wal_seq``.
    """

    def __init__(
        self,
        plane: "DurabilityPlane",
        *,
        every_publishes: int = 8,
        interval_s: float = 0.5,
    ) -> None:
        if every_publishes < 1:
            raise ValueError("every_publishes must be >= 1")
        super().__init__(name="serving-checkpointer", daemon=True)
        self.plane = plane
        self.every_publishes = int(every_publishes)
        self.interval_s = float(interval_s)
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._latest: dict[str, Any] = {}  # tenant -> newest BasisSnapshot
        self._saved_version: dict[str, int] = {}
        self.n_checkpoints = 0
        self.n_errors = 0

    # The cache listener (called on every publish, any lane thread).
    def on_publish(self, snap) -> None:
        with self._lock:
            self._latest[snap.tenant] = snap

    def note_saved(self, tenant: str, version: int) -> None:
        """Record an externally written checkpoint (recovery republish)."""
        with self._lock:
            self._saved_version[tenant] = max(
                self._saved_version.get(tenant, 0), int(version)
            )

    def _due(self, force: bool) -> list[Any]:
        with self._lock:
            due = []
            for tenant, snap in self._latest.items():
                saved = self._saved_version.get(tenant, 0)
                if snap.version <= saved:
                    continue
                if force or snap.version - saved >= self.every_publishes:
                    due.append(snap)
            return due

    def _persist(self, snap) -> None:
        store = self.plane.checkpoints_for(snap.tenant)
        try:
            store.save(snap.state, key=snap.version, extras={
                "tenant": snap.tenant,
                "snapshot_version": int(snap.version),
                "rows_applied": int(snap.rows_applied),
                "blocks_applied": int(snap.blocks_applied),
                "wal_seq": int(snap.wal_seq),
                "outlier_t": float(snap.outlier_t),
                "published_unix": float(snap.published_unix),
            })
        except OSError:
            self.n_errors += 1
            return
        with self._lock:
            self._saved_version[snap.tenant] = max(
                self._saved_version.get(snap.tenant, 0), snap.version
            )
        self.n_checkpoints += 1
        self.plane.count("checkpoints")
        if snap.wal_seq >= 0:
            self.plane.wal_for(snap.tenant).truncate_upto(snap.wal_seq)

    def tick(self, *, force: bool = False) -> int:
        done = 0
        for snap in self._due(force):
            self._persist(snap)
            done += 1
        return done

    def flush(self) -> int:
        """Checkpoint every tenant whose snapshot moved (shutdown path)."""
        return self.tick(force=True)

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # persister must outlive transient races
                self.n_errors += 1

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)
        self.flush()


@dataclass
class _TenantRecovery:
    """Progress of one tenant's recovery (the /ready 503 body)."""

    tenant: str
    phase: str = "pending"  # pending -> checkpoint -> replaying -> done
    checkpoint_version: int = 0
    checkpoint_rows: int = 0
    wal_records_total: int = 0
    wal_records_replayed: int = 0
    rows_replayed: int = 0
    torn_at_seq: int | None = None

    def snapshot(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "phase": self.phase,
            "checkpoint_version": self.checkpoint_version,
            "checkpoint_rows": self.checkpoint_rows,
            "wal_records_total": self.wal_records_total,
            "wal_records_replayed": self.wal_records_replayed,
            "rows_replayed": self.rows_replayed,
            "torn_at_seq": self.torn_at_seq,
        }


class RecoveryManager:
    """Startup restore: checkpoints first, then the WAL tail.

    Runs on its own thread (started by ``PCAService.start``) so the
    HTTP listener can come up and answer ``/ready`` with 503 +
    replay-progress JSON while long tails replay.  Ingest is refused
    (503, ``reason="recovering"``) until recovery completes — replay
    order must not interleave with fresh traffic — but queries are
    answered from recovered snapshots as soon as they republish.
    """

    def __init__(self, plane: "DurabilityPlane", service) -> None:
        self.plane = plane
        self.service = service
        self.done = threading.Event()
        self.started_at: float | None = None
        self.duration_s: float | None = None
        self.error: str | None = None
        self._progress: dict[str, _TenantRecovery] = {}
        self._thread: threading.Thread | None = None
        #: Test hook: per-record sleep while replaying (lets tests
        #: observe the 503-with-progress window deterministically).
        self.throttle_s = 0.0

    # -- progress surface --------------------------------------------------

    @property
    def in_progress(self) -> bool:
        return self._thread is not None and not self.done.is_set()

    def progress(self) -> dict[str, Any]:
        return {
            "done": self.done.is_set(),
            "duration_s": self.duration_s,
            "error": self.error,
            "tenants": {
                name: rec.snapshot()
                for name, rec in sorted(self._progress.items())
            },
        }

    # -- the restore itself ------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="serving-recovery", daemon=True
        )
        self._thread.start()

    def wait(self, timeout_s: float | None = None) -> bool:
        return self.done.wait(timeout_s)

    def _run(self) -> None:
        self.started_at = time.monotonic()
        try:
            for spec in self.plane.load_specs():
                self._recover_tenant(spec)
        except Exception as exc:  # recovery must never wedge startup
            self.error = repr(exc)
        finally:
            self.duration_s = time.monotonic() - self.started_at
            try:
                self.service.telemetry.metrics.gauge(
                    "repro_recovery_duration_seconds"
                ).set(self.duration_s)
            except Exception:
                pass
            self.done.set()

    def _recover_tenant(self, spec) -> None:
        svc = self.service
        rec = self._progress.setdefault(
            spec.name, _TenantRecovery(tenant=spec.name)
        )
        if svc.tenant_exists(spec.name):
            st = svc.tenant(spec.name)
        else:
            st = svc.add_tenant(spec, persist=False)
        model = st.model
        wal = self.plane.wal_for(spec.name)

        rec.phase = "checkpoint"
        loaded = self.plane.checkpoints_for(spec.name).load_latest(
            with_extras=True
        )
        after_seq = -1
        ckpt_version = 0
        if loaded is not None:
            state, extras = loaded
            ckpt_version = int(extras.get("snapshot_version", 0))
            after_seq = int(extras.get("wal_seq", -1))
            rec.checkpoint_version = ckpt_version
            rec.checkpoint_rows = int(extras.get("rows_applied", 0))
            model.adopt_recovered(
                state,
                rows_applied=rec.checkpoint_rows,
                blocks_applied=int(extras.get("blocks_applied", 0)),
                wal_seq=after_seq,
            )

        rec.phase = "replaying"
        rec.wal_records_total = wal.records_on_disk(after_seq)
        last_seq = after_seq
        for record in wal.replay(after_seq):
            # Not judged: see TenantModel.apply_block.
            model.apply_block(record.block, wal_seq=record.seq, judge=False)
            last_seq = record.seq
            rec.wal_records_replayed += 1
            rec.rows_replayed += int(record.block.shape[0])
            self.plane.count("replayed_records")
            self.plane.count("replayed_rows", int(record.block.shape[0]))
            if self.throttle_s > 0.0:
                time.sleep(self.throttle_s)
        if wal.next_seq != last_seq + 1 and last_seq >= 0:
            # Seqs past last_seq existed but did not replay cleanly:
            # the truncated tail is recorded for the report.
            rec.torn_at_seq = last_seq + 1
        # One publish at the end, at a version no pre-crash client can
        # have exceeded: every publish after the checkpoint consumed at
        # least one post-checkpoint WAL record, so pre-crash version <=
        # ckpt_version + replayed-record count.  EigenbasisCache clamps
        # upward, so the version stream stays monotone across the
        # restart even though the exact pre-crash counter died with the
        # process.
        if model.is_initialized:
            st.publish_now(
                svc.cache,
                version=ckpt_version + rec.wal_records_replayed,
            )
            model.reanchor_monitor()
            if self.plane.checkpointer is not None:
                self.plane.checkpointer.note_saved(spec.name, ckpt_version)
        rec.phase = "done"


class DurabilityPlane:
    """Everything durable about one serving deployment, under one root.

    Owns the per-tenant WALs and checkpoint stores, the background
    :class:`TenantCheckpointer`, and the startup
    :class:`RecoveryManager`; :class:`~.service.PCAService` drives it
    and never touches the disk layout directly.
    """

    def __init__(
        self,
        data_dir: str | pathlib.Path,
        *,
        durability: str = "async",
        segment_max_bytes: int = 4 << 20,
        checkpoint_every_publishes: int = 8,
        checkpoint_interval_s: float = 0.5,
        keep_checkpoints: int = 3,
        telemetry=None,
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        self.data_dir = pathlib.Path(data_dir)
        self.tenants_dir = self.data_dir / "tenants"
        self.tenants_dir.mkdir(parents=True, exist_ok=True)
        self.durability = durability
        self.segment_max_bytes = int(segment_max_bytes)
        self.keep_checkpoints = int(keep_checkpoints)
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._wals: dict[str, WriteAheadLog] = {}
        self._stores: dict[str, CheckpointStore] = {}
        self.checkpointer = TenantCheckpointer(
            self,
            every_publishes=checkpoint_every_publishes,
            interval_s=checkpoint_interval_s,
        )
        self.recovery: RecoveryManager | None = None

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        if self.telemetry is None:
            return
        try:
            self.telemetry.metrics.counter(f"repro_wal_{name}_total").inc(n)
        except Exception:
            pass

    def _wal_metric(self, tenant: str):
        def on_metric(name: str, n: int) -> None:
            if self.telemetry is None:
                return
            self.telemetry.metrics.counter(
                f"repro_wal_{name}_total", tenant=tenant
            ).inc(n)
        return on_metric if self.telemetry is not None else None

    # -- per-tenant resources ---------------------------------------------

    def tenant_dir(self, tenant: str) -> pathlib.Path:
        return self.tenants_dir / tenant

    def wal_for(self, tenant: str) -> WriteAheadLog:
        with self._lock:
            wal = self._wals.get(tenant)
            if wal is None:
                wal = WriteAheadLog(
                    self.tenant_dir(tenant) / "wal",
                    durability=self.durability,
                    segment_max_bytes=self.segment_max_bytes,
                    on_metric=self._wal_metric(tenant),
                )
                self._wals[tenant] = wal
            return wal

    def checkpoints_for(self, tenant: str) -> CheckpointStore:
        with self._lock:
            store = self._stores.get(tenant)
            if store is None:
                store = CheckpointStore(
                    self.tenant_dir(tenant) / "ckpt",
                    keep=self.keep_checkpoints,
                    fsync=(self.durability != "none"),
                )
                self._stores[tenant] = store
            return store

    # -- tenant spec persistence ------------------------------------------

    def save_spec(self, spec) -> None:
        """Persist a TenantSpec so recovery can re-create the tenant."""
        d = self.tenant_dir(spec.name)
        d.mkdir(parents=True, exist_ok=True)
        doc = {k: v for k, v in spec.__dict__.items()}
        tmp = d / f".spec.json.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
        os.replace(tmp, d / "spec.json")
        if self.durability == "fsync":
            fsync_directory(d)

    def load_specs(self) -> list[Any]:
        """Every persisted TenantSpec, sorted by name; bad files skipped."""
        from .tenancy import TenantSpec

        specs = []
        if not self.tenants_dir.is_dir():
            return specs
        for d in sorted(self.tenants_dir.iterdir()):
            path = d / "spec.json"
            if not path.is_file():
                continue
            try:
                doc = json.loads(path.read_text())
                # Fields of the retired parallel chunk mode, which older
                # spec files carry.  Its checkpoint is a plain
                # eigensystem, so the tenant recovers as the
                # single-estimator tenant every tenant now is.
                if doc.pop("n_engines", 1) > 1:
                    warnings.warn(
                        f"tenant {d.name!r} was saved with n_engines > 1 "
                        "(parallel chunk mode, removed); recovering it "
                        "as a single-estimator tenant",
                        RuntimeWarning,
                    )
                doc.pop("runtime", None)
                doc.pop("parallel_chunk_rows", None)
                # Retired with its only reader: snapshots carry the
                # estimator's own threshold.
                doc.pop("outlier_t", None)
                specs.append(TenantSpec(**doc))
            except (OSError, ValueError, TypeError):
                continue
        return specs

    # -- lifecycle ---------------------------------------------------------

    def attach(self, service) -> None:
        """Wire into a service: publish listener + checkpointer thread."""
        self.telemetry = service.telemetry
        service.cache.add_listener(self.checkpointer.on_publish)
        self.checkpointer.start()
        self.recovery = RecoveryManager(self, service)
        self.recovery.start()

    def append(self, tenant: str, block: np.ndarray) -> int:
        return self.wal_for(tenant).append(block)

    def stop(self) -> None:
        if self.checkpointer.is_alive():
            self.checkpointer.stop()
        else:
            self.checkpointer.flush()
        with self._lock:
            wals = list(self._wals.values())
        for wal in wals:
            wal.close()

    # -- status surface ----------------------------------------------------

    def status(self) -> dict[str, Any]:
        with self._lock:
            tenants = sorted(set(self._wals) | set(self._stores))
        out: dict[str, Any] = {
            "data_dir": str(self.data_dir),
            "durability": self.durability,
            "checkpointer": {
                "n_checkpoints": self.checkpointer.n_checkpoints,
                "n_errors": self.checkpointer.n_errors,
                "every_publishes": self.checkpointer.every_publishes,
            },
            "recovery": (
                self.recovery.progress() if self.recovery is not None
                else None
            ),
            "tenants": {},
        }
        for tenant in tenants:
            wal = self._wals.get(tenant)
            store = self._stores.get(tenant)
            ckpts = store.list() if store is not None else []
            out["tenants"][tenant] = {
                "wal": wal.stats() if wal is not None else None,
                "checkpoints": len(ckpts),
                "checkpoint_version": ckpts[-1][0] if ckpts else 0,
                "checkpoint_age_s": (
                    store.age_s() if store is not None else None
                ),
            }
        return out
