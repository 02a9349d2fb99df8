"""Eigensystem checkpointing.

Section III-C: "the intermediate calculation results are periodically
saved to the disk for future reference."  Checkpoints are ``.npz``
archives (compact, lossless float64) named by the observation count, so a
directory of them *is* the convergence history of a run.  The serving
layer's durable tenant checkpoints are the same store, keyed by snapshot
version (:mod:`repro.serving.durability`).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import time
from typing import Any

import numpy as np

from ..core.eigensystem import Eigensystem

__all__ = [
    "save_eigensystem",
    "load_eigensystem",
    "load_eigensystem_extras",
    "fsync_directory",
    "CheckpointStore",
]

#: ``ckpt-<version>.npz`` is what the serving layer's tenant stores wrote
#: before they were folded into :class:`CheckpointStore`; still read, so
#: a data directory from that layout recovers.
_CKPT_RE = re.compile(r"^(?:eigensystem|ckpt)-(\d+)\.npz$")


def fsync_directory(directory: str | pathlib.Path) -> None:
    """fsync a directory so a just-replaced entry survives power loss.

    ``os.replace`` makes the rename atomic against concurrent readers,
    but the *directory entry* itself lives in the parent directory's
    data — until that is flushed, a power cut can roll the rename back
    and leave the old (or no) file.  Best-effort: platforms that cannot
    open a directory read-only for fsync (Windows) are skipped.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_eigensystem(
    path: str | pathlib.Path,
    state: Eigensystem,
    *,
    extras: dict[str, Any] | None = None,
    fsync: bool = False,
) -> None:
    """Write one eigensystem to an ``.npz`` file, atomically.

    Written via a temp file + :func:`os.replace` so a reader (or a
    process killed mid-write — e.g. a SIGKILLed worker that restarts
    from this very store) never observes a truncated archive.

    ``extras`` is an optional JSON-able dict stored alongside the
    arrays (no pickle — it crosses restarts as text); read it back with
    :func:`load_eigensystem_extras`.  ``fsync=True`` additionally
    fsyncs the temp file before the rename and the parent directory
    after it, making the checkpoint durable against power loss, not
    just process death.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    arrays = dict(
        mean=state.mean,
        basis=state.basis,
        eigenvalues=state.eigenvalues,
        scalars=np.array(
            [
                state.scale,
                state.sum_count,
                state.sum_weight,
                state.sum_weighted_r2,
                float(state.n_seen),
                float(state.n_since_sync),
            ]
        ),
    )
    if extras is not None:
        # A 0-d unicode array: numpy stores it without pickle, and the
        # JSON round-trip keeps the extras type-safe across restarts.
        arrays["extras_json"] = np.array(json.dumps(extras))
    np.savez(tmp, **arrays)
    if fsync:
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_directory(path.parent)


def load_eigensystem(path: str | pathlib.Path) -> Eigensystem:
    """Read an eigensystem written by :func:`save_eigensystem`."""
    with np.load(pathlib.Path(path)) as data:
        scal = data["scalars"]
        return Eigensystem(
            mean=data["mean"],
            basis=data["basis"],
            eigenvalues=data["eigenvalues"],
            scale=float(scal[0]),
            sum_count=float(scal[1]),
            sum_weight=float(scal[2]),
            sum_weighted_r2=float(scal[3]),
            n_seen=int(scal[4]),
            n_since_sync=int(scal[5]),
        )


def load_eigensystem_extras(
    path: str | pathlib.Path,
) -> tuple[Eigensystem, dict[str, Any]]:
    """Like :func:`load_eigensystem`, plus the ``extras`` dict (or {})."""
    state = load_eigensystem(path)
    extras: dict[str, Any] = {}
    with np.load(pathlib.Path(path)) as data:
        if "extras_json" in data.files:
            loaded = json.loads(str(data["extras_json"]))
            if isinstance(loaded, dict):
                extras = loaded
    return state, extras


class CheckpointStore:
    """A directory of eigensystem snapshots, ordered by an integer key.

    The key is the observation count by default (a run's periodic
    snapshots, :meth:`maybe_save`) or whatever the caller counts by —
    the serving layer keys a tenant's checkpoints by snapshot version
    and stores its accounting in ``extras``.

    Parameters
    ----------
    directory:
        Created if missing.
    every:
        Snapshot period in observations; :meth:`maybe_save` is a cheap
        no-op between periods, so it can be called per update.
    keep:
        Retain at most this many snapshots (oldest pruned); ``None`` keeps
        everything — useful when the snapshots themselves are the
        experiment (Figs. 4–5 convergence history).  Long-running
        services should set this (or call :meth:`gc`) so the directory
        does not grow unboundedly.
    fsync:
        Make every save durable against power loss, not just process
        death: fsync the archive before the atomic rename and the
        directory after it.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        every: int = 1000,
        keep: int | None = None,
        fsync: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = int(every)
        self.keep = keep
        self.fsync = bool(fsync)
        # Resume over an existing directory: seed the period tracker from
        # the snapshots already on disk so the first maybe_save() after a
        # restart doesn't re-write (or double-count) a persisted state.
        snaps = self.list()
        self._last_saved_at = snaps[-1][0] if snaps else -1

    def maybe_save(self, state: Eigensystem) -> bool:
        """Snapshot if a full period elapsed since the last one."""
        if state.n_seen // self.every <= self._last_saved_at // self.every:
            if self._last_saved_at >= 0:
                return False
        self.save(state)
        return True

    def save(
        self,
        state: Eigensystem,
        *,
        key: int | None = None,
        extras: dict[str, Any] | None = None,
    ) -> pathlib.Path:
        """Snapshot unconditionally, under ``key`` (default: the
        observation count), with an optional JSON-able ``extras`` dict
        that :meth:`load_latest` can hand back."""
        key = state.n_seen if key is None else int(key)
        path = self.directory / f"eigensystem-{key:012d}.npz"
        save_eigensystem(path, state, extras=extras, fsync=self.fsync)
        self._last_saved_at = key
        if self.keep is not None:
            self.gc(self.keep)
        return path

    def gc(self, keep_last: int) -> int:
        """Delete all but the newest ``keep_last`` snapshots.

        Retention GC for long-running services; returns the number of
        snapshots removed.  A snapshot that vanished underneath us
        (concurrent GC, manual cleanup) is not an error.
        """
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        snaps = self.list()
        removed = 0
        for _key, path in snaps[: max(len(snaps) - keep_last, 0)]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed and self.fsync:
            fsync_directory(self.directory)
        return removed

    def list(self) -> list[tuple[int, pathlib.Path]]:
        """All snapshots as ``(key, path)``, ascending."""
        out = []
        for path in self.directory.iterdir():
            m = _CKPT_RE.match(path.name)
            if m:
                out.append((int(m.group(1)), path))
        return sorted(out)

    def load_latest(self, *, with_extras: bool = False):
        """The most recent *readable* snapshot (``None`` if none) — the
        eigensystem, or ``(eigensystem, extras)`` when ``with_extras``.

        Snapshots written by current code are atomic, but a store may
        hold a truncated archive from an older writer or a torn copy;
        fall back to the next-newest rather than fail the restart.
        """
        load = load_eigensystem_extras if with_extras else load_eigensystem
        for _, path in reversed(self.list()):
            try:
                return load(path)
            except (OSError, EOFError, ValueError, KeyError):
                continue
        return None

    def age_s(self) -> float | None:
        """Seconds since the newest snapshot was written (``None``
        without one), from its mtime — so it survives a restart."""
        snaps = self.list()
        try:
            return max(0.0, time.time() - snaps[-1][1].stat().st_mtime)
        except (IndexError, OSError):
            return None

    def load_history(self) -> list[tuple[int, Eigensystem]]:
        """Every snapshot — the convergence history."""
        return [(n, load_eigensystem(p)) for n, p in self.list()]
