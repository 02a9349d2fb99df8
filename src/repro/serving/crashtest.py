"""The durability chaos scenario: SIGKILL the serving process, restart,
prove no acked row was lost.

This is the serving-layer counterpart of :mod:`repro.streams.chaos` —
but where chaos kills *engines inside* a process, this driver kills the
**whole process** with ``SIGKILL`` mid-ingest and restarts it from the
same ``--data-dir``.  The contract it proves (the acceptance criteria
of the durability plane, run by the CI ``serving-durability`` job):

1. **Zero acked-row loss** — after restart, every tenant reports
   ``rows_applied >=`` the rows the driver had received 202 acks for
   under ``--durability fsync`` (over-replay of *unacked* rows is
   permitted; at-least-once, never at-most-once).
2. **Monotone snapshot versions** — the first post-restart snapshot
   version is >= the highest version observed before the kill.
3. **Correct answers** — the recovered basis agrees with a local
   reference model fed exactly the acked rows (principal-angle
   affinity >= ``min_affinity``), so recovery replayed real data, not
   garbage.

The server runs as a real subprocess (``python -m repro serve
--port 0 --port-file ... --data-dir ...``) so the SIGKILL is a true
process death: no atexit, no flush, no destructor runs.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any

import numpy as np

from ..core.metrics import subspace_affinity
from ..core.robust import RobustIncrementalPCA
from .client import ServingClient

__all__ = ["run_crash_restart"]


def _spawn_server(
    data_dir: pathlib.Path,
    durability: str,
    tenants: tuple[str, ...],
    n_components: int,
    log_path: pathlib.Path,
) -> tuple[subprocess.Popen, int]:
    """Boot ``python -m repro serve`` on an ephemeral port; returns
    ``(process, port)`` once the port file appears."""
    port_file = data_dir / "port"
    try:
        port_file.unlink()
    except OSError:
        pass
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--port-file", str(port_file),
        "--data-dir", str(data_dir),
        "--durability", durability,
        "--lanes", "2",
    ]
    for t in tenants:
        cmd += ["--tenant", f"{t}:{n_components}"]
    # The server subprocess must import this very repro tree no matter
    # what cwd it gets: prepend the absolute source root.
    env = dict(os.environ)
    src_root = str(pathlib.Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    log = open(log_path, "ab")
    proc = subprocess.Popen(
        cmd, stdout=log, stderr=subprocess.STDOUT, cwd=str(data_dir),
        env=env,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server died during startup (rc={proc.returncode}); "
                f"see {log_path}"
            )
        try:
            return proc, int(port_file.read_text())
        except (OSError, ValueError):
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("server never wrote its port file")


def _await_ready(
    client: ServingClient,
    events: list[dict[str, Any]],
    timeout_s: float = 60.0,
) -> list[dict[str, Any]]:
    """Poll /ready until 200; returns the 503 recovery-progress bodies
    observed on the way up (the recovery trace)."""
    recovery_bodies: list[dict[str, Any]] = []
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            reply = client.ready()
        except OSError:
            time.sleep(0.05)
            continue
        if reply.code == 200:
            return recovery_bodies
        if isinstance(reply.body, dict) and reply.body.get("recovering"):
            recovery_bodies.append(reply.body)
            events.append({
                "event": "ready_503_recovering",
                "recovery": reply.body.get("recovery"),
            })
        time.sleep(0.05)
    raise AssertionError(f"/ready never reached 200 within {timeout_s}s")


def run_crash_restart(
    *,
    data_dir: str | None = None,
    durability: str = "fsync",
    seed: int = 20120513,
    tenants: tuple[str, ...] = ("t0", "t1"),
    n_components: int = 4,
    dim: int = 12,
    block_rows: int = 24,
    pre_kill_blocks: int = 60,
    post_kill_blocks: int = 12,
    min_affinity: float = 0.98,
    out_dir: str | None = None,
    verbose: bool = False,
) -> dict[str, Any]:
    """Run the SIGKILL/restart scenario; returns the report (raises
    :class:`AssertionError` on any contract violation)."""
    root = pathlib.Path(data_dir or tempfile.mkdtemp(prefix="repro-crash-"))
    root.mkdir(parents=True, exist_ok=True)
    out = pathlib.Path(out_dir) if out_dir else root
    out.mkdir(parents=True, exist_ok=True)
    events: list[dict[str, Any]] = []

    def log(msg: str) -> None:
        if verbose:
            print(msg, flush=True)

    rng = np.random.default_rng(seed)
    # Per-tenant anisotropic generators with geometric eigenvalue decay:
    # large eigengaps keep the leading subspace well-determined, so the
    # affinity check measures recovery fidelity, not eigengap noise.
    scales = {
        t: 3.0 * (0.65 ** np.arange(dim)) * (1.0 + 0.3 * i)
        for i, t in enumerate(tenants)
    }
    acked: dict[str, list[np.ndarray]] = {t: [] for t in tenants}
    acked_rows = {t: 0 for t in tenants}
    last_version = {t: 0 for t in tenants}

    # ---- phase 1: ingest, then pull the plug -----------------------------
    proc, port = _spawn_server(
        root, durability, tenants, n_components, out / "server-run1.log"
    )
    client = ServingClient("127.0.0.1", port, timeout_s=10.0)
    _await_ready(client, events)
    log(f"phase 1 up on :{port} ({durability})")
    sent_blocks = 0
    while sent_blocks < pre_kill_blocks:
        t = tenants[sent_blocks % len(tenants)]
        block = rng.normal(size=(block_rows, dim)) * scales[t]
        try:
            reply = client.ingest(t, block)
        except OSError as exc:
            raise AssertionError(
                f"ingest died before the planned kill: {exc}"
            ) from exc
        if reply.code == 202:
            acked[t].append(block)
            acked_rows[t] += block_rows
            last_version[t] = max(
                last_version[t], int(reply.body["snapshot_version"])
            )
        sent_blocks += 1
    # SIGKILL with the queues still warm: rows are acked (fsync-durable)
    # but not all applied, checkpoints lag publishes — the WAL tail is
    # doing real work in phase 2.
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10.0)
    client.close()
    events.append({
        "event": "sigkill",
        "acked_rows": dict(acked_rows),
        "last_version": dict(last_version),
    })
    log(f"SIGKILLed pid {proc.pid} after {sent_blocks} blocks: "
        f"acked={acked_rows}")

    # ---- phase 2: restart from the same data dir -------------------------
    restarted = time.monotonic()
    proc2, port2 = _spawn_server(
        root, durability, tenants, n_components, out / "server-run2.log"
    )
    try:
        client2 = ServingClient("127.0.0.1", port2, timeout_s=10.0)
        recovery_trace = _await_ready(client2, events)
        restart_to_ready_s = time.monotonic() - restarted
        log(f"phase 2 up on :{port2} after {restart_to_ready_s:.2f} s; "
            f"{len(recovery_trace)} recovery probes observed")

        report: dict[str, Any] = {
            "durability": durability,
            "seed": seed,
            "pre_kill_blocks": sent_blocks,
            "recovery_probes_503": len(recovery_trace),
            "restart_to_ready_s": restart_to_ready_s,
            "tenants": {},
        }
        failures: list[str] = []
        min_aff = 1.0
        for t in tenants:
            snap = client2.snapshot(t)
            if snap.code != 200:
                failures.append(
                    f"{t}: no snapshot after recovery ({snap.code})"
                )
                continue
            model_rows = int(snap.body["model_rows"])
            version = int(snap.body["snapshot_version"])
            # Contract 1: zero acked-row loss (>=: over-replay of
            # unacked-but-durable rows is at-least-once, allowed).
            if model_rows < acked_rows[t]:
                failures.append(
                    f"{t}: LOST ACKED ROWS — rows_applied={model_rows} "
                    f"< acked={acked_rows[t]}"
                )
            # Contract 2: monotone snapshot versions across the restart.
            if version < last_version[t]:
                failures.append(
                    f"{t}: version went backwards — {version} < "
                    f"pre-kill {last_version[t]}"
                )
            # Contract 3: the recovered basis answers like a reference
            # model fed exactly the acked rows.
            ref = RobustIncrementalPCA(n_components)
            ref.update_block(np.vstack(acked[t]))
            spectra = client2.eigenspectra(t, include_basis=True)
            basis = np.array(spectra.body["spectra"]["basis"]).T
            aff = subspace_affinity(ref.public_state().basis, basis)
            min_aff = min(min_aff, aff)
            if aff < min_affinity:
                failures.append(
                    f"{t}: recovered basis affinity {aff:.4f} < "
                    f"{min_affinity}"
                )
            report["tenants"][t] = {
                "acked_rows": acked_rows[t],
                "recovered_rows": model_rows,
                "pre_kill_version": last_version[t],
                "recovered_version": version,
                "affinity": aff,
            }
            log(f"  {t}: acked={acked_rows[t]} recovered={model_rows} "
                f"version {last_version[t]}->{version} affinity={aff:.4f}")

        # The restarted service must also *work*: ingest more and watch
        # versions keep climbing.
        for i in range(post_kill_blocks):
            t = tenants[i % len(tenants)]
            block = rng.normal(size=(block_rows, dim)) * scales[t]
            reply = client2.ingest(t, block)
            if reply.code != 202:
                failures.append(
                    f"post-restart ingest to {t} failed: {reply.code} "
                    f"{reply.body}"
                )
                break
        time.sleep(1.0)
        for t in tenants:
            snap = client2.snapshot(t)
            if snap.code == 200:
                v = int(snap.body["snapshot_version"])
                report["tenants"][t]["post_ingest_version"] = v
                if v < report["tenants"][t]["recovered_version"]:
                    failures.append(f"{t}: version regressed post-restart")

        status = client2.status()
        report["total_acked_rows"] = sum(acked_rows.values())
        report["total_recovered_rows"] = sum(
            v["recovered_rows"] for v in report["tenants"].values()
        )
        report["min_affinity"] = min_aff
        report["failures"] = failures
        report["ok"] = not failures
        events.append({"event": "report", "report": report})

        (out / "crash_report.json").write_text(
            json.dumps(report, indent=1, sort_keys=True)
        )
        with open(out / "crash-events.jsonl", "w") as fh:
            for ev in events:
                fh.write(json.dumps(ev) + "\n")
        if status.code == 200:
            (out / "recovered-status.json").write_text(
                json.dumps(status.body, indent=1, sort_keys=True)
            )
        client2.close()
    finally:
        proc2.terminate()
        try:
            proc2.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc2.kill()

    if failures:
        raise AssertionError(
            "crash-restart contract violated:\n  " + "\n  ".join(failures)
        )
    return report
