"""Concurrent serving smoke run: the CI `serving-smoke` workload.

Boots a full :class:`ServingServer`, drives N concurrent clients
(mixed ingest + query across two tenants, one of them deliberately
rate-starved so the valve sheds) for a fixed duration, then checks the
serving contract:

* zero 5xx across every request;
* the overloaded tenant shed (429) but **lost nothing it admitted** —
  ``rows_accepted == rows_applied + queued`` exactly;
* queries were answered from published snapshots (version monotone,
  reported in each reply);
* the telemetry JSONL artifact is written for upload.

Seeded and deterministic in structure (thread interleaving varies, the
assertions hold regardless).  Used by ``python -m repro serve --smoke``
and directly by the CI job.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any

import numpy as np

from .client import ServingClient
from .http import ServingServer
from .service import PCAService, ServingConfig
from .tenancy import TenantSpec

__all__ = ["run_smoke"]


def _client_loop(
    host: str, port: int, tenant: str, *, seed: int, dim: int,
    block_rows: int, stop: threading.Event, mix: str,
    out: dict[str, Any],
) -> None:
    rng = np.random.default_rng(seed)
    codes: dict[int, int] = {}
    rows_accepted = 0
    versions: list[int] = []
    n_queries_ok = 0
    try:
        with ServingClient(host, port, timeout_s=15.0) as client:
            while not stop.is_set():
                if mix == "ingest" or (mix == "mixed" and rng.random() < 0.5):
                    reply = client.ingest(
                        tenant, rng.normal(size=(block_rows, dim))
                    )
                    if reply.code == 202:
                        rows_accepted += reply.body["accepted_rows"]
                    elif reply.code == 429:
                        time.sleep(
                            min(reply.retry_after_s or 0.01, 0.05)
                        )
                else:
                    op = rng.integers(0, 3)
                    if op == 0:
                        reply = client.transform(
                            tenant, rng.normal(size=(4, dim))
                        )
                    elif op == 1:
                        reply = client.outlier_score(
                            tenant, rng.normal(size=(4, dim))
                        )
                    else:
                        reply = client.eigenspectra(tenant, top_k=3)
                    if reply.code == 200:
                        n_queries_ok += 1
                        versions.append(reply.body["snapshot_version"])
                codes[reply.code] = codes.get(reply.code, 0) + 1
    except Exception as exc:
        out["error"] = repr(exc)
    out.update(
        codes=codes, rows_accepted=rows_accepted,
        n_queries_ok=n_queries_ok, versions=versions,
    )


def run_smoke(
    *,
    n_clients: int = 20,
    duration_s: float = 30.0,
    seed: int = 20120513,
    dim: int = 16,
    block_rows: int = 32,
    n_lanes: int = 2,
    overload: bool = True,
    telemetry_out: str | None = None,
    verbose: bool = True,
    data_dir: str | None = None,
    durability: str = "async",
) -> dict[str, Any]:
    """Run the smoke workload; returns the report dict (raises on FAIL)."""
    svc = PCAService(ServingConfig(
        n_lanes=n_lanes, data_dir=data_dir, durability=durability,
    ))
    svc.add_tenant(TenantSpec(
        "bulk", n_components=4, publish_every_blocks=4,
        queue_capacity_rows=200_000,
    ))
    svc.add_tenant(TenantSpec(
        "throttled", n_components=4, publish_every_blocks=4,
        # Low rate so sustained ingest trips the valve: shed-not-drop.
        max_rate_hz=(400.0 if overload else None), burst_s=1.0,
        queue_capacity_rows=200_000,
    ))
    server = ServingServer(svc).start()
    stop = threading.Event()
    results: list[dict[str, Any]] = []
    threads: list[threading.Thread] = []
    # Client mix: half hit the bulk tenant, half the throttled one;
    # within each, alternate pure-ingest and mixed ingest+query.
    for i in range(n_clients):
        tenant = "bulk" if i % 2 == 0 else "throttled"
        mix = "ingest" if i % 4 < 2 else "mixed"
        out: dict[str, Any] = {"tenant": tenant, "mix": mix}
        results.append(out)
        threads.append(threading.Thread(
            target=_client_loop,
            args=(server.host, server.port, tenant),
            kwargs=dict(
                seed=seed + i, dim=dim, block_rows=block_rows,
                stop=stop, mix=mix, out=out,
            ),
            daemon=True,
        ))
    t0 = time.monotonic()
    for t in threads:
        t.start()
    time.sleep(duration_s)
    stop.set()
    for t in threads:
        t.join(timeout=20.0)
    wall_s = time.monotonic() - t0

    # Let the lanes drain what was admitted, then do the accounting.
    svc.pool.drain(timeout_s=30.0)

    failures: list[str] = []
    all_codes: dict[int, int] = {}
    for out in results:
        if "error" in out:
            failures.append(f"client error: {out['error']}")
        for code, n in out.get("codes", {}).items():
            all_codes[code] = all_codes.get(code, 0) + n
        versions = out.get("versions", [])
        if any(b < a for a, b in zip(versions, versions[1:])):
            failures.append(
                "snapshot versions went backwards on one client"
            )
    for code, n in all_codes.items():
        if code >= 500:
            failures.append(f"{n} responses with 5xx code {code}")
    accepted_by_clients = {
        name: sum(
            o.get("rows_accepted", 0) for o in results
            if o["tenant"] == name
        )
        for name in ("bulk", "throttled")
    }
    tenant_stats = {}
    for name, st in svc.get_tenants().items():
        stats = st.stats()
        tenant_stats[name] = stats
        settled = stats["rows_applied"] + stats["queue_depth_rows"]
        if stats["rows_accepted"] != settled:
            failures.append(
                f"tenant {name}: accepted {stats['rows_accepted']} rows "
                f"but only {settled} applied+queued (tuple loss)"
            )
        if accepted_by_clients[name] != stats["rows_accepted"]:
            failures.append(
                f"tenant {name}: clients saw {accepted_by_clients[name]} "
                f"accepted, server counted {stats['rows_accepted']}"
            )
    if overload:
        shed = tenant_stats["throttled"]["rows_shed"]
        if shed <= 0 and 429 not in all_codes:
            failures.append(
                "overload run produced no shedding on the throttled tenant"
            )

    report = {
        "n_clients": n_clients,
        "duration_s": round(wall_s, 3),
        "codes": {str(k): v for k, v in sorted(all_codes.items())},
        "tenants": tenant_stats,
        "cache": svc.cache.stats(),
        "latency": svc.latency_summary(),
        "lanes": svc.pool.lanes_snapshot(),
        "bus": {
            "published": svc.bus.n_published,
            "dropped": svc.bus.n_dropped,
        },
        "failures": failures,
        "ok": not failures,
    }
    if telemetry_out:
        svc.telemetry.events.append({
            "ts": svc.telemetry.now(), "kind": "serving_smoke_report",
            **{k: v for k, v in report.items() if k != "latency"},
        })
        svc.telemetry.write_jsonl(telemetry_out)
    server.stop()
    if verbose:
        print(json.dumps(report, indent=2, default=str))
    if failures:
        raise AssertionError(
            "serving smoke FAILED:\n  " + "\n  ".join(failures)
        )
    return report
