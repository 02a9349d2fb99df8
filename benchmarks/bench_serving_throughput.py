"""Benchmark the serving layer: ingest throughput, query latency, and
read/write isolation.

The serving layer's core promise is that *queries never touch the model
lock*: reads are answered from immutable copy-on-publish snapshots, so
a tenant hammering ingest cannot slow another client's ``transform``.
That promise is priced here as a machine-portable ratio:

* ``serving_query_isolation`` — median query latency on an idle service
  divided by the median while the tenant's *model lock is held* by a
  stalled writer.  Snapshot readers never take that lock, so the ratio
  sits near 1.0; a design that routed reads through the model would
  block for the whole hold and collapse the ratio toward 0.  (Latency
  under an N-client ingest storm is also recorded —
  ``serving_query_under_load`` — but as information only: on one CPU it
  prices GIL/event-loop contention, not lock discipline.)
* ``serving_ingest_scaling`` — admitted rows/s with N concurrent HTTP
  clients over rows/s with one client.  On a single CPU this measures
  how much of the HTTP + admission overhead overlaps (socket I/O
  releases the GIL); it is NOT a parallel-compute claim.

Absolute rows/s and latency quantiles are recorded for the artifact but
are machine-specific; only the ratios gate CI
(``check_regression.py BENCH_serving.json --baseline ... --min-speedup
serving_query_isolation:...``).

Run directly (``python benchmarks/bench_serving_throughput.py
[--quick] [--out BENCH_serving.json]``) to produce the committed
baseline.  The committed payload records the ``n_cpus`` it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

try:  # allow running without PYTHONPATH=src
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serving import (
    PCAService,
    ServingClient,
    ServingConfig,
    ServingServer,
    TenantSpec,
)

SEED = 20120513
DIM = 32
BLOCK_ROWS = 64


def _rows(n: int, seed: int) -> list:
    plant = np.random.default_rng(SEED).normal(size=(4, DIM))
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=(n, 4)) * np.array([6.0, 4.0, 3.0, 2.0])
    x = coeff @ plant + 0.1 * rng.normal(size=(n, DIM))
    return x.tolist()


def _percentiles(samples_s: list[float]) -> dict[str, float]:
    if not samples_s:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    arr = np.sort(np.asarray(samples_s)) * 1e3
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


def _query_latencies(host, port, n_queries: int, payload) -> list[float]:
    out: list[float] = []
    with ServingClient(host, port) as c:
        for _ in range(n_queries):
            t0 = time.perf_counter()
            r = c.transform("bench", payload)
            dt = time.perf_counter() - t0
            if r.code != 200:
                raise RuntimeError(f"query failed: {r.code} {r.body}")
            out.append(dt)
    return out


def _ingest_run(
    host, port, n_clients: int, duration_s: float
) -> tuple[int, float]:
    """Admitted rows and elapsed seconds for an N-client ingest storm."""
    stop = threading.Event()
    accepted = [0] * n_clients
    errors: list[str] = []

    def loop(cid: int) -> None:
        rng = np.random.default_rng(SEED + 1000 + cid)
        try:
            with ServingClient(host, port) as c:
                while not stop.is_set():
                    rows = _rows(
                        BLOCK_ROWS, int(rng.integers(0, 2**31))
                    )
                    r = c.ingest("bench", rows)
                    if r.code == 202:
                        accepted[cid] += BLOCK_ROWS
                    elif r.code == 429:
                        time.sleep(min(r.retry_after_s or 0.01, 0.05))
                    else:
                        errors.append(f"client {cid}: {r.code}")
                        return
        except Exception as exc:  # noqa: BLE001
            errors.append(f"client {cid}: {exc!r}")

    threads = [
        threading.Thread(target=loop, args=(i,), daemon=True)
        for i in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    time.sleep(duration_s)
    stop.set()
    for t in threads:
        t.join(timeout=30.0)
    elapsed = time.perf_counter() - t0
    if errors:
        raise RuntimeError(f"ingest clients failed: {errors[:3]}")
    return sum(accepted), elapsed


def run_bench(quick: bool) -> dict:
    n_clients = 4 if quick else 8
    duration_s = 2.0 if quick else 6.0
    n_queries = 150 if quick else 600

    svc = PCAService(ServingConfig(n_lanes=2))
    svc.add_tenant(TenantSpec(
        "bench", n_components=4, init_size=20,
        publish_every_blocks=4, queue_capacity_rows=200_000,
        max_block_rows=512,
    ))
    srv = ServingServer(svc, port=0)
    srv.start()
    try:
        # Warm the model past initialization so a snapshot exists.
        with ServingClient(srv.host, srv.port) as c:
            for i in range(8):
                r = c.ingest("bench", _rows(BLOCK_ROWS, i))
                assert r.code == 202, r.body
            deadline = time.perf_counter() + 30.0
            while time.perf_counter() < deadline:
                if c.snapshot("bench").code == 200:
                    break
                time.sleep(0.01)
            else:
                raise RuntimeError("no snapshot after warmup")

        query_payload = _rows(4, seed=7)

        # 1. idle query latency (nothing else talking to the service)
        idle = _query_latencies(
            srv.host, srv.port, n_queries, query_payload
        )

        # 2. single-client ingest throughput (the scaling denominator)
        rows_1c, elapsed_1c = _ingest_run(
            srv.host, srv.port, 1, duration_s
        )

        # 3. N-client ingest throughput
        rows_nc, elapsed_nc = _ingest_run(
            srv.host, srv.port, n_clients, duration_s
        )

        # 4. query latency while the model lock is held by a stalled
        # writer — the direct price of the copy-on-publish contract
        model_lock = svc.tenant("bench").model.lock
        model_lock.acquire()
        try:
            lock_held = _query_latencies(
                srv.host, srv.port, n_queries, query_payload
            )
        finally:
            model_lock.release()

        # 5. query latency while N ingest clients saturate the service
        stop = threading.Event()
        storm_err: list[str] = []

        def storm(cid: int) -> None:
            rng = np.random.default_rng(SEED + 5000 + cid)
            try:
                with ServingClient(srv.host, srv.port) as c:
                    while not stop.is_set():
                        r = c.ingest("bench", _rows(
                            BLOCK_ROWS, int(rng.integers(0, 2**31))
                        ))
                        if r.code not in (202, 429):
                            storm_err.append(str(r.code))
                            return
            except Exception as exc:  # noqa: BLE001
                storm_err.append(repr(exc))

        storm_threads = [
            threading.Thread(target=storm, args=(i,), daemon=True)
            for i in range(n_clients)
        ]
        for t in storm_threads:
            t.start()
        try:
            time.sleep(0.2)  # let the storm actually build
            loaded = _query_latencies(
                srv.host, srv.port, n_queries, query_payload
            )
        finally:
            stop.set()
            for t in storm_threads:
                t.join(timeout=30.0)
        if storm_err:
            raise RuntimeError(f"storm clients failed: {storm_err[:3]}")

        cache = svc.cache.stats()
        svc.pool.drain(60.0)
    finally:
        srv.stop()

    tput_1c = rows_1c / elapsed_1c
    tput_nc = rows_nc / elapsed_nc
    idle_q = _percentiles(idle)
    loaded_q = _percentiles(loaded)
    lock_q = _percentiles(lock_held)
    # Fraction of idle query speed retained while the writer stalls;
    # clamped at 1.0 because "faster than idle" is sub-ms timer noise,
    # not a real effect, and would inflate the committed baseline.
    isolation = min(
        1.0,
        float(np.median(idle)) / float(np.median(lock_held))
        if lock_held else 0.0,
    )

    return {
        "benchmark": "serving_throughput",
        "quick": quick,
        "n_cpus": os.cpu_count(),
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
        "config": {
            "dim": DIM,
            "block_rows": BLOCK_ROWS,
            "n_clients": n_clients,
            "duration_s": duration_s,
            "n_queries": n_queries,
            "n_lanes": 2,
        },
        "results": [
            {
                "name": "serving_ingest_1c",
                "clients": 1,
                "rows_per_s": tput_1c,
            },
            {
                "name": f"serving_ingest_{n_clients}c",
                "clients": n_clients,
                "rows_per_s": tput_nc,
            },
            {
                "name": "serving_ingest_scaling",
                "clients": n_clients,
                "rows_per_s_1c": tput_1c,
                "rows_per_s_nc": tput_nc,
                "speedup": tput_nc / tput_1c if tput_1c else 0.0,
            },
            {
                "name": "serving_query_idle",
                "clients": 1,
                **idle_q,
            },
            {
                "name": "serving_query_under_load",
                "clients": n_clients,
                **loaded_q,
            },
            {
                "name": "serving_query_lock_held",
                "clients": 1,
                **lock_q,
            },
            {
                "name": "serving_query_isolation",
                "clients": 1,
                "idle_p50_ms": idle_q["p50_ms"],
                "lock_held_p50_ms": lock_q["p50_ms"],
                "speedup": isolation,
            },
            {
                "name": "serving_cache",
                "hit_ratio": cache["hit_ratio"],
                "n_hits": cache["n_hits"],
                "n_misses": cache["n_misses"],
                "n_published": cache["n_published"],
            },
        ],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", default="BENCH_serving.json")
    args = ap.parse_args()

    payload = run_bench(quick=args.quick)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    for r in payload["results"]:
        bits = [f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in r.items() if k != "name"]
        print(f"{r['name']}: {', '.join(bits)}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
