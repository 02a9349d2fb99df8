"""Benchmark the price of durable ingest: WAL append modes and the
end-to-end service overhead.

The durability plane puts a write-ahead-log append *in front of* every
ingest ack (``repro.serving.durability.WriteAheadLog``).  The three
modes buy three different ack guarantees; this benchmark prices them at
two levels:

* **Raw append** — ``WriteAheadLog.append`` alone, no service around
  it.  The machine-portable, CI-gated ratio is
  ``wal_async_overhead = async rows/s / none rows/s``: the cost of the
  per-record ``flush()`` that upgrades the ack from "buffered
  in-process" to "survives process death".  Both sides are CPU-bound
  writes to the page cache on the same machine, so the ratio is stable
  and must stay near 1.0 (``check_regression.py ... --min-speedup
  wal_async_overhead:0.85``).  The fsync ratio is recorded too
  (``ratio_vs_none``) but **not** gated: it prices the storage device,
  not the code, and varies 100x between laptops and CI runners.
* **Service ingest** — ``PCAService.ingest`` end to end (no HTTP) with
  no data dir vs each durability mode.  Absolute rows/s are recorded
  for the artifact (``ingest_*`` entries, no ``speedup`` key) so a
  human can see what durable admission costs in context; they are
  machine-specific and deliberately ungated.

Run directly (``python benchmarks/bench_wal_overhead.py [--quick]
[--out BENCH_wal_overhead.json]``) to produce the committed baseline.
The committed payload is an honest 1-CPU run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow running without PYTHONPATH=src
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serving import PCAService, ServingConfig, TenantSpec
from repro.serving.durability import WriteAheadLog

SEED = 20120513
DIM = 32
BLOCK_ROWS = 64


def _blocks(n: int) -> list[np.ndarray]:
    plant = np.random.default_rng(SEED).normal(size=(4, DIM))
    rng = np.random.default_rng(SEED + 1)
    out = []
    for _ in range(n):
        coeff = rng.normal(size=(BLOCK_ROWS, 4)) * np.array(
            [6.0, 4.0, 3.0, 2.0]
        )
        out.append(coeff @ plant + 0.1 * rng.normal(size=(BLOCK_ROWS, DIM)))
    return out


def _append_tput(
    blocks: list[np.ndarray], scratch: Path, mode: str, repeats: int
) -> dict:
    """Best-of-``repeats`` rows/s for raw WAL appends in one mode.

    Best-of (not median): append is deterministic CPU + page-cache work,
    so the fastest pass is the least-interfered measurement.
    """
    rates = []
    n_fsyncs = 0
    for rep in range(repeats):
        d = scratch / f"wal-{mode}-{rep}"
        wal = WriteAheadLog(d, durability=mode)
        t0 = time.perf_counter()
        for b in blocks:
            wal.append(b)
        dt = time.perf_counter() - t0
        wal.close()
        rates.append(len(blocks) * BLOCK_ROWS / dt)
        n_fsyncs = wal.n_fsyncs
        for _seq, path in wal.segments():
            path.unlink()
    return {
        "rows_per_s": float(max(rates)),
        "rows_per_s_median": float(np.median(rates)),
        "n_fsyncs": n_fsyncs,
    }


def _ingest_tput(
    blocks: list[np.ndarray],
    data_dir: str | None,
    durability: str,
    repeats: int,
) -> dict:
    """Best-of-``repeats`` rows/s for direct service ingest."""
    cfg = ServingConfig(
        n_lanes=1,
        data_dir=data_dir,
        durability=durability,
        # Keep the checkpointer out of the measurement window: the WAL
        # append is the per-ingest cost being priced here.
        checkpoint_every_publishes=10_000,
        checkpoint_interval_s=3600.0,
    )
    svc = PCAService(cfg)
    svc.add_tenant(TenantSpec(
        "bench", n_components=4, init_size=20,
        publish_every_blocks=8, queue_capacity_rows=10_000_000,
        max_block_rows=512,
    ))
    svc.start()
    if svc.durability is not None:
        svc.durability.recovery.wait(30.0)
    rates = []
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for b in blocks:
                code, payload = svc.ingest("bench", b)
                if code != 202:
                    raise RuntimeError(f"ingest failed: {code} {payload}")
            dt = time.perf_counter() - t0
            rates.append(len(blocks) * BLOCK_ROWS / dt)
            svc.pool.drain(60.0)
    finally:
        svc.stop()
    return {
        "rows_per_s": float(max(rates)),
        "rows_per_s_median": float(np.median(rates)),
    }


def run_bench(quick: bool, scratch: Path) -> dict:
    n_blocks = 120 if quick else 400
    repeats = 3 if quick else 5
    blocks = _blocks(n_blocks)

    append = {
        mode: _append_tput(blocks, scratch, mode, repeats)
        for mode in ("none", "async", "fsync")
    }
    ingest = {"off": _ingest_tput(blocks, None, "async", repeats)}
    for mode in ("none", "async", "fsync"):
        ingest[mode] = _ingest_tput(
            blocks, str(scratch / f"data-{mode}"), mode, repeats
        )

    none_rate = append["none"]["rows_per_s"]

    return {
        "benchmark": "wal_overhead",
        "quick": quick,
        "n_cpus": os.cpu_count(),
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
        "config": {
            "dim": DIM,
            "block_rows": BLOCK_ROWS,
            "n_blocks": n_blocks,
            "repeats": repeats,
            "n_lanes": 1,
        },
        "results": [
            {"name": "wal_append_none", **append["none"]},
            {"name": "wal_append_async", **append["async"]},
            {"name": "wal_append_fsync", **append["fsync"]},
            {
                # The gated ratio: flush-per-record vs buffered.
                "name": "wal_async_overhead",
                "rows_per_s": append["async"]["rows_per_s"],
                "baseline_rows_per_s": none_rate,
                "speedup": (
                    append["async"]["rows_per_s"] / none_rate
                    if none_rate else 0.0
                ),
            },
            {
                # Device-priced; recorded, never gated (no "speedup").
                "name": "wal_fsync_overhead",
                "rows_per_s": append["fsync"]["rows_per_s"],
                "baseline_rows_per_s": none_rate,
                "n_fsyncs": append["fsync"]["n_fsyncs"],
                "ratio_vs_none": (
                    append["fsync"]["rows_per_s"] / none_rate
                    if none_rate else 0.0
                ),
            },
            {"name": "ingest_no_durability", **ingest["off"]},
            {"name": "ingest_wal_none", **ingest["none"]},
            {"name": "ingest_wal_async", **ingest["async"]},
            {"name": "ingest_wal_fsync", **ingest["fsync"]},
        ],
    }


def main() -> int:
    import tempfile

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", default="BENCH_wal_overhead.json")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-walbench-") as scratch:
        payload = run_bench(quick=args.quick, scratch=Path(scratch))
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
