"""Process-vs-thread scaling of the parallel PCA application.

The paper's Fig. 6 scales PEs across real CPUs; our ThreadedEngine
cannot (one GIL), so this bench measures what the process runtime (one
loopback engine host per PCA engine) buys at a CPU-bound operating point
— robust PCA at d >= 1000, micro-batched — for growing engine fleets.
Speedup here is **process over thread at equal engine count**: both
share the machine and BLAS, so the ratio cancels hardware out.

The payload records ``n_cpus``: on a single-core runner the process
runtime *cannot* beat the threaded one (expect ~1x minus transport
overhead), and ``check_regression.py --min-speedup`` skips its absolute
gate accordingly.  The link counters (``result.engine.cluster_stats``)
of the fastest run are recorded, and the run checks that no payload
fell back to pickling (``wire_stats()["pickled_payloads"] == 0``).

Run directly (``python benchmarks/bench_process_scaling.py [--quick]``)
to produce ``BENCH_process_scaling.json``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow `python benchmarks/bench_process_scaling.py` without PYTHONPATH
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import PlantedSubspaceModel, VectorStream
from repro.parallel import ParallelStreamingPCA
from repro.streams import wire_stats


def _runner(n_engines: int, runtime: str, dim: int, batch_size: int):
    return ParallelStreamingPCA(
        5,
        n_engines=n_engines,
        alpha=0.999,
        runtime=runtime,
        batch_size=batch_size,
        collect_diagnostics=False,
        timeout_s=600.0,
    )


def _time(x, n_engines, runtime, batch_size):
    """One run through the front door; returns (wall_s, result)."""
    t0 = time.perf_counter()
    result = _runner(n_engines, runtime, x.shape[1], batch_size).run(
        VectorStream.from_array(x)
    )
    return time.perf_counter() - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Thread vs process runtime scaling for parallel PCA"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_process_scaling.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_rows, dim, batch_size, repeats = 2000, 512, 64, 1
        fleets = (1, 2, 4)
    else:
        n_rows, dim, batch_size, repeats = 4000, 1000, 64, 2
        fleets = (1, 2, 4, 8)

    from conftest import bench_environment  # benchmarks/ is sys.path[0]

    model = PlantedSubspaceModel(dim=dim, seed=4)
    x = model.sample(n_rows, np.random.default_rng(1))
    env = bench_environment()
    n_cpus = env["n_cpus"]

    results = []
    transport = None
    for n_engines in fleets:
        t_thread = min(
            _time(x, n_engines, "threaded", batch_size)[0]
            for _ in range(repeats)
        )
        best = None
        for _ in range(repeats):
            wall, result = _time(x, n_engines, "process", batch_size)
            if best is None or wall < best:
                best = wall
                transport = dict(result.engine.cluster_stats)
        r = {
            "name": f"process_vs_thread_e{n_engines}",
            "n_engines": n_engines,
            "dim": dim,
            "n_rows": n_rows,
            "thread_rows_per_s": n_rows / t_thread,
            "process_rows_per_s": n_rows / best,
            "speedup": t_thread / best,
        }
        results.append(r)
        print(
            f"{r['name']:24s}  thread {r['thread_rows_per_s']:8.0f} rows/s"
            f"  process {r['process_rows_per_s']:8.0f} rows/s"
            f"  speedup {r['speedup']:5.2f}x",
            flush=True,
        )

    payload = {
        "benchmark": "process_scaling",
        "quick": args.quick,
        **env,
        "config": {
            "n_components": 5,
            "dim": dim,
            "n_rows": n_rows,
            "batch_size": batch_size,
            "alpha": 0.999,
            "repeats": repeats,
        },
        "transport": transport,
        "results": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out} (n_cpus={n_cpus})")
    pickled = wire_stats()["pickled_payloads"]
    if pickled:
        print(f"error: {pickled} payload value(s) fell back to pickling")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
