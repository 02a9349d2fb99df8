"""Fault-free overhead of the robustness hooks.

The graceful-degradation guards — quarantine validation, the (closed)
shed valve, membership tracking with heartbeats — sit on the hot path
of every healthy run, so their cost when *nothing* is wrong is the
price of being ready for chaos.  This bench runs the identical
fault-free workload with the hooks off and on, interleaved in pairs,
and reports the total-time ratio ``plain / hooked`` as ``speedup``:
1.0 means free.

The guards ride the source's emit loop
(``repro.streams.sources.GuardedVectorSource``), so the hooked graph
has the *same topology* — same operators, PE threads, and queue hops —
as the plain one; what is being priced is pure guard work (validation
~0.5 µs/row, token bucket ~0.75 µs/row, heartbeat control tuples).
Both sides are block-native (the guards judge each row as it is pulled
into the block buffer), so the fault-free run costs ~22 µs/row at d=512
and the guards' ~1.5 µs are ~6 % of it synchronous, ~1 % threaded —
they were 2-3 % of the 52 µs/row the per-row feed cost; the committed
``BENCH_chaos_overhead.json`` baseline records it.  When the guards
were separate graph stages each cost a
dispatch hop per tuple and the threaded runtime paid ~8-10 % even
under chain fusion — that architectural regression is what the CI
floor (``check_regression.py --min-speedup chaos_hooks_*:0.90
--min-cpus 1``) exists to catch.  Single measurements on shared
runners swing ±10 %; the interleaved-pair total-time ratio averages
that down, and a reintroduced per-tuple stage (~0.85) still trips the
floor.

Run directly (``python benchmarks/bench_chaos_overhead.py [--quick]``)
to produce ``BENCH_chaos_overhead.json``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow `python benchmarks/bench_chaos_overhead.py` without PYTHONPATH
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.robust import RobustIncrementalPCA
from repro.data import PlantedSubspaceModel, VectorStream
from repro.parallel.app import build_parallel_pca_graph
from repro.streams import SynchronousEngine, ThreadedEngine

HOOKS = dict(
    quarantine=True,
    # A generous rate keeps the valve closed: we are pricing the
    # token-bucket bookkeeping, not the shedding.
    shed_max_rate_hz=1e9,
    stale_after=24,
    quorum=2,
    heartbeat_every=50,
)


def _run_once(x, runtime: str, n_engines: int, hooks: bool) -> float:
    app = build_parallel_pca_graph(
        VectorStream.from_array(x),
        n_engines,
        lambda i: RobustIncrementalPCA(4, alpha=0.999),
        split_seed=1,
        batch_size=64,
        collect_diagnostics=False,
        **(HOOKS if hooks else {}),
    )
    t0 = time.perf_counter()
    if runtime == "threaded":
        ThreadedEngine(app.graph).run(timeout_s=600)
    else:
        SynchronousEngine(app.graph).run()
    wall = time.perf_counter() - t0
    if hooks:
        assert app.dlq.total == 0, "fault-free run must quarantine nothing"
        assert app.n_shed == 0, "fault-free run must shed nothing"
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fault-free overhead of quarantine/valve/membership"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_chaos_overhead.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_rows, dim, repeats = 6000, 512, 3
    else:
        n_rows, dim, repeats = 12000, 512, 7

    n_engines = 4
    from conftest import bench_environment  # benchmarks/ is sys.path[0]

    model = PlantedSubspaceModel(dim=dim, seed=4)
    x = model.sample(n_rows, np.random.default_rng(1))
    env = bench_environment()
    n_cpus = env["n_cpus"]

    results = []
    for runtime in ("synchronous", "threaded"):
        # One unmeasured pair warms caches and the thread machinery.
        _run_once(x, runtime, n_engines, hooks=False)
        _run_once(x, runtime, n_engines, hooks=True)
        # Interleaved pairs so machine drift hits both sides alike,
        # alternating which side goes first so a monotonic ramp
        # (frequency scaling, background load) cannot systematically
        # favour one; the total-time ratio then averages per-run
        # scheduler noise (±10% on a busy box) instead of amplifying
        # it the way min-of-N ratios do when the true difference is ~1%.
        plain, hooked = [], []
        for i in range(repeats):
            for hooks in ((False, True) if i % 2 == 0 else (True, False)):
                t = _run_once(x, runtime, n_engines, hooks=hooks)
                (hooked if hooks else plain).append(t)
        r = {
            "name": f"chaos_hooks_{runtime}",
            "runtime": runtime,
            "dim": dim,
            "n_rows": n_rows,
            "plain_rows_per_s": n_rows / min(plain),
            "hooked_rows_per_s": n_rows / min(hooked),
            "speedup": sum(plain) / sum(hooked),
        }
        results.append(r)
        print(
            f"{r['name']:24s}  plain {r['plain_rows_per_s']:8.0f} rows/s"
            f"  hooked {r['hooked_rows_per_s']:8.0f} rows/s"
            f"  ratio {r['speedup']:5.3f}x"
            f"  (overhead {100 * (1 - r['speedup']):.1f}%)",
            flush=True,
        )

    payload = {
        "benchmark": "chaos_overhead",
        "quick": args.quick,
        **env,
        "config": {
            "n_components": 4,
            "n_engines": n_engines,
            "dim": dim,
            "n_rows": n_rows,
            "batch_size": 64,
            "alpha": 0.999,
            "repeats": repeats,
            "hooks": {k: v for k, v in HOOKS.items()},
        },
        "results": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out} (n_cpus={n_cpus})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
