"""Host-count scaling of the cluster (TCP) runtime vs the simulator.

The paper's Fig. 6/7 measure streaming-PCA throughput as engines spread
over real InfoSphere nodes.  ``repro.cluster`` *predicts* that scaling
with a discrete-event model; the ClusterEngine now lets us *measure* it
on real sockets: one coordinator plus N engine-host processes on
localhost, every data block crossing a framed TCP connection.

Two ratios come out of each fleet size:

* ``speedup`` — measured throughput relative to the 1-host fleet.  This
  is the portable regression signal (both sides share the machine).
* ``sim_ratio`` — measured speedup over the simulator's predicted
  speedup for the same engine count (single-node placement: localhost
  processes share CPUs exactly like the paper's threads share a node).
  A healthy runtime keeps this near 1; a transport regression (e.g. a
  serialization hot spot) drags it down while the simulator, which
  prices only modelled costs, stays put.

The payload records ``n_cpus``: with fewer cores than hosts the measured
curve flattens for reasons the simulator does not model, so
``check_regression.py --min-speedup`` gates are armed only on real
multi-core runners.

Run directly (``python benchmarks/bench_cluster_scaling.py [--quick]``)
to produce ``BENCH_cluster_scaling.json``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow `python benchmarks/bench_cluster_scaling.py` without PYTHONPATH
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import (
    PAPER_TESTBED,
    PCACostModel,
    Placement,
    SimConfig,
    simulate_streaming_pca,
)
from repro.data import PlantedSubspaceModel, VectorStream
from repro.parallel import ParallelStreamingPCA


def _time_cluster(x, n_hosts, batch_size) -> tuple[float, dict]:
    """One cluster-runtime run; returns (wall_s, cluster_stats)."""
    runner = ParallelStreamingPCA(
        5,
        n_engines=n_hosts,
        alpha=0.999,
        runtime="cluster",
        batch_size=batch_size,
        collect_diagnostics=False,
        timeout_s=600.0,
    )
    t0 = time.perf_counter()
    result = runner.run(VectorStream.from_array(x))
    wall = time.perf_counter() - t0
    return wall, dict(result.engine.cluster_stats)


def _sim_throughput(n_engines: int, dim: int) -> float:
    """Predicted obs/s for ``n_engines`` on one node (Fig. 6 'single')."""
    report = simulate_streaming_pca(
        SimConfig(
            spec=PAPER_TESTBED,
            placement=Placement.single_node(n_engines),
            cost=PCACostModel.paper_scale(),
            dim=dim,
            n_components=5,
        )
    )
    return report.throughput


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cluster (TCP) runtime scaling vs simulator prediction"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_cluster_scaling.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_rows, dim, batch_size, repeats = 2000, 256, 64, 1
        fleets = (1, 2, 3)
    else:
        n_rows, dim, batch_size, repeats = 4000, 512, 64, 2
        fleets = (1, 2, 4)

    from conftest import bench_environment  # benchmarks/ is sys.path[0]

    model = PlantedSubspaceModel(dim=dim, seed=4)
    x = model.sample(n_rows, np.random.default_rng(1))
    env = bench_environment()
    n_cpus = env["n_cpus"]

    results = []
    transport = None
    t_one = None
    sim_one = None
    for n_hosts in fleets:
        best = None
        for _ in range(repeats):
            wall, stats = _time_cluster(x, n_hosts, batch_size)
            if best is None or wall < best:
                best = wall
                transport = stats
        sim_tp = _sim_throughput(n_hosts, dim)
        if t_one is None:
            t_one, sim_one = best, sim_tp
        speedup = t_one / best
        sim_speedup = sim_tp / sim_one
        r = {
            "name": f"cluster_hosts_{n_hosts}",
            "n_hosts": n_hosts,
            "dim": dim,
            "n_rows": n_rows,
            "rows_per_s": n_rows / best,
            "speedup": speedup,
            "sim_speedup": sim_speedup,
            "sim_ratio": speedup / sim_speedup,
        }
        results.append(r)
        print(
            f"{r['name']:18s}  {r['rows_per_s']:8.0f} rows/s"
            f"  speedup {speedup:5.2f}x"
            f"  sim predicts {sim_speedup:5.2f}x"
            f"  ratio {r['sim_ratio']:5.2f}",
            flush=True,
        )

    if transport is not None and (
        transport.get("host_deaths") or transport.get("tuples_lost")
    ):
        print(
            f"warning: degraded bench run — deaths="
            f"{transport.get('host_deaths')} "
            f"lost={transport.get('tuples_lost')}"
        )

    payload = {
        "benchmark": "cluster_scaling",
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
