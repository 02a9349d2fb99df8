"""Benchmark the stream engine itself: per-tuple framework overhead.

InfoSphere's value proposition is that the dataflow substrate adds little
cost over the math; this bench measures our substitute's overhead — the
synchronous engine's per-tuple dispatch, the threaded engine's queue hop,
and the end-to-end parallel PCA application on both runtimes.

Run directly (``python benchmarks/bench_streams_engine.py [--quick]``) to
produce ``BENCH_streams_engine.json``: per-tuple (seed) vs micro-batched
end-to-end pipeline throughput, recorded as rows/s and speedup ratios.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow `python benchmarks/bench_streams_engine.py` without PYTHONPATH
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import PlantedSubspaceModel, VectorStream
from repro.parallel import ParallelStreamingPCA
from repro.streams import (
    CollectingSink,
    Graph,
    Split,
    SynchronousEngine,
    ThreadedEngine,
    Union,
    VectorSource,
)


def _pipeline_graph(x: np.ndarray, n_ways: int = 4) -> tuple[Graph, CollectingSink]:
    g = Graph("bench")
    src = g.add(VectorSource("src", VectorStream.from_array(x)))
    split = g.add(Split("split", n_ways, strategy="round_robin"))
    uni = g.add(Union("union", n_ways))
    sink = g.add(CollectingSink("sink"))
    g.connect(src, split)
    for i in range(n_ways):
        g.connect(split, uni, out_port=i, in_port=i)
    g.connect(uni, sink)
    return g, sink


def test_synchronous_engine_dispatch(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20_000, 16))

    def run():
        g, sink = _pipeline_graph(x)
        SynchronousEngine(g).run()
        return len(sink.tuples)

    n = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n == 20_000


def test_threaded_engine_dispatch(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20_000, 16))

    def run():
        g, sink = _pipeline_graph(x)
        ThreadedEngine(g).run(timeout_s=60)
        return len(sink.tuples)

    n = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n == 20_000


def test_parallel_pca_end_to_end_synchronous(benchmark):
    model = PlantedSubspaceModel(dim=100, seed=4)
    x = model.sample(4000, np.random.default_rng(1))

    def run():
        runner = ParallelStreamingPCA(
            5, n_engines=4, alpha=0.995, collect_diagnostics=False
        )
        return runner.run(VectorStream.from_array(x))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.global_state.n_components == 5


def test_parallel_pca_end_to_end_batched(benchmark):
    """Same pipeline with the Batcher feeding (k, d) blocks downstream."""
    model = PlantedSubspaceModel(dim=100, seed=4)
    x = model.sample(4000, np.random.default_rng(1))

    def run():
        runner = ParallelStreamingPCA(
            5,
            n_engines=4,
            alpha=0.995,
            batch_size=64,
            collect_diagnostics=False,
        )
        return runner.run(VectorStream.from_array(x))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.global_state.n_components == 5


def test_parallel_pca_end_to_end_threaded(benchmark):
    model = PlantedSubspaceModel(dim=100, seed=4)
    x = model.sample(4000, np.random.default_rng(1))

    def run():
        runner = ParallelStreamingPCA(
            5,
            n_engines=4,
            alpha=0.995,
            runtime="threaded",
            collect_diagnostics=False,
        )
        return runner.run(VectorStream.from_array(x))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.global_state.n_components == 5


# ---------------------------------------------------------------------------
# Standalone JSON runner: per-tuple (seed) vs micro-batched pipelines
# ---------------------------------------------------------------------------


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run_pipeline(
    x: np.ndarray,
    *,
    runtime: str,
    batch_size: int,
    n_engines: int,
    repeats: int,
) -> float:
    """Best-of-N wall time for one full parallel PCA run."""

    def run():
        runner = ParallelStreamingPCA(
            5,
            n_engines=n_engines,
            alpha=0.999,
            runtime=runtime,
            batch_size=batch_size,
            collect_diagnostics=False,
        )
        runner.run(VectorStream.from_array(x))

    return min(_time_once(run) for _ in range(repeats))


def _dispatch_overhead(n_tuples: int) -> float:
    """Framework-only tuples/s through source→split→union→sink."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n_tuples, 16))

    def run():
        g, sink = _pipeline_graph(x)
        SynchronousEngine(g).run()
        assert len(sink.tuples) == n_tuples

    return n_tuples / min(_time_once(run) for _ in range(3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Seed vs micro-batched streaming pipeline throughput"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_streams_engine.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_rows, dim, repeats, n_dispatch = 2000, 250, 1, 5_000
    else:
        n_rows, dim, repeats, n_dispatch = 8000, 500, 3, 20_000

    model = PlantedSubspaceModel(dim=dim, seed=4)
    x = model.sample(n_rows, np.random.default_rng(1))

    results = []
    for runtime in ("synchronous", "threaded"):
        t_seed = _run_pipeline(
            x, runtime=runtime, batch_size=0, n_engines=2, repeats=repeats
        )
        t_batch = _run_pipeline(
            x, runtime=runtime, batch_size=64, n_engines=2, repeats=repeats
        )
        r = {
            "name": f"parallel_pca_{runtime}",
            "dim": dim,
            "n_rows": n_rows,
            "seed_rows_per_s": n_rows / t_seed,
            "batched_rows_per_s": n_rows / t_batch,
            "speedup": t_seed / t_batch,
        }
        results.append(r)
        print(
            f"{r['name']:26s}  seed {r['seed_rows_per_s']:8.0f} rows/s"
            f"  batched {r['batched_rows_per_s']:8.0f} rows/s"
            f"  speedup {r['speedup']:5.2f}x",
            flush=True,
        )

    from conftest import bench_environment  # benchmarks/ is sys.path[0]

    payload = {
        "benchmark": "streams_engine",
        "quick": args.quick,
        **bench_environment(),
        "config": {
            "n_components": 5,
            "n_engines": 2,
            "batch_size": 64,
            "alpha": 0.999,
            "repeats": repeats,
        },
        "dispatch_tuples_per_s": _dispatch_overhead(n_dispatch),
        "results": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
