"""Benchmark the cost of telemetry on the stream engines.

The observability layer is tiered so the default is effectively free
(see ``docs/telemetry.md`` for the budget):

* **off** — no ``Telemetry`` object at all (the baseline).
* **metrics** — the default ``TelemetryConfig()``: registry collectors
  read existing operator counters at export time, so the per-tuple hot
  path is untouched.  Budget: < 5% throughput cost vs off.
* **metrics+timing** — per-dispatch latency histograms (one
  ``perf_counter`` pair per delivery).
* **metrics+tracing** — sampled span tracing (one dict probe per
  dispatch; span bookkeeping only on sampled 1-in-128 tuples).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py``
(uses pytest-benchmark, like the other benches), and compare the
``sync_*`` / ``threaded_*`` groups.

Run directly (``python benchmarks/bench_telemetry_overhead.py [--quick]``)
to produce ``BENCH_telemetry_overhead.json``: the committed baseline that
arms the CI floor (``check_regression.py --min-speedup
telemetry_metrics_*:0.90 --min-speedup telemetry_monitors_*:0.90``).
The direct runner prices the tiers on the realistic parallel-PCA graph —
``off`` (no Telemetry), ``metrics`` (registry collectors plus the sink
e2e-latency/watermark instrumentation of PR 7), and ``monitors``
(metrics plus per-engine model-health monitors) — as total-time ratios
``off / tier`` over interleaved pairs, so the documented < 5% budget has
a regression gate and not just a docstring.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow `python benchmarks/bench_telemetry_overhead.py` without PYTHONPATH
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import VectorStream
from repro.streams import (
    CollectingSink,
    Graph,
    Split,
    SynchronousEngine,
    Telemetry,
    TelemetryConfig,
    ThreadedEngine,
    Union,
    VectorSource,
)

N_TUPLES = 20_000
DIM = 16

CONFIGS = {
    "off": None,
    "metrics": TelemetryConfig(),
    "metrics+timing": TelemetryConfig(timing=True),
    "metrics+tracing": TelemetryConfig(tracing=True),
}


def _pipeline_graph(x: np.ndarray, n_ways: int = 4):
    g = Graph("bench-telemetry")
    src = g.add(VectorSource("src", VectorStream.from_array(x)))
    split = g.add(Split("split", n_ways, strategy="round_robin"))
    uni = g.add(Union("union", n_ways))
    sink = g.add(CollectingSink("sink"))
    g.connect(src, split)
    for i in range(n_ways):
        g.connect(split, uni, out_port=i, in_port=i)
    g.connect(uni, sink)
    return g, sink


def _data():
    rng = np.random.default_rng(0)
    return rng.standard_normal((N_TUPLES, DIM))


def _bench_sync(benchmark, config):
    x = _data()

    def run():
        g, sink = _pipeline_graph(x)
        tel = Telemetry(config) if config is not None else None
        SynchronousEngine(g, telemetry=tel).run()
        return len(sink.tuples)

    n = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n == N_TUPLES


def _bench_threaded(benchmark, config):
    x = _data()

    def run():
        g, sink = _pipeline_graph(x)
        tel = Telemetry(config) if config is not None else None
        ThreadedEngine(g, telemetry=tel).run(timeout_s=120)
        return len(sink.tuples)

    n = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n == N_TUPLES


def test_sync_telemetry_off(benchmark):
    _bench_sync(benchmark, CONFIGS["off"])


def test_sync_metrics_only(benchmark):
    _bench_sync(benchmark, CONFIGS["metrics"])


def test_sync_metrics_timing(benchmark):
    _bench_sync(benchmark, CONFIGS["metrics+timing"])


def test_sync_metrics_tracing(benchmark):
    _bench_sync(benchmark, CONFIGS["metrics+tracing"])


def test_threaded_telemetry_off(benchmark):
    _bench_threaded(benchmark, CONFIGS["off"])


def test_threaded_metrics_only(benchmark):
    _bench_threaded(benchmark, CONFIGS["metrics"])


def test_threaded_metrics_tracing(benchmark):
    _bench_threaded(benchmark, CONFIGS["metrics+tracing"])


def test_metrics_only_overhead_within_budget():
    """The documented budget: metrics-only telemetry costs < 5%.

    Measured directly (not via pytest-benchmark) so the check runs in
    plain test suites too; best-of-3 on each side smooths scheduler
    noise.
    """
    import time

    x = _data()

    def run_once(config):
        g, sink = _pipeline_graph(x)
        tel = Telemetry(config) if config is not None else None
        t0 = time.perf_counter()
        SynchronousEngine(g, telemetry=tel).run()
        elapsed = time.perf_counter() - t0
        assert len(sink.tuples) == N_TUPLES
        return elapsed

    base = min(run_once(None) for _ in range(3))
    metrics = min(run_once(TelemetryConfig()) for _ in range(3))
    overhead = metrics / base - 1.0
    # Generous ceiling for noisy CI boxes; the budget itself is 5%.
    assert overhead < 0.25, (
        f"metrics-only telemetry overhead {overhead:.1%} "
        f"(baseline {base:.3f}s, metrics {metrics:.3f}s)"
    )


# ---------------------------------------------------------------------------
# Standalone JSON runner (the committed-baseline / CI-gate face)
# ---------------------------------------------------------------------------

#: The tiers the JSON runner prices, in severity order.  ``monitors``
#: is ``metrics`` plus per-engine HealthMonitors (subspace affinity,
#: eigenspectrum drift, r² control chart — checked every 256 rows).
TIERS = ("off", "metrics", "monitors")


def _run_pca_once(x, runtime: str, n_engines: int, tier: str) -> float:
    from repro.core.robust import RobustIncrementalPCA
    from repro.parallel.app import build_parallel_pca_graph
    from repro.streams import ThreadedEngine

    app = build_parallel_pca_graph(
        VectorStream.from_array(x),
        n_engines,
        lambda i: RobustIncrementalPCA(4, alpha=0.999),
        split_seed=1,
        batch_size=64,
        collect_diagnostics=True,
        health=(tier == "monitors"),
    )
    tel = Telemetry(TelemetryConfig()) if tier != "off" else None
    t0 = time.perf_counter()
    if runtime == "threaded":
        ThreadedEngine(app.graph, telemetry=tel).run(timeout_s=600)
    else:
        SynchronousEngine(app.graph, telemetry=tel).run()
    wall = time.perf_counter() - t0
    if tier == "monitors":
        assert all(m.n_checks > 0 for m in app.health_monitors), (
            "monitors tier must actually run health checks"
        )
    if tel is not None:
        # The instrumentation being priced must be live: sinks observed
        # end-to-end latency into the histogram.
        assert any(
            getattr(m, "name", "") == "repro_e2e_latency_seconds"
            and m.count > 0
            for m in tel.metrics.collect()
        ), "e2e latency histograms must be populated"
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Telemetry/health-monitor overhead on the PCA graph"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_telemetry_overhead.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_rows, dim, repeats = 6000, 128, 3
    else:
        n_rows, dim, repeats = 12000, 128, 7

    n_engines = 4
    from conftest import bench_environment  # benchmarks/ is sys.path[0]

    rng = np.random.default_rng(7)
    x = rng.standard_normal((n_rows, dim))
    env = bench_environment()

    results = []
    for runtime in ("synchronous", "threaded"):
        # Warm caches and the thread machinery once per runtime.
        for tier in TIERS:
            _run_pca_once(x, runtime, n_engines, tier)
        # Interleaved rounds (off first on even rounds, last on odd) so
        # machine drift hits every tier alike — same rationale as
        # bench_chaos_overhead.py.
        walls: dict[str, list[float]] = {t: [] for t in TIERS}
        for i in range(repeats):
            order = TIERS if i % 2 == 0 else tuple(reversed(TIERS))
            for tier in order:
                walls[tier].append(
                    _run_pca_once(x, runtime, n_engines, tier)
                )
        base_total = sum(walls["off"])
        for tier in ("metrics", "monitors"):
            r = {
                "name": f"telemetry_{tier}_{runtime}",
                "runtime": runtime,
                "tier": tier,
                "dim": dim,
                "n_rows": n_rows,
                "off_rows_per_s": n_rows / min(walls["off"]),
                "tier_rows_per_s": n_rows / min(walls[tier]),
                "speedup": base_total / sum(walls[tier]),
            }
            results.append(r)
            print(
                f"{r['name']:32s}  off {r['off_rows_per_s']:8.0f} rows/s"
                f"  {tier} {r['tier_rows_per_s']:8.0f} rows/s"
                f"  ratio {r['speedup']:5.3f}x"
                f"  (overhead {100 * (1 - r['speedup']):.1f}%)",
                flush=True,
            )

    payload = {
        "benchmark": "telemetry_overhead",
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
            "health_check_every": 256,
        },
        "results": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out} (n_cpus={env['n_cpus']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
