"""Names, units, directions and bounds: the benchmark's fixed vocabulary.

``BENCHMARK.json`` at the repository root is the contract copy of the
workload and metric tables here (``bench/tests/test_spec.py`` keeps the
two equal).  Sizes are constants, not options: a result is comparable
with another only when both used the same ones.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 10
#: Seconds per run under ``--smoke`` (results flagged non-comparable).
SMOKE_SECONDS = 0.5
#: Under ``--smoke`` the affinity floor only asks for a basis that is not
#: garbage: a few thousand rows do not converge.
SMOKE_AFFINITY_FLOOR = 0.5
DEFAULT_SEED = 20120513
#: The load generator is this process: one ingest + one probe connection.
GENERATOR_THREADS = 2
#: BLAS pools are capped so the parallelism measured is the runtime's.
BLAS_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

N_COMPONENTS = 4
BLOCK_ROWS = 64
TENANT = "bench"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" | "serve"
    dim: int
    why: str
    #: ``subspace_affinity`` below this fails the run.
    affinity_floor: float
    #: Pipelines: rows streamed per second of ``--seconds`` (the job is
    #: sized, not timed, so one seed always gives the same rows; the
    #: rates are what the 2-core reference box sustains).
    rows_per_second_of_run: int = 0
    #: Serving: open-loop probe rate; ``probe`` names the client call.
    probe: str = ""
    probe_hz: float = 0.0
    durable: bool = False


WORKLOADS = (
    Workload(
        "pipeline_wide", "pipeline", 1000,
        "survey-width spectra with gaps and outliers: repro.core does "
        "most of the work, so a kernel gain shows here and a dispatch "
        "gain barely does",
        affinity_floor=0.93, rows_per_second_of_run=5000,
    ),
    Workload(
        "pipeline_narrow", "pipeline", 32,
        "same graph, 32-d clean rows: per-tuple cost in repro.streams "
        "dominates and repro.core runs its clean-row path, so a gap-path "
        "gain that taxes clean rows shows here",
        affinity_floor=0.995, rows_per_second_of_run=16000,
    ),
    Workload(
        "serve_narrow", "serve", 32,
        "small HTTP blocks: per-request cost (event loop, admission, "
        "queue hop, lane) dominates, and a 50 Hz query probe runs beside "
        "the writes so an ingest gain that costs reads shows",
        affinity_floor=0.99, probe="transform", probe_hz=50.0,
    ),
    Workload(
        "serve_wide", "serve", 1000,
        "spectra-width HTTP blocks: the JSON wire codec in client and "
        "server does almost all the work, so a wire-format change shows "
        "here and nowhere else",
        affinity_floor=0.99, probe="snapshot", probe_hz=5.0,
    ),
    Workload(
        "serve_durable", "serve", 32,
        "serve_narrow with --durability fsync, then SIGKILL and restart: "
        "the only workload where serving.durability (WAL append, fsync, "
        "replay) does any work",
        affinity_floor=0.99, probe="transform", probe_hz=50.0,
        durable=True,
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}
SERVE = tuple(w.name for w in WORKLOADS if w.kind == "serve")
QUERYING = tuple(w.name for w in WORKLOADS if w.probe == "transform")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the baseline's median by which the metric may worsen;
    #: ``None`` = reported, never gated.
    bound: float | None = None
    #: Workloads that produce it (empty = all five).
    on: tuple[str, ...] = ()


#: What ``--trace 0`` prints for every workload (BENCHMARK.json
#: ``end_to_end``).  The contract wants each of them from each workload.
END_TO_END = (
    Metric("rows_per_s", "rows/s", "higher", 0.25),
    Metric("subspace_affinity", "cos", "higher", 0.05),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
)

#: End-to-end latencies only a server has.  Measured in the untraced run
#: like the four above and gated by ``bench/compare.py`` with these
#: bounds (which the contract's 0.25 cap does not reach), but listed
#: under ``per_layer`` in BENCHMARK.json because the pipelines cannot
#: produce them.
SERVING_LATENCIES = (
    Metric("serving.http.ack_p50_ms", "ms", "lower", 0.35, SERVE),
    Metric("serving.http.query_p50_ms", "ms", "lower", 0.35, QUERYING),
    Metric("serving.http.freshness_p50_ms", "ms", "lower", 0.35, SERVE),
)

_PIPE = ("pipeline_wide", "pipeline_narrow")
_DURABLE = ("serve_durable",)

#: What ``--trace 1`` prints (BENCHMARK.json ``per_layer``); a layer that
#: does no work in a workload reports 0.
PER_LAYER = SERVING_LATENCIES + (
    Metric("core.update_block_rows_per_s", "rows/s", "higher", on=_PIPE),
    Metric("core.gap_rows_share", "ratio", "lower", on=_PIPE),
    Metric("core.merge_ms", "ms", "lower", on=_PIPE),
    Metric("parallel.engine_busy_s", "s", "lower", on=_PIPE),
    Metric("parallel.engine_busy_share", "ratio", "lower", on=_PIPE),
    Metric("parallel.sync_busy_s", "s", "lower", on=_PIPE),
    Metric("parallel.syncs", "count", "higher", on=_PIPE),
    Metric("parallel.engine_row_skew", "ratio", "lower", on=_PIPE),
    Metric("streams.source_busy_s", "s", "lower", on=_PIPE),
    Metric("streams.batcher_busy_s", "s", "lower", on=_PIPE),
    Metric("streams.split_busy_s", "s", "lower", on=_PIPE),
    Metric("streams.dispatch_overhead_s", "s", "lower", on=_PIPE),
    Metric("streams.bottleneck_busy_share", "ratio", "lower", on=_PIPE),
    Metric("streams.tuples_dispatched", "count", "lower", on=_PIPE),
    Metric("streams.batch_fill", "ratio", "higher", on=_PIPE),
    Metric("streams.sync_rows_per_s", "rows/s", "higher", on=_PIPE),
    Metric("streams.threaded_over_sync", "ratio", "higher", on=_PIPE),
    Metric("serving.client.ingest_ms_per_block", "ms", "lower", on=SERVE),
    Metric("serving.http.codec_transport_ms_per_block", "ms", "lower",
           on=SERVE),
    Metric("serving.http.json_ms_per_block", "ms", "lower", on=SERVE),
    Metric("serving.http.query_overhead_ms", "ms", "lower", on=QUERYING),
    Metric("serving.http.ack_p95_ms", "ms", "lower", on=SERVE),
    Metric("serving.http.query_p95_ms", "ms", "lower", on=QUERYING),
    Metric("serving.http.freshness_p95_ms", "ms", "lower", on=SERVE),
    Metric("serving.service.admit_ms_per_block", "ms", "lower", on=SERVE),
    Metric("serving.service.shed_share", "ratio", "lower", on=SERVE),
    Metric("serving.tenancy.queue_wait_ms_p50", "ms", "lower", on=SERVE),
    Metric("serving.tenancy.backlog_rows_end", "count", "lower", on=SERVE),
    Metric("serving.pool.apply_ms_per_block", "ms", "lower", on=SERVE),
    Metric("serving.pool.lane_busy_share", "ratio", "lower", on=SERVE),
    Metric("serving.snapshots.publish_ms_p50", "ms", "lower", on=SERVE),
    Metric("serving.snapshots.publishes", "count", "higher", on=SERVE),
    Metric("serving.snapshots.hit_ratio", "ratio", "higher", on=SERVE),
    Metric("serving.durability.append_ms_per_block", "ms", "lower",
           on=_DURABLE),
    Metric("serving.durability.fsyncs", "count", "lower", on=_DURABLE),
    Metric("serving.durability.wal_bytes", "bytes", "lower", on=_DURABLE),
    Metric("serving.durability.recovery_s", "s", "lower", on=_DURABLE),
    Metric("serving.durability.replayed_records", "count", "lower",
           on=_DURABLE),
    Metric("serving.server_cpu_share", "ratio", "lower", on=SERVE),
    Metric("bench.gen_cpu_share", "ratio", "lower", on=SERVE),
    Metric("bench.query_late_p50_ms", "ms", "lower", on=SERVE),
    Metric("bench.trace_overhead", "ratio", "lower"),
)

METRIC_BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}
#: Everything ``bench/compare.py`` holds to a bound.
GATED = END_TO_END + SERVING_LATENCIES


def applies(metric: Metric, workload: str) -> bool:
    return not metric.on or workload in metric.on
