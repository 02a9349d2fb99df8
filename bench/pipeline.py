"""The two pipeline workloads.

The system under test (``ParallelStreamingPCA`` on the threaded runtime)
runs in a child process — this module run as ``python -m bench.pipeline``
— so its peak memory and warm state belong to one workload only.
:func:`run_pipeline` is the parent side: it times set-up from before the
child is spawned to the child's ``READY`` line and reads the child's
``RESULT`` line.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

from . import spec
from .procs import ROOT, Children, child_env, read_line
from .stats import median

#: Rows of the warm-up job that ends set-up (first-call costs: lazy
#: imports, allocator growth, thread start).
WARMUP_ROWS = 1024
#: Share of ``--seconds`` each threaded job of the traced run streams;
#: with the quarter-length single-threaded baseline and the kernel
#: replay the traced run then takes about as long as the untraced one.
TRACED_SHARE = 0.3
MERGE_REPEATS = 30


def job_rows(workload: spec.Workload, seconds: float) -> int:
    return max(WARMUP_ROWS, int(seconds * workload.rows_per_second_of_run))


# -- parent side -----------------------------------------------------------

def run_pipeline(
    workload: spec.Workload,
    *,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool,
    trace_path: str | None,
    children: Children,
) -> dict:
    """One run of a pipeline workload; returns the raw result dict."""
    cmd = [
        sys.executable, "-m", "bench.pipeline",
        "--workload", workload.name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    if trace_path:
        cmd += ["--trace-out", trace_path]
    repeats = 1 if (trace or smoke) else spec.SETUP_REPEATS
    setups = []
    for i in range(repeats):
        last = i == repeats - 1
        t0 = time.perf_counter()
        proc = children.popen(
            cmd if last else cmd + ["--setup-only"],
            stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=str(ROOT),
        )
        read_line(proc, "READY")
        setups.append(time.perf_counter() - t0)
        if not last:
            children.reap(proc)
    result = json.loads(read_line(proc, "RESULT"))
    children.reap(proc)
    if not trace:
        result["values"]["setup_s"] = median(setups)
        result["info"]["setup_s_samples"] = setups
    return result


# -- child side ------------------------------------------------------------

class TimedRows:
    """Row iterator that accounts for its own cost.

    It runs inside whichever thread drives the source, so the thread's
    CPU clock between the first and the last pull, minus the CPU spent
    in here, is the source operator's own busy time.
    """

    def __init__(self, rows) -> None:
        self._rows = iter(rows)
        self.n = 0
        self.cpu_inside = 0.0
        self.wall_inside = 0.0
        self.cpu_first = None
        self.cpu_last = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        c0, w0 = time.thread_time(), time.perf_counter()
        if self.cpu_first is None:
            self.cpu_first = c0
        try:
            row = next(self._rows)
            self.n += 1
            return row
        finally:
            self.cpu_last = time.thread_time()
            self.cpu_inside += self.cpu_last - c0
            self.wall_inside += time.perf_counter() - w0

    @property
    def source_busy_s(self) -> float:
        return max(self.cpu_last - self.cpu_first - self.cpu_inside, 0.0)


class Jobs:
    """One workload's runner configuration and seeded rows."""

    def __init__(self, workload: spec.Workload, seed: int, smoke: bool):
        from . import inputs

        self.workload = workload
        self.seed = seed
        wide = workload.name == "pipeline_wide"
        self.alpha = 0.9995 if wide else 0.999
        self.estimator_kwargs = (
            {"extra_components": 2, "init_size": 32} if wide else {}
        )
        self.rows = inputs.pipeline_rows(workload, seed, smoke)

    def runner(self):
        from repro.parallel import ParallelStreamingPCA

        return ParallelStreamingPCA(
            spec.N_COMPONENTS, n_engines=2, alpha=self.alpha,
            runtime="threaded", batch_size=spec.BLOCK_ROWS,
            estimator_kwargs=dict(self.estimator_kwargs),
        )

    def stream(self, n_rows: int, timed: list[TimedRows] | None = None):
        """``n_rows`` rows as a stream — the same rows on every call.
        With ``timed`` the row iterator is a :class:`TimedRows`,
        appended to that list."""
        from repro.data.streams import VectorStream

        from . import inputs

        st = inputs.pipeline_stream(
            self.workload, self.rows, n_rows, self.seed
        )
        if timed is None:
            return st
        timed.append(TimedRows(st))
        return VectorStream.from_iterable(
            timed[-1], dim=st.dim, length=st.length
        )

    def timed_run(self, n_rows: int):
        """``(result, wall seconds)`` of one ``ParallelStreamingPCA.run``."""
        t0 = time.perf_counter()
        result = self.runner().run(self.stream(n_rows))
        return result, time.perf_counter() - t0


def _applied_rows(reports) -> list[int]:
    return [int(r["n_local_rows"]) for r in reports]


def _emit(values, checks, attempted, failed, info) -> None:
    print("RESULT " + json.dumps({
        "values": values, "checks": checks, "attempted": int(attempted),
        "failed": int(failed), "info": info,
    }), flush=True)


def _untraced(jobs: Jobs, seconds: float, smoke: bool) -> None:
    from . import inputs

    workload = jobs.workload
    n_rows = job_rows(workload, seconds)
    result, wall = jobs.timed_run(n_rows)
    # Read before the ground truth is computed in this same process: its
    # Monte-Carlo sample would otherwise top the job's own peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    applied = _applied_rows(result.engine_reports)
    affinity = inputs.subspace_affinity(
        result.global_state.basis, inputs.truth_basis(workload, smoke)
    )
    floor = spec.SMOKE_AFFINITY_FLOOR if smoke else workload.affinity_floor
    values = {
        "rows_per_s": n_rows / wall,
        "subspace_affinity": affinity,
        "peak_rss_mb": peak_rss_mb,
    }
    checks = [
        ("rows streamed == rows applied", sum(applied) == n_rows,
         f"{n_rows} streamed, {applied} applied"),
        (f"subspace_affinity >= {floor}", affinity >= floor,
         f"{affinity:.4f}"),
    ]
    info = {"rows": n_rows, "wall_s": wall, "rows_per_engine": applied}
    _emit(values, checks, n_rows, n_rows - sum(applied), info)


def _operator_records(job: str, stats) -> list[dict]:
    return [
        {"kind": "operator", "job": job, "name": name,
         "busy_s": stats.processing_time_s.get(name, 0.0),
         "tuples_in": stats.tuples_in[name],
         "tuples_out": stats.tuples_out[name]}
        for name in stats.tuples_in
    ]


def _traced(jobs: Jobs, seconds: float, trace_out: str | None) -> None:
    import numpy as np

    from repro.core.merge import merge_eigensystems
    from repro.core.robust import RobustIncrementalPCA
    from repro.streams.engine import SynchronousEngine, ThreadedEngine

    from .trace import Tracer

    tracer = Tracer()
    n_rows = job_rows(jobs.workload, seconds * TRACED_SHARE)
    with tracer.span("job.untraced"):
        result, untraced_wall = jobs.timed_run(n_rows)
    untraced_rate = n_rows / untraced_wall
    lost = n_rows - sum(_applied_rows(result.engine_reports))

    timed: list[TimedRows] = []
    app = jobs.runner().build(jobs.stream(n_rows, timed))
    with tracer.span("job.threaded_profiled"):
        stats = ThreadedEngine(app.graph, profile=True).run()
    source = timed[-1]
    busy = stats.processing_time_s
    applied = _applied_rows(op.diagnostics() for op in app.engines)
    engine_busy = sum(busy[op.name] for op in app.engines)
    traced_rate = n_rows / stats.wall_time_s
    values = {
        "parallel.engine_busy_s": engine_busy,
        "parallel.engine_busy_share": engine_busy / stats.wall_time_s,
        "parallel.sync_busy_s": busy[app.controller.name],
        "parallel.syncs": app.controller.stats.n_merge_commands,
        "parallel.engine_row_skew":
            max(applied) / (sum(applied) / len(applied)),
        "streams.source_busy_s": source.source_busy_s,
        "streams.batcher_busy_s": busy[app.batcher.name],
        "streams.split_busy_s": busy[app.split.name],
        "streams.bottleneck_busy_share":
            max(busy.values()) / stats.wall_time_s,
        "streams.tuples_dispatched": sum(stats.tuples_in.values()),
        "streams.batch_fill":
            n_rows / stats.tuples_in[app.split.name] / spec.BLOCK_ROWS,
        "bench.trace_overhead": 1.0 - traced_rate / untraced_rate,
    }
    checks = [(
        "rows streamed == rows applied (traced)",
        source.n == n_rows == sum(applied),
        f"{source.n} pulled, {n_rows} sized, {applied} applied",
    )]
    lost += n_rows - sum(applied)

    # Single-threaded baseline: one thread, so exclusive times tile the
    # wall clock and what is left over is the engine's own loop.
    quarter = n_rows // 4
    app1 = jobs.runner().build(jobs.stream(quarter, timed))
    with tracer.span("job.sync_profiled"):
        stats1 = SynchronousEngine(app1.graph, profile=True).run()
    overhead = (
        stats1.wall_time_s - sum(stats1.processing_time_s.values())
        - timed[-1].wall_inside
    )
    sync_rate = quarter / stats1.wall_time_s
    values.update({
        "streams.dispatch_overhead_s": overhead,
        "streams.sync_rows_per_s": sync_rate,
        "streams.threaded_over_sync": untraced_rate / sync_rate,
    })
    checks.append((
        "streams.dispatch_overhead_s >= 0", overhead >= 0.0,
        f"{overhead:.4f}",
    ))

    # Kernel ceiling: the same rows through update_block, nothing else.
    xs = np.vstack(list(jobs.stream(quarter)))
    est = RobustIncrementalPCA(
        spec.N_COMPONENTS, alpha=jobs.alpha, **jobs.estimator_kwargs
    )
    with tracer.span("core.update_block") as sp:
        for lo in range(0, quarter, spec.BLOCK_ROWS):
            est.update_block(xs[lo:lo + spec.BLOCK_ROWS])
    values["core.update_block_rows_per_s"] = quarter / sp.duration
    values["core.gap_rows_share"] = float(np.isnan(xs).any(axis=1).mean())
    states = list(app.controller.final_states.values())
    merges = []
    for _ in range(MERGE_REPEATS):
        with tracer.span("core.merge_eigensystems") as sp:
            merge_eigensystems(states, spec.N_COMPONENTS)
        merges.append(sp.duration * 1e3)
    values["core.merge_ms"] = median(merges)

    if trace_out:
        tracer.write(
            trace_out,
            _operator_records("job.threaded_profiled", stats)
            + _operator_records("job.sync_profiled", stats1),
        )
    info = {
        "rows": n_rows, "untraced_rows_per_s": untraced_rate,
        "traced_rows_per_s": traced_rate, "rows_per_engine": applied,
    }
    _emit(values, checks, 2 * n_rows, lost, info)


def _child(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    jobs = Jobs(spec.WORKLOAD_BY_NAME[args.workload], args.seed, args.smoke)
    jobs.runner().run(jobs.stream(WARMUP_ROWS))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        _traced(jobs, args.seconds, args.trace_out)
    else:
        _untraced(jobs, args.seconds, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
