"""One command for every metric of the benchmark.

    python3 bench/run.py [--workload NAME] [--trace 0|1] [--seed N]
                         [--seconds S] [--out DIR] [--repeat N] [--smoke]

With no ``--workload`` it runs all five, with no ``--trace`` both the
untraced run (end-to-end metrics) and the traced run (per-layer metrics)
of each.  Every metric is printed by name with its unit, every check by
name with its verdict, and everything lands in ``<out>/result.json``
with the environment stamp; traced runs also write
``<out>/trace_<workload>.jsonl``.  When exactly one workload and one
trace mode are asked for, the last line of standard output is the
benchmark contract's JSON object.  See bench/README.md.
"""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no program to measure: {ROOT}/src/repro "
             "is missing (run from a full checkout)")
# Import ``bench`` as a package from the checkout root (the script's own
# directory on sys.path would shadow the stdlib ``trace``), and ``repro``
# from this checkout's src/ and nowhere else.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from bench import spec  # noqa: E402

# Before numpy is imported anywhere in this process.
os.environ.update(spec.BLAS_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402

from bench.procs import Children  # noqa: E402

#: A run that has not finished by then is stopped (children included)
#: and the command exits non-zero; the contract allows 180 s.
RUN_DEADLINE_S = 150


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from repro.core import jit_status

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "n_cpus": len(os.sched_getaffinity(0)),
        "blas_caps": dict(spec.BLAS_CAPS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jit": jit_status(),
        "git_commit": commit,
        "seed": seed,
        "generator_threads": spec.GENERATOR_THREADS,
    }


def run_once(
    workload: spec.Workload, trace: int, *, seed: int, seconds: float,
    smoke: bool, out_dir: pathlib.Path, children: Children,
) -> dict:
    """One (workload, trace mode) run as a result record."""
    trace_path = (
        str(out_dir / f"trace_{workload.name}.jsonl") if trace else None
    )
    common = dict(seed=seed, seconds=seconds, trace=trace, smoke=smoke,
                  trace_path=trace_path, children=children)
    if workload.kind == "pipeline":
        from bench.pipeline import run_pipeline

        raw = run_pipeline(workload, **common)
    else:
        from bench.serving import run_serving

        raw = run_serving(workload, out_dir=out_dir, **common)
    checks, advisories = (
        [{"check": name, "ok": bool(ok), "detail": detail}
         for name, ok, detail in raw.get(key, ())]
        for key in ("checks", "advisories")
    )
    return {
        "workload": workload.name, "trace": trace, "seed": seed,
        "seconds": seconds, "comparable": not smoke,
        "correct": all(c["ok"] for c in checks),
        "attempted": raw["attempted"], "failed": raw["failed"],
        "metrics": {
            name: {"value": value, "unit": spec.METRIC_BY_NAME[name].unit}
            for name, value in raw["values"].items()
        },
        "checks": checks, "advisories": advisories, "info": raw["info"],
    }


def contract_line(record: dict) -> str:
    """The benchmark contract's result object for one run: exactly the
    end-to-end metrics untraced, exactly the per-layer metrics traced
    (0 where the layer does no work in this workload)."""
    wanted = spec.PER_LAYER if record["trace"] else spec.END_TO_END
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m.name)
        if got is None and spec.applies(m, record["workload"]):
            raise RuntimeError(f"{record['workload']}: no {m.name}")
        metrics[m.name] = got or {"value": 0, "unit": m.unit}
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def show(record: dict) -> None:
    kind = "traced" if record["trace"] else "untraced"
    flag = "" if record["comparable"] else "  [smoke: not comparable]"
    print(f"== {record['workload']} ({kind}, seed {record['seed']}, "
          f"{record['seconds']:g} s){flag}")
    for name, m in record["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'ops_attempted':<46} {record['attempted']:>14d} count")
    print(f"  {'ops_failed':<46} {record['failed']:>14d} count")
    for c in record["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['check']}: "
              f"{c['detail']}")
    for c in record["advisories"]:  # validity notes, never a failure
        print(f"  [{'ok' if c['ok'] else 'WARN'}] {c['check']}: "
              f"{c['detail']}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOAD_BY_NAME))
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", default="bench_out")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run the selection N times, seed, seed+1, ...")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, same code paths; results are "
                    "flagged non-comparable")
    args = ap.parse_args(argv)

    n_cpus = len(os.sched_getaffinity(0))
    if spec.GENERATOR_THREADS > n_cpus:
        sys.exit(f"bench/run.py: the load generator needs "
                 f"{spec.GENERATOR_THREADS} threads/connections but only "
                 f"{n_cpus} CPU(s) are available; refusing to measure "
                 "the generator instead of the server")
    seconds = args.seconds or (
        spec.SMOKE_SECONDS if args.smoke else float(spec.RUN_SECONDS)
    )
    workloads = (
        [spec.WORKLOAD_BY_NAME[args.workload]] if args.workload
        else list(spec.WORKLOADS)
    )
    traces = [args.trace] if args.trace is not None else [0, 1]
    out_dir = pathlib.Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    children = Children()

    def on_signal(signum, _frame):
        raise SystemExit(f"bench/run.py: stopped by signal {signum}")

    for sig in (signal.SIGTERM, signal.SIGALRM):
        signal.signal(sig, on_signal)

    records = []
    try:
        for i in range(args.repeat):
            for workload in workloads:
                for trace in traces:
                    signal.alarm(RUN_DEADLINE_S)
                    record = run_once(
                        workload, trace, seed=args.seed + i,
                        seconds=seconds, smoke=args.smoke,
                        out_dir=out_dir, children=children,
                    )
                    signal.alarm(0)
                    show(record)
                    records.append(record)
    finally:
        signal.alarm(0)
        children.stop_all()
        # Whatever finished is kept, also when a later run blew up.
        result_path = out_dir / "result.json"
        result_path.write_text(json.dumps({
            "env": environment(args.seed), "smoke": args.smoke,
            "runs": records,
        }, indent=1))
        print(f"wrote {result_path}")
    if len(records) == 1:
        # Contract mode: the object carries the verdict, the exit code
        # only says the run completed.
        print(contract_line(records[0]))
        return 0
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
