"""Command-line entry point: ``python -m repro <experiment>``.

Runs any of the paper-reproduction experiments or ablations and prints
its data table — the scriptable face of the benchmark harness.

``python -m repro telemetry <events.jsonl>`` instead renders the run
report for a telemetry event log written by
:meth:`repro.streams.telemetry.Telemetry.write_jsonl` (top operators by
exclusive time, hottest queues, trace waterfalls for the slowest
sampled tuples).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

EXPERIMENTS = {
    "fig1": "classic vs robust streaming PCA under contamination",
    "fig45": "eigenspectra convergence on galaxy spectra",
    "fig6": "throughput vs parallel threads (simulated testbed)",
    "fig7": "tuples/s/thread vs dimensionality (simulated testbed)",
    "lat": "per-tuple latency vs placement (fusion effect)",
    "conv": "in-flight convergence before stream end",
    "abl-alpha": "forgetting factor on a drifting stream",
    "abl-gaps": "gap residual-estimation modes",
    "abl-order": "random vs systematic stream order",
    "abl-topo": "sync topology trade-offs",
    "abl-gate": "data-driven sync gate factor",
    "all": "run every experiment above",
}


def _run_one(name: str, sink=None) -> None:
    from repro import experiments as exp

    start = time.perf_counter()
    if name == "fig1":
        result = exp.run_fig1()
    elif name == "fig45":
        result = exp.run_fig45()
    elif name == "fig6":
        result = exp.run_fig6()
    elif name == "fig7":
        result = exp.run_fig7()
    elif name == "lat":
        result = exp.run_latency()
    elif name == "conv":
        result = exp.run_convergence()
    elif name == "abl-alpha":
        result = exp.run_alpha_ablation()
    elif name == "abl-gaps":
        result = exp.run_gap_ablation()
    elif name == "abl-order":
        result = exp.run_order_ablation()
    elif name == "abl-topo":
        result = exp.run_sync_strategies()
    elif name == "abl-gate":
        result = exp.run_gate_ablation()
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(name)
    text = result.table().render()
    print(text)
    print(f"[{name}: {time.perf_counter() - start:.1f}s]\n")
    if sink is not None:
        sink.write(f"## {name}\n\n```\n{text}\n```\n\n")


def telemetry_main(argv: list[str]) -> int:
    """``python -m repro telemetry <events.jsonl>`` — render a run report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro telemetry",
        description=(
            "Render a human-readable run report from a telemetry JSONL "
            "event log (Telemetry.write_jsonl)."
        ),
    )
    parser.add_argument("log", help="path to the JSONL event log")
    parser.add_argument(
        "--top", type=int, default=10,
        help="row limit of the per-operator tables (default 10)",
    )
    parser.add_argument(
        "--traces", type=int, default=3,
        help="number of slowest traces to render as waterfalls (default 3)",
    )
    args = parser.parse_args(argv)

    from repro.streams.telemetry import load_events
    from repro.streams.telemetry_report import render_report

    try:
        events = load_events(args.log)
    except OSError as exc:
        parser.error(f"cannot read {args.log}: {exc}")
    print(render_report(events, top=args.top, n_traces=args.traces))
    return 0


def health_main(argv: list[str]) -> int:
    """``python -m repro health <events.jsonl>`` — model-health report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro health",
        description=(
            "Render the model-health section of a telemetry JSONL event "
            "log: per-engine subspace affinity, eigenspectrum drift, the "
            "reconstruction-error control chart, merge/re-seed activity, "
            "and the OK/DEGRADED/CRITICAL verdict timeline."
        ),
    )
    parser.add_argument("log", help="path to the JSONL event log")
    args = parser.parse_args(argv)

    from repro.streams.telemetry import load_events
    from repro.streams.telemetry_report import _health, _warnings

    try:
        events = load_events(args.log)
    except OSError as exc:
        parser.error(f"cannot read {args.log}: {exc}")
    header = "model health report"
    lines = [header, "=" * len(header)]
    lines += _warnings(events)
    section = _health(events)
    if not section:
        lines.append(
            "no health events in this log (run with health monitors "
            "attached: build_parallel_pca_graph(..., health=True))"
        )
    lines += section
    print("\n".join(lines))
    # Exit non-zero on a CRITICAL final verdict so scripts can gate on it.
    verdicts = [e for e in events if e.get("kind") == "health_verdict"]
    if verdicts and verdicts[-1].get("status") == "CRITICAL":
        return 1
    return 0


def chaos_main(argv: list[str]) -> int:
    """``python -m repro chaos`` — run the seeded chaos smoke suite."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Run the scenario-driven chaos suite (kill-one-engine, "
            "poison tuples, slow operator, queue stall) against a "
            "runtime and report recovery/loss/affinity per scenario."
        ),
    )
    parser.add_argument(
        "--runtime",
        choices=("synchronous", "threaded", "process"),
        default="threaded",
        help="runtime to torture (default threaded)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="scenario seed (default 0)"
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="append the reports to FILE as JSONL (the CI artifact)",
    )
    parser.add_argument(
        "--flap", action="store_true",
        help="also run the TCP network-flap scenario",
    )
    args = parser.parse_args(argv)

    from repro.streams.chaos import (
        network_flap_scenario,
        run_suite,
        smoke_suite,
        write_chaos_reports,
    )

    reports = run_suite(
        smoke_suite(args.runtime, seed=args.seed),
        out=args.out,
        log=print,
    )
    if args.flap:
        flap = network_flap_scenario(seed=args.seed)
        status = "ok" if flap.ok else f"FAIL ({flap.error})"
        print(
            f"{flap.scenario} [{flap.runtime}] {status}: "
            f"lost={flap.n_lost} dup={flap.n_duplicated} "
            f"reconnects={flap.n_reconnects}"
        )
        reports.append(flap)
        if args.out:
            write_chaos_reports([flap], args.out)
    return 0 if all(r.ok for r in reports) else 1


def cluster_main(argv: list[str]) -> int:
    """``python -m repro cluster`` — multi-node TCP runtime smoke run.

    Spawns one coordinator plus N engine-host processes connected over
    real TCP sockets (the ClusterEngine runtime), streams a planted
    subspace through the parallel PCA graph, and gates on the subspace
    affinity of the merged global basis against a fault-free synchronous
    reference.  ``--kill-host`` / ``--flap`` run the cluster chaos
    scenarios instead of the clean baseline — the CI ``remote-runtimes``
    job runs the kill variant with ``--affinity-min 0.98``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description=(
            "Run parallel streaming PCA on the multi-node TCP cluster "
            "runtime (1 coordinator + N engine-host processes on "
            "localhost) and gate on subspace affinity against the "
            "fault-free synchronous reference."
        ),
    )
    parser.add_argument(
        "--engines", type=int, default=3,
        help="engine count = engine-host process count (default 3)",
    )
    parser.add_argument(
        "--rows", type=int, default=2400,
        help="input observations to stream (default 2400)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="data/split seed (default 0)"
    )
    parser.add_argument(
        "--kill-host", action="store_true",
        help="SIGKILL 1 engine host mid-run (eviction + quorum must "
        "carry the run)",
    )
    parser.add_argument(
        "--flap", action="store_true",
        help="sever one host's TCP channel mid-run (it must redial)",
    )
    parser.add_argument(
        "--affinity-min", type=float, default=0.98,
        help="fail if the merged basis' affinity to the reference falls "
        "below this (default 0.98)",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="write the run's telemetry event log to FILE as JSONL "
        "(the CI artifact; renderable with `python -m repro telemetry`)",
    )
    args = parser.parse_args(argv)

    from repro.streams.chaos import (
        ChaosScenario,
        cluster_flap_scenario,
        cluster_kill_host_scenario,
        run_scenario,
    )
    from repro.streams.telemetry import Telemetry, TelemetryConfig

    if args.kill_host:
        scenario = cluster_kill_host_scenario(
            seed=args.seed, n_engines=args.engines
        )
    elif args.flap:
        scenario = cluster_flap_scenario(
            seed=args.seed, n_engines=args.engines
        )
    else:
        scenario = ChaosScenario(
            name="cluster-baseline",
            faults=(),
            runtime="cluster",
            n_engines=args.engines,
            supervise=False,
            seed=args.seed,
        )
    scenario.n_samples = args.rows
    tel = Telemetry(TelemetryConfig(metrics=True, tracing=False))
    report = run_scenario(scenario, telemetry=tel)

    status = "ok" if report.ok else f"FAIL ({report.error})"
    print(
        f"{scenario.name} [cluster x{args.engines}] {status}: "
        f"affinity={report.affinity} lost={report.n_lost} "
        f"reconnects={report.n_reconnects} "
        f"evictions={report.n_evictions} "
        f"wall={report.wall_time_s:.1f}s"
    )
    if args.out:
        n = tel.write_jsonl(args.out)
        print(f"[telemetry: {n} events -> {args.out}]")
    if not report.ok:
        return 1
    if report.affinity is None or report.affinity < args.affinity_min:
        print(
            f"affinity gate FAILED: {report.affinity} < "
            f"{args.affinity_min}"
        )
        return 1
    return 0


def serve_main(argv: list[str]) -> int:
    """``python -m repro serve`` — multi-tenant streaming-PCA service.

    Default mode boots the asyncio HTTP/WebSocket front end and blocks
    until interrupted; ``--smoke`` instead runs the seeded concurrent
    smoke workload (the CI ``serving-smoke`` job) and exits non-zero on
    any contract violation (5xx, tuple loss, missing shed).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve streaming PCA over HTTP/WebSocket: per-tenant "
            "ingest lanes with admission control, a shared engine "
            "pool, and snapshot-cached query endpoints (transform, "
            "reconstruction_error, outlier_score, eigenspectra)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port", type=int, default=8780,
        help="bind port (default 8780; 0 = ephemeral)",
    )
    parser.add_argument(
        "--lanes", type=int, default=2,
        help="engine-lane count of the shared pool (default 2)",
    )
    parser.add_argument(
        "--tenant", action="append", default=[], metavar="NAME[:P]",
        help="pre-create a tenant (optionally NAME:n_components); "
        "repeatable",
    )
    parser.add_argument(
        "--auto-tenants", action="store_true",
        help="auto-create unknown tenants on first ingest",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the concurrent smoke workload instead of serving",
    )
    parser.add_argument(
        "--clients", type=int, default=20,
        help="[--smoke] concurrent client threads (default 20)",
    )
    parser.add_argument(
        "--duration", type=float, default=30.0,
        help="[--smoke] seconds to drive load (default 30)",
    )
    parser.add_argument(
        "--seed", type=int, default=20120513,
        help="[--smoke] workload seed",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="[--smoke] write the telemetry event log to FILE as JSONL",
    )
    parser.add_argument(
        "--data-dir", metavar="DIR",
        help="durability root (WAL + checkpoints); restarting with the "
        "same DIR recovers all tenant state",
    )
    parser.add_argument(
        "--durability", choices=("none", "async", "fsync"),
        default="async",
        help="[--data-dir] WAL ack mode: none (buffered), async "
        "(survives process death; default), fsync (survives power loss)",
    )
    parser.add_argument(
        "--port-file", metavar="FILE",
        help="write the bound port to FILE once listening (lets a "
        "driver use --port 0 and still find the server)",
    )
    parser.add_argument(
        "--crash-smoke", action="store_true",
        help="run the SIGKILL/restart durability chaos scenario "
        "instead of serving (requires --data-dir semantics; a scratch "
        "dir is used unless --data-dir is given)",
    )
    parser.add_argument(
        "--crash-out", metavar="DIR",
        help="[--crash-smoke] write crash_report.json and the driver "
        "event log under DIR",
    )
    args = parser.parse_args(argv)

    from repro.serving import (
        PCAService,
        ServingConfig,
        ServingServer,
        TenantSpec,
        run_smoke,
    )

    if args.crash_smoke:
        from repro.serving.crashtest import run_crash_restart

        try:
            report = run_crash_restart(
                data_dir=args.data_dir,
                durability=args.durability,
                seed=args.seed,
                out_dir=args.crash_out,
                verbose=True,
            )
        except AssertionError as exc:
            print(f"CRASH-RESTART CONTRACT VIOLATION: {exc}")
            return 1
        print(
            "crash-restart smoke OK: "
            f"acked_rows={report['total_acked_rows']} "
            f"recovered_rows={report['total_recovered_rows']} "
            f"min_affinity={report['min_affinity']:.4f}"
        )
        return 0

    if args.smoke:
        try:
            run_smoke(
                n_clients=args.clients,
                duration_s=args.duration,
                seed=args.seed,
                n_lanes=args.lanes,
                telemetry_out=args.out,
                data_dir=args.data_dir,
                durability=args.durability,
            )
        except AssertionError as exc:
            print(exc)
            return 1
        return 0

    config = ServingConfig(
        n_lanes=args.lanes,
        data_dir=args.data_dir,
        durability=args.durability,
    )
    if args.auto_tenants or not args.tenant:
        config.auto_tenant_template = TenantSpec("template")
    service = PCAService(config)
    for entry in args.tenant:
        name, _, p = entry.partition(":")
        service.add_tenant(
            TenantSpec(name, n_components=int(p) if p else 4)
        )
    server = ServingServer(service, host=args.host, port=args.port)
    server.start()
    if args.port_file:
        tmp = args.port_file + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(str(server.port))
        os.replace(tmp, args.port_file)
    print(
        f"serving on {server.url} (lanes={args.lanes}"
        + (
            f", durability={args.durability} at {args.data_dir}"
            if args.data_dir else ""
        )
        + "); Ctrl-C to stop"
    )
    from repro.serving.http import serve_forever

    serve_forever(server)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the selected experiment(s)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "telemetry":
        return telemetry_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "cluster":
        return cluster_main(argv[1:])
    if argv and argv[0] == "health":
        return health_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction experiments for 'Incremental and Parallel "
            "Analytics on Astrophysical Data Streams' (SC 2012)."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="experiments:\n"
        + "\n".join(f"  {k:<10} {v}" for k, v in EXPERIMENTS.items())
        + "\n\nother commands:\n"
        "  telemetry  render a run report from a telemetry JSONL log\n"
        "             (python -m repro telemetry <events.jsonl>)\n"
        "  chaos      run the fault-injection smoke suite\n"
        "             (python -m repro chaos --runtime threaded)\n"
        "  cluster    run PCA on the multi-node TCP runtime and gate on\n"
        "             affinity (python -m repro cluster --kill-host)\n"
        "  health     render the model-health report from a JSONL log\n"
        "             (python -m repro health <events.jsonl>)\n"
        "  serve      serve streaming PCA over HTTP/WebSocket\n"
        "             (python -m repro serve --port 8780)",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="which experiment to run",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="also write the result tables to FILE as markdown",
    )
    args = parser.parse_args(argv)

    names = (
        [k for k in EXPERIMENTS if k != "all"]
        if args.experiment == "all"
        else [args.experiment]
    )
    sink = open(args.output, "w") if args.output else None
    try:
        for name in names:
            _run_one(name, sink)
    finally:
        if sink is not None:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
