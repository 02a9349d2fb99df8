"""The three serving workloads.

The untraced measurement drives ``python -m repro serve`` in a child
process over real sockets with ``ServingClient``; the load generator is
this process: a closed-loop uploader thread (one blocking client, so the
next block goes out when the previous ack arrives) and, on the calling
thread, an open-loop probe on its own connection.  The traced
measurement repeats the same traffic against a ``PCAService`` +
``ServingServer`` built in this process, where :mod:`bench.trace` can
wrap the layer boundaries.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.serving import (
    PCAService,
    ServingClient,
    ServingConfig,
    ServingServer,
    TenantSpec,
)

from . import inputs, spec
from .procs import ROOT, Children, child_env, cpu_seconds, peak_rss_mb
from .stats import freshness_ms, median, open_loop, slice_rates, tail
from .trace import Tracer, ingest_chains, self_times, trace_service

#: Traffic before the timed section, after the first snapshot exists.
WARMUP_S = 1.0
#: Shares of ``--seconds`` the two timed sections of a traced run get.
REFERENCE_SHARE = 0.4
TRACED_SHARE = 0.4
DRAIN_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0
PROBE_ROWS = 4
JSON_CALIBRATION_REPEATS = 15
clock = time.perf_counter


class ServerChild:
    """``python -m repro serve`` on an ephemeral port, in ``workdir``."""

    def __init__(
        self, children: Children, workdir: pathlib.Path,
        workload: spec.Workload,
    ) -> None:
        self.children = children
        self.workdir = workdir
        self.workload = workload
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        port_file = self.workdir / "port"
        port_file.unlink(missing_ok=True)
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--port-file", str(port_file),
            "--tenant", f"{spec.TENANT}:{spec.N_COMPONENTS}",
            "--lanes", "2",
        ]
        if self.workload.durable:
            cmd += ["--data-dir", str(self.workdir / "data"),
                    "--durability", "fsync"]
        with open(self.workdir / "server.log", "ab") as log:
            self.proc = self.children.popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                env=child_env(), cwd=str(ROOT),
            )
        deadline = clock() + START_TIMEOUT_S
        while clock() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                self.port = int(port_file.read_text())
                return
            except (OSError, ValueError):
                time.sleep(0.01)
        log_tail = (self.workdir / "server.log").read_text()[-2000:]
        self.stop()
        raise RuntimeError(f"server did not come up:\n{log_tail}")

    def stop(self, sig: int = signal.SIGTERM) -> None:
        if self.proc is not None:
            self.children.stop(self.proc, sig)
            self.proc = None


class Traffic:
    """One uploader and one prober against one server."""

    def __init__(
        self, port: int, workload: spec.Workload, rows: np.ndarray,
        affinity_floor: float, tracer: Tracer | None = None,
    ) -> None:
        self.workload = workload
        self.affinity_floor = affinity_floor
        self.rows = rows
        self.tracer = tracer
        self.uploader = ServingClient("127.0.0.1", port, timeout_s=30.0)
        self.prober = ServingClient("127.0.0.1", port, timeout_s=30.0)
        self.probe_rows = rows[:PROBE_ROWS]
        #: Every ingest request: (sent, done, status code).
        self.acks: list[tuple[float, float, int]] = []
        #: Accepted blocks only, in order: send time and rows accepted up
        #: to and including the block (the freshness join's index).
        self.send_times: list[float] = []
        self.row_ends: list[int] = []
        #: (ack time, rows applied by then): rows accepted so far minus
        #: the queue depth the ack reports, so a backlog does not count.
        self.applied: list[tuple[float, int]] = []
        #: Snapshot versions in the order replies arrived, per connection.
        self.ack_versions: list[int] = []
        #: Every probe: (due, sent, done, code, model_rows, version).
        self.probes: list[tuple[float, float, float, int, int, int]] = []
        #: Requests before this point belong to set-up (they poll for the
        #: first snapshot) and are not counted as operations.
        self.counted_from = (0, 0)
        self._error: BaseException | None = None

    def close(self) -> None:
        self.uploader.close()
        self.prober.close()

    def _span(self, name: str, seq: int, remote: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, seq=seq, remote=remote)

    # -- uploader (closed loop) --------------------------------------------

    def ingest_one(self) -> int:
        i = len(self.acks)
        lo = (i * spec.BLOCK_ROWS) % self.rows.shape[0]
        block = self.rows[lo:lo + spec.BLOCK_ROWS]
        with self._span("client.ingest", i, "ingest"):
            sent = clock()
            reply = self.uploader.ingest(spec.TENANT, block)
            done = clock()
        self.acks.append((sent, done, reply.code))
        if reply.code == 202:
            self.send_times.append(sent)
            self.row_ends.append(
                (self.row_ends[-1] if self.row_ends else 0)
                + int(reply.body["accepted_rows"])
            )
            self.ack_versions.append(int(reply.body["snapshot_version"]))
            self.applied.append((
                done, self.row_ends[-1] - int(reply.body["queue_depth_rows"])
            ))
        elif reply.retry_after_s:
            time.sleep(reply.retry_after_s)
        return reply.code

    def _ingest_until(self, end: float) -> None:
        try:
            while clock() < end:
                self.ingest_one()
        except BaseException as exc:  # re-raised by run_section
            self._error = exc

    # -- prober (open loop) ------------------------------------------------

    def probe_one(self, k: int, due: float) -> int:
        name = self.workload.probe
        with self._span(f"client.{name}", k, "probe"):
            sent = clock()
            if name == "transform":
                reply = self.prober.transform(spec.TENANT, self.probe_rows)
            else:
                reply = self.prober.snapshot(spec.TENANT)
            done = clock()
        ok = reply.code == 200
        self.probes.append((
            due, sent, done, reply.code,
            int(reply.body["model_rows"]) if ok else 0,
            int(reply.body["snapshot_version"]) if ok else 0,
        ))
        return reply.code

    def warm_until_snapshot(self) -> None:
        """Ingest until the first snapshot is published (set-up's end)."""
        deadline = clock() + START_TIMEOUT_S
        while self.prober.ready().code != 200:
            if clock() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)
        while clock() < deadline:
            self.ingest_one()
            if self.prober.snapshot(spec.TENANT).code == 200:
                self.counted_from = (len(self.acks), len(self.probes))
                return
        raise RuntimeError("no snapshot within the start timeout")

    def run_section(self, seconds: float) -> tuple[float, float]:
        """Both loops for ``seconds``; returns the section's bounds."""
        start = clock()
        end = start + seconds
        thread = threading.Thread(
            target=self._ingest_until, args=(end,), name="bench-ingest",
            daemon=True,
        )
        thread.start()
        first = len(self.probes)
        try:
            open_loop(
                start, self.workload.probe_hz, end,
                lambda k: self.probe_one(
                    first + k, start + k / self.workload.probe_hz
                ),
            )
        finally:
            thread.join()
        if self._error is not None:
            raise self._error
        return start, end

    def tenant_status(self) -> tuple[float, dict, dict]:
        """``(time, tenant stats, whole /status body)``."""
        reply = self.prober.status()
        if reply.code != 200:
            raise RuntimeError(f"/status answered {reply.code}")
        return clock(), reply.body["tenants"][spec.TENANT], reply.body

    def drain(self) -> dict:
        """Wait until nothing accepted is still waiting to be applied."""
        deadline = clock() + DRAIN_TIMEOUT_S
        while True:
            _t, st, _body = self.tenant_status()
            if st["queue_depth_rows"] + st["pending_rows"] == 0 and (
                st["rows_applied"] == st["rows_accepted"]
            ):
                return st
            if clock() > deadline:
                return st
            time.sleep(0.02)

    # -- what the section measured ------------------------------------------

    def section_values(self, start: float, end: float) -> tuple[dict, dict]:
        """Latency metrics of one timed section, and their sample counts."""
        w = self.workload
        acks = [a for a in self.acks if start <= a[0] < end]
        probes = [p for p in self.probes if start <= p[0] < end]
        answered = [p for p in probes if p[3] == 200]
        ack_ms = [(done - sent) * 1e3 for sent, done, code in acks
                  if code == 202]
        fresh = freshness_ms(
            self.send_times, self.row_ends,
            [(p[2], p[4]) for p in answered],
        )
        latencies = {"ack": ack_ms, "freshness": fresh}
        if w.probe == "transform":
            latencies["query"] = [(p[2] - p[0]) * 1e3 for p in answered]
        values = {
            "serving.service.shed_share":
                sum(code == 429 for _s, _d, code in acks) / len(acks),
            "bench.query_late_p50_ms":
                median([(p[1] - p[0]) * 1e3 for p in probes]),
        }
        samples = {}
        for name, xs in latencies.items():
            if not xs:
                raise RuntimeError(f"no {name} sample in the timed section")
            samples[f"{name}_ms"] = tail(xs)
            values[f"serving.http.{name}_p50_ms"] = median(xs)
            values[f"serving.http.{name}_p95_ms"] = (
                samples[f"{name}_ms"]["value"]
            )
        return values, samples

    def counts(self) -> tuple[int, int, int]:
        """``(attempted, failed, n_5xx)`` since set-up ended: ingests
        not answered 202 and probes not answered 200 are failures."""
        acks = [a[2] for a in self.acks[self.counted_from[0]:]]
        probes = [p[3] for p in self.probes[self.counted_from[1]:]]
        failed = sum(c != 202 for c in acks) + sum(c != 200 for c in probes)
        return (len(acks) + len(probes), failed,
                sum(c >= 500 for c in acks + probes))

    def last_version(self) -> int:
        """Newest snapshot version either connection has seen."""
        return max(
            [p[5] for p in self.probes if p[3] == 200] + self.ack_versions,
            default=0,
        )

    def checks(self, drained: dict) -> tuple[float, list]:
        """``(subspace_affinity, [(check, ok, detail), ...])`` once the
        queue has drained."""
        w = self.workload
        _n, _failed, n_5xx = self.counts()
        acked_rows = self.row_ends[-1] if self.row_ends else 0
        versions = [p[5] for p in self.probes if p[3] == 200]
        affinity = inputs.subspace_affinity(
            self.final_basis(), inputs.truth_basis(w)
        )
        return affinity, [
            ("zero loss at drain: accepted == applied + queued + pending",
             drained["rows_accepted"] == drained["rows_applied"]
             + drained["queue_depth_rows"] + drained["pending_rows"]
             and drained["queue_depth_rows"] + drained["pending_rows"] == 0,
             json.dumps({k: drained[k] for k in (
                 "rows_accepted", "rows_applied", "queue_depth_rows",
                 "pending_rows")})),
            ("server accepted exactly the rows it acked",
             drained["rows_accepted"] == acked_rows,
             f"acked {acked_rows}, accepted {drained['rows_accepted']}"),
            ("no 5xx", n_5xx == 0, f"{n_5xx} replies"),
            ("snapshot versions monotone",
             versions == sorted(versions)
             and self.ack_versions == sorted(self.ack_versions),
             f"{len(versions)} probe replies, "
             f"{len(self.ack_versions)} acks"),
            (f"subspace_affinity >= {self.affinity_floor}",
             affinity >= self.affinity_floor, f"{affinity:.4f}"),
        ]

    def final_basis(self) -> np.ndarray:
        reply = self.prober.eigenspectra(spec.TENANT, include_basis=True)
        if reply.code != 200:
            raise RuntimeError(f"eigenspectra answered {reply.code}")
        return np.asarray(reply.body["spectra"]["basis"]).T


def _measure_child(
    workload: spec.Workload, seed: int, seconds: float, floor: float,
    work: pathlib.Path, children: Children, setups: int,
) -> dict:
    """Set up ``setups`` times, then measure the last server untraced."""
    setup_s = []
    for i in range(setups):
        t0 = clock()
        rows = inputs.serve_rows(workload, seed)
        server = ServerChild(
            children, pathlib.Path(tempfile.mkdtemp(dir=work)), workload
        )
        server.start()
        traffic = Traffic(server.port, workload, rows, floor)
        traffic.warm_until_snapshot()
        setup_s.append(clock() - t0)
        if i < setups - 1:
            traffic.close()
            server.stop()
    pid = server.proc.pid

    traffic.run_section(min(WARMUP_S, seconds))
    t0, st0, _ = traffic.tenant_status()
    cpu0, gen0 = cpu_seconds(pid), time.process_time()
    start, end = traffic.run_section(seconds)
    cpu1, gen1 = cpu_seconds(pid), time.process_time()
    t1, st1, body1 = traffic.tenant_status()
    drained = traffic.drain()
    affinity, checks = traffic.checks(drained)
    values, samples = traffic.section_values(start, end)
    cache = body1["cache"]
    rates = slice_rates(traffic.applied, start, end)
    values.update({
        "rows_per_s": median(rates),
        "subspace_affinity": affinity,
        "peak_rss_mb": peak_rss_mb(pid),
        "setup_s": median(setup_s),
        "serving.tenancy.backlog_rows_end": st1["queue_depth_rows"],
        "serving.snapshots.publishes": cache["n_published"],
        "serving.snapshots.hit_ratio": cache["hit_ratio"] or 0.0,
        "serving.server_cpu_share": (cpu1 - cpu0) / (end - start),
        "bench.gen_cpu_share": (gen1 - gen0) / (end - start),
    })
    advisories = []
    if workload.probe == "transform":
        gen, srv = values["bench.gen_cpu_share"], values[
            "serving.server_cpu_share"]
        late = values["bench.query_late_p50_ms"]
        advisories += [
            ("generator is not the bottleneck: gen < server CPU share",
             gen < srv, f"{gen:.2f} vs {srv:.2f}"),
            ("probe ran on schedule: bench.query_late_p50_ms < 1",
             late < 1.0, f"{late:.2f} ms"),
        ]
    info = {
        "samples": samples, "setup_s_samples": setup_s,
        "timed_section_s": end - start, "slice_rows_per_s": rates,
        "whole_section_rows_per_s":
            (st1["rows_applied"] - st0["rows_applied"]) / (t1 - t0),
    }

    if workload.durable:
        wal = body1["durability"]["tenants"][spec.TENANT]["wal"]
        values["serving.durability.fsyncs"] = wal["n_fsyncs"]
        values["serving.durability.wal_bytes"] = wal["n_bytes"]
        acked_rows = traffic.row_ends[-1]
        last_version = traffic.last_version()
        traffic.close()
        killed = clock()
        server.stop(signal.SIGKILL)
        server.start()
        after = Traffic(server.port, workload, rows, floor)
        # Recovery is over when /ready stops saying "recovering".  It
        # can stay 503 after that: the model-health chart, re-anchored on
        # the replayed tail alone, sometimes pages (r2-above-page-band)
        # and no traffic arrives to clear it.  That is reported, not
        # waited for.
        while True:
            ready = after.prober.ready()
            if ready.code == 200 or ready.body.get("recovering") is False:
                break
            if clock() > killed + START_TIMEOUT_S:
                raise RuntimeError(f"recovery never ended: {ready.body}")
            time.sleep(0.005)
        values["serving.durability.recovery_s"] = clock() - killed
        advisories.append((
            "/ready answers 200 after recovery", ready.code == 200,
            f"{ready.code} {ready.body.get('health_status')} "
            f"{[f['rule'] for f in ready.body.get('firing', [])]}",
        ))
        _t, st, body = after.tenant_status()
        recovery = body["durability"]["recovery"]["tenants"][spec.TENANT]
        values["serving.durability.replayed_records"] = (
            recovery["wal_records_replayed"]
        )
        snap = after.prober.snapshot(spec.TENANT)
        version = snap.body["snapshot_version"] if snap.code == 200 else -1
        checks += [
            ("recovered rows_applied >= rows acked before SIGKILL",
             st["rows_applied"] >= acked_rows,
             f"recovered {st['rows_applied']}, acked {acked_rows}"),
            ("snapshot version monotone across restart",
             version >= last_version,
             f"before {last_version}, after {version}"),
        ]
        after.close()
    else:
        traffic.close()
    server.stop()

    attempted, failed, _ = traffic.counts()
    return {"values": values, "checks": checks, "advisories": advisories,
            "attempted": attempted, "failed": failed, "info": info}


def _measure_traced(
    workload: spec.Workload, rows: np.ndarray, seconds: float, floor: float,
    work: pathlib.Path, trace_path: str | None,
) -> dict:
    """The same traffic against an in-process service, with spans."""
    config = ServingConfig(n_lanes=2)
    if workload.durable:
        config.data_dir = tempfile.mkdtemp(dir=work)
        config.durability = "fsync"
    svc = PCAService(config)
    tenant = svc.add_tenant(
        TenantSpec(spec.TENANT, n_components=spec.N_COMPONENTS)
    )
    tracer = Tracer(clock)
    trace_service(tracer, svc, tenant)
    server = ServingServer(svc, port=0).start()
    try:
        traffic = Traffic(server.port, workload, rows, floor, tracer)
        traffic.warm_until_snapshot()
        traffic.run_section(min(WARMUP_S, seconds) / 2)
        start, end = traffic.run_section(seconds)
        drained = traffic.drain()
        # The lane publishes every few blocks; publish the remainder so
        # the last blocks' span chains end like all the others.
        tenant.publish_now(svc.cache)
        _affinity, checks = traffic.checks(drained)
        traffic.close()
    finally:
        server.stop()

    wall = end - start
    selfs = self_times(tracer.spans)
    all_by = tracer.by_name()
    by = {
        name: [sp for sp in spans if start <= sp.start < end]
        for name, spans in all_by.items()
    }

    def p50_ms(xs) -> float:
        return median(xs) * 1e3 if xs else 0.0

    push_end = {sp.seq: sp.end for sp in all_by["queue.push"]}
    waits = [
        pop.end - push_end[seq]
        for pop in by.get("queue.pop_block", ()) for seq in pop.seqs
    ]
    lane_busy = sum(
        sp.duration for name in ("model.apply_block", "model.publish")
        for sp in by.get(name, ())
    )
    values = {
        "serving.client.ingest_ms_per_block":
            p50_ms([sp.duration for sp in by["client.ingest"]]),
        "serving.http.codec_transport_ms_per_block":
            p50_ms([selfs[sp.id] for sp in by["client.ingest"]]),
        "serving.service.admit_ms_per_block":
            p50_ms([selfs[sp.id] for sp in by["svc.ingest"]]),
        "serving.tenancy.queue_wait_ms_p50": p50_ms(waits),
        "serving.pool.apply_ms_per_block":
            p50_ms([sp.duration for sp in by["model.apply_block"]]),
        "serving.pool.lane_busy_share": lane_busy / wall,
        "serving.snapshots.publish_ms_p50":
            p50_ms([sp.duration for sp in by["model.publish"]]),
        "serving.durability.append_ms_per_block":
            p50_ms([sp.duration for sp in by.get("durability.append", ())]),
        "serving.http.query_overhead_ms":
            p50_ms([selfs[sp.id] for sp in by.get("client.transform", ())]),
    }
    chains = ingest_chains(tracer.spans, durable=workload.durable)
    checks = [(f"traced: {name}", ok, detail) for name, ok, detail in checks]
    checks += [
        ("complete span chain for >= 99% of ingest blocks",
         chains["complete"] >= 0.99 * chains["blocks"], json.dumps(chains)),
        ("child spans nest inside their parents",
         chains["nesting_violations"] == 0,
         f"{chains['nesting_violations']} violations"),
    ]
    if trace_path:
        tracer.write(trace_path)
    attempted, failed, _ = traffic.counts()
    return {
        "values": values, "checks": checks, "attempted": attempted,
        "failed": failed,
        "rows_per_s": median(slice_rates(traffic.applied, start, end)),
        "info": {"chains": chains, "spans": len(tracer.spans)},
    }


def json_ms_per_block(rows: np.ndarray) -> float:
    """What the wire format alone costs for one request body of this
    shape: encode as the client does, decode as the server does."""
    block = rows[:spec.BLOCK_ROWS]
    times = []
    for _ in range(JSON_CALIBRATION_REPEATS):
        t0 = clock()
        body = json.dumps({"rows": block.tolist()}).encode()
        np.asarray(json.loads(body)["rows"], dtype=np.float64)
        times.append((clock() - t0) * 1e3)
    return median(times)


def run_serving(
    workload: spec.Workload,
    *,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool,
    out_dir: pathlib.Path,
    trace_path: str | None,
    children: Children,
) -> dict:
    """One run of a serving workload; returns the raw result dict."""
    work = pathlib.Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    floor = spec.SMOKE_AFFINITY_FLOOR if smoke else workload.affinity_floor
    try:
        if not trace:
            return _measure_child(
                workload, seed, seconds, floor, work, children,
                1 if smoke else spec.SETUP_REPEATS,
            )
        ref = _measure_child(
            workload, seed, seconds * REFERENCE_SHARE, floor, work,
            children, 1,
        )
        rows = inputs.serve_rows(workload, seed)
        traced = _measure_traced(
            workload, rows, seconds * TRACED_SHARE, floor, work, trace_path
        )
        values = {**ref["values"], **traced["values"]}
        values["serving.http.json_ms_per_block"] = json_ms_per_block(rows)
        untraced = values["rows_per_s"]
        values["bench.trace_overhead"] = 1.0 - traced["rows_per_s"] / untraced
        for m in spec.END_TO_END:  # the untraced run reports those
            values.pop(m.name, None)
        ref["info"].update(
            traced["info"], traced_rows_per_s=traced["rows_per_s"],
            untraced_rows_per_s=untraced,
        )
        return {
            "values": values, "checks": ref["checks"] + traced["checks"],
            "advisories": ref["advisories"],
            "attempted": ref["attempted"] + traced["attempted"],
            "failed": ref["failed"] + traced["failed"], "info": ref["info"],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
