#!/usr/bin/env python
"""Live ingestion: TCP feed → streaming robust PCA → health alarms.

Demonstrates the paper's "network TCP sockets ... supported out of the
box as a source of data" path end to end: a feeder thread serves
telemetry vectors over a local socket; the application graph ingests
them with :class:`TCPVectorSource`, updates the robust PCA per tuple,
and the same :class:`HealthMonitor` the parallel application attaches
to each engine checks the model every 250 rows.  A
:class:`HealthRuleEngine` turns each check into an OK / DEGRADED /
CRITICAL verdict — the "significant eigensystem deviation [that] could
indicate a hardware failure".

Halfway through the feed, the telemetry's correlation structure is
deliberately broken (a simulated controller firmware bug flips the
load/fan correlation) — the verdict should leave OK shortly after.

Run:  python examples/live_stream_monitoring.py
"""

import numpy as np

from repro.core import RobustIncrementalPCA
from repro.data import ClusterTelemetryModel
from repro.streams import (
    CallbackSink,
    Graph,
    HealthMonitor,
    HealthRuleEngine,
    SynchronousEngine,
    TCPVectorSource,
    serve_vectors,
)


def build_feed(n_healthy: int = 2500, n_broken: int = 1200) -> np.ndarray:
    """Telemetry with a structural break at ``n_healthy``."""
    model = ClusterTelemetryModel(n_servers=15, fault_rate=0.0, seed=17)
    rng = np.random.default_rng(9)
    healthy = np.vstack(list(model.stream(n_healthy, rng)))
    broken = np.vstack(list(model.stream(n_broken, rng)))
    # Firmware bug: fan RPMs (sensor index 1 of each server) decouple
    # from load and start oscillating on their own.
    fan_cols = np.arange(1, broken.shape[1], 4)
    t = np.arange(n_broken)[:, None]
    broken[:, fan_cols] = (
        3000.0
        + 1500.0 * np.sin(2 * np.pi * t / 60.0)
        + 100.0 * rng.standard_normal((n_broken, fan_cols.size))
    )
    return np.vstack([healthy, broken]), n_healthy


def main() -> None:
    feed, break_at = build_feed()
    print(f"serving {feed.shape[0]} telemetry vectors "
          f"({feed.shape[1]} channels) over a local TCP socket...")
    port, feeder = serve_vectors(feed)

    est = RobustIncrementalPCA(n_components=3, alpha=0.999, init_size=50)
    monitor = HealthMonitor(0, check_every=250)
    rules = HealthRuleEngine(monitors=[monitor])
    alarms: list[tuple[int, str, list[str]]] = []

    def on_tuple(tup, port_idx):
        result = est.update(tup["x"])
        if result is None:  # still warming up
            monitor.note_rows(1)
        else:
            monitor.note_rows(
                1,
                n_outliers=int(result.is_outlier),
                weight_sum=result.weight,
                r2_sum=result.residual_norm2,
            )
        if monitor.maybe_check(est):
            verdict = rules.evaluate()
            if not verdict.ok:
                firing = [f["rule"] for f in verdict.firing]
                alarms.append((est.n_seen, verdict.status, firing))

    g = Graph("live-monitoring")
    src = g.add(TCPVectorSource("tcp-feed", "127.0.0.1", port))
    sink = g.add(CallbackSink("monitor", on_tuple))
    g.connect(src, sink)
    SynchronousEngine(g).run()
    feeder.join(timeout=10)

    print(f"processed {est.n_seen} observations; structural break "
          f"injected at t={break_at}")
    if alarms:
        for n_seen, status, firing in alarms:
            print(f"  DRIFT ALARM at t={n_seen} ({status}: "
                  f"{', '.join(firing)})")
        first = alarms[0][0]
        print(f"\ndetection delay: {first - break_at} observations "
              f"after the break")
    else:
        print("no health alarms raised — try a larger structural break")


if __name__ == "__main__":
    main()
