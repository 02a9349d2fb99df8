#!/usr/bin/env python
"""Streaming-PCA-as-a-service in one file: boot the serving layer,
ingest two tenants' spectra concurrently, and query the published
eigenbasis over HTTP while a WebSocket watches snapshot events.

The serving layer (``repro.serving``) separates the three concerns the
multi-tenant story needs:

* **ingestion** — clients POST row blocks to ``/v1/<tenant>/ingest``;
  admission control (a per-tenant token-bucket valve) answers 429 with
  ``Retry-After`` under overload instead of silently dropping rows;
* **compute** — a shared pool of engine lanes drains every tenant's
  queue and folds rows into that tenant's robust streaming PCA model;
* **query** — reads (``transform``, ``reconstruction_error``,
  ``outlier_score``, ``eigenspectra``) are answered from immutable
  copy-on-publish snapshots, so a query never waits on model updates.

Run:  python examples/serving_quickstart.py
"""

import numpy as np

from repro.serving import (
    PCAService,
    ServingClient,
    ServingConfig,
    ServingServer,
    TenantSpec,
    WebSocketClient,
)


def make_spectra(n: int, dim: int = 24, seed: int = 0) -> np.ndarray:
    """Galaxy-spectra-like rows: a planted 3-d subspace plus noise."""
    plant = np.random.default_rng(42).normal(size=(3, dim))
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=(n, 3)) * np.array([6.0, 4.0, 2.0])
    return coeff @ plant + 0.1 * rng.normal(size=(n, dim))


def main() -> None:
    service = PCAService(ServingConfig(n_lanes=2))
    # Two tenants sharing the engine pool: "survey" unthrottled,
    # "guest" rate-limited so a bursty client is shed, not crashed.
    service.add_tenant(TenantSpec("survey", n_components=4, init_size=20))
    service.add_tenant(TenantSpec(
        "guest", n_components=2, init_size=20, max_rate_hz=500.0,
    ))
    server = ServingServer(service, port=0)
    server.start()
    print(f"serving two tenants on {server.url}")

    try:
        with ServingClient(server.host, server.port) as client:
            # Watch the survey tenant's push channel while we work.
            with WebSocketClient(
                server.host, server.port, "survey"
            ) as ws:
                assert ws.recv_event()["event"] == "subscribed"

                # -- ingestion ---------------------------------------
                for i in range(6):
                    reply = client.ingest(
                        "survey", make_spectra(64, seed=i)
                    )
                    assert reply.code == 202, reply.body
                guest_codes = []
                for i in range(12):
                    reply = client.ingest(
                        "guest", make_spectra(64, seed=100 + i)
                    )
                    guest_codes.append(reply.code)
                print(
                    "survey: 6 blocks admitted; guest admission codes:",
                    guest_codes,
                )
                assert 429 in guest_codes, "guest valve never shed?"

                # Wait for the first published snapshot event.
                while True:
                    event = ws.recv_event()
                    if event and event["event"] == "snapshot_published":
                        print(
                            "snapshot v%d published for %s" % (
                                event["version"], event["tenant"],
                            )
                        )
                        break

            # -- queries (served from the snapshot, lock-free) -------
            probe = make_spectra(5, seed=999)
            reply = client.transform("survey", probe)
            assert reply.code == 200
            print(
                "transform: %d rows -> %d coefficients each "
                "(snapshot v%d, age %.3fs)" % (
                    len(reply.body["coefficients"]),
                    len(reply.body["coefficients"][0]),
                    reply.body["snapshot_version"],
                    reply.body["snapshot_age_s"],
                )
            )

            outlier = probe.copy()
            outlier[0] += 30.0  # blast one row off the subspace
            reply = client.outlier_score("survey", outlier)
            flags = reply.body["is_outlier"]
            print("outlier flags (first row corrupted):", flags)
            assert flags[0] and not any(flags[1:])

            reply = client.eigenspectra("survey", top_k=3)
            eigs = reply.body["spectra"]["eigenvalues"]
            print("top-3 eigenvalues:", [round(e, 2) for e in eigs])

            reply = client.ready()
            print("readiness:", reply.code, reply.body["health_status"])
    finally:
        server.stop()
    print("serving quickstart done")


if __name__ == "__main__":
    main()
