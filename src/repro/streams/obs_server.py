"""Live observability routes: ``/metrics``, ``/health``, ``/health/model``.

The routes are written once, here, and mounted by both HTTP front ends
— :class:`ObservabilityServer` (a pipeline run's scrape endpoint) and
:class:`repro.serving.ServingServer` (``python -m repro serve``) — over
the one transport in :mod:`repro.streams.httpd`:

* ``GET /metrics`` — the full :class:`~repro.streams.telemetry.MetricsRegistry`
  in the Prometheus text exposition format (``text/plain; version=0.0.4``).
* ``GET /health`` — the rule engine's verdict evaluated *live* for this
  request: ``{"status": "OK"|"DEGRADED"|"CRITICAL", "firing": [...]}``.
  The HTTP status code mirrors the verdict (200 for OK/DEGRADED so load
  balancers don't yank a degraded-but-serving replica, 503 for
  CRITICAL).
* ``GET /health/model`` — per-engine model-health snapshots (subspace
  affinity, eigenspectrum drift, r² control chart, gap/outlier rates)
  plus the full rule-engine snapshot, for humans debugging *why* a
  verdict fired.
* ``GET /health/model/<engine_id>`` — one engine's snapshot; unknown
  ids answer with a JSON 404 listing the known ids.

``port=0`` picks a free port (``server.port`` reports it), so tests and
multi-run hosts never collide.  Use as a context manager or call
:meth:`~ObservabilityServer.start` / :meth:`~ObservabilityServer.stop`
explicitly::

    with ObservabilityServer(telemetry, rule_engine=engine) as srv:
        engine_.run(graph)
        print(srv.url)  # scrape while running
"""

from __future__ import annotations

from typing import Any

from .httpd import HttpServer, Reply

__all__ = [
    "OBSERVABILITY_ROUTES",
    "ObservabilityServer",
    "observability_reply",
]

#: The shared route list (what CI probes and a JSON 404 names).
OBSERVABILITY_ROUTES = (
    "/metrics", "/health", "/health/model", "/health/model/<engine_id>",
)

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def health_payload(rule_engine) -> tuple[int, dict[str, Any]]:
    """(HTTP status, JSON body) for ``/health``."""
    if rule_engine is None:
        return 200, {"status": "OK", "firing": [], "rules_wired": False}
    verdict = rule_engine.evaluate()
    status = 503 if verdict.status == "CRITICAL" else 200
    return status, {
        "status": verdict.status,
        "firing": verdict.firing,
        "ts": verdict.ts,
        "rules_wired": True,
    }


def model_payload(rule_engine) -> dict[str, Any]:
    """JSON body for ``/health/model``."""
    if rule_engine is None:
        return {"engines": {}, "rules_wired": False}
    snap = rule_engine.snapshot()
    return {
        "engines": snap.get("engines", {}),
        "snapshot": {
            k: v for k, v in snap.items() if k != "engines"
        },
        "rules_wired": True,
    }


def engine_payload(rule_engine, engine_id: str) -> tuple[int, dict[str, Any]]:
    """(HTTP status, JSON body) for ``/health/model/<engine_id>``.

    Unknown ids get a JSON 404 naming the known ids, not a bare
    error page.
    """
    payload = model_payload(rule_engine)
    engines = payload["engines"]
    # Monitor ids are ints; the URL path hands us a string.
    for key, snapshot in engines.items():
        if str(key) == engine_id:
            return 200, {
                "engine": str(key),
                "snapshot": snapshot,
                "rules_wired": payload["rules_wired"],
            }
    return 404, {
        "error": f"no such engine: {engine_id}",
        "known_engines": sorted(str(k) for k in engines),
        "rules_wired": payload["rules_wired"],
    }


def observability_reply(target: str, telemetry, rule_engine) -> Reply | None:
    """The answer to one of :data:`OBSERVABILITY_ROUTES` (``None`` for
    any other path), over ``telemetry`` and an optional
    :class:`~repro.streams.health.HealthRuleEngine`."""
    path = target.split("?", 1)[0].rstrip("/")
    if path == "/metrics":
        return 200, telemetry.to_prometheus(), {
            "Content-Type": _PROM_CONTENT_TYPE,
        }
    if path == "/health":
        return *health_payload(rule_engine), {}
    if path == "/health/model":
        return 200, model_payload(rule_engine), {}
    if path.startswith("/health/model/"):
        engine_id = path[len("/health/model/"):]
        return *engine_payload(rule_engine, engine_id), {}
    return None


class ObservabilityServer(HttpServer):
    """Background HTTP server exposing a run's telemetry and health.

    Parameters
    ----------
    telemetry:
        The run's :class:`~repro.streams.telemetry.Telemetry` (serves
        ``/metrics``).
    rule_engine:
        Optional :class:`~repro.streams.health.HealthRuleEngine`.
        Without one, ``/health`` reports OK with a note that no rules
        are wired (liveness-only mode).
    host / port:
        Bind address; ``port=0`` (default) auto-assigns a free port.
    conn_timeout_s:
        Idle timeout of every accepted connection: a client that
        connects and goes silent is dropped after this many seconds
        (counted in ``n_timeouts``).
    """

    routes = OBSERVABILITY_ROUTES
    thread_name = "obs-server"

    def __init__(
        self,
        telemetry,
        *,
        rule_engine=None,
        host: str = "127.0.0.1",
        port: int = 0,
        conn_timeout_s: float = 10.0,
    ) -> None:
        # Every route is a GET: a request that announces a body is
        # refused (413) before a byte of it is read.
        super().__init__(
            host=host, port=port, conn_timeout_s=conn_timeout_s,
            max_body_bytes=0,
        )
        self.telemetry = telemetry
        self.rule_engine = rule_engine

    async def respond(self, method, target, headers, body) -> Reply | None:
        return observability_reply(target, self.telemetry, self.rule_engine)

    # -- payloads (also callable directly, e.g. from tests) --------------

    def health_payload(self) -> tuple[int, dict[str, Any]]:
        return health_payload(self.rule_engine)

    def model_payload(self) -> dict[str, Any]:
        return model_payload(self.rule_engine)

    def engine_payload(self, engine_id: str) -> tuple[int, dict[str, Any]]:
        return engine_payload(self.rule_engine, engine_id)

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
