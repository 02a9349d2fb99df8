"""Model-health monitoring: is the *model* still good, not just the runtime?

The telemetry layer (PR 2) answers "is the pipeline moving" — queue
depths, dispatch latency, failure counters.  This module answers the
question an operator of a survey pipeline actually cares about: **is the
tracked subspace still the right one?**  Following the quality criteria
of the eigenspectra-stability literature (PAPERS.md: "Reliable
Eigenspectra for New Generation Surveys"; Cardot–Degras on
accuracy-vs-throughput), a :class:`HealthMonitor` rides along each
:class:`~repro.parallel.pca_operator.StreamingPCAOperator` and tracks:

* **subspace affinity vs an anchor basis** — ``cos`` of the largest
  principal angle between the current basis and the basis captured at
  the first health check (re-anchored on re-seed).  Slow drift is
  expected under forgetting; a collapse says the model lost the signal.
* **eigenspectrum top-k drift** — the largest relative change of the
  leading eigenvalues between consecutive checks; a spectrum that jumps
  around has not converged (or the stream regime changed).
* **reconstruction-error EWMA control chart** — an exponentially
  weighted mean/variance of the per-window mean residual ``r²`` with
  *warn* and *page* bands at ``±kσ``; sustained excursions above the
  band mean the basis no longer explains the stream.
* **gap-rate and outlier-downweight fractions** — how much of the input
  is missing or being robustly down-weighted; a pipeline quietly
  rejecting half its input is degraded even when throughput looks fine.

Checks run every ``check_every`` consumed rows (a handful of small SVDs
per check, amortized to ~nothing on the hot path) and emit structured
``health`` events into the existing :class:`~repro.streams.telemetry.EventLog`
schema plus ``repro_health_*`` gauges.

On top of the monitors sits a declarative rule layer:
:class:`HealthRule` thresholds evaluated by a :class:`HealthRuleEngine`
over a combined snapshot (model monitors + sync-controller membership +
sink watermark lags) into an overall **OK / DEGRADED / CRITICAL**
verdict with the firing rules named.  The
Both HTTP front ends serve the verdict live at ``/health``
(:mod:`repro.streams.obs_server`); a :class:`HealthSampler` thread records it
periodically as ``health_verdict`` events for post-mortems
(``python -m repro health <log.jsonl>``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core.metrics import subspace_affinity

__all__ = [
    "OK",
    "DEGRADED",
    "CRITICAL",
    "HealthMonitor",
    "HealthRule",
    "HealthVerdict",
    "HealthRuleEngine",
    "HealthSampler",
    "default_rules",
]

#: Verdict levels, ordered by severity; the gauge value is the index.
OK, DEGRADED, CRITICAL = "OK", "DEGRADED", "CRITICAL"
_LEVELS = {OK: 0, DEGRADED: 1, CRITICAL: 2}


class HealthMonitor:
    """Rolling model-health state of one streaming-PCA engine.

    The operator feeds it two cheap calls per consumed tuple/block —
    :meth:`note_rows` / :meth:`note_block` (accumulate window counters)
    and :meth:`maybe_check` (run the actual check once per ``check_every``
    rows) — plus :meth:`on_merge` at every sync merge.  All numerical
    work happens inside the periodic check.

    Parameters
    ----------
    engine_id:
        The engine this monitor watches (labels events and gauges).
    check_every:
        Rows between health checks.
    top_k:
        Leading eigenvalues tracked for spectrum drift.
    ewma_alpha:
        Smoothing factor of the r² control chart (higher = faster).
    warn_sigma / page_sigma:
        Control-band widths; the window mean crossing
        ``ewma + kσ`` sets the chart status to ``warn`` / ``page``.
    baseline_checks:
        Checks consumed before the control bands arm (the chart needs a
        baseline before an excursion is meaningful).
    """

    def __init__(
        self,
        engine_id: int,
        *,
        check_every: int = 256,
        top_k: int = 3,
        ewma_alpha: float = 0.1,
        warn_sigma: float = 3.0,
        page_sigma: float = 6.0,
        baseline_checks: int = 3,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if page_sigma < warn_sigma:
            raise ValueError("page_sigma must be >= warn_sigma")
        self.engine_id = int(engine_id)
        self.check_every = int(check_every)
        self.top_k = int(top_k)
        self.ewma_alpha = float(ewma_alpha)
        self.warn_sigma = float(warn_sigma)
        self.page_sigma = float(page_sigma)
        self.baseline_checks = int(baseline_checks)
        self._telemetry = None
        # window accumulators (since the last check)
        self._w_rows = 0
        self._w_gap_rows = 0
        self._w_outliers = 0
        self._w_weight_sum = 0.0
        self._w_r2_sum = 0.0
        self._rows_since_check = 0
        # lifetime totals
        self.n_rows = 0
        self.n_checks = 0
        self.n_merges = 0
        self.n_reseeds = 0
        # anchor / previous-check state
        self._anchor_basis: np.ndarray | None = None
        self._prev_eigs: np.ndarray | None = None
        # r² control chart
        self._r2_ewma: float | None = None
        self._r2_var: float = 0.0
        # last computed values (the snapshot the rule engine reads)
        self.affinity: float | None = None
        self.eig_drift: float | None = None
        self.gap_rate: float | None = None
        self.outlier_rate: float | None = None
        self.mean_weight: float | None = None
        self.r2_window_mean: float | None = None
        self.chart_status: str = "ok"  # "ok" | "warn" | "page"
        self.last_merge_affinity: float | None = None
        self._lock = threading.Lock()

    # -- telemetry wiring ------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Register the per-engine health gauges (idempotent)."""
        self._telemetry = telemetry
        if telemetry is None or not telemetry.config.metrics:
            return
        eid = str(self.engine_id)
        m = telemetry.metrics
        m.gauge("repro_health_affinity",
                lambda: self.affinity if self.affinity is not None else 1.0,
                engine=eid)
        m.gauge("repro_health_eig_drift",
                lambda: self.eig_drift if self.eig_drift is not None else 0.0,
                engine=eid)
        m.gauge("repro_health_gap_rate",
                lambda: self.gap_rate if self.gap_rate is not None else 0.0,
                engine=eid)
        m.gauge("repro_health_outlier_rate",
                lambda: (self.outlier_rate
                         if self.outlier_rate is not None else 0.0),
                engine=eid)
        m.gauge("repro_health_r2_ewma",
                lambda: self._r2_ewma if self._r2_ewma is not None else 0.0,
                engine=eid)

    # -- per-tuple accumulation (cheap) ----------------------------------

    def note_rows(
        self,
        n_rows: int,
        *,
        n_gap_rows: int = 0,
        n_outliers: int = 0,
        weight_sum: float = 0.0,
        r2_sum: float = 0.0,
    ) -> None:
        """Accumulate one tuple/block's worth of window counters."""
        self._w_rows += n_rows
        self._w_gap_rows += n_gap_rows
        self._w_outliers += n_outliers
        self._w_weight_sum += weight_sum
        self._w_r2_sum += r2_sum
        self._rows_since_check += n_rows
        self.n_rows += n_rows

    def note_block(self, xs: np.ndarray, result) -> None:
        """:meth:`note_rows` for one ``(k, d)`` block and the
        :class:`~repro.core.incremental.BlockUpdateResult` of folding it
        in (a warm-up block carries no weights or residuals).  A gap row
        is one with any non-finite cell — what the estimator patches."""
        n_gaps = int(np.count_nonzero(~np.isfinite(xs).all(axis=1)))
        if result.n_processed:
            self.note_rows(
                xs.shape[0],
                n_gap_rows=n_gaps,
                n_outliers=result.n_outliers,
                weight_sum=float(np.sum(result.weights)),
                r2_sum=float(np.sum(result.residual_norm2)),
            )
        else:
            self.note_rows(xs.shape[0], n_gap_rows=n_gaps)

    def maybe_check(self, estimator) -> bool:
        """Run a health check if the window filled; returns whether it ran."""
        if self._rows_since_check < self.check_every:
            return False
        if not getattr(estimator, "is_initialized", False):
            return False
        self._check(estimator)
        return True

    # -- the periodic check ----------------------------------------------

    def _check(self, estimator) -> None:
        with self._lock:
            state = estimator.state
            basis = np.asarray(state.basis)
            eigs = np.asarray(state.eigenvalues, dtype=float)[: self.top_k]

            if self._anchor_basis is None:
                self._anchor_basis = basis.copy()
            self.affinity = subspace_affinity(basis, self._anchor_basis)

            if self._prev_eigs is not None and self._prev_eigs.size:
                k = min(eigs.size, self._prev_eigs.size)
                prev = self._prev_eigs[:k]
                denom = np.maximum(np.abs(prev), 1e-12)
                self.eig_drift = float(
                    np.max(np.abs(eigs[:k] - prev) / denom)
                ) if k else 0.0
            else:
                self.eig_drift = 0.0
            self._prev_eigs = eigs.copy()

            rows = max(self._w_rows, 1)
            # Gap/outlier/weight fractions are only meaningful when the
            # diagnostics were fed; rows with no weight data keep None.
            self.gap_rate = self._w_gap_rows / rows
            self.outlier_rate = self._w_outliers / rows
            self.mean_weight = (
                self._w_weight_sum / rows if self._w_weight_sum else None
            )
            x = self._w_r2_sum / rows
            self.r2_window_mean = x

            # EWMA control chart on the window mean (Shewhart-style
            # bands over the smoothed statistic).
            a = self.ewma_alpha
            if self._r2_ewma is None:
                self._r2_ewma = x
                self._r2_var = 0.0
                self.chart_status = "ok"
            else:
                mean, var = self._r2_ewma, self._r2_var
                sd = var ** 0.5
                if self.n_checks >= self.baseline_checks and sd > 0.0:
                    if x > mean + self.page_sigma * sd:
                        self.chart_status = "page"
                    elif x > mean + self.warn_sigma * sd:
                        self.chart_status = "warn"
                    else:
                        self.chart_status = "ok"
                else:
                    self.chart_status = "ok"
                # Update the chart *after* judging the new point against
                # the previous baseline (standard control-chart order);
                # excursions are not folded into the baseline when they
                # fire, so a sustained shift keeps paging.
                if self.chart_status == "ok":
                    delta = x - mean
                    self._r2_ewma = mean + a * delta
                    self._r2_var = (1.0 - a) * (var + a * delta * delta)

            self.n_checks += 1
            self._w_rows = 0
            self._w_gap_rows = 0
            self._w_outliers = 0
            self._w_weight_sum = 0.0
            self._w_r2_sum = 0.0
            self._rows_since_check = 0
            event = self._event_locked()
        tel = self._telemetry
        if tel is not None:
            tel.events.append({"ts": tel.now(), **event})

    def on_merge(self, estimator, *, reseed: bool = False) -> None:
        """Record a sync merge (and re-anchor on re-seed).

        The pre/post-merge affinity measures how much the merge rotated
        the local basis — large rotations late in a run mean the engines
        disagree, which is itself a health signal.
        """
        if not getattr(estimator, "is_initialized", False):
            return
        with self._lock:
            basis = np.asarray(estimator.state.basis)
            if reseed:
                # A re-seeded engine adopted the ensemble view: the old
                # anchor no longer describes its lineage.
                self._anchor_basis = basis.copy()
                self.n_reseeds += 1
            if self._anchor_basis is not None:
                self.last_merge_affinity = subspace_affinity(
                    basis, self._anchor_basis
                )
            self.n_merges += 1
            event = {
                "kind": "health",
                "engine": self.engine_id,
                "event": "merge",
                "reseed": bool(reseed),
                "affinity": self.last_merge_affinity,
                "n_merges": self.n_merges,
            }
        tel = self._telemetry
        if tel is not None:
            tel.events.append({"ts": tel.now(), **event})

    # -- snapshots --------------------------------------------------------

    def _event_locked(self) -> dict[str, Any]:
        sd = self._r2_var ** 0.5
        mean = self._r2_ewma if self._r2_ewma is not None else 0.0
        return {
            "kind": "health",
            "engine": self.engine_id,
            "event": "check",
            "n_rows": self.n_rows,
            "affinity": self.affinity,
            "eig_drift": self.eig_drift,
            "gap_rate": self.gap_rate,
            "outlier_rate": self.outlier_rate,
            "mean_weight": self.mean_weight,
            "r2_window_mean": self.r2_window_mean,
            "r2_ewma": mean,
            "r2_band_warn": mean + self.warn_sigma * sd,
            "r2_band_page": mean + self.page_sigma * sd,
            "chart_status": self.chart_status,
        }

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time view for the rule engine / ``/health/model``."""
        with self._lock:
            snap = self._event_locked()
        snap.pop("kind")
        snap.pop("event")
        snap.update(
            n_checks=self.n_checks,
            n_merges=self.n_merges,
            n_reseeds=self.n_reseeds,
            last_merge_affinity=self.last_merge_affinity,
        )
        return snap


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HealthRule:
    """One declarative health threshold.

    ``predicate(snapshot) -> value | None`` returns the offending value
    when firing (``None`` = healthy); ``severity`` maps to the verdict:
    ``"warn"`` → DEGRADED, ``"critical"`` → CRITICAL.
    """

    name: str
    severity: str  # "warn" | "critical"
    predicate: Callable[[Mapping[str, Any]], Any]
    description: str = ""

    def __post_init__(self) -> None:
        if self.severity not in ("warn", "critical"):
            raise ValueError(
                f"severity must be 'warn' or 'critical', got {self.severity!r}"
            )


def default_rules(
    *,
    min_affinity: float = 0.70,
    max_watermark_lag_s: float = 60.0,
    max_gap_rate: float = 0.5,
) -> list[HealthRule]:
    """The built-in rule set (thresholds overridable per deployment)."""

    def dead_peers(s: Mapping[str, Any]):
        n = s.get("peers_dead")
        return n if n else None

    def quorum_lost(s: Mapping[str, Any]):
        quorum, live = s.get("quorum"), s.get("peers_live")
        if quorum is None or live is None:
            return None
        # Only meaningful once membership has tracked anyone at all.
        if not s.get("peers_tracked"):
            return None
        return live if live < quorum else None

    def affinity_low(s: Mapping[str, Any]):
        worst = s.get("min_affinity")
        return worst if worst is not None and worst < min_affinity else None

    def r2_warn(s: Mapping[str, Any]):
        return "warn" if s.get("worst_chart_status") == "warn" else None

    def r2_page(s: Mapping[str, Any]):
        return "page" if s.get("worst_chart_status") == "page" else None

    def wm_lag(s: Mapping[str, Any]):
        lag = s.get("max_watermark_lag_s")
        return lag if lag is not None and lag > max_watermark_lag_s else None

    def gaps(s: Mapping[str, Any]):
        rate = s.get("max_gap_rate")
        return rate if rate is not None and rate > max_gap_rate else None

    return [
        HealthRule("peer-evicted", "warn", dead_peers,
                   "a tracked sync peer is evicted (engine down?)"),
        HealthRule("quorum-lost", "critical", quorum_lost,
                   "fewer live peers than the merge quorum"),
        HealthRule("subspace-affinity-low", "warn", affinity_low,
                   f"subspace affinity vs anchor below {min_affinity}"),
        HealthRule("r2-above-warn-band", "warn", r2_warn,
                   "reconstruction error above the EWMA warn band"),
        HealthRule("r2-above-page-band", "critical", r2_page,
                   "reconstruction error above the EWMA page band"),
        HealthRule("watermark-lag-high", "warn", wm_lag,
                   f"sink watermark lag above {max_watermark_lag_s}s"),
        HealthRule("gap-rate-high", "warn", gaps,
                   f"input gap rate above {max_gap_rate}"),
    ]


@dataclass
class HealthVerdict:
    """One evaluated verdict: the overall status plus the firing rules."""

    status: str
    firing: list[dict[str, Any]] = field(default_factory=list)
    snapshot: dict[str, Any] = field(default_factory=dict)
    ts: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "firing": list(self.firing),
            "snapshot": dict(self.snapshot),
            "ts": self.ts,
        }


class HealthRuleEngine:
    """Evaluate :class:`HealthRule` thresholds over the live pipeline.

    Aggregates three snapshot sources — the model monitors, the sync
    controller's membership table, and the sink watermark-lag gauges —
    into one flat dict the rules read.  Evaluation is cheap (a metrics
    collection plus a few comparisons) and thread-safe, so the
    observability server runs it per ``/health`` request and the
    :class:`HealthSampler` per tick.
    """

    def __init__(
        self,
        telemetry=None,
        *,
        monitors: Iterable[HealthMonitor] = (),
        controller=None,
        rules: Iterable[HealthRule] | None = None,
    ) -> None:
        self.telemetry = telemetry
        self.monitors = list(monitors)
        self.controller = controller
        self.rules = list(rules) if rules is not None else default_rules()
        self.last_verdict: HealthVerdict | None = None
        if telemetry is not None and telemetry.config.metrics:
            telemetry.metrics.gauge(
                "repro_health_status",
                lambda: float(
                    _LEVELS.get(
                        self.last_verdict.status
                        if self.last_verdict is not None else OK,
                        0,
                    )
                ),
            )

    # -- snapshot aggregation --------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        snap: dict[str, Any] = {}
        if self.monitors:
            per_engine = [m.snapshot() for m in self.monitors]
            snap["engines"] = {
                m.engine_id: s for m, s in zip(self.monitors, per_engine)
            }
            affinities = [
                s["affinity"] for s in per_engine
                if s.get("affinity") is not None
            ]
            if affinities:
                snap["min_affinity"] = min(affinities)
            gap_rates = [
                s["gap_rate"] for s in per_engine
                if s.get("gap_rate") is not None
            ]
            if gap_rates:
                snap["max_gap_rate"] = max(gap_rates)
            order = {"ok": 0, "warn": 1, "page": 2}
            snap["worst_chart_status"] = max(
                (s.get("chart_status", "ok") for s in per_engine),
                key=lambda st: order.get(st, 0),
                default="ok",
            )
        ctrl = self.controller
        if ctrl is not None:
            peers = getattr(ctrl, "peers", None) or {}
            tracked = list(peers.values())
            live = [p for p in tracked if getattr(p, "alive", True)]
            snap["peers_tracked"] = len(tracked)
            snap["peers_live"] = len(live)
            snap["peers_dead"] = len(tracked) - len(live)
            snap["dead_engines"] = sorted(
                p.engine for p in tracked if not getattr(p, "alive", True)
            )
            snap["quorum"] = getattr(ctrl, "quorum", None)
            stats = getattr(ctrl, "stats", None)
            if stats is not None:
                snap["n_evictions"] = getattr(stats, "n_evictions", 0)
                snap["n_rejoins"] = getattr(stats, "n_rejoins", 0)
        tel = self.telemetry
        if tel is not None and tel.config.metrics:
            lags = {}
            for metric in tel.metrics.collect():
                name = getattr(metric, "name", None)
                if name == "repro_watermark_lag_seconds":
                    labels = getattr(metric, "labels", {}) or {}
                    lags[labels.get("sink", "?")] = float(metric.value)
            if lags:
                snap["watermark_lag_s"] = lags
                snap["max_watermark_lag_s"] = max(lags.values())
        return snap

    # -- evaluation -------------------------------------------------------

    def evaluate(self) -> HealthVerdict:
        snap = self.snapshot()
        firing: list[dict[str, Any]] = []
        status = OK
        for rule in self.rules:
            try:
                value = rule.predicate(snap)
            except Exception as exc:  # a broken rule must not kill /health
                firing.append({
                    "rule": rule.name, "severity": "warn",
                    "value": f"rule error: {exc}",
                })
                if status == OK:
                    status = DEGRADED
                continue
            if value is None:
                continue
            severity = rule.severity
            firing.append({
                "rule": rule.name,
                "severity": severity,
                "value": value if isinstance(value, (int, float, str))
                else str(value),
                "description": rule.description,
            })
            if severity == "critical":
                status = CRITICAL
            elif status == OK:
                status = DEGRADED
        ts = (
            self.telemetry.now() if self.telemetry is not None
            else time.time()
        )
        verdict = HealthVerdict(
            status=status, firing=firing, snapshot=snap, ts=ts
        )
        self.last_verdict = verdict
        return verdict


class HealthSampler(threading.Thread):
    """Background thread recording periodic ``health_verdict`` events.

    The live endpoint evaluates on demand; this thread gives post-mortem
    logs the same verdicts over time (``python -m repro health`` renders
    the status timeline from them).
    """

    def __init__(
        self,
        engine: HealthRuleEngine,
        *,
        interval_s: float = 0.25,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        super().__init__(name="health-sampler", daemon=True)
        self.engine = engine
        self.interval_s = interval_s
        self.n_samples = 0
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            self.sample()
        self.sample()  # final verdict at shutdown

    def sample(self) -> None:
        verdict = self.engine.evaluate()
        tel = self.engine.telemetry
        if tel is not None:
            tel.events.append({
                "ts": tel.now(),
                "kind": "health_verdict",
                "status": verdict.status,
                "firing": verdict.firing,
            })
        self.n_samples += 1
