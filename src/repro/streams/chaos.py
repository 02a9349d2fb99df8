"""Scenario-driven chaos harness for the parallel merge path.

The ROADMAP's robustness goal is not "the engines survive one
hand-crafted crash test" but "faults are a *routine input*": declared,
seeded, injected, and measured.  This module turns the primitives that
already exist — :class:`~repro.streams.supervision.FaultInjector`,
supervision policies, controller membership, the dead-letter queue —
into declarative, reproducible *scenarios* runnable against all four
runtimes:

* :class:`FaultSpec` — one declarative fault: an injector plan
  (``crash`` / ``delay`` / ``drop``), an engine blackout with state loss
  (``kill_engine``, threaded/synchronous), a real ``SIGKILL`` of an
  engine host (``host_kill``) or a severed-and-redialled host channel
  (``netsplit``) on the runtimes that place operators on hosts
  (process, cluster), or input corruption (``poison``).
* :class:`ChaosScenario` — the full experiment: data model, graph
  configuration (membership, quarantine, shedding), runtime, and the
  fault list.  Everything is derived from ``seed`` so a report can be
  reproduced bit-for-bit on the deterministic runtime and
  statistically on the concurrent ones.
* :func:`run_scenario` — executes the scenario *and* a fault-free
  synchronous reference run, then reports recovery time (from the
  telemetry event stream), tuples lost / duplicated / quarantined /
  shed, and the subspace affinity of the chaotic global basis against
  the fault-free one.
* :func:`run_suite` / :func:`smoke_suite` — batch execution with a
  JSONL report artifact (the CI ``chaos-smoke`` job uploads it).

See ``docs/robustness.md`` for the scenario catalog and acceptance
thresholds.
"""

from __future__ import annotations

import json
import pathlib
import socket
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..core.metrics import subspace_affinity
from ..data.gaussian import PlantedSubspaceModel
from ..data.streams import VectorStream
from .supervision import FaultInjector, Supervisor
from .telemetry import Telemetry, TelemetryConfig

__all__ = [
    "ChaosReport",
    "ChaosScenario",
    "FaultSpec",
    "FlakyVectorServer",
    "cluster_flap_scenario",
    "cluster_kill_host_scenario",
    "kill_engine_scenario",
    "load_chaos_reports",
    "network_flap_scenario",
    "poison_scenario",
    "queue_stall_scenario",
    "run_scenario",
    "run_suite",
    "slow_operator_scenario",
    "smoke_suite",
    "write_chaos_reports",
]

#: Fault kinds the harness understands.
FAULT_KINDS = (
    "crash",        # raise InjectedFault on `op` (FaultInjector.crash)
    "delay",        # sleep `seconds` per tuple on `op` (slow operator /
                    # queue stall, depending on where it is installed)
    "drop",         # silently swallow tuples on `op`
    "kill_engine",  # blackout window + state loss on a PCA engine
                    # (threaded / synchronous runtimes)
    "host_kill",    # SIGKILL the engine-host process holding `op` once
                    # the controller has seen `at_tuple` messages
                    # (process / cluster: an engine blackout over TCP)
    "netsplit",     # sever the TCP channel of the host holding `op`
                    # once after it has received `at_tuple` frames; the
                    # channel must redial with backoff (process / cluster)
    "poison",       # corrupt `duration` input rows (wrong dim / all-NaN)
)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    op:
        Target operator name (ignored by ``poison``).
    at_tuple:
        1-based trigger: the N-th ``process`` call on the target
        operator (injector kinds, ``kill_engine``) or the N-th message
        seen by the sync controller (``host_kill`` — host-side tuple
        counts are invisible to the coordinator).
    duration:
        Window length in tuples (``kill_engine``, ``crash``/``delay``/
        ``drop`` repeat) or number of corrupted rows (``poison``).
    seconds:
        Per-tuple sleep for ``delay``; for ``kill_engine``, how long the
        engine stays down per swallowed tuple — a dead engine does not
        drain its queue instantly, and the hold gives the concurrent
        runtimes wall-clock room to notice the silence.
    """

    kind: str
    op: str | None = None
    at_tuple: int = 1
    duration: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.kind != "poison" and not self.op:
            raise ValueError(f"fault kind {self.kind!r} needs an op name")
        if self.at_tuple < 1:
            raise ValueError("at_tuple is 1-based and must be >= 1")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")


def _places_on_hosts(runtime: str) -> bool:
    """Whether ``runtime`` places operators on engine hosts — the one
    branch between in-process and host faults, read off the engine
    class behind the runtime name."""
    from ..parallel.app import ENGINE_CLASSES
    from .clusterengine import ClusterEngine

    if runtime not in ENGINE_CLASSES:
        raise ValueError(f"unknown runtime {runtime!r}")
    return issubclass(ENGINE_CLASSES[runtime], ClusterEngine)


@dataclass
class ChaosScenario:
    """A reproducible chaos experiment on the parallel PCA application.

    The graph is the standard Fig. 2 topology built by
    :func:`repro.parallel.app.build_parallel_pca_graph` with the
    robustness hooks armed (membership, quarantine); ``faults`` are
    installed on top.  All randomness (data, split routing, poison row
    selection) derives from ``seed``.
    """

    name: str
    faults: tuple[FaultSpec, ...] = ()
    runtime: str = "threaded"
    n_engines: int = 4
    n_samples: int = 1600
    dim: int = 16
    n_components: int = 4
    #: Forgetting factor.  The sync gate opens after ``1.5 / (1 - α)``
    #: observations per engine, so chaos runs use a shorter effective
    #: window than production defaults to get several sync rounds out
    #: of a small, fast scenario.
    alpha: float = 0.98
    seed: int = 0
    strategy: str = "ring"
    stale_after: int | None = 12
    quorum: int | None = None
    heartbeat_every: int = 25
    quarantine: bool = True
    supervise: bool = True
    checkpoint_every: int = 50
    sync_gate_factor: float = 1.5
    #: Rows per block (``build_parallel_pca_graph(batch_size=)``); the
    #: loss accounting counts rows either way.
    batch_size: int = 0
    #: Wall-clock ceiling for the run.  Generous: host-restart
    #: scenarios on a loaded single-CPU CI box have been observed to
    #: need well over 120 s while still recovering correctly.
    timeout_s: float = 300.0

    def __post_init__(self) -> None:
        remote = _places_on_hosts(self.runtime)
        self.faults = tuple(self.faults)
        for f in self.faults:
            if f.kind in ("host_kill", "netsplit") and not remote:
                raise ValueError(
                    f"{f.kind} needs a runtime that places operators on "
                    f"hosts (process, cluster); use kill_engine on "
                    f"{self.runtime}"
                )
            if f.kind == "kill_engine" and remote:
                raise ValueError(
                    "kill_engine wraps the operator in-process; use "
                    "host_kill on a runtime that places operators on hosts"
                )
            if (
                remote
                and f.kind in ("crash", "delay", "drop")
                and f.op is not None
                and f.op.startswith("pca-")
            ):
                # Injector wrappers are closures and cannot cross the
                # pickle boundary into a host process.
                raise ValueError(
                    f"{f.kind} on {f.op!r} cannot cross the pickle "
                    "boundary into a host process; target a "
                    "coordinator-side operator or use host_kill"
                )


@dataclass
class ChaosReport:
    """What one chaos run did to the pipeline, quantified.

    ``n_lost`` is the number of input observations that are entirely
    unaccounted for: not processed by any engine (``n_processed`` sums
    the engines' own data-row counters; ``n_observed`` counts unique
    sequence numbers on the diagnostics stream, which excludes
    estimator warm-up), not quarantined, not shed — the true
    (undesirable) loss.  ``affinity`` is
    ``cos(max principal angle)`` between the chaotic run's merged global
    basis and the fault-free synchronous reference (1.0 = identical
    subspace).
    """

    scenario: str
    runtime: str
    seed: int
    ok: bool = False
    error: str | None = None
    wall_time_s: float = 0.0
    n_input: int = 0
    n_processed: int = 0
    n_observed: int = 0
    n_lost: int = 0
    n_duplicated: int = 0
    n_quarantined: int = 0
    n_shed: int = 0
    n_evictions: int = 0
    n_rejoins: int = 0
    n_reseeds: int = 0
    n_reconnects: int = 0
    recovery_time_s: float | None = None
    affinity: float | None = None
    membership: dict[str, Any] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# ---------------------------------------------------------------------------
# Fault installation
# ---------------------------------------------------------------------------


def _find_op(graph, name: str):
    for op in graph:
        if op.name == name:
            return op
    raise ValueError(f"fault targets unknown operator {name!r}")


def _install_kill_engine(
    app, spec: FaultSpec, estimator_factory, tel: Telemetry
) -> None:
    """Blackout window with state loss: the in-process "kill".

    For the ``spec.duration`` process calls starting at
    ``spec.at_tuple`` the target engine is *down*: every tuple (data and
    control alike) is silently swallowed, and on entry its estimator is
    replaced with a fresh one — the restarted engine remembers nothing.
    The controller evicts it for silence; its first tuple after the
    window triggers rejoin + reseed, and the fresh estimator adopts the
    global basis.  The window must close before end-of-stream or the
    swallowed punctuation deadlocks shutdown.
    """
    op = _find_op(app.graph, spec.op)
    inner = op.process
    lo, hi = spec.at_tuple, spec.at_tuple + spec.duration
    calls = {"n": 0, "down": False}

    def wrapped(tup, port: int = 0) -> None:
        calls["n"] += 1
        if lo <= calls["n"] < hi:
            if not calls["down"]:
                calls["down"] = True
                op.estimator = estimator_factory(op.engine_id)
                op._ready_announced = False
                tel.events.append({
                    "ts": tel.now(), "kind": "chaos", "fault": spec.kind,
                    "op": op.name, "at_tuple": calls["n"],
                })
            if spec.seconds:
                time.sleep(spec.seconds)
            return
        inner(tup, port)

    op.process = wrapped


def _start_remote_killer(
    engine, app, spec: FaultSpec, tel: Telemetry
) -> None:
    """SIGKILL the engine host holding ``spec.op`` mid-protocol
    (``host_kill``).

    Tuple counts on the far side of a socket are invisible from the
    coordinator, so the trigger is the sync controller's own message
    counter reaching ``spec.at_tuple`` — by then the target engine is
    provably mid-stream.  What follows is the engine's normal death
    path: a host is respawned from its checkpoint under the
    supervisor's RestartFromCheckpoint policy (the process scenarios);
    one lost under ``tolerate_host_loss=True`` (the cluster scenarios)
    has punctuation injected on its routes and the controller's
    eviction + quorum machinery owns correctness.
    """
    controller = app.controller
    loc = engine._loc_of[spec.op]

    def run() -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if controller._messages_seen >= spec.at_tuple:
                if engine.kill_remote(loc):
                    tel.events.append({
                        "ts": tel.now(), "kind": "chaos",
                        "fault": spec.kind, "op": spec.op, "loc": loc,
                    })
                return
            time.sleep(0.002)

    threading.Thread(target=run, name="chaos-killer", daemon=True).start()


def _poison_rows(
    x: np.ndarray, specs: list[FaultSpec], seed: int
) -> tuple[list[np.ndarray], set[int]]:
    """Replace seeded row indices with poison (wrong dim / all-NaN)."""
    rows: list[np.ndarray] = [np.asarray(r, dtype=np.float64) for r in x]
    rng = np.random.default_rng(seed ^ 0xC0FFEE)
    dim = x.shape[1]
    poisoned: set[int] = set()
    total = sum(s.duration for s in specs)
    total = min(total, len(rows))
    idx = rng.choice(len(rows), size=total, replace=False)
    for j, i in enumerate(sorted(int(v) for v in idx)):
        poisoned.add(i)
        if j % 2 == 0:
            rows[i] = np.zeros(dim + 3)          # wrong dimensionality
        else:
            rows[i] = np.full(dim, np.nan)       # all-NaN: no information
    return rows, poisoned


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def _reference_basis(scenario: ChaosScenario, x: np.ndarray) -> np.ndarray:
    """Fault-free global basis: the synchronous runtime on clean data."""
    from ..parallel.runner import ParallelStreamingPCA

    result = ParallelStreamingPCA(
        scenario.n_components,
        n_engines=scenario.n_engines,
        alpha=scenario.alpha,
        strategy=scenario.strategy,
        runtime="synchronous",
        sync_gate_factor=scenario.sync_gate_factor,
        split_seed=scenario.seed,
        collect_diagnostics=False,
    ).run(VectorStream.from_array(x))
    return result.global_state.basis


def run_scenario(
    scenario: ChaosScenario,
    *,
    reference: np.ndarray | None = None,
    telemetry: Telemetry | None = None,
) -> ChaosReport:
    """Execute one scenario end to end and quantify the damage.

    Runs the fault-free synchronous reference first (unless a
    ``reference`` basis is supplied), then the chaotic run on
    ``scenario.runtime`` with all faults installed.  Failures of the
    chaotic run are captured in the report (``ok=False``), never
    raised — a chaos suite must outlive its own experiments.
    """
    from ..core.robust import RobustIncrementalPCA
    from ..parallel.app import (
        build_parallel_pca_graph,
        engine_restart_supervisor,
    )

    report = ChaosReport(
        scenario=scenario.name, runtime=scenario.runtime,
        seed=scenario.seed,
    )
    model = PlantedSubspaceModel(
        scenario.dim,
        signal_variances=tuple(
            float(v) for v in np.linspace(
                25.0, 4.0, scenario.n_components
            )
        ),
        seed=scenario.seed,
    )
    x = model.sample(
        scenario.n_samples, np.random.default_rng(scenario.seed + 1)
    )
    ref = reference if reference is not None else _reference_basis(
        scenario, x
    )

    poison_specs = [f for f in scenario.faults if f.kind == "poison"]
    rows: list[np.ndarray] | np.ndarray = x
    poisoned: set[int] = set()
    if poison_specs:
        rows, poisoned = _poison_rows(x, poison_specs, scenario.seed)
    report.n_input = len(rows)
    stream = VectorStream.from_iterable(
        rows, dim=scenario.dim, length=len(rows)
    )

    def factory(engine_id: int) -> RobustIncrementalPCA:
        return RobustIncrementalPCA(
            scenario.n_components, alpha=scenario.alpha
        )

    app = build_parallel_pca_graph(
        stream,
        scenario.n_engines,
        factory,
        strategy=scenario.strategy,
        split_seed=scenario.seed,
        sync_gate_factor=scenario.sync_gate_factor,
        collect_diagnostics=True,
        batch_size=scenario.batch_size,
        quarantine=scenario.quarantine,
        stale_after=scenario.stale_after,
        quorum=scenario.quorum,
        heartbeat_every=scenario.heartbeat_every,
    )
    tel = telemetry if telemetry is not None else Telemetry(
        TelemetryConfig(metrics=True, tracing=False)
    )

    injector: FaultInjector | None = None
    for f in scenario.faults:
        if f.kind == "crash":
            injector = injector or FaultInjector()
            injector.crash(f.op, at_tuple=f.at_tuple, repeat=f.duration)
        elif f.kind == "delay":
            injector = injector or FaultInjector()
            injector.delay(
                f.op, at_tuple=f.at_tuple, seconds=f.seconds,
                repeat=f.duration,
            )
        elif f.kind == "drop":
            injector = injector or FaultInjector()
            injector.drop(f.op, at_tuple=f.at_tuple, repeat=f.duration)
        elif f.kind == "kill_engine":
            _install_kill_engine(app, f, factory, tel)
    if injector is not None:
        injector.install(app.graph)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as ckpt_dir:
        supervisor: Supervisor | None = None
        if scenario.supervise:
            supervisor = engine_restart_supervisor(
                app,
                directory=ckpt_dir if scenario.runtime == "process"
                else None,
                checkpoint_every=scenario.checkpoint_every,
            )
        t0 = time.perf_counter()
        try:
            # The product's launch path; only the cluster runtime needs
            # telling that losing a host is part of the experiment.
            options = (
                {"tolerate_host_loss": True}
                if scenario.runtime == "cluster" else {}
            )
            engine = app.engine(
                scenario.runtime, supervisor=supervisor, telemetry=tel,
                **options,
            )
            for f in scenario.faults:
                if f.kind == "netsplit":
                    # Translate the op name into its host placement; the
                    # host's channel severs itself after at_tuple
                    # received frames and must redial.
                    engine.flap_hosts[engine._loc_of[f.op]] = f.at_tuple
                elif f.kind == "host_kill":
                    _start_remote_killer(engine, app, f, tel)
            if scenario.runtime == "synchronous":
                engine.run()
            else:
                engine.run(timeout_s=scenario.timeout_s)
            report.n_reconnects = getattr(
                engine, "cluster_stats", {}
            ).get("reconnects", 0)
            report.ok = True
        except Exception as exc:  # noqa: BLE001 - the suite must survive
            report.error = f"{type(exc).__name__}: {exc}"
        report.wall_time_s = time.perf_counter() - t0

    _fill_report(report, scenario, app, tel, ref, poisoned)
    return report


def _fill_report(
    report: ChaosReport,
    scenario: ChaosScenario,
    app,
    tel: Telemetry,
    ref: np.ndarray,
    poisoned: set[int],
) -> None:
    from ..parallel.pca_operator import expand_diagnostics

    seen: dict[int, int] = {}
    if app.diag_sink is not None:
        for row in expand_diagnostics(app.diag_sink.tuples):
            seq = int(row["seq"])
            seen[seq] = seen.get(seq, 0) + 1
    report.n_observed = len(seen)
    report.n_duplicated = sum(n - 1 for n in seen.values() if n > 1)
    dlq = app.dlq
    report.n_quarantined = dlq.total if dlq is not None else 0
    report.n_shed = app.n_shed
    report.n_processed = sum(
        int(getattr(op, "n_data_rows", 0)) for op in app.engines
    )
    report.n_lost = max(
        0,
        report.n_input - report.n_processed - report.n_quarantined
        - report.n_shed,
    )
    stats = app.controller.stats
    report.n_evictions = stats.n_evictions
    report.n_rejoins = stats.n_rejoins
    report.n_reseeds = stats.n_reseeds
    report.membership = {
        str(k): v for k, v in app.controller.membership().items()
    }

    events = tel.events.events()
    keep = (
        "chaos", "membership", "dlq", "breaker",
        "cluster_host_dead", "cluster_host_connected",
    )
    report.events = [e for e in events if e.get("kind") in keep]
    fault_ts = [
        e["ts"] for e in report.events if e.get("kind") == "chaos"
    ]
    rejoin_ts = [
        e["ts"] for e in report.events
        if e.get("kind") == "membership" and e.get("event") == "rejoins"
    ]
    if fault_ts and rejoin_ts:
        after = [t for t in rejoin_ts if t >= fault_ts[0]]
        if after:
            report.recovery_time_s = float(after[0] - fault_ts[0])

    if report.ok:
        try:
            state = app.controller.global_state(scenario.n_components)
            report.affinity = subspace_affinity(ref, state.basis)
        except Exception as exc:  # noqa: BLE001 - quorum not met, etc.
            report.ok = False
            report.error = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Scenario catalog
# ---------------------------------------------------------------------------


def kill_engine_scenario(
    runtime: str = "threaded", *, seed: int = 0, n_engines: int = 4
) -> ChaosScenario:
    """Kill 1 of ``n_engines`` engines mid-stream; it must rejoin.

    Where operators run on engine hosts the kill is a real ``SIGKILL``
    of the host (restart via checkpoint on the process runtime); on
    threaded/synchronous it is a blackout window with state loss.
    Either way the controller must evict the silent peer, reroute its
    ring traffic, and reseed it on rejoin — and the merged global basis
    must stay within affinity 0.98 of the fault-free run.
    """
    if _places_on_hosts(runtime):
        fault = FaultSpec(kind="host_kill", op="pca-1", at_tuple=40)
    else:
        fault = FaultSpec(
            kind="kill_engine", op="pca-1", at_tuple=120, duration=220,
            seconds=0.0015,
        )
    return ChaosScenario(
        name=f"kill-1-of-{n_engines}",
        faults=(fault,),
        runtime=runtime,
        n_engines=n_engines,
        n_samples=2400,
        seed=seed,
    )


def poison_scenario(
    runtime: str = "threaded", *, seed: int = 0, n_poison: int = 12
) -> ChaosScenario:
    """Corrupt rows mid-stream; they must land in the DLQ, not crash."""
    return ChaosScenario(
        name="poison-tuples",
        faults=(FaultSpec(kind="poison", duration=n_poison),),
        runtime=runtime,
        n_samples=800,
        seed=seed,
    )


def slow_operator_scenario(
    runtime: str = "threaded", *, seed: int = 0
) -> ChaosScenario:
    """One engine runs slow for a stretch; nothing may be lost."""
    op = "split" if _places_on_hosts(runtime) else "pca-0"
    return ChaosScenario(
        name="slow-operator",
        faults=(
            FaultSpec(
                kind="delay", op=op, at_tuple=50, duration=20,
                seconds=0.002,
            ),
        ),
        runtime=runtime,
        n_samples=600,
        seed=seed,
    )


def queue_stall_scenario(
    runtime: str = "threaded", *, seed: int = 0
) -> ChaosScenario:
    """The load balancer stalls briefly; backpressure must absorb it."""
    return ChaosScenario(
        name="queue-stall",
        faults=(
            FaultSpec(
                kind="delay", op="split", at_tuple=100, duration=1,
                seconds=0.05,
            ),
        ),
        runtime=runtime,
        n_samples=600,
        seed=seed,
    )


def cluster_kill_host_scenario(
    *, seed: int = 0, n_engines: int = 3
) -> ChaosScenario:
    """SIGKILL 1 of ``n_engines`` TCP engine hosts mid-run.

    The cluster analog of :func:`kill_engine_scenario`: the coordinator
    must detect the death, inject punctuation on the dead host's
    routes, drop (and count) its traffic, and let the controller's
    staleness eviction + quorum finish the run on the survivors — with
    the merged basis within affinity 0.98 of the fault-free reference.
    ``supervise=False``: across host loss, correctness is owned by
    membership, not restart policies.
    """
    return ChaosScenario(
        name=f"cluster-kill-1-of-{n_engines}",
        faults=(FaultSpec(kind="host_kill", op="pca-1", at_tuple=40),),
        runtime="cluster",
        n_engines=n_engines,
        n_samples=2400,
        quorum=2,
        supervise=False,
        seed=seed,
    )


def cluster_flap_scenario(
    *, seed: int = 0, n_engines: int = 3
) -> ChaosScenario:
    """Sever one host's TCP channel mid-run; it must redial and finish.

    The host's :class:`~repro.streams.wireproto.ReconnectingChannel`
    force-closes its own socket after its third received frame; the
    redial (with the network-source backoff budget) and the
    coordinator's re-association must complete the run, with any frames
    caught in kernel buffers surfacing as *counted* loss, never a hang.
    """
    return ChaosScenario(
        name="cluster-netsplit",
        faults=(
            FaultSpec(kind="netsplit", op="pca-1", at_tuple=3),
        ),
        runtime="cluster",
        n_engines=n_engines,
        n_samples=1600,
        quorum=2,
        supervise=False,
        seed=seed,
    )


def smoke_suite(runtime: str = "threaded", *, seed: int = 0) -> list[
    ChaosScenario
]:
    """The CI smoke set: one of each fault family, small sizes."""
    return [
        kill_engine_scenario(runtime, seed=seed),
        poison_scenario(runtime, seed=seed),
        slow_operator_scenario(runtime, seed=seed),
        queue_stall_scenario(runtime, seed=seed),
    ]


def run_suite(
    scenarios: list[ChaosScenario],
    *,
    out: str | pathlib.Path | None = None,
    log: Callable[[str], None] | None = None,
) -> list[ChaosReport]:
    """Run every scenario; optionally append reports to a JSONL file."""
    reports = []
    for scenario in scenarios:
        report = run_scenario(scenario)
        reports.append(report)
        if log is not None:
            status = "ok" if report.ok else f"FAIL ({report.error})"
            log(
                f"{scenario.name} [{scenario.runtime}] {status}: "
                f"lost={report.n_lost} dup={report.n_duplicated} "
                f"dlq={report.n_quarantined} "
                f"affinity={report.affinity}"
            )
    if out is not None:
        write_chaos_reports(reports, out)
    return reports


def write_chaos_reports(
    reports: list[ChaosReport], path: str | pathlib.Path
) -> None:
    """Append one JSON object per report to ``path`` (JSONL)."""

    def default(obj):
        try:
            return float(obj)
        except (TypeError, ValueError):
            return str(obj)

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        for report in reports:
            fh.write(json.dumps(report.to_dict(), default=default) + "\n")


def load_chaos_reports(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Read a JSONL chaos report back as dicts."""
    out = []
    with pathlib.Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# Network flap (socket-source scenario)
# ---------------------------------------------------------------------------


class FlakyVectorServer:
    """A resumable TCP vector feeder that flaps the connection.

    Serves CSV lines like
    :func:`~repro.streams.network_sources.serve_vectors`, but every
    ``flap_every`` rows it hard-resets the connection (``SO_LINGER 0``
    → RST, so the client sees a *failure*, not a clean EOF) and waits
    for the client to reconnect; sending resumes from the cursor — the
    contract :class:`~repro.streams.network_sources.TCPVectorSource`
    expects from a resuming feeder.  Rows still in flight at the RST
    are discarded by the kernel and show up as (bounded, reported)
    loss.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        *,
        flap_every: int = 50,
        max_flaps: int = 3,
        settle_s: float = 0.05,
        host: str = "127.0.0.1",
    ) -> None:
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.flap_every = int(flap_every)
        self.max_flaps = int(max_flaps)
        self.settle_s = float(settle_s)
        self.n_flaps = 0
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._server.bind((host, 0))
        self._server.listen(1)
        self.port = self._server.getsockname()[1]
        self._thread = threading.Thread(
            target=self._run, name="flaky-server", daemon=True
        )

    def start(self) -> "FlakyVectorServer":
        self._thread.start()
        return self

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)

    def _run(self) -> None:
        cursor = 0
        try:
            while cursor < len(self.vectors):
                conn, _ = self._server.accept()
                sent_this_conn = 0
                try:
                    writer = conn.makefile("w", encoding="utf-8")
                    while cursor < len(self.vectors):
                        if (
                            self.n_flaps < self.max_flaps
                            and sent_this_conn >= self.flap_every
                        ):
                            # Let the client drain, then RST.
                            time.sleep(self.settle_s)
                            self.n_flaps += 1
                            conn.setsockopt(
                                socket.SOL_SOCKET,
                                socket.SO_LINGER,
                                b"\x01\x00\x00\x00\x00\x00\x00\x00",
                            )
                            # The makefile wrapper holds an io-ref on
                            # the socket: until it is closed the fd
                            # stays open and the RST never goes out.
                            writer.close()
                            conn.close()
                            break
                        row = self.vectors[cursor]
                        writer.write(
                            ",".join(repr(float(v)) for v in row) + "\n"
                        )
                        writer.flush()
                        cursor += 1
                        sent_this_conn += 1
                    else:
                        writer.write("__END__\n")
                        writer.close()
                        conn.close()
                except OSError:
                    pass
        finally:
            self._server.close()


def network_flap_scenario(
    *,
    seed: int = 0,
    n_samples: int = 200,
    dim: int = 8,
    flap_every: int = 60,
    max_flaps: int = 2,
) -> ChaosReport:
    """Stream through a TCP source while the feeder flaps the link.

    The source must reconnect (with backoff) after every RST and the
    stream must complete; rows discarded by a reset are the only
    permitted loss, and there must be no duplicates.
    """
    from .network_sources import TCPVectorSource

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, dim))
    server = FlakyVectorServer(
        x, flap_every=flap_every, max_flaps=max_flaps
    ).start()
    src = TCPVectorSource(
        "tcp-source", "127.0.0.1", server.port,
        connect_timeout_s=5.0, max_retries=2 * max_flaps + 2,
        backoff_base_s=0.01, retry_seed=seed,
    )
    report = ChaosReport(
        scenario="network-flap", runtime="source", seed=seed,
        n_input=n_samples,
    )
    seqs: list[int] = []
    t0 = time.perf_counter()
    try:
        for tup in src.generate():
            seqs.append(int(tup["seq"]))
        report.ok = True
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.error = f"{type(exc).__name__}: {exc}"
    report.wall_time_s = time.perf_counter() - t0
    server.join(timeout=5.0)
    report.n_observed = len(set(seqs))
    report.n_duplicated = len(seqs) - len(set(seqs))
    report.n_lost = max(0, n_samples - report.n_observed)
    report.n_reconnects = src.n_reconnects
    report.events = [
        {"kind": "chaos", "fault": "network_flap", "n_flaps":
         server.n_flaps}
    ]
    return report
