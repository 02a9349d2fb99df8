"""Assembling the full parallel streaming-PCA application graph (Fig. 2).

The topology::

                     ┌──────────────┐  data   ┌───────────────┐
    VectorSource ──► │ Split (rand) │ ──────► │ StreamingPCA 0│ ─┐ diag
                     └──────────────┘   ...   │ StreamingPCA 1│ ─┼────► sink
                            ▲  control  ...   │      ...      │ ─┘
                            │  (none)         └──────┬────────┘
                                                     │ ctl (ready/state)
                                              ┌──────▼────────┐
                                              │ SyncController │  (ring /
                                              └──────┬────────┘  broadcast /
                                                     │ ctl (share/merge)
                                              back to every engine

Fused or distributed is a placement taken at launch, not a different
application: :meth:`ParallelPCAApp.engine` is the one runtime switch.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from ..core.robust import RobustIncrementalPCA
from ..data.streams import VectorStream
from ..io.checkpoint import CheckpointStore
from ..streams.batcher import Batcher
from ..streams.clusterengine import ClusterEngine
from ..streams.engine import SynchronousEngine, ThreadedEngine
from ..streams.fusion import FusionPlan
from ..streams.graph import Graph
from ..streams.health import HealthMonitor, HealthRuleEngine, default_rules
from ..streams.resilience import DeadLetterQueue
from ..streams.sinks import CollectingSink
from ..streams.sources import GuardedVectorSource, VectorSource
from ..streams.split import Split
from ..streams.supervision import RestartFromCheckpoint, Supervisor
from .pca_operator import StreamingPCAOperator
from .sync import SyncController, SyncStrategy

__all__ = [
    "ENGINE_CLASSES",
    "FUSION_PLANS",
    "ParallelPCAApp",
    "build_parallel_pca_graph",
    "engine_restart_supervisor",
]

#: Runtime name → engine class.  ``"process"`` is the cluster engine
#: with its hosts as local processes on loopback.
ENGINE_CLASSES = {
    "synchronous": SynchronousEngine,
    "threaded": ThreadedEngine,
    "process": ClusterEngine,
    "cluster": ClusterEngine,
}

#: Fusion name → plan constructor (threaded runtime).
FUSION_PLANS = {
    "per-operator": FusionPlan.per_operator,
    "fused": FusionPlan.fused,
    "chains": FusionPlan.fuse_chains,
}


def _choice(table: dict, what: str, name: str):
    """``table[name]``, or a ``ValueError`` listing the valid names."""
    if name not in table:
        raise ValueError(
            f"{what} must be one of {sorted(table)}, got {name!r}"
        )
    return table[name]


@dataclass
class ParallelPCAApp:
    """Handles to the assembled application graph.

    Attributes
    ----------
    graph:
        The wired dataflow graph, ready for an engine.
    source, split, controller:
        The singleton operators.
    engines:
        The ``n`` streaming-PCA operators, index-aligned with the
        controller's ports.
    diag_sink:
        Collects the engines' diagnostics tuples — per row, or one per
        block when batching (``None`` when diagnostics are disabled);
        read it with :func:`~repro.parallel.pca_operator.expand_diagnostics`.
    health_monitors:
        Per-engine model-health monitors (empty unless built with
        ``health=True``), index-aligned with ``engines``.
    """

    graph: Graph
    source: VectorSource
    split: Split
    controller: SyncController
    engines: list[StreamingPCAOperator] = field(default_factory=list)
    diag_sink: CollectingSink | None = None
    batcher: Batcher | None = None
    health_monitors: list[HealthMonitor] = field(default_factory=list)

    @property
    def main_ops(self) -> set[str]:
        """The coordination plane: what stays on the coordinator, beside
        the source and the sinks the engines pin there themselves, when
        the PCA engines are placed remotely — a block makes one hop."""
        names = {self.split.name, self.controller.name}
        if self.batcher is not None:
            names.add(self.batcher.name)
        return names

    def engine(
        self,
        runtime: str,
        *,
        fusion: str = "per-operator",
        supervisor: Supervisor | None = None,
        telemetry=None,
        stall_timeout_s: float | None = None,
        **engine_options,
    ):
        """The engine that runs this graph under ``runtime``.

        What the application already says is worked out here: the
        coordinator cut (:attr:`main_ops`), one engine host per PCA
        engine, the plan behind the ``fusion`` name (threaded runtime).
        ``stall_timeout_s`` arms the watchdog where there is one (every
        runtime but the synchronous); ``engine_options`` go to the
        engine class verbatim (``mp_context=``, ``tolerate_host_loss=``,
        ...).
        """
        engine_class = _choice(ENGINE_CLASSES, "runtime", runtime)
        plan = _choice(FUSION_PLANS, "fusion", fusion)
        options = dict(
            supervisor=supervisor, telemetry=telemetry, **engine_options
        )
        if runtime == "threaded":
            options["fusion"] = plan(self.graph)
        if runtime != "synchronous":
            options["stall_timeout_s"] = stall_timeout_s
        if engine_class is ClusterEngine:
            options["main_ops"] = self.main_ops
            options.setdefault("n_hosts", len(self.engines))
        return engine_class(self.graph, **options)

    def health_rule_engine(
        self, telemetry=None, *, rules=None
    ) -> HealthRuleEngine:
        """A rule engine wired to this app's monitors and controller.

        ``rules`` defaults to :func:`~repro.streams.health.default_rules`;
        pass ``telemetry`` so watermark-lag rules and the
        ``repro_health_status`` gauge work.
        """
        return HealthRuleEngine(
            telemetry,
            monitors=self.health_monitors,
            controller=self.controller,
            rules=rules if rules is not None else default_rules(),
        )

    @property
    def dlq(self) -> DeadLetterQueue | None:
        """The dead-letter queue (``None`` without a quarantine guard)."""
        return getattr(self.source, "dlq", None)

    @property
    def n_shed(self) -> int:
        """Data tuples shed by the load valve (0 when it is not armed)."""
        return getattr(self.source, "n_shed", 0)


def build_parallel_pca_graph(
    stream: VectorStream,
    n_engines: int,
    estimator_factory,
    *,
    strategy: SyncStrategy | str = "ring",
    split_strategy: str = "random",
    split_seed: int = 0,
    sync_gate_factor: float = 1.5,
    min_sync_interval: int = 0,
    collect_diagnostics: bool = True,
    snapshot_every: int = 0,
    batch_size: int = 0,
    batch_timeout_s: float | None = None,
    quarantine: bool = False,
    dlq: DeadLetterQueue | None = None,
    shed_max_rate_hz: float | None = None,
    stale_after: int | None = None,
    quorum: int | None = None,
    heartbeat_every: int = 0,
    health: bool = False,
    health_check_every: int = 256,
) -> ParallelPCAApp:
    """Build the Fig. 2 graph.

    Parameters
    ----------
    stream:
        The input observation stream.
    n_engines:
        Number of parallel PCA engines.
    estimator_factory:
        ``(engine_id) -> RobustIncrementalPCA`` (or API-compatible
        estimator); one instance per engine.
    strategy:
        Sync topology (name or :class:`SyncStrategy`).
    split_strategy / split_seed:
        Load-balancer behaviour (``random`` is the paper's default).
    sync_gate_factor:
        The 1.5·N data-driven gate multiplier.
    min_sync_interval:
        Logical throttle at the controller (see
        :class:`~repro.parallel.sync.SyncController`).
    collect_diagnostics:
        Attach a sink collecting per-observation diagnostics.
    snapshot_every:
        Periodic eigensystem snapshots on the diagnostics stream.
    batch_size:
        When > 1, the block is the unit from the ingest boundary on:
        the source emits ``(batch_size, d)`` block tuples and the
        engines consume them through the vectorized block kernel.  A
        :class:`~repro.streams.batcher.Batcher` (``app.batcher``) sits
        between the source and the split as the re-grouper; full blocks
        pass through it uncopied.  The block becomes the routing unit
        of the load balancer — each block lands on one engine (see
        docs/performance.md for the trade-off).  0 or 1 keeps the
        paper-faithful per-tuple graph.
    batch_timeout_s:
        Optional timeout flush for the batcher (lazily checked; see
        :class:`~repro.streams.batcher.Batcher`).
    quarantine / dlq:
        ``quarantine=True`` arms poison-tuple validation in the source
        (:class:`~repro.streams.sources.GuardedVectorSource`): poison
        tuples (wrong dimensionality, non-numeric, all-NaN) are
        captured into the dead-letter queue (``dlq`` or a fresh one)
        instead of crashing an engine.
        Every row is judged *before* it enters a block, so a poison
        row can never contaminate one.
    shed_max_rate_hz:
        When set, arms the source's load-shedding valve
        (a :class:`~repro.streams.resilience.LoadShedValve`): sustained
        input above the rate is shed instead of growing queues without
        bound.
    stale_after / quorum:
        Controller membership: evict peers silent for ``stale_after``
        controller messages and let :meth:`SyncController.global_state`
        proceed with ``quorum`` live contributions (see
        :class:`~repro.parallel.sync.SyncController`).
    heartbeat_every:
        Engines send a liveness heartbeat to the controller every this
        many data tuples (feeds the membership tracking above).
    health / health_check_every:
        ``health=True`` attaches a per-engine
        :class:`~repro.streams.health.HealthMonitor` (subspace-affinity,
        eigenspectrum-drift, and reconstruction-error tracking; checks
        every ``health_check_every`` rows).  Build a rule engine over
        them with :meth:`ParallelPCAApp.health_rule_engine` and serve it
        via :class:`~repro.streams.obs_server.ObservabilityServer`.
    """
    if n_engines < 1:
        raise ValueError(f"n_engines must be >= 1, got {n_engines}")

    graph = Graph("parallel-streaming-pca")
    # Ingress guards ride the source's emit loop (GuardedVectorSource)
    # rather than being separate graph stages: a dedicated stage costs a
    # dispatch hop per tuple — a PE thread plus a queue transfer on the
    # threaded runtime — while the guard work itself is sub-microsecond
    # per row (see benchmarks/bench_chaos_overhead.py).
    if quarantine or dlq is not None or shed_max_rate_hz is not None:
        source = graph.add(
            GuardedVectorSource(
                "source",
                stream,
                batch_size=batch_size,
                quarantine=quarantine,
                dlq=dlq,
                expected_dim=getattr(stream, "dim", None),
                max_rate_hz=shed_max_rate_hz,
            )
        )
    else:
        source = graph.add(
            VectorSource("source", stream, batch_size=batch_size)
        )
    split = graph.add(
        Split("split", n_engines, strategy=split_strategy, seed=split_seed)
    )
    controller = graph.add(
        SyncController(
            "sync-controller",
            n_engines,
            strategy=strategy,
            min_interval=min_sync_interval,
            stale_after=stale_after,
            quorum=quorum,
        )
    )
    head = source
    batcher: Batcher | None = None
    if batch_size and batch_size > 1:
        batcher = graph.add(
            Batcher(
                "batcher",
                batch_size=batch_size,
                timeout_s=batch_timeout_s,
            )
        )
        graph.connect(head, batcher)
        graph.connect(batcher, split)
    else:
        graph.connect(head, split)

    engines: list[StreamingPCAOperator] = []
    health_monitors: list[HealthMonitor] = []
    diag_sink = (
        CollectingSink("diagnostics", n_inputs=n_engines)
        if collect_diagnostics
        else None
    )
    if diag_sink is not None:
        graph.add(diag_sink)

    for i in range(n_engines):
        estimator = estimator_factory(i)
        if not isinstance(estimator, RobustIncrementalPCA):
            # Duck-typed estimators are allowed; they must expose the
            # RobustIncrementalPCA surface used by the operator.
            required = (
                "update", "public_state", "replace_state",
                "ready_to_sync", "is_initialized", "state", "n_seen",
            )
            if batcher is not None:
                required = required + ("update_block",)
            missing = [a for a in required if not hasattr(estimator, a)]
            if missing:
                raise TypeError(
                    f"estimator_factory({i}) returned an object missing "
                    f"the estimator API: {missing}"
                )
        op = StreamingPCAOperator(
            f"pca-{i}",
            engine_id=i,
            estimator=estimator,
            sync_gate_factor=sync_gate_factor,
            snapshot_every=snapshot_every,
            emit_diagnostics=collect_diagnostics,
            heartbeat_every=heartbeat_every,
        )
        graph.add(op)
        engines.append(op)
        if health:
            monitor = HealthMonitor(i, check_every=health_check_every)
            op.attach_health_monitor(monitor)
            health_monitors.append(monitor)
        graph.connect(split, op, out_port=i, in_port=0)       # data
        graph.connect(op, controller, out_port=0, in_port=i)  # ctl up
        graph.connect(controller, op, out_port=i, in_port=1)  # ctl down
        if diag_sink is not None:
            graph.connect(op, diag_sink, out_port=1, in_port=i)

    return ParallelPCAApp(
        graph=graph,
        source=source,
        split=split,
        controller=controller,
        engines=engines,
        diag_sink=diag_sink,
        batcher=batcher,
        health_monitors=health_monitors,
    )


def engine_restart_supervisor(
    app: ParallelPCAApp,
    *,
    directory: str | pathlib.Path | None = None,
    checkpoint_every: int = 200,
    resume: str = "retry",
    max_restarts: int | None = None,
) -> Supervisor:
    """A :class:`Supervisor` giving every PCA engine restart-from-checkpoint.

    Each engine gets its own :class:`RestartFromCheckpoint` policy; when
    ``directory`` is given, each engine also persists its snapshots to a
    per-engine :class:`~repro.io.checkpoint.CheckpointStore` subdirectory
    (``<directory>/pca-<i>``), enabling resume across processes.  All
    other operators (split, controller, sinks) stay fail-fast: losing the
    coordinator is not survivable, losing one engine's recent updates is.
    """
    policies = {}
    for op in app.engines:
        store = None
        if directory is not None:
            store = CheckpointStore(
                pathlib.Path(directory) / op.name, every=checkpoint_every
            )
        policies[op.name] = RestartFromCheckpoint(
            checkpoint_every=checkpoint_every,
            store=store,
            resume=resume,
            max_restarts=max_restarts,
        )
    return Supervisor(policies=policies)
