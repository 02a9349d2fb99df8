"""High-level façade: run the whole parallel streaming-PCA application.

One call builds the Fig. 2 graph, executes it on any of the four
runtimes (the engine comes from
:meth:`~repro.parallel.app.ParallelPCAApp.engine`), merges the engines'
final eigensystems into the global solution, and returns a structured
result with all the telemetry the experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.eigensystem import Eigensystem
from ..core.robust import RobustIncrementalPCA
from ..data.streams import VectorStream
from ..streams.engine import RunStats
from ..streams.supervision import Supervisor
from ..streams.tuples import StreamTuple
from .app import ParallelPCAApp, _engine_class, build_parallel_pca_graph
from .pca_operator import expand_diagnostics, outlier_seqs
from .sync import SyncStats, SyncStrategy

__all__ = ["ParallelRunResult", "ParallelStreamingPCA"]


@dataclass
class ParallelRunResult:
    """Everything a parallel run produced.

    Attributes
    ----------
    global_state:
        Merge of all engines' final eigensystems — "the resulting
        eigensystem can be obtained from any node", and this is the
        any-node answer made explicit.
    engine_states:
        Each engine's own final eigensystem (pre-merge), by engine id.
    run_stats:
        Engine-level tuple counters and wall time.
    sync_stats:
        Controller counters (grants, routed states, merges, membership).
    engine_reports:
        Per-engine counter dicts from the operators.
    engine:
        The engine the run executed on; the remote runtimes' transport
        totals are read from it (``engine.cluster_stats`` on
        ``"process"`` and ``"cluster"``).
    diagnostic_tuples:
        What the diagnostics sink received (empty when disabled): one
        :data:`~repro.parallel.DIAGNOSTICS_SCHEMA` tuple per block on a
        batched run, one tuple per row otherwise.
    """

    global_state: Eigensystem
    engine_states: dict[int, Eigensystem]
    run_stats: RunStats
    sync_stats: SyncStats
    engine_reports: list[dict[str, Any]] = field(default_factory=list)
    engine: Any = None
    diagnostic_tuples: list[StreamTuple] = field(
        default_factory=list, repr=False
    )
    _diagnostics: list[dict[str, Any]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def diagnostics(self) -> list[dict[str, Any]]:
        """Per-observation diagnostics dicts (see
        :func:`~repro.parallel.expand_diagnostics`), built from
        :attr:`diagnostic_tuples` on first read and then cached."""
        if self._diagnostics is None:
            self._diagnostics = expand_diagnostics(self.diagnostic_tuples)
        return self._diagnostics

    @property
    def eigenvalues(self) -> np.ndarray:
        """Global eigenvalues (descending)."""
        return self.global_state.eigenvalues

    @property
    def components(self) -> np.ndarray:
        """Global eigenvectors as rows ``(p, d)``."""
        return self.global_state.basis.T

    @property
    def mean(self) -> np.ndarray:
        """Global location estimate."""
        return self.global_state.mean

    def outlier_seqs(self) -> np.ndarray:
        """Stream sequence numbers flagged as outliers (sorted), read
        from the diagnostics tuples without expanding them."""
        return outlier_seqs(self.diagnostic_tuples)


class ParallelStreamingPCA:
    """Run robust streaming PCA over a partitioned stream with sync.

    Parameters
    ----------
    n_components:
        Eigenpairs to estimate.
    n_engines:
        Parallel PCA engines (the paper's "threads").
    alpha / estimator_kwargs:
        Forwarded to each engine's :class:`RobustIncrementalPCA` (set
        its other parameters, ``delta`` among them, through
        ``estimator_kwargs``).
    strategy:
        Sync topology: ``"ring"`` (default), ``"broadcast"``, ``"group"``,
        ``"p2p"`` or a :class:`SyncStrategy`.
    runtime:
        ``"synchronous"`` (deterministic), ``"threaded"`` (one thread
        for the coordination plane, and one per PCA engine on the Gram
        route or one for all of them on the covariance route),
        ``"process"`` (each PCA engine in its own local process reached
        over loopback TCP), or ``"cluster"`` (the same engine hosts as
        the paper's multi-node scale-out); both remote runtimes are
        :class:`~repro.streams.clusterengine.ClusterEngine`.
    sync_gate_factor / split_strategy / split_seed /
    collect_diagnostics / batch_size:
        See :func:`repro.parallel.app.build_parallel_pca_graph`;
        ``batch_size > 1`` switches the engines to the vectorized
        micro-batch hot path.  The graph's robustness hooks (poison
        quarantine, load shedding, peer membership, snapshots) are
        set on :func:`~repro.parallel.app.build_parallel_pca_graph`
        itself; see ``docs/robustness.md``.
    supervisor:
        Optional :class:`~repro.streams.supervision.Supervisor` applying
        per-operator failure policies (see
        :func:`repro.parallel.app.engine_restart_supervisor` for the
        common engines-restart-from-checkpoint configuration); without
        one, execution is fail-fast.
    stall_timeout_s:
        Threaded/process/cluster runtimes: arm the deadlock/stall
        watchdog (see :class:`~repro.streams.engine.ThreadedEngine` and
        :class:`~repro.streams.clusterengine.ClusterEngine`; on the
        remote runtimes a wedged restartable host is terminated and
        respawned from its checkpoint).
    mp_context:
        Process/cluster runtimes: multiprocessing start method
        (``"fork"``, ``"forkserver"``, ``"spawn"``) or ``None`` for
        :func:`~repro.streams.clusterengine.safe_mp_context`.

    Example
    -------
    ::

        runner = ParallelStreamingPCA(n_components=5, n_engines=4,
                                      alpha=0.999)
        result = runner.run(VectorStream.from_array(X))
        result.eigenvalues, result.components
    """

    def __init__(
        self,
        n_components: int,
        n_engines: int = 4,
        *,
        alpha: float = 0.999,
        estimator_kwargs: dict[str, Any] | None = None,
        strategy: SyncStrategy | str = "ring",
        runtime: str = "synchronous",
        sync_gate_factor: float = 1.5,
        split_strategy: str = "random",
        split_seed: int = 0,
        collect_diagnostics: bool = True,
        batch_size: int = 0,
        timeout_s: float = 300.0,
        supervisor: Supervisor | None = None,
        stall_timeout_s: float | None = None,
        mp_context: str | None = None,
    ) -> None:
        _engine_class(runtime)
        self.n_components = n_components
        self.n_engines = n_engines
        self.alpha = alpha
        self.estimator_kwargs = dict(estimator_kwargs or {})
        self.strategy = strategy
        self.runtime = runtime
        self.sync_gate_factor = sync_gate_factor
        self.split_strategy = split_strategy
        self.split_seed = split_seed
        self.collect_diagnostics = collect_diagnostics
        self.batch_size = batch_size
        self.timeout_s = timeout_s
        self.supervisor = supervisor
        self.stall_timeout_s = stall_timeout_s
        self.mp_context = mp_context

    def _make_estimator(self, engine_id: int) -> RobustIncrementalPCA:
        return RobustIncrementalPCA(
            self.n_components,
            alpha=self.alpha,
            **self.estimator_kwargs,
        )

    def build(self, stream: VectorStream) -> ParallelPCAApp:
        """Assemble (but do not run) the application graph."""
        return build_parallel_pca_graph(
            stream,
            self.n_engines,
            self._make_estimator,
            strategy=self.strategy,
            split_strategy=self.split_strategy,
            split_seed=self.split_seed,
            sync_gate_factor=self.sync_gate_factor,
            collect_diagnostics=self.collect_diagnostics,
            batch_size=self.batch_size,
        )

    def run(self, stream: VectorStream) -> ParallelRunResult:
        """Build and execute the application; return the merged result."""
        app = self.build(stream)
        # mp_context reaches only a runtime that starts processes: the
        # thread-only engines do not take it.
        options = (
            {} if self.mp_context is None
            else {"mp_context": self.mp_context}
        )
        engine = app.engine(
            self.runtime,
            supervisor=self.supervisor,
            stall_timeout_s=self.stall_timeout_s,
            **options,
        )
        # The deterministic engine has no wall clock to bound.
        stats = (
            engine.run() if self.runtime == "synchronous"
            else engine.run(timeout_s=self.timeout_s)
        )

        controller = app.controller
        return ParallelRunResult(
            global_state=controller.global_state(self.n_components),
            engine_states=dict(controller.final_states),
            run_stats=stats,
            sync_stats=controller.stats,
            engine_reports=[op.diagnostics() for op in app.engines],
            engine=engine,
            diagnostic_tuples=(
                app.diag_sink.tuples if app.diag_sink is not None else []
            ),
        )
