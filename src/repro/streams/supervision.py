"""Supervised, fault-tolerant execution for the stream engines.

The paper's runtime (InfoSphere Streams) assumes a managed cluster where
failed processing elements are restarted by the platform; our engines
previously had no failure semantics beyond fail-fast abort.  Streaming-PCA
practice treats recovery from interrupted or partial streams as a
first-class requirement (Balzano et al., *Streaming PCA and Subspace
Tracking: The Missing Data Case*), so this module supplies the missing
layer:

* **Failure policies** — per-operator reactions to a raised exception:
  :class:`FailFast` (abort the run, the old behaviour) and
  :class:`RestartFromCheckpoint` (roll the operator's state back to the
  last snapshot — optionally persisted through
  :class:`repro.io.checkpoint.CheckpointStore` — then retry or drop the
  failing tuple).
* **Supervisor** — routes every dispatch through the configured policy
  and accumulates structured failure/recovery counters
  (:class:`SupervisionStats`), which the engines copy into
  :class:`~repro.streams.engine.RunStats`.
* **Watchdog** — a global progress monitor the threaded engine polls to
  detect full-queue backpressure cycles and deadlocks long before the
  wall-clock timeout would fire (:class:`StallDetected`).
* **FaultInjector** — a test harness that injects crashes, delays, and
  tuple drops into named operators at configurable tuple counts.

Checkpoint/restart protocol: an operator opts in by implementing
``snapshot_state() -> state | None`` (an independent copy; ``None`` means
"nothing to snapshot yet") and ``restore_state(state) -> None``.  The
:class:`~repro.parallel.pca_operator.StreamingPCAOperator` implements
both in terms of its eigensystem.
"""

from __future__ import annotations

import time
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .operators import Operator
    from .tuples import StreamTuple

__all__ = [
    "EngineAborted",
    "OperatorFailure",
    "StallDetected",
    "FailurePolicy",
    "FailFast",
    "RestartFromCheckpoint",
    "SupervisionStats",
    "Supervisor",
    "Watchdog",
    "FaultInjector",
    "InjectedFault",
]


class EngineAborted(Exception):
    """Internal control-flow: the engine is stopping; unwind promptly.

    Raised inside runner/source threads when the stop event is set (e.g. a
    blocked queue put must abort).  Never handled by failure policies.
    """


class OperatorFailure(RuntimeError):
    """An operator exhausted its failure policy; the run must abort.

    Carries the operator name and the last underlying exception so nested
    supervisors (fused dispatch chains) re-raise instead of re-handling.
    """

    def __init__(self, op_name: str, cause: BaseException, detail: str = ""):
        msg = f"operator {op_name!r} failed: {cause!r}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.op_name = op_name
        self.cause = cause


class StallDetected(RuntimeError):
    """The watchdog observed no engine progress for its stall window."""


class InjectedFault(RuntimeError):
    """The exception raised by :meth:`FaultInjector.crash` plans."""


# ---------------------------------------------------------------------------
# Failure policies
# ---------------------------------------------------------------------------


class FailurePolicy:
    """Base marker for per-operator failure policies."""


@dataclass
class FailFast(FailurePolicy):
    """Abort the run on the first exception (the engines' default)."""


@dataclass
class RestartFromCheckpoint(FailurePolicy):
    """Roll the operator back to its last state snapshot, then resume.

    Parameters
    ----------
    checkpoint_every:
        Snapshot the operator (``snapshot_state()``) every this many
        successfully processed tuples.
    store:
        Optional :class:`~repro.io.checkpoint.CheckpointStore` persisting
        eigensystem-shaped snapshots to disk; the in-memory copy is still
        the first restore source, the store covers cross-process resume.
    resume:
        ``"retry"`` re-dispatches the failing tuple once after the
        rollback; ``"skip"`` drops it and counts it in
        :attr:`SupervisionStats.skipped_tuples`.  Punctuation is always
        retried: dropping an end-of-stream marker would wedge shutdown.
    max_restarts:
        Escalate after this many rollbacks (``None`` = unlimited).
    """

    checkpoint_every: int = 100
    store: object | None = None
    resume: str = "retry"
    max_restarts: int | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.resume not in ("retry", "skip"):
            raise ValueError(
                f"resume must be 'retry' or 'skip', got {self.resume!r}"
            )
        if self.max_restarts is not None and self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1 or None")


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


@dataclass
class SupervisionStats:
    """Structured failure/recovery counters (per operator name)."""

    failures: dict[str, int] = field(default_factory=dict)
    skipped_tuples: dict[str, int] = field(default_factory=dict)
    restarts: dict[str, int] = field(default_factory=dict)
    recovery_time_s: dict[str, float] = field(default_factory=dict)

    def total_failures(self) -> int:
        return sum(self.failures.values())

    def total_recoveries(self) -> int:
        """Failures that did *not* abort the run: one rollback each (a
        ``"skip"`` resume also counts its dropped tuple in
        ``skipped_tuples``, but it is one repaired failure)."""
        return sum(self.restarts.values())


class Supervisor:
    """Applies per-operator failure policies around engine dispatch.

    Parameters
    ----------
    default:
        Policy for operators not named in ``policies``.
    policies:
        Operator name → :class:`FailurePolicy`.

    Both engines call :meth:`dispatch` for every tuple delivery (queued
    and fused); a policy that swallows or repairs the failure lets the run
    continue, otherwise an :class:`OperatorFailure` aborts it.  Note that
    a retried data tuple increments the operator's ``tuples_in`` counter
    once per attempt.
    """

    def __init__(
        self,
        default: FailurePolicy | None = None,
        policies: Mapping[str, FailurePolicy] | None = None,
    ) -> None:
        self.default = default if default is not None else FailFast()
        self.policies = dict(policies or {})
        for name, pol in self.policies.items():
            if not isinstance(pol, FailurePolicy):
                raise TypeError(
                    f"policy for {name!r} is not a FailurePolicy: {pol!r}"
                )
        self.stats = SupervisionStats()
        #: Optional Telemetry; set via Telemetry.attach_supervisor so
        #: failures/recoveries also land in the structured event log.
        self.telemetry = None
        self._snapshots: dict[str, object] = {}
        self._successes: dict[str, int] = {}
        self._lock = threading.Lock()

    def _emit_event(self, event: str, op_name: str, **extra) -> None:
        tel = self.telemetry
        if tel is not None:
            tel.events.append({
                "ts": tel.now(), "kind": "supervision",
                "event": event, "op": op_name, **extra,
            })

    def policy_for(self, op: "Operator") -> FailurePolicy:
        return self.policies.get(op.name, self.default)

    # -- dispatch path ---------------------------------------------------

    def dispatch(self, op: "Operator", tup: "StreamTuple", port: int) -> None:
        """Deliver ``tup`` to ``op`` under the operator's policy."""
        policy = self.policy_for(op)
        if type(policy) is FailFast:
            op._dispatch(tup, port)
            return
        try:
            op._dispatch(tup, port)
        except (EngineAborted, OperatorFailure):
            raise
        except Exception as exc:
            self._recover(op, tup, port, policy, exc)
        else:
            self._note_success(op, policy)

    # -- recovery --------------------------------------------------------

    def _recover(
        self,
        op: "Operator",
        tup: "StreamTuple",
        port: int,
        policy: FailurePolicy,
        exc: Exception,
    ) -> None:
        name = op.name
        started = time.perf_counter()
        with self._lock:
            self.stats.failures[name] = self.stats.failures.get(name, 0) + 1
        self._emit_event(
            "failure", name,
            error=repr(exc), policy=type(policy).__name__,
        )
        try:
            if isinstance(policy, RestartFromCheckpoint):
                self._restart(op, tup, port, policy, exc)
            else:  # pragma: no cover - unknown policy subclass
                raise OperatorFailure(name, exc, "unknown policy") from exc
        finally:
            with self._lock:
                self.stats.recovery_time_s[name] = (
                    self.stats.recovery_time_s.get(name, 0.0)
                    + (time.perf_counter() - started)
                )

    def _restart(
        self, op, tup, port, policy: RestartFromCheckpoint, exc: Exception
    ) -> None:
        name = op.name
        if not (hasattr(op, "snapshot_state") and hasattr(op, "restore_state")):
            raise OperatorFailure(
                name,
                exc,
                "RestartFromCheckpoint needs snapshot_state()/restore_state()",
            ) from exc
        with self._lock:
            n = self.stats.restarts.get(name, 0) + 1
            exhausted = (
                policy.max_restarts is not None and n > policy.max_restarts
            )
            if not exhausted:  # only a repaired failure counts
                self.stats.restarts[name] = n
        if exhausted:
            raise OperatorFailure(
                name, exc, f"restart budget exhausted ({policy.max_restarts})"
            ) from exc
        self._emit_event("restart", name, restart_n=n)
        snap = self._snapshots.get(name)
        if snap is None and policy.store is not None:
            snap = policy.store.load_latest()
        if snap is not None:
            op.restore_state(snap)
        if tup.is_punctuation or policy.resume == "retry":
            try:
                op._dispatch(tup, port)
            except (EngineAborted, OperatorFailure):
                raise
            except Exception as again:
                what = "punctuation" if tup.is_punctuation else "tuple"
                raise OperatorFailure(
                    name, again,
                    f"{what} failed again after checkpoint restart",
                ) from again
            self._note_success(op, policy)
            return
        with self._lock:
            self.stats.skipped_tuples[name] = (
                self.stats.skipped_tuples.get(name, 0) + 1
            )
        self._emit_event("skip", name, seq=tup.seq)

    def _note_success(
        self, op: "Operator", policy: FailurePolicy
    ) -> None:
        if not isinstance(policy, RestartFromCheckpoint):
            return
        if not hasattr(op, "snapshot_state"):
            return
        name = op.name
        count = self._successes.get(name, 0) + 1
        self._successes[name] = count
        if count % policy.checkpoint_every:
            return
        snap = op.snapshot_state()
        if snap is None:
            return
        self._snapshots[name] = snap
        if policy.store is not None and hasattr(snap, "n_seen"):
            policy.store.maybe_save(snap)


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------


class Watchdog:
    """Global progress monitor for stall/deadlock detection.

    The threaded engine pokes it on every successful queue put and every
    completed dispatch; the coordinator polls :meth:`stalled_for`.  A
    full-queue backpressure cycle (every producer blocked on a full
    downstream queue) makes all progress stop at once, which this detects
    within ``stall_timeout_s`` — far sooner than the run timeout.

    ``stall_timeout_s`` must exceed the slowest single-tuple processing
    time and any intentional idle gap of the sources, otherwise a healthy
    run is misreported as stalled.
    """

    def __init__(self, stall_timeout_s: float) -> None:
        if stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be positive, got {stall_timeout_s}"
            )
        self.stall_timeout_s = float(stall_timeout_s)
        self._last = time.monotonic()

    def poke(self) -> None:
        """Record that the engine made progress."""
        self._last = time.monotonic()

    def stalled_for(self) -> float | None:
        """Seconds since last progress if over the window, else ``None``."""
        idle = time.monotonic() - self._last
        return idle if idle > self.stall_timeout_s else None


# ---------------------------------------------------------------------------
# Fault injection (test harness)
# ---------------------------------------------------------------------------


@dataclass
class _FaultPlan:
    kind: str  # "crash" | "delay" | "drop"
    at_tuple: int
    repeat: int = 1
    seconds: float = 0.0
    exc: Exception | None = None
    fired: int = 0


class FaultInjector:
    """Inject crashes, delays, and drops into named operators.

    Plans are keyed by operator name and tuple count (the N-th ``process``
    call on that operator, data and control tuples alike, 1-based).
    :meth:`install` wraps each targeted operator's ``process`` so the
    faults fire under either engine; injected crashes flow through the
    active :class:`Supervisor` policy exactly like real failures.

    Example
    -------
    ::

        inj = (FaultInjector()
               .crash("pca-1", at_tuple=500)
               .delay("sink", at_tuple=10, seconds=0.05)
               .drop("split", at_tuple=3))
        inj.install(app.graph)
    """

    def __init__(self) -> None:
        self._plans: dict[str, list[_FaultPlan]] = {}
        #: Chronological record of fired faults: (op, kind, tuple_count).
        self.log: list[tuple[str, str, int]] = []

    # -- plan builders ---------------------------------------------------

    def crash(
        self,
        op_name: str,
        *,
        at_tuple: int,
        repeat: int = 1,
        exc: Exception | None = None,
    ) -> "FaultInjector":
        """Raise on tuples ``[at_tuple, at_tuple + repeat)``."""
        self._add(_FaultPlan("crash", at_tuple, repeat=repeat, exc=exc), op_name)
        return self

    def delay(
        self, op_name: str, *, at_tuple: int, seconds: float, repeat: int = 1
    ) -> "FaultInjector":
        """Sleep ``seconds`` before processing the targeted tuples."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        self._add(
            _FaultPlan("delay", at_tuple, repeat=repeat, seconds=seconds),
            op_name,
        )
        return self

    def drop(
        self, op_name: str, *, at_tuple: int, repeat: int = 1
    ) -> "FaultInjector":
        """Silently swallow the targeted tuples before processing."""
        self._add(_FaultPlan("drop", at_tuple, repeat=repeat), op_name)
        return self

    def _add(self, plan: _FaultPlan, op_name: str) -> None:
        if plan.at_tuple < 1:
            raise ValueError("at_tuple is 1-based and must be >= 1")
        if plan.repeat < 1:
            raise ValueError("repeat must be >= 1")
        self._plans.setdefault(op_name, []).append(plan)

    # -- installation ----------------------------------------------------

    def install(self, graph) -> "FaultInjector":
        """Wrap the targeted operators of ``graph``; returns self."""
        targeted = set(self._plans)
        found = set()
        for op in graph:
            plans = self._plans.get(op.name)
            if plans:
                found.add(op.name)
                self._wrap(op, plans)
        missing = targeted - found
        if missing:
            raise ValueError(
                f"fault plans target unknown operators: {sorted(missing)}"
            )
        return self

    def _wrap(self, op, plans: list[_FaultPlan]) -> None:
        orig = op.process
        counter = {"n": 0}

        def process(tup, port, _orig=orig, _plans=plans, _ctr=counter):
            _ctr["n"] += 1
            n = _ctr["n"]
            for plan in _plans:
                if plan.fired >= plan.repeat or n < plan.at_tuple:
                    continue
                plan.fired += 1
                self.log.append((op.name, plan.kind, n))
                if plan.kind == "crash":
                    raise plan.exc or InjectedFault(
                        f"injected crash in {op.name!r} at tuple {n}"
                    )
                if plan.kind == "delay":
                    time.sleep(plan.seconds)
                elif plan.kind == "drop":
                    return
            return _orig(tup, port)

        op.process = process
