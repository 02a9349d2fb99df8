"""Synchronization controller and topologies (Sections II-C, III-B).

"The transfer of eigensystems from separate PCA instances is coordinated
by the synchronisation controller to follow different synchronization
strategies, e.g., peer-to-peer or broadcast."  The controller is itself a
graph operator: engines report ``ready`` (their 1.5·N data-driven gate
opened) and ship ``state`` messages through it; the controller routes each
state to target engines per the configured topology:

* :class:`RingStrategy` — the paper's basic circular pattern (Fig. 3):
  engine ``i``'s state goes to engine ``(i+1) mod n``, "achieving
  reasonable global solutions while minimizing the network traffic".
* :class:`BroadcastStrategy` — everyone receives everyone's state:
  fastest consistency, ``n-1``× the traffic.
* :class:`GroupStrategy` — ring within fixed-size groups (the
  "group-based" scheme).
* :class:`PeerToPeerStrategy` — each state goes to one uniformly random
  other engine.

The controller grants every ``ready`` it receives, so the engines' 1.5·N
gate is the only control on the sync rate; it also tracks the final
states engines emit at close so the application can produce a single
global answer.

Fault tolerance (graceful degradation of the merge path)
--------------------------------------------------------
Distributed-PCA deployments treat partial contributions as the normal
case, so the controller additionally keeps **peer membership**: every
message from an engine refreshes its liveness, and a peer that stays
silent for ``stale_after`` controller messages while its siblings keep
talking is **evicted** — merge commands are rerouted around it instead of
being dropped into a dead queue, and the final :meth:`global_state` merge
proceeds with ``quorum``-many live contributions instead of waiting for
everyone.  When an evicted engine speaks again (a restarted worker, a
thread back from a blackout) it **rejoins** and is re-seeded with the
controller's current global basis estimate so it does not drag the
ensemble backwards while it re-warms.  Every eviction, rejoin, and
re-seed is visible as a ``membership`` telemetry event.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.eigensystem import Eigensystem
from ..core.merge import eigensystems_consistent, merge_eigensystems
from ..streams.operators import Operator
from ..streams.tuples import StreamTuple

__all__ = [
    "SyncStrategy",
    "RingStrategy",
    "BroadcastStrategy",
    "GroupStrategy",
    "PeerToPeerStrategy",
    "PeerStatus",
    "QuorumError",
    "SyncController",
    "SyncStats",
    "make_strategy",
]


class QuorumError(RuntimeError):
    """The global merge has fewer live contributions than the quorum."""


class SyncStrategy(abc.ABC):
    """Chooses the receivers of a shared eigensystem."""

    @abc.abstractmethod
    def targets(self, sender: int, n_engines: int) -> list[int]:
        """Engines that must merge ``sender``'s state (never ``sender``)."""


class RingStrategy(SyncStrategy):
    """Circular pattern: ``receiver = (sender + 1) mod n`` (Fig. 3)."""

    def targets(self, sender: int, n_engines: int) -> list[int]:
        if n_engines < 2:
            return []
        return [(sender + 1) % n_engines]


class BroadcastStrategy(SyncStrategy):
    """Send the state to every other engine."""

    def targets(self, sender: int, n_engines: int) -> list[int]:
        return [i for i in range(n_engines) if i != sender]


class GroupStrategy(SyncStrategy):
    """Ring within contiguous groups of ``group_size`` engines."""

    def __init__(self, group_size: int) -> None:
        if group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {group_size}")
        self.group_size = group_size

    def targets(self, sender: int, n_engines: int) -> list[int]:
        if n_engines < 2:
            return []
        group = sender // self.group_size
        lo = group * self.group_size
        hi = min(lo + self.group_size, n_engines)
        size = hi - lo
        if size < 2:
            return [(sender + 1) % n_engines]  # tail group of 1: fall back
        return [lo + ((sender - lo) + 1) % size]


class PeerToPeerStrategy(SyncStrategy):
    """One uniformly random other engine per share."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def targets(self, sender: int, n_engines: int) -> list[int]:
        if n_engines < 2:
            return []
        other = int(self._rng.integers(n_engines - 1))
        return [other if other < sender else other + 1]


_STRATEGY_NAMES = ("ring", "broadcast", "group", "p2p")


def make_strategy(name: str, **kwargs) -> SyncStrategy:
    """Build a strategy by name (``ring``/``broadcast``/``group``/``p2p``)."""
    if name == "ring":
        return RingStrategy()
    if name == "broadcast":
        return BroadcastStrategy()
    if name == "group":
        return GroupStrategy(kwargs.get("group_size", 2))
    if name == "p2p":
        return PeerToPeerStrategy(kwargs.get("seed", 0))
    raise ValueError(
        f"unknown sync strategy {name!r}; choose from {_STRATEGY_NAMES}"
    )


@dataclass
class SyncStats:
    """Counters the controller accumulates over a run."""

    n_ready: int = 0
    n_states_routed: int = 0
    n_merge_commands: int = 0
    per_engine_syncs: dict[int, int] = field(default_factory=dict)
    n_heartbeats: int = 0
    n_evictions: int = 0
    n_rejoins: int = 0
    n_reseeds: int = 0
    n_rerouted: int = 0


@dataclass
class PeerStatus:
    """Membership record for one engine under coordination.

    A peer becomes *tracked* at its first message (engines are legitimately
    silent during warm-up, before their sync gate first opens); from then
    on, silence while siblings keep talking counts against it.
    """

    engine: int
    alive: bool = True
    last_seen_msg: int = 0     # controller message count at last contact
    last_seen_ts: float = 0.0  # wall clock at last contact
    n_messages: int = 0
    n_evictions: int = 0
    n_rejoins: int = 0


class SyncController(Operator):
    """The synchronization manager component (Fig. 2, right).

    Ports: input ``i`` receives control messages from engine ``i``;
    output ``i`` sends control commands to engine ``i``.

    Parameters
    ----------
    n_engines:
        Number of PCA engines under coordination.
    strategy:
        A :class:`SyncStrategy` or a name for :func:`make_strategy`.
    stale_after:
        Membership staleness window, in controller messages: a tracked
        peer that stays silent while this many messages arrive from its
        siblings is evicted (merge traffic reroutes around it; its next
        message triggers a rejoin + re-seed).  ``None`` (default)
        disables membership tracking entirely — seed behaviour.
    quorum:
        Minimum number of contributions :meth:`global_state` requires
        before merging (``None`` keeps the seed "at least one" rule).
    """

    def __init__(
        self,
        name: str,
        n_engines: int,
        *,
        strategy: SyncStrategy | str = "ring",
        stale_after: int | None = None,
        quorum: int | None = None,
    ) -> None:
        if n_engines < 1:
            raise ValueError(f"n_engines must be >= 1, got {n_engines}")
        if stale_after is not None and stale_after < 1:
            raise ValueError(f"stale_after must be >= 1, got {stale_after}")
        if quorum is not None and not (1 <= quorum <= n_engines):
            raise ValueError(
                f"quorum must be in [1, {n_engines}], got {quorum}"
            )
        super().__init__(name, n_inputs=n_engines, n_outputs=n_engines)
        self.n_engines = n_engines
        self.strategy = (
            strategy if isinstance(strategy, SyncStrategy)
            else make_strategy(strategy)
        )
        self.stale_after = stale_after
        self.quorum = quorum
        self.stats = SyncStats()
        self._telemetry = None
        self.final_states: dict[int, Eigensystem] = {}
        #: Most recent state seen from each engine (share or final).
        self.last_states: dict[int, Eigensystem] = {}
        #: Membership records, keyed by engine id (tracked peers only).
        self.peers: dict[int, PeerStatus] = {}
        self._messages_seen = 0

    # ------------------------------------------------------------------

    def process(self, tup: StreamTuple, port: int) -> None:
        if not tup.is_control:
            raise ValueError(
                f"{self.name}: unexpected non-control tuple on port {port}"
            )
        self._messages_seen += 1
        msg_type = tup.get("type")
        sender = int(tup.get("engine", port))
        self._note_alive(sender)
        self._sweep_stale(exempt=sender)
        if msg_type == "ready":
            self._handle_ready(sender)
        elif msg_type == "state":
            self.last_states[sender] = tup["state"]
            self._handle_state(sender, tup["state"])
        elif msg_type == "final":
            self.final_states[sender] = tup["state"]
            self.last_states[sender] = tup["state"]
        elif msg_type == "heartbeat":
            self.stats.n_heartbeats += 1  # liveness noted above
        else:
            raise ValueError(
                f"{self.name}: unknown control message type {msg_type!r}"
            )

    # -- membership ------------------------------------------------------

    def _emit_membership(self, event: str, engine: int, **extra) -> None:
        tel = self._telemetry
        if tel is None:
            return
        tel.events.append({
            "ts": tel.now(), "kind": "membership", "op": self.name,
            "event": event, "engine": engine, **extra,
        })
        tel.metrics.counter(
            f"repro_peer_{event}_total", operator=self.name
        ).inc()

    def _note_alive(self, sender: int) -> None:
        peer = self.peers.get(sender)
        if peer is None:
            peer = self.peers[sender] = PeerStatus(engine=sender)
        rejoining = not peer.alive
        peer.alive = True
        peer.n_messages += 1
        peer.last_seen_msg = self._messages_seen
        peer.last_seen_ts = time.monotonic()
        if rejoining:
            peer.n_rejoins += 1
            self.stats.n_rejoins += 1
            self._emit_membership(
                "rejoins", sender, n_rejoins=peer.n_rejoins
            )
            self._reseed(sender)

    def _sweep_stale(self, *, exempt: int) -> None:
        if self.stale_after is None:
            return
        for peer in self.peers.values():
            if not peer.alive or peer.engine == exempt:
                continue
            if peer.engine in self.final_states:
                # A finished engine is quiet, not dead: its final state
                # is already banked, so eviction would only produce a
                # spurious shutdown-time membership event.
                continue
            silent_for = self._messages_seen - peer.last_seen_msg
            if silent_for > self.stale_after:
                peer.alive = False
                peer.n_evictions += 1
                self.stats.n_evictions += 1
                self._emit_membership(
                    "evictions", peer.engine, silent_for=silent_for
                )

    def _reseed(self, sender: int) -> None:
        """Ship the current global basis estimate to a rejoined engine.

        A restarted worker re-enters with whatever its checkpoint held
        (possibly nothing); merging the ensemble's pooled view in stops
        it from dragging the global basis backwards while it re-warms.
        The ``reseed`` flag lets a fresh estimator adopt the state
        outright instead of merging.
        """
        states = [
            s for e, s in self.last_states.items()
            if e != sender or len(self.last_states) == 1
        ]
        if not states:
            return
        k = max(s.n_components for s in states)
        seed_state = (
            states[0] if len(states) == 1
            else merge_eigensystems(states, k)
        )
        self.stats.n_reseeds += 1
        self.submit(
            StreamTuple.control(
                type="merge", state=seed_state, sender=-1, reseed=True
            ),
            port=sender,
        )
        tel = self._telemetry
        if tel is not None:
            tel.events.append({
                "ts": tel.now(), "kind": "membership", "op": self.name,
                "event": "reseeds", "engine": sender,
                "bytes": self._state_nbytes(seed_state),
            })
            tel.metrics.counter(
                "repro_peer_reseeds_total", operator=self.name
            ).inc()

    def live_peers(self) -> list[int]:
        """Tracked engines currently considered alive (sorted)."""
        return sorted(p.engine for p in self.peers.values() if p.alive)

    def membership(self) -> dict[int, dict]:
        """Snapshot of the membership table for run reports."""
        return {
            e: {
                "alive": p.alive,
                "n_messages": p.n_messages,
                "n_evictions": p.n_evictions,
                "n_rejoins": p.n_rejoins,
            }
            for e, p in sorted(self.peers.items())
        }

    def _route_targets(self, sender: int) -> list[int]:
        """Strategy targets with evicted peers routed around.

        A merge command aimed at a dead engine would sit in a queue
        nobody drains (or vanish with the worker); instead the ring
        "heals" — the state goes to the next live engine in index order,
        mirroring how the paper's ring would be re-wired on node loss.
        Without membership tracking this is exactly the raw strategy.
        """
        raw = self.strategy.targets(sender, self.n_engines)
        if self.stale_after is None:
            return raw
        dead = {p.engine for p in self.peers.values() if not p.alive}
        if not dead:
            return raw
        out: list[int] = []
        for target in raw:
            if target not in dead:
                if target not in out:
                    out.append(target)
                continue
            # Walk the ring to the next live engine, skipping the sender.
            for step in range(1, self.n_engines):
                cand = (target + step) % self.n_engines
                if cand == sender or cand in dead:
                    continue
                if cand not in out:
                    out.append(cand)
                    self.stats.n_rerouted += 1
                break
        return out

    def _handle_ready(self, sender: int) -> None:
        self.stats.n_ready += 1
        self.submit(StreamTuple.control(type="share"), port=sender)

    def bind_telemetry(self, telemetry) -> None:
        """Emit merge events (with bytes-moved estimates) to telemetry.

        Called by :meth:`Telemetry.attach_graph
        <repro.streams.telemetry.Telemetry.attach_graph>`; each routed
        state produces one ``sync`` event plus ``repro_sync_*`` counters,
        the controller-side view of the paper's "data channels traffic".
        """
        self._telemetry = telemetry

    @staticmethod
    def _state_nbytes(state: Eigensystem) -> int:
        """Wire-size estimate of one shipped eigensystem (see §III-A.2)."""
        total = 128  # header / scalars
        for attr in ("mean", "basis", "eigenvalues"):
            arr = getattr(state, attr, None)
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
        return total

    def _handle_state(self, sender: int, state: Eigensystem) -> None:
        self.stats.n_states_routed += 1
        tel = self._telemetry
        nbytes = self._state_nbytes(state) if tel is not None else 0
        for target in self._route_targets(sender):
            self.stats.n_merge_commands += 1
            self.stats.per_engine_syncs[target] = (
                self.stats.per_engine_syncs.get(target, 0) + 1
            )
            if tel is not None:
                t0 = tel.now()
                self.submit(
                    StreamTuple.control(
                        type="merge", state=state, sender=sender
                    ),
                    port=target,
                )
                tel.events.append({
                    "ts": t0, "kind": "sync", "op": self.name,
                    "sender": f"engine-{sender}",
                    "target": f"engine-{target}",
                    "bytes": nbytes, "duration_s": tel.now() - t0,
                })
                tel.metrics.counter(
                    "repro_sync_merges_total", operator=self.name
                ).inc()
                tel.metrics.counter(
                    "repro_sync_bytes_total", operator=self.name
                ).inc(nbytes)
            else:
                self.submit(
                    StreamTuple.control(
                        type="merge", state=state, sender=sender
                    ),
                    port=target,
                )

    # ------------------------------------------------------------------

    def check_consistency(
        self, *, angle_tol: float = 0.5, scale_rtol: float = 1.0
    ) -> bool:
        """Whether the engines' latest known states agree (§III-B).

        The paper's motivation for synchronization: "some instances can
        have the eigensystem values different to the rest of the
        instances ... caused by improper application initialization ...
        an outlier ... some unusual pattern of incoming data".  This is
        the controller-side detector for that condition, over the most
        recent state each engine has shared.  Vacuously True until at
        least two engines have reported.
        """
        if len(self.last_states) < 2:
            return True
        return eigensystems_consistent(
            list(self.last_states.values()),
            angle_tol=angle_tol,
            scale_rtol=scale_rtol,
        )

    def global_state(
        self,
        n_components: int,
        *,
        quorum: int | None = None,
        include_stale: bool = True,
    ) -> Eigensystem:
        """Merge the engines' contributions into the single global answer.

        Available after the run completes (engines ship ``final`` states
        as they close).  An engine that died mid-run never ships a
        ``final``; with ``include_stale`` (default) its most recent
        *shared* state still contributes — its pre-death observations are
        not thrown away — and the merge proceeds as long as at least
        ``quorum`` engines contributed (constructor default, else "at
        least one").  Raises :class:`QuorumError` when fewer
        contributions than the quorum are available.
        """
        contributions = dict(self.final_states)
        if include_stale:
            for engine, state in self.last_states.items():
                contributions.setdefault(engine, state)
        if not contributions:
            raise RuntimeError(
                "no final states collected; did the run complete?"
            )
        need = quorum if quorum is not None else self.quorum
        if need is not None and len(contributions) < need:
            raise QuorumError(
                f"{self.name}: only {len(contributions)} of "
                f"{self.n_engines} engines contributed a state; "
                f"quorum is {need}"
            )
        ordered = [contributions[k] for k in sorted(contributions)]
        return merge_eigensystems(ordered, n_components)
