"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` knows about this file: the traced run builds the
service itself and :func:`trace_service` replaces bound public methods
on *those instances* with wrappers that open a span around the call.
Spans stay in memory and :meth:`Tracer.write` dumps them as JSON lines
when the run ends.

A span's ``parent`` is the span that caused it.  ``link`` says how:
``"child"`` spans ran inside their parent (same call stack, or the
server side of a blocking client call) and must nest in it;
``"follows"`` spans were caused by a parent that had already returned
(a lane popping a block some request pushed earlier).  Spans of one
ingest block share its sequence number in ``seq``; lane-side spans that
cover several coalesced blocks list them all in ``seqs``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: The span chain every accepted ingest block must have.
INGEST_CHAIN = (
    "client.ingest", "svc.ingest", "queue.push", "queue.pop_block",
    "model.apply_block", "model.publish",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    link: str = "child"
    seq: int | None = None
    seqs: tuple[int, ...] = ()
    thread: str = ""
    #: False when the wrapped call turned out to be a no-op (an empty
    #: queue poll); such spans are not recorded.
    keep: bool = field(default=True, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        doc = {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "link": self.link,
            "seq": self.seq, "thread": self.thread,
        }
        if self.seqs:
            doc["seqs"] = list(self.seqs)
        return doc


class Tracer:
    """In-memory span recorder with a per-thread call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: Client-side spans currently waiting on the server, by kind:
        #: the causal parent of the server-side span of that request.
        self.remote: dict[str, Span] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        seq: int | None = None,
        parent: Span | None = None,
        link: str = "child",
        remote: str | None = None,
    ):
        """Record ``name`` around the ``with`` body.

        Without ``parent`` the span hangs under the innermost open span
        of this thread and inherits its ``seq``.  ``remote`` publishes
        the span as the causal parent for the server side of the call.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if seq is None and parent is not None:
            seq = parent.seq
        sp = Span(
            id=next(self._ids), name=name, start=self.clock(),
            parent=parent.id if parent is not None else None,
            link=link, seq=seq, thread=threading.current_thread().name,
        )
        stack.append(sp)
        if remote is not None:
            self.remote[remote] = sp
        try:
            yield sp
        finally:
            sp.end = self.clock()
            stack.pop()
            if remote is not None:
                self.remote.pop(remote, None)
            if sp.keep:
                with self._lock:
                    self.spans.append(sp)

    def wrap(
        self,
        obj,
        attr: str,
        name: str,
        *,
        parent_of: Callable[[], Span | None] | None = None,
        link: str = "child",
        before: Callable[[Span, tuple], None] | None = None,
        after: Callable[[Span, object], None] | None = None,
    ) -> None:
        """Replace bound method ``obj.attr`` with a span-recording one.

        ``parent_of()`` supplies a causal parent from another thread;
        ``before(span, args)`` and ``after(span, result)`` let the
        caller attach sequence numbers around the call.
        """
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            parent = parent_of() if parent_of is not None else None
            with self.span(name, parent=parent, link=link) as sp:
                if before is not None:
                    before(sp, args)
                result = inner(*args, **kwargs)
                if after is not None:
                    after(sp, result)
                return result

        setattr(obj, attr, traced)

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = collections.defaultdict(list)
        for sp in self.spans:
            out[sp.name].append(sp)
        return out

    def write(self, path, records: Iterable[dict] = ()) -> None:
        """Dump spans (then any extra ``records``) as JSON lines."""
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(sp.to_json()) + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of that
    interval its child spans cover (overlapping children counted once,
    children reaching outside the parent clipped to it)."""
    spans = list(spans)
    children: dict[int, list[Span]] = collections.defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for ch in sorted(children.get(sp.id, ()), key=lambda s: s.start):
            lo = max(ch.start, reach)
            hi = min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = sp.duration - covered
    return out


def trace_service(tracer: Tracer, svc, tenant) -> None:
    """Wrap the serving-layer boundaries of one service and one tenant.

    ``svc`` is a started-or-not ``PCAService`` the benchmark built and
    ``tenant`` its ``TenantState``.  The load generator opens the
    ``client.*`` spans itself (``remote="ingest"`` / ``"probe"``).
    """
    #: (seq, rows, push span) of blocks pushed and not yet popped.
    queued: collections.deque = collections.deque()
    #: Blocks applied since the last publish, whichever lane applied them.
    unpublished: list[int] = []
    #: The calling lane's latest pop and apply spans.  Per thread: when
    #: the pool rescales, the tenant's old and new lane can overlap for a
    #: block or two.
    lane = threading.local()

    def pushing(sp: Span, args) -> None:
        # Registered before the call: the lane may pop the block the
        # moment the queue's lock is released.
        queued.append((sp.seq, int(args[0].shape[0]), sp))

    def popped(sp: Span, result) -> None:
        if result is None:
            sp.keep = False
            return
        # The queue never splits a block, so the popped rows are whole
        # pushed blocks, oldest first.
        rows, covered, last_push = result[0].shape[0], [], None
        while rows > 0 and queued:
            seq, n, last_push = queued.popleft()
            covered.append(seq)
            rows -= n
        sp.seqs = tuple(covered)
        sp.seq = covered[-1] if covered else None
        sp.link = "follows"
        sp.parent = last_push.id if last_push is not None else None
        lane.pop = sp

    def applied(sp: Span, _result) -> None:
        pop = getattr(lane, "pop", None)
        if pop is not None:
            sp.seqs, sp.seq = pop.seqs, pop.seq
        lane.apply = sp
        unpublished.extend(sp.seqs)

    def published(sp: Span, snapshot) -> None:
        if snapshot is None:
            sp.keep = False
            return
        sp.seqs = tuple(unpublished)
        sp.seq = sp.seqs[-1] if sp.seqs else None
        del unpublished[:len(sp.seqs)]

    tracer.wrap(svc, "ingest", "svc.ingest",
                parent_of=lambda: tracer.remote.get("ingest"))
    tracer.wrap(svc, "transform", "svc.transform",
                parent_of=lambda: tracer.remote.get("probe"))
    if svc.durability is not None:
        tracer.wrap(svc.durability, "append", "durability.append")
    tracer.wrap(tenant.queue, "push", "queue.push", before=pushing)
    tracer.wrap(tenant.queue, "pop_block", "queue.pop_block",
                after=popped)
    tracer.wrap(tenant.model, "apply_block", "model.apply_block",
                parent_of=lambda: getattr(lane, "pop", None),
                link="follows",
                after=applied)
    tracer.wrap(tenant.model, "publish", "model.publish",
                parent_of=lambda: getattr(lane, "apply", None),
                link="follows",
                after=published)
    tracer.wrap(svc.cache, "publish", "cache.publish")


def ingest_chains(spans: Iterable[Span], *, durable: bool) -> dict:
    """How many ingest blocks have the whole :data:`INGEST_CHAIN`.

    A block's chain is complete when every link exists with the right
    parent (``svc.ingest`` under its ``client.ingest``, ``queue.push``
    — and ``durability.append`` on a durable tenant — under that
    ``svc.ingest``) and lane-side pop, apply and publish spans cover its
    sequence number.  ``nesting_violations`` counts ``"child"`` spans
    that reach outside their parent.
    """
    spans = list(spans)
    by_id = {sp.id: sp for sp in spans}
    under: dict[tuple[int, str], Span] = {}
    covering: dict[str, set[int]] = collections.defaultdict(set)
    violations = 0
    for sp in spans:
        if sp.parent is not None:
            under[(sp.parent, sp.name)] = sp
        if sp.link == "child" and sp.parent in by_id:
            parent = by_id[sp.parent]
            if sp.start < parent.start or sp.end > parent.end:
                violations += 1
        covering[sp.name].update(sp.seqs)
    blocks = complete = 0
    for sp in spans:
        if sp.name != "client.ingest":
            continue
        blocks += 1
        server = under.get((sp.id, "svc.ingest"))
        if server is None or (server.id, "queue.push") not in under:
            continue
        if durable and (server.id, "durability.append") not in under:
            continue
        if all(sp.seq in covering[name] for name in INGEST_CHAIN[3:]):
            complete += 1
    return {"blocks": blocks, "complete": complete,
            "nesting_violations": violations}
