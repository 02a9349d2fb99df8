"""Dataflow graph: operators plus typed port-to-port connections.

The graph is the static description of the application (the paper's
Fig. 2); runtimes in :mod:`repro.streams.engine` execute it.  Cycles are
allowed — the synchronization pattern (PCA engines ⇄ sync controller) is
inherently cyclic — so validation checks port wiring, not acyclicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .operators import Operator, Source

__all__ = ["Edge", "Graph", "GraphError"]


class GraphError(ValueError):
    """The graph is structurally invalid."""


@dataclass(frozen=True)
class Edge:
    """A directed connection from an output port to an input port."""

    src: Operator
    src_port: int
    dst: Operator
    dst_port: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.src.name}[{self.src_port}] -> "
            f"{self.dst.name}[{self.dst_port}]"
        )


class Graph:
    """A mutable dataflow graph under construction.

    Multiple edges *from* one output port mean broadcast; multiple edges
    *into* one input port mean merged delivery.  Both are legal, matching
    SPL stream semantics.

    A graph may declare its *coordination plane* (:meth:`declare_main`):
    the operators that share one processing element by default and stay
    on the coordinator when a runtime places the rest on engine hosts.
    It may also declare one *shared group* (:meth:`declare_shared`) of
    other operators that the threaded runtime runs on one thread.
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._operators: list[Operator] = []
        self._edges: list[Edge] = []
        self._names: set[str] = set()
        self._main_ops: tuple[Operator, ...] = ()
        self._shared_ops: tuple[Operator, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, op: Operator) -> Operator:
        """Register an operator (names must be unique); returns it."""
        if op.name in self._names:
            raise GraphError(f"duplicate operator name {op.name!r}")
        self._names.add(op.name)
        self._operators.append(op)
        return op

    def connect(
        self,
        src: Operator,
        dst: Operator,
        *,
        out_port: int = 0,
        in_port: int = 0,
    ) -> None:
        """Wire ``src`` output ``out_port`` to ``dst`` input ``in_port``."""
        for op, role in ((src, "source"), (dst, "destination")):
            if op not in self._operators:
                raise GraphError(
                    f"{role} operator {op.name!r} is not in the graph"
                )
        if not 0 <= out_port < src.n_outputs:
            raise GraphError(
                f"{src.name!r} has no output port {out_port} "
                f"(has {src.n_outputs})"
            )
        if not 0 <= in_port < dst.n_inputs:
            raise GraphError(
                f"{dst.name!r} has no input port {in_port} "
                f"(has {dst.n_inputs})"
            )
        edge = Edge(src, out_port, dst, in_port)
        if any(
            e.src is src and e.src_port == out_port
            and e.dst is dst and e.dst_port == in_port
            for e in self._edges
        ):
            raise GraphError(f"duplicate edge {edge!r}")
        self._edges.append(edge)

    def declare_main(self, ops: Iterable[Operator]) -> None:
        """Declare the coordination plane (replacing any earlier one).

        Every runtime reads it: the threaded engine fuses these
        operators into one PE and every other operator outside the
        shared group (:meth:`declare_shared`) into one of its own, and
        the remote runtimes keep them (with the sources and sinks) on
        the coordinator.
        """
        self._main_ops = self._known(ops)

    def declare_shared(self, ops: Iterable[Operator]) -> None:
        """Declare operators that share one thread on the threaded
        runtime, apart from the coordination plane (replacing any
        earlier group).

        Only the threaded engine reads it: where each operator's work
        is a run of short GIL-holding calls, threads of the same
        process just trade the interpreter lock, and one thread does
        the same work with fewer switches.  The remote runtimes still
        give each operator its own host.
        """
        self._shared_ops = self._known(ops)

    def _known(self, ops: Iterable[Operator]) -> tuple[Operator, ...]:
        ops = tuple(ops)
        for op in ops:
            if op not in self._operators:
                raise GraphError(f"operator {op.name!r} is not in the graph")
        return ops

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def main_ops(self) -> tuple[Operator, ...]:
        """The declared coordination plane (empty: none declared)."""
        return self._main_ops

    @property
    def shared_ops(self) -> tuple[Operator, ...]:
        """The declared shared group (empty: none declared)."""
        return self._shared_ops

    @property
    def operators(self) -> tuple[Operator, ...]:
        return tuple(self._operators)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges)

    @property
    def sources(self) -> tuple[Source, ...]:
        return tuple(op for op in self._operators if isinstance(op, Source))

    def successors(self, op: Operator, port: int) -> list[tuple[Operator, int]]:
        """``(dst, in_port)`` pairs wired to ``op``'s output ``port``."""
        return [
            (e.dst, e.dst_port)
            for e in self._edges
            if e.src is op and e.src_port == port
        ]

    def in_edges(self, op: Operator) -> list[Edge]:
        """All edges arriving at ``op``."""
        return [e for e in self._edges if e.dst is op]

    def out_edges(self, op: Operator) -> list[Edge]:
        """All edges leaving ``op``."""
        return [e for e in self._edges if e.src is op]

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._operators)

    def __len__(self) -> int:
        return len(self._operators)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`GraphError` on structural problems.

        Every required (punctuation-tracked) input port must be fed by at
        least one edge; every operator must be reachable from a source; at
        least one source must exist.
        """
        if not self._operators:
            raise GraphError("graph has no operators")
        if not self.sources:
            raise GraphError("graph has no sources")

        fed: dict[tuple[int, int], int] = {}
        for e in self._edges:
            key = (id(e.dst), e.dst_port)
            fed[key] = fed.get(key, 0) + 1
        for op in self._operators:
            for port in range(op.n_inputs):
                if (id(op), port) not in fed and port in op.punctuation_ports:
                    raise GraphError(
                        f"input port {port} of {op.name!r} is not connected"
                    )

        # Reachability from sources (treat edges as undirected is wrong;
        # walk forward from sources, which also covers cyclic sync paths).
        reached: set[int] = set()
        frontier = [op for op in self.sources]
        while frontier:
            op = frontier.pop()
            if id(op) in reached:
                continue
            reached.add(id(op))
            for port in range(op.n_outputs):
                for dst, _ in self.successors(op, port):
                    if id(dst) not in reached:
                        frontier.append(dst)
        unreachable = [
            op.name for op in self._operators if id(op) not in reached
        ]
        if unreachable:
            raise GraphError(
                f"operators unreachable from any source: {unreachable}"
            )
