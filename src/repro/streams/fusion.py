"""Operator fusion: partitioning the graph into processing elements.

InfoSphere "fuses" operators into a single process so they "exchange data
in local memory where possible" instead of paying network/queue costs
(Section III-A); the paper's performance tuning is largely about choosing
this partition.  A :class:`FusionPlan` assigns every operator to exactly
one processing element (PE).  Under the threaded runtime, intra-PE edges
are direct function calls (zero copy, same thread) and inter-PE edges are
bounded queues — the same cost asymmetry the paper measures in Fig. 6.

The default plan is the graph's own: its declared coordination plane
(:attr:`~repro.streams.graph.Graph.main_ops`) in one PE and every other
operator apart, which is also the cut the remote runtimes make.  Sources
always get their own PE: a source drives itself and cannot share a
thread with operators that must stay responsive to their inboxes.
Sinks get none: a sink runs on the thread of whichever operator emits
to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph import Graph, GraphError
from .operators import Operator, Source

__all__ = ["ProcessingElement", "FusionPlan"]


def is_sink(op: Operator) -> bool:
    """Whether ``op`` is a sink — no outputs — and so runs inline."""
    return op.n_outputs == 0 and not isinstance(op, Source)


@dataclass(frozen=True)
class ProcessingElement:
    """A group of operators executed by one thread."""

    pe_id: int
    operators: tuple[Operator, ...]

    def __contains__(self, op: Operator) -> bool:
        return any(o is op for o in self.operators)

    def label(self) -> str:
        """Human-readable id used in stall reports and diagnostics."""
        names = ",".join(op.name for op in self.operators)
        return f"pe-{self.pe_id}[{names}]"


@dataclass
class FusionPlan:
    """A complete assignment of operators to processing elements."""

    pes: list[ProcessingElement] = field(default_factory=list)

    def pe_of(self, op: Operator) -> ProcessingElement:
        """The PE containing ``op``."""
        for pe in self.pes:
            if op in pe:
                return pe
        raise KeyError(f"operator {op.name!r} is not in the plan")

    def validate(self, graph: Graph) -> None:
        """Every graph operator but the sinks in exactly one PE, sinks in
        none; sources isolated."""
        seen: set[int] = set()
        for pe in self.pes:
            for op in pe.operators:
                if id(op) in seen:
                    raise GraphError(
                        f"operator {op.name!r} appears in multiple PEs"
                    )
                seen.add(id(op))
        placed = [op for op in graph if not is_sink(op)]
        missing = [op.name for op in placed if id(op) not in seen]
        if missing:
            raise GraphError(f"operators missing from fusion plan: {missing}")
        extra = len(seen) - len(placed)
        if extra:
            raise GraphError(
                f"fusion plan contains {extra} sinks or unknown operators"
            )
        for pe in self.pes:
            if len(pe.operators) > 1 and any(
                isinstance(op, Source) for op in pe.operators
            ):
                raise GraphError(
                    "sources must be alone in their PE "
                    f"(PE {pe.pe_id} mixes a source with other operators)"
                )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def per_operator(cls, graph: Graph) -> "FusionPlan":
        """One PE per operator (sinks have none) — maximum parallelism,
        maximum queueing; ignores a declared coordination plane."""
        return cls.from_groups(graph, [])

    @classmethod
    def from_groups(
        cls, graph: Graph, groups: Iterable[Iterable[Operator]]
    ) -> "FusionPlan":
        """Explicit grouping; ungrouped operators get singleton PEs.

        Sinks are dropped from the groups: a sink has no PE.
        """
        plan = cls()
        grouped: set[int] = set()
        for group in groups:
            ops = tuple(op for op in group if not is_sink(op))
            if ops:
                plan.pes.append(ProcessingElement(len(plan.pes), ops))
                grouped.update(id(op) for op in ops)
        for op in graph.operators:
            if id(op) not in grouped and not is_sink(op):
                plan.pes.append(ProcessingElement(len(plan.pes), (op,)))
        plan.validate(graph)
        return plan
