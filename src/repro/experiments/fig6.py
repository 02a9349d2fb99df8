"""Experiment FIG6 — throughput vs parallel threads, single vs distributed.

Paper Fig. 6: "performance of the distributed Streaming PCA system
processing tuples with 250 dimensions for 1–30 instances running in
parallel", single-node placement vs distributed placement on the 10-node
testbed, with ``N = 5000`` and the 0.5 s sync throttle.  The simulator
does not model that throttle: its engines sync on the 1.5·N gate alone.

Reproduced shapes (simulator; see DESIGN.md substitution table):

* distributed throughput rises with threads, peaks near 2 threads/node
  (20 on 10 nodes) and *degrades* at 30 (interconnect saturation);
* single-node placement saturates at the core count and stays flat;
* at 1–2 threads single-node beats distributed (network overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.app_model import SimConfig, SimReport, simulate_streaming_pca
from ..cluster.costmodel import PCACostModel
from ..cluster.placement import Placement
from ..cluster.topology import PAPER_TESTBED, ClusterSpec
from .common import Table

__all__ = ["Fig6Config", "Fig6Result", "run_fig6"]

#: The thread counts sampled along the x-axis of the paper's plot.
DEFAULT_THREADS = (1, 2, 5, 10, 15, 20, 25, 30)


@dataclass(frozen=True)
class Fig6Config:
    """Simulation knobs for the thread-scaling experiment."""

    spec: ClusterSpec = PAPER_TESTBED
    dim: int = 250
    n_components: int = 8
    sync_window: int = 5000  # the paper's N
    threads: tuple[int, ...] = DEFAULT_THREADS
    warmup_s: float = 0.3
    window_s: float = 1.0
    cost: PCACostModel | None = None  # default: paper_scale()


@dataclass
class Fig6Result:
    """Throughput curves for both placements."""

    config: Fig6Config
    threads: list[int] = field(default_factory=list)
    single: list[SimReport] = field(default_factory=list)
    distributed: list[SimReport] = field(default_factory=list)

    def table(self) -> Table:
        """The two Fig. 6 series as a table."""
        rows = [
            [t, round(s.throughput), round(d.throughput),
             round(d.splitter_nic_utilization, 2)]
            for t, s, d in zip(self.threads, self.single, self.distributed)
        ]
        return Table(
            title=(
                f"FIG6: tuples/s vs parallel threads (d={self.config.dim}, "
                f"N={self.config.sync_window}, "
                f"{self.config.spec.n_nodes}x{self.config.spec.cores_per_node}-core nodes)"
            ),
            headers=["threads", "single", "distributed", "nic util"],
            rows=rows,
        )

    def distributed_peak(self) -> tuple[int, float]:
        """(threads, throughput) at the distributed maximum."""
        best = max(
            zip(self.threads, self.distributed), key=lambda p: p[1].throughput
        )
        return best[0], best[1].throughput


def run_fig6(config: Fig6Config = Fig6Config()) -> Fig6Result:
    """Sweep thread counts under both placements."""
    cost = config.cost or PCACostModel.paper_scale()
    result = Fig6Result(config=config)
    for threads in config.threads:
        result.threads.append(threads)
        for mode in ("single", "distributed"):
            placement = (
                Placement.single_node(threads)
                if mode == "single"
                else Placement.default_unoptimized(
                    threads, config.spec.n_nodes
                )
            )
            sim_cfg = SimConfig(
                spec=config.spec,
                placement=placement,
                cost=cost,
                dim=config.dim,
                n_components=config.n_components,
                sync_window=config.sync_window,
                warmup_s=config.warmup_s,
                window_s=config.window_s,
            )
            report = simulate_streaming_pca(sim_cfg)
            if mode == "single":
                result.single.append(report)
            else:
                result.distributed.append(report)
    return result
