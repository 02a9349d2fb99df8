"""Discrete-event cluster simulator — the testbed substitute for the
throughput experiments (Figs. 6–7)."""

from .app_model import SimConfig, SimReport, simulate_streaming_pca
from .costmodel import PCACostModel
from .events import AllOf, Process, SimEvent, Simulator, Timeout
from .network import Network
from .placement import Placement
from .resources import Resource, Store
from .topology import PAPER_TESTBED, ClusterSpec

__all__ = [
    "AllOf",
    "ClusterSpec",
    "Network",
    "PAPER_TESTBED",
    "PCACostModel",
    "Placement",
    "Process",
    "Resource",
    "SimConfig",
    "SimEvent",
    "SimReport",
    "Simulator",
    "Store",
    "Timeout",
    "simulate_streaming_pca",
]
