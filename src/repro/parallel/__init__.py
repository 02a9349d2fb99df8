"""The parallel streaming-PCA application (paper Sections II-C, III)."""

from .app import (
    ENGINE_CLASSES,
    ParallelPCAApp,
    build_parallel_pca_graph,
    engine_restart_supervisor,
)
from .partition import (
    partition_contiguous,
    partition_random,
    partition_round_robin,
)
from .pca_operator import (
    DIAGNOSTICS_SCHEMA,
    StreamingPCAOperator,
    expand_diagnostics,
)
from .runner import ParallelRunResult, ParallelStreamingPCA
from .sync import (
    BroadcastStrategy,
    GroupStrategy,
    PeerStatus,
    PeerToPeerStrategy,
    QuorumError,
    RingStrategy,
    SyncController,
    SyncStats,
    SyncStrategy,
    make_strategy,
)

__all__ = [
    "BroadcastStrategy",
    "DIAGNOSTICS_SCHEMA",
    "ENGINE_CLASSES",
    "GroupStrategy",
    "ParallelPCAApp",
    "ParallelRunResult",
    "ParallelStreamingPCA",
    "PeerStatus",
    "PeerToPeerStrategy",
    "QuorumError",
    "RingStrategy",
    "StreamingPCAOperator",
    "SyncController",
    "SyncStats",
    "SyncStrategy",
    "build_parallel_pca_graph",
    "engine_restart_supervisor",
    "expand_diagnostics",
    "make_strategy",
    "partition_contiguous",
    "partition_random",
    "partition_round_robin",
]
