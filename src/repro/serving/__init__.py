"""Multi-tenant streaming-PCA-as-a-service.

The serving layer separates the three planes the ROADMAP's
"millions of users" direction calls for:

* **ingestion** — clients POST row blocks into per-tenant bounded
  queues behind a per-tenant :class:`~repro.streams.resilience.\
LoadShedValve` (429 + ``Retry-After`` on shed, never silent drop);
* **compute** — a shared :class:`~repro.serving.pool.EnginePool` of
  lanes drains the queues into per-tenant streaming-PCA models and
  publishes versioned eigenbasis snapshots every ``k`` blocks;
* **query** — transform / reconstruction-error / outlier-score /
  eigenspectra answered *only* from the immutable copy-on-publish
  :class:`~repro.serving.snapshots.EigenbasisCache`, so read traffic
  never contends with the model lock, plus a WebSocket push channel
  for snapshot/drift/health events.

Boot one with ``python -m repro serve`` or::

    from repro.serving import PCAService, ServingConfig, ServingServer
    from repro.serving import TenantSpec

    service = PCAService(ServingConfig(n_lanes=2))
    service.add_tenant(TenantSpec("sdss", n_components=5))
    server = ServingServer(service, port=8780).start()
"""

from .client import Reply, ServingClient, WebSocketClient
from .durability import (
    DurabilityPlane,
    RecoveryManager,
    TenantCheckpointer,
    WalError,
    WriteAheadLog,
)
from .http import ServingServer
from .pool import EngineLane, EnginePool
from .service import EventBus, PCAService, ServingConfig
from .smoke import run_smoke
from .snapshots import BasisSnapshot, EigenbasisCache
from .tenancy import (
    IngestQueue,
    QueueFull,
    TenantModel,
    TenantSpec,
    TenantState,
)

__all__ = [
    "BasisSnapshot",
    "DurabilityPlane",
    "EigenbasisCache",
    "EngineLane",
    "EnginePool",
    "EventBus",
    "IngestQueue",
    "PCAService",
    "QueueFull",
    "RecoveryManager",
    "Reply",
    "run_smoke",
    "ServingClient",
    "ServingConfig",
    "ServingServer",
    "TenantCheckpointer",
    "TenantModel",
    "TenantSpec",
    "TenantState",
    "WalError",
    "WriteAheadLog",
]
