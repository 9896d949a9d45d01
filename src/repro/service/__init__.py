"""The unified service plane: one client-facing API for every app.

The paper's thesis is that a *single application-independent framework* can
bootstrap many distributed-trust applications. This package is the service
layer that makes the claim concrete on the client side:

* :mod:`repro.service.spec` — :class:`ServiceSpec`, a declarative description
  of an app service (packages, domains per shard, shard count, threshold,
  regions) that synthesizes the attested
  :class:`~repro.core.deployment.Deployment` replica set;
* :mod:`repro.service.ring` — :class:`HashRing`, deterministic
  consistent-hash placement of keys onto shards;
* :mod:`repro.service.sharded` — :class:`ShardedService`, N deployment shards
  behind keyed routing and scatter/gather batch invokes (send to every shard
  *before* pumping the network, so shard service time overlaps in sim time);
* :mod:`repro.service.client` — :class:`ServiceClient`, the session facade
  (audit-before-use policies, keyed scatter waves that ride out a live
  reshard) every app client's session is;
* :mod:`repro.service.app` — the app shell: :class:`AppService` (spec
  synthesis, migrator, ``deployment``, ``num_shards``, ``reshard``) and
  :class:`AppClient` (session, ``audit()``, the checkpointed runner), the
  bases each of the four apps' deployment and client extend;
* :mod:`repro.service.reshard` — epoch-based live resharding in both
  directions: grow or shrink a running service, migrate moved keys' state
  through the app's :class:`ShardMigrator` over the simulated network, and
  commit a new epoch with no lost, duplicated, or silently misrouted
  records;
* :mod:`repro.service.autoscaler` / :mod:`repro.service.gates` — the elastic
  control loop: :class:`Autoscaler` watches per-shard p99 and queue depth
  and issues reshards through operator gates (heartbeat, cooldown,
  post-move reconciliation) with breach/clear hysteresis.

See docs/architecture.md for the capacity model and how the pieces compose.
"""

from repro.service.app import AppClient, AppService
from repro.service.autoscaler import (
    AutoscaleDecision,
    Autoscaler,
    AutoscalerPolicy,
    MetricsSample,
    percentile,
)
from repro.service.client import ServiceClient
from repro.service.gates import (
    CooldownGate,
    GateResult,
    HeartbeatGate,
    ReconciliationGate,
)
from repro.service.reshard import (
    MigrationOutcome,
    ReshardCoordinator,
    ReshardReport,
    ShardMigrator,
)
from repro.service.ring import HashRing, RingDiff
from repro.service.sharded import PendingScatter, ShardedService
from repro.service.spec import PackageBinding, ServiceSpec

__all__ = [
    "ServiceSpec",
    "PackageBinding",
    "HashRing",
    "RingDiff",
    "ShardedService",
    "PendingScatter",
    "ServiceClient",
    "AppService",
    "AppClient",
    "ShardMigrator",
    "MigrationOutcome",
    "ReshardCoordinator",
    "ReshardReport",
    "Autoscaler",
    "AutoscalerPolicy",
    "AutoscaleDecision",
    "MetricsSample",
    "percentile",
    "GateResult",
    "HeartbeatGate",
    "CooldownGate",
    "ReconciliationGate",
]
