"""Example distributed-trust applications built on the framework's public API.

Each application follows the same pattern the paper envisions: the application
developer writes ordinary application code (a sandboxed package), stands up a
deployment with :class:`~repro.core.deployment.Deployment`, and end users
audit the deployment with :class:`~repro.core.client.AuditingClient` before
trusting it with their data. Each app's deployment and client extend the
shared app shell (:class:`~repro.service.AppService`,
:class:`~repro.service.AppClient`) and add only their spec, migrator, crypto
and flows.

* :mod:`repro.apps.keybackup` — secret-key backup via Shamir secret sharing
  (the paper's Figure 1 motivating application).
* :mod:`repro.apps.threshold_sign` — BLS threshold signing for financial
  custody (the application evaluated in §5 / Table 3).
* :mod:`repro.apps.prio` — Prio-style private aggregation of telemetry values
  via additive secret sharing (the private-analytics deployments of §2).
* :mod:`repro.apps.odoh` — oblivious DNS over a proxy/resolver split (the
  private-DNS deployments of §2).
"""

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.apps.threshold_sign import CustodyClient, CustodyDeployment
from repro.apps.prio import PrivateAggregationClient, PrivateAggregationDeployment
from repro.apps.odoh import ObliviousDnsClient, ObliviousDnsDeployment

__all__ = [
    "KeyBackupClient",
    "KeyBackupDeployment",
    "CustodyClient",
    "CustodyDeployment",
    "PrivateAggregationClient",
    "PrivateAggregationDeployment",
    "ObliviousDnsClient",
    "ObliviousDnsDeployment",
]
