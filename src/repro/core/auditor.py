"""Third-party auditors.

Clients are not the only parties that can check a deployment: the paper relies
on third-party auditors to inspect published source code and watch public logs
so that ordinary clients "will generally have confidence in the deployment"
without each of them reading the code themselves (§4.1). The auditor here
combines three activities:

* the same cross-domain attestation/log audit a client performs,
* source inspection — recomputing the digest of every published release and
  confirming that the code every domain runs is exactly some published source,
* release-log monitoring — following the CT-style log for unannounced or
  inconsistent entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import AuditingClient, AuditReport
from repro.core.deployment import Deployment
from repro.transparency.monitor import LogMonitor
from repro.wire.codec import decode

__all__ = ["AuditorFinding", "ThirdPartyAuditor"]


@dataclass(frozen=True)
class AuditorFinding:
    """One finding from a third-party audit pass."""

    severity: str  # "info", "warning", or "critical"
    category: str
    detail: str


class ThirdPartyAuditor:
    """A standing auditor for one deployment."""

    def __init__(self, name: str, deployment: Deployment,
                 client: AuditingClient | None = None):
        self.name = name
        self.deployment = deployment
        self.client = client or AuditingClient(deployment.vendor_registry)
        self.monitor = LogMonitor(deployment.release_log, entry_inspector=self._inspect_entry)
        self.findings: list[AuditorFinding] = []

    # ------------------------------------------------------------------
    # Audit passes
    # ------------------------------------------------------------------
    def run_audit(self) -> list[AuditorFinding]:
        """Run one full audit pass; returns (and records) the findings."""
        findings: list[AuditorFinding] = []
        findings.extend(self._audit_domains())
        findings.extend(self._audit_sources())
        findings.extend(self._audit_release_log())
        self.findings.extend(findings)
        return findings

    @property
    def deployment_healthy(self) -> bool:
        """True when no warning or critical finding has been recorded."""
        return not any(f.severity in ("warning", "critical") for f in self.findings)

    # ------------------------------------------------------------------
    # Individual passes
    # ------------------------------------------------------------------
    def _audit_domains(self) -> list[AuditorFinding]:
        report: AuditReport = self.client.audit_deployment(self.deployment)
        findings = []
        for result in report.domain_results:
            if not result.ok:
                findings.append(AuditorFinding("critical", "domain-audit",
                                               f"{result.domain_id}: {result.reason}"))
        for evidence in report.evidence:
            findings.append(AuditorFinding("critical", evidence.kind, evidence.description))
        if report.ok:
            findings.append(AuditorFinding(
                "info", "domain-audit",
                f"all {len(report.domain_results)} trust domains passed attestation and log checks",
            ))
        return findings

    def _audit_sources(self) -> list[AuditorFinding]:
        findings = []
        registry = self.deployment.registry
        for digest in registry.digests():
            if not registry.verify_source(digest):
                findings.append(AuditorFinding(
                    "critical", "source-mismatch",
                    f"published source does not hash to its claimed digest {digest.hex()[:16]}",
                ))
        if not registry.versions():
            findings.append(AuditorFinding("warning", "source-inspection",
                                           "no releases have been published yet"))
        else:
            findings.append(AuditorFinding(
                "info", "source-inspection",
                f"inspected {len(registry.versions())} published releases",
            ))
        return findings

    def _audit_release_log(self) -> list[AuditorFinding]:
        findings = []
        for alert in self.monitor.poll():
            severity = "critical" if alert.kind in ("inconsistency", "truncation") else "warning"
            findings.append(AuditorFinding(severity, f"release-log-{alert.kind}", alert.detail))
        return findings

    # ------------------------------------------------------------------
    # Release-log entry inspection
    # ------------------------------------------------------------------
    def _inspect_entry(self, entry: bytes) -> str | None:
        """Flag release-log entries that do not correspond to published source."""
        try:
            manifest = decode(entry)
            digest = bytes(manifest["package_digest"])
        except Exception:
            return "release-log entry is not a well-formed update manifest"
        if not self.deployment.registry.contains(digest):
            return "release-log entry references source that was never published"
        return None
