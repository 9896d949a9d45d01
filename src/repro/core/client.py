"""The auditing client.

This is the user-side of the paper's guarantee (§3.3 "Auditable"): before (and
while) using a distributed-trust application, a client can check, for every
trust domain,

1. that it runs the published application-independent framework inside genuine
   (simulated) secure hardware — via attestation against vendor roots and the
   framework measurement the client computes from published source;
2. that the attested state binds the current application digest and the head
   of the domain's append-only digest log;
3. that the digest log the domain serves actually hashes to that head; and
4. that all domains bound to the same package agree — same current digest,
   mutually consistent digest histories — and that every digest any domain
   has ever run corresponds to a release published in the developer's public
   release log and source registry.

Domains bound to different packages (ODoH's proxy and resolver) run different
releases by design, so the package layout a deployment declares
(``Deployment.bindings``) groups the cross-checks of step 4.

Every failed check yields a :class:`~repro.core.evidence.MisbehaviorEvidence`
object that third parties can verify independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.common import random_bytes
from repro.core.deployment import Deployment
from repro.core.evidence import (
    AttestationFailureEvidence,
    DigestMismatchEvidence,
    LogMismatchEvidence,
    MisbehaviorEvidence,
)
from repro.core.trust_domain import TrustDomain, expected_framework_measurement
from repro.enclave.attestation import AttestationVerifier
from repro.enclave.measurement import Measurement
from repro.enclave.tee import HardwareType
from repro.errors import LogError, MisbehaviorDetected
from repro.transparency.log import DigestLog

__all__ = ["DomainAuditResult", "AuditReport", "AuditingClient"]


@dataclass(frozen=True)
class DomainAuditResult:
    """Outcome of auditing one trust domain."""

    domain_id: str
    hardware_type: str
    ok: bool
    reason: str
    app_digest: bytes
    app_version: str
    log_length: int
    attested: bool


@dataclass
class AuditReport:
    """Outcome of auditing an entire deployment."""

    ok: bool
    domain_results: list[DomainAuditResult] = field(default_factory=list)
    evidence: list[MisbehaviorEvidence] = field(default_factory=list)
    agreed_digest: bytes = b""
    checked_against_release_log: bool = False

    def failures(self) -> list[DomainAuditResult]:
        """Per-domain results that failed."""
        return [result for result in self.domain_results if not result.ok]


class AuditingClient:
    """Audits a distributed-trust deployment before trusting it with secrets."""

    def __init__(self, vendor_registry=None, expected_measurement: Measurement | None = None):
        self.verifier = AttestationVerifier(vendor_registry)
        self.expected_measurement = expected_measurement or expected_framework_measurement()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def audit_deployment(self, deployment: Deployment) -> AuditReport:
        """Audit every domain of a deployment against its declared package
        layout, including the release-log cross-check."""
        report, logged = self._audit(deployment.domains, deployment.bindings)
        report.checked_against_release_log = self._check_release_log(
            deployment, report, logged)
        report.ok = report.ok and report.checked_against_release_log
        return report

    def audit_or_raise(self, deployment: Deployment) -> AuditReport:
        """Audit and raise :class:`MisbehaviorDetected` when anything fails."""
        report = self.audit_deployment(deployment)
        if not report.ok:
            evidence = report.evidence[0] if report.evidence else None
            reasons = "; ".join(result.reason for result in report.failures() if result.reason)
            raise MisbehaviorDetected(
                f"deployment failed audit: {reasons or 'cross-domain checks failed'}",
                evidence=evidence,
            )
        return report

    def audit_domains(self, domains: list[TrustDomain]) -> AuditReport:
        """Audit a list of trust domains and cross-check them against each other."""
        return self._audit(domains, [None] * len(domains))[0]

    def _audit(self, domains: list[TrustDomain], bindings: list):
        """Audit each domain in index order (one nonce each), then cross-check
        the domains that share a binding. Returns the report and, per domain,
        the digests it has run: its verified log, or just its reported current
        digest when its audit failed."""
        report = AuditReport(ok=True)
        groups: dict = {}
        logged: list[list[bytes]] = []
        for domain, binding in zip(domains, bindings):
            result, response, evidence = self._audit_single(domain)
            report.domain_results.append(result)
            if evidence is not None:
                report.evidence.append(evidence)
            if response is None:
                report.ok = False
                logged.append([result.app_digest])
                continue
            groups.setdefault(binding, []).append(response)
            logged.append([bytes(entry["code_digest"]) for entry in response["log"]])

        for responses in groups.values():
            self._cross_check(report, responses)
        if report.domain_results and report.ok:
            report.agreed_digest = report.domain_results[0].app_digest
        return report, logged

    # ------------------------------------------------------------------
    # Per-domain checks
    # ------------------------------------------------------------------
    def _audit_single(self, domain: TrustDomain):
        """Audit one domain; returns ``(result, response_or_None, evidence_or_None)``."""
        nonce = random_bytes(32)
        try:
            response = domain.audit_response(nonce)
        except Exception as exc:
            # A domain that cannot answer the challenge (crashed, exploited,
            # unreachable) fails its audit rather than aborting the client's
            # audit of the rest of the deployment.
            return self._failed(
                {"domain_id": domain.domain_id, "hardware_type": domain.hardware_type.value},
                f"domain did not answer the audit challenge: {exc}",
                AttestationFailureEvidence(
                    kind="attestation-failure",
                    description="domain failed to answer an audit challenge",
                    domain_id=domain.domain_id,
                    response={},
                    expected_measurement_digest=self.expected_measurement.digest,
                    failure_reason=str(exc),
                ),
            )
        hardware = response.get("hardware_type", HardwareType.NONE.value)
        attested = False

        if hardware != HardwareType.NONE.value:
            evidence_dict = response.get("attestation")
            if evidence_dict is None:
                return self._failed(
                    response, "domain refused to attest",
                    AttestationFailureEvidence(
                        kind="attestation-failure",
                        description="enclave-backed domain returned no attestation",
                        domain_id=response["domain_id"],
                        response=response,
                        expected_measurement_digest=self.expected_measurement.digest,
                        failure_reason="missing attestation",
                    ),
                )
            verification = self.verifier.verify(
                evidence_dict, nonce, self.expected_measurement,
                user_data=response.get("user_data", b""),
            )
            if not verification.valid:
                return self._failed(
                    response, f"attestation invalid: {verification.reason}",
                    AttestationFailureEvidence(
                        kind="attestation-failure",
                        description="attestation evidence failed verification",
                        domain_id=response["domain_id"],
                        response=response,
                        expected_measurement_digest=self.expected_measurement.digest,
                        failure_reason=verification.reason,
                    ),
                )
            attested = True

        # The digest log must hash to the head bound into the attestation.
        try:
            DigestLog.verify_export(response.get("log", []), response.get("log_head", b""))
        except LogError as exc:
            return self._failed(
                response, f"digest log invalid: {exc}",
                LogMismatchEvidence(
                    kind="log-mismatch",
                    description="digest log does not match attested head",
                    domain_id=response["domain_id"],
                    exported_log=response.get("log", []),
                    attested_head=response.get("log_head", b""),
                ),
            )

        result = DomainAuditResult(
            domain_id=response["domain_id"],
            hardware_type=hardware,
            ok=True,
            reason="",
            app_digest=bytes(response.get("app_digest", b"")),
            app_version=str(response.get("app_version", "")),
            log_length=len(response.get("log", [])),
            attested=attested,
        )
        return result, response, None

    @staticmethod
    def _failed(response: dict, reason: str, evidence: MisbehaviorEvidence):
        result = DomainAuditResult(
            domain_id=response.get("domain_id", "?"),
            hardware_type=response.get("hardware_type", "?"),
            ok=False,
            reason=reason,
            app_digest=bytes(response.get("app_digest", b"")),
            app_version=str(response.get("app_version", "")),
            log_length=len(response.get("log", [])),
            attested=False,
        )
        return result, None, evidence

    # ------------------------------------------------------------------
    # Cross-domain checks
    # ------------------------------------------------------------------
    @staticmethod
    def _cross_check(report: AuditReport, responses: list[dict]) -> None:
        """Domains bound to one package must report the same current code
        and mutually consistent histories."""
        checks = (
            ("digest-mismatch", "two trust domains report different current code",
             lambda first, second: bytes(first.get("app_digest", b""))
             == bytes(second.get("app_digest", b""))),
            ("history-divergence", "two trust domains report diverging code histories",
             lambda first, second: DigestLog.views_consistent(
                 first.get("log", []), second.get("log", []))),
        )
        for kind, description, agree in checks:
            for first, second in combinations(responses, 2):
                if agree(first, second):
                    continue
                report.ok = False
                if first.get("attestation") and second.get("attestation"):
                    # Only attested responses yield *publicly verifiable*
                    # evidence; a mismatch involving the developer's own
                    # un-attested domain 0 still fails the audit.
                    report.evidence.append(DigestMismatchEvidence(
                        kind=kind,
                        description=description,
                        first_domain=first["domain_id"],
                        second_domain=second["domain_id"],
                        first_response=first,
                        second_response=second,
                    ))

    # ------------------------------------------------------------------
    # Release-log cross-check
    # ------------------------------------------------------------------
    def _check_release_log(self, deployment: Deployment, report: AuditReport,
                           logged: list[list[bytes]]) -> bool:
        """Every digest any domain has ever run must be a published release."""
        published = set(deployment.registry.digests())
        ok = True
        for result, digests in zip(report.domain_results, logged):
            if any(digest and digest not in published for digest in digests):
                ok = False
                report.evidence.append(AttestationFailureEvidence(
                    kind="unpublished-code",
                    description=(
                        f"domain {result.domain_id} ran code whose source was never published"
                    ),
                    domain_id=result.domain_id,
                    response={},
                    expected_measurement_digest=self.expected_measurement.digest,
                    failure_reason="digest missing from release registry",
                ))
        return ok
