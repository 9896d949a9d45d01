"""Adversary scenarios from the paper's threat model.

Two attacks recur throughout the paper's argument:

* **Developer credential compromise** (Figure 1): the attacker controls the
  application developer's cloud credentials and machines. Against the
  strawman ("developer rents VMs on several clouds") this recovers every
  user's secret; against the framework it only reaches trust domain 0 and any
  signing capability the developer retained.
* **Vendor-wide TEE exploit** (§1, §3.2): one secure-hardware technology
  falls; heterogeneous deployments confine the damage.

TEEs fall by :meth:`VendorExploit.exploit` (every enclave of one vendor) or
one at a time (:meth:`~repro.core.trust_domain.TrustDomain.compromise`, which
the scenario engine's ``CompromiseDomain`` event calls). What the attacker can
then read is answered once, by :func:`attacker_reach`: per shard, the
developer-run domain plus every breached enclave, with the values read there.
:class:`DeveloperCompromise`, the scenario drivers' secrecy invariants and
the examples all ask it, so a check judges every shard, not just the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deployment import Deployment

__all__ = ["attacker_reach", "DeveloperCompromise", "VendorExploit"]


@dataclass
class CompromiseOutcome:
    """What an attack attempt against a deployment yielded."""

    domains_breached: list[str] = field(default_factory=list)
    domains_resisted: list[str] = field(default_factory=list)
    extracted_values: dict = field(default_factory=dict)

    @property
    def breached_count(self) -> int:
        """Number of trust domains whose application memory the attacker read."""
        return len(self.domains_breached)


def attacker_reach(target, keys=()) -> list[CompromiseOutcome]:
    """What a developer-credential attacker plus every fallen TEE can read.

    ``target`` is a service plane (one outcome per shard, in shard order) or
    a single deployment (one outcome). The attacker reads the developer-run
    domain's application state and ``keys`` from every breached enclave: a
    key is read from the enclave's memory, or, when not there, from the
    state of the sandboxed application running inside it. Every intact
    enclave resists.
    """
    outcomes = []
    for shard in getattr(target, "shards", [target]):
        outcome = CompromiseOutcome()
        for domain in shard.domains:
            if domain.enclave is None:
                # Developer-administered machine: full memory access.
                outcome.domains_breached.append(domain.domain_id)
                state = domain.framework.application_state()
                if state is not None:
                    outcome.extracted_values[domain.domain_id] = state
            elif domain.enclave.memory.isolated:
                outcome.domains_resisted.append(domain.domain_id)
            else:
                # A TEE exploit defeated the isolation; the developer's host
                # access now reads enclave memory, the sandboxed app's state
                # inside it included.
                outcome.domains_breached.append(domain.domain_id)
                state = domain.framework.application_state() or {}
                values = {}
                for key in keys:
                    value = domain.enclave.memory.host_read(key)
                    values[key] = value if value is not None else state.get(key)
                outcome.extracted_values[domain.domain_id] = values
        outcomes.append(outcome)
    return outcomes


class DeveloperCompromise:
    """An attacker holding the application developer's credentials.

    The attacker can log into machines the developer administers (trust domain
    0 and, in the strawman deployment, every VM) and read process memory
    there. It cannot read memory inside intact enclaves it does not have an
    exploit for. ``target`` is a deployment or a service plane; on a plane the
    attacker's best shard decides.
    """

    def __init__(self, target):
        self.target = target

    def attempt_memory_extraction(self, keys: list[str]) -> CompromiseOutcome:
        """Try to read application memory (``keys``) in every trust domain;
        returns the outcome on the shard where the attacker reads the most."""
        return max(attacker_reach(self.target, keys),
                   key=lambda outcome: outcome.breached_count)

    def can_recover_secret(self, threshold: int) -> bool:
        """Whether the attacker breached enough domains to defeat a t-of-n secret."""
        outcome = self.attempt_memory_extraction(keys=[])
        return outcome.breached_count >= threshold


class VendorExploit:
    """An attacker with an exploit for one secure-hardware vendor."""

    def __init__(self, deployment: Deployment):
        self.deployment = deployment

    def exploit(self, vendor_name: str) -> CompromiseOutcome:
        """Compromise every enclave built on ``vendor_name`` hardware.

        This is the correlated-failure case: one vendor-level exploit takes
        down every trust domain using that vendor. The outcome lists the
        enclaves that fell and those on other vendors that did not.
        """
        outcome = CompromiseOutcome()
        for domain in self.deployment.domains:
            enclave = domain.enclave
            if enclave is None:
                continue
            if enclave.vendor.name == vendor_name:
                enclave.mark_compromised()
                enclave.vendor.mark_compromised()
                outcome.domains_breached.append(enclave.enclave_id)
            else:
                outcome.domains_resisted.append(enclave.enclave_id)
        return outcome

    def defeats_application(self, vendor_name: str, honest_required: int) -> bool:
        """Whether exploiting one vendor leaves fewer than ``honest_required``
        honest domains: the developer-run ones, which a TEE exploit does not
        reach, plus every enclave still intact (one that fell earlier, on any
        vendor, is not honest either)."""
        self.exploit(vendor_name)
        (reach,) = attacker_reach(self.deployment)
        developer_run = sum(domain.enclave is None for domain in self.deployment.domains)
        return developer_run + len(reach.domains_resisted) < honest_required
