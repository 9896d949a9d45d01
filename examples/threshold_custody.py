#!/usr/bin/env python3
"""Financial custody with BLS threshold signing (the paper's §5 application).

Three signer domains hold shares of a BLS signing key; any two produce a
signature on a withdrawal. We also exploit one secure-hardware vendor and show
that the heterogeneous deployment still has enough honest domains to operate,
while a homogeneous deployment would not. Exits 1 if the exploit leaves fewer
honest signers than the threshold or the recovery signature does not verify.

Run with:  python examples/threshold_custody.py
"""

import sys

from repro.apps.threshold_sign import CustodyClient, CustodyDeployment
from repro.sim.adversary import VendorExploit, attacker_reach


def main() -> int:
    service = CustodyDeployment(threshold=2, num_signers=3, keygen_seed=b"example-custody")
    client = CustodyClient(service)

    print(f"Custody deployment: {service.deployment.hardware_census()}")
    print(f"Group public key: {service.group_public_key.to_bytes().hex()[:32]}...")

    transaction = client.sign_transaction(b"withdraw 3.5 BTC to bc1q...")
    print(f"Signed by domains {transaction.signer_indices}; "
          f"signature verifies: {client.verify(transaction)}")

    other = client.sign_transaction(b"withdraw 3.5 BTC to bc1q...", signer_indices=[2, 3])
    print(f"A different signer subset produces the identical signature: "
          f"{other.signature == transaction.signature}")

    print("\n--- simulating an exploit against one secure-hardware vendor ---")
    exploit = VendorExploit(service.deployment)
    outcome = exploit.exploit("intel-sgx-sim")
    print(f"Compromised enclaves: {outcome.domains_breached}")
    print(f"Unaffected enclaves:  {outcome.domains_resisted}")

    post_incident_audit = client.auditing_client.audit_deployment(service.deployment)
    print(f"Client audit after the exploit passes: {post_incident_audit.ok} "
          f"(failed domains: {[r.domain_id for r in post_incident_audit.failures()]})")

    # The signers are the enclave domains; each one the attacker cannot read
    # is honest.
    (reach,) = attacker_reach(service.deployment)
    survivors = [i for i, domain in enumerate(service.deployment.domains)
                 if domain.domain_id in reach.domains_resisted]
    print(f"Honest signer domains remaining: {survivors} "
          f"(threshold {service.threshold})")
    if len(survivors) < service.threshold:
        print("A single-vendor exploit left too few honest signers to operate.")
        return 1
    incident_client = CustodyClient(service, audit_before_use=False)
    recovery = incident_client.sign_transaction(
        b"rotate keys after incident", signer_indices=survivors[: service.threshold]
    )
    if not incident_client.verify(recovery):
        print("The honest signers' recovery signature does not verify.")
        return 1
    print("Custody still operational on heterogeneous hardware ✔")
    return 0


if __name__ == "__main__":
    sys.exit(main())
