#!/usr/bin/env python3
"""Figure 1 scenario: secret-key backup that survives developer compromise.

A user backs up a wallet key across three trust domains (Shamir 2-of-3). We
then simulate the paper's Figure 1 attack — the application developer's
credentials are stolen — and show that the attacker can read at most the one
share on the developer's own machine, which is not enough to recover the key.

Run with:  python examples/key_backup.py
"""

import secrets

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.sim.adversary import DeveloperCompromise


def main() -> None:
    service = KeyBackupDeployment(num_domains=3, threshold=2)
    client = KeyBackupClient(service)

    wallet_key = secrets.randbits(256)
    print(f"User wallet key:          {wallet_key:#066x}")

    receipt = client.backup_key("alice", wallet_key)
    print(f"Backed up across {receipt.num_domains} trust domains "
          f"(any {receipt.threshold} recover it)")

    recovered = client.recover_key("alice")
    print(f"Recovered by the user:    {recovered:#066x}  (match: {recovered == wallet_key})")

    print("\n--- simulating a compromised application developer (Figure 1) ---")
    outcome = DeveloperCompromise(service.plane).attempt_memory_extraction(keys=["shares"])
    key_recoverable = outcome.breached_count >= receipt.threshold
    print(f"Domains the attacker could read: {outcome.domains_breached}")
    print(f"Domains that resisted:           {outcome.domains_resisted}")
    print(f"Shares recoverable by attacker:  {outcome.breached_count} "
          f"of {receipt.threshold} needed")
    print(f"Attacker recovers the key:       {key_recoverable}")

    assert not key_recoverable, "the framework should have prevented this"
    print("\nA compromised developer cannot access the user's secret key. ✔")


if __name__ == "__main__":
    main()
