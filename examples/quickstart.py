#!/usr/bin/env python3
"""Quickstart: declare an auditable distributed-trust service in ~40 lines.

The flow mirrors the paper end to end, on the unified service plane:

1. the developer *declares* the service — application package, trust domains
   per shard, shard count — as a `ServiceSpec`,
2. `synthesize()` derives the attested deployment replica set: heterogeneous
   (simulated) secure hardware, the release published to a source registry
   and CT-style log, the signed update installed everywhere,
3. a client opens a `ServiceClient` session, audits the whole fleet —
   attestation, digest logs, release log — and only then uses the
   application, with requests routed to shards by consistent hashing.

Run with:  PYTHONPATH=src python examples/quickstart.py
"""

from repro.core.package import CodePackage, DeveloperIdentity
from repro.crypto.bilinear import BLS_SCALAR_ORDER
from repro.net.eventloop import drive
from repro.sandbox.programs import bls_share_source
from repro.service import PackageBinding, ServiceClient, ServiceSpec


def main() -> None:
    # --- developer side: requirements in, configuration out ------------------
    developer = DeveloperIdentity("quickstart-developer")
    spec = ServiceSpec(
        name="quickstart",
        packages=(PackageBinding(CodePackage(
            name="bls-custody", version="1.0.0", language="wvm",
            source=bls_share_source(),
        )),),
        domains_per_shard=3,  # domain 0 = developer, 1 = Nitro-style, 2 = SGX-style
        shard_count=2,        # two attested replica sets carry the keyspace
    )
    plane = spec.synthesize(developer)
    for shard in plane.shards:
        print(f"Shard {shard.name}:",
              {d.domain_id: d.hardware_type.value for d in shard.domains})

    # --- client side: one session audits and uses the whole fleet ------------
    session = ServiceClient(plane, audit_policy="once")
    reports = session.audit()
    print(f"Audit passed on {len(reports)} shards "
          f"({sum(1 for rep in reports for r in rep.domain_results if r.attested)} "
          f"attested domains)")

    # --- use the application: requests route to shards by key ----------------
    message = b"hello, distributed trust"
    message_int = int.from_bytes(message, "big")
    shard_index = plane.shard_for(message)
    results = drive(session.scatter_wave([
        (message, domain_index, "bls_share",
         [message_int, len(message), 123456789, BLS_SCALAR_ORDER])
        for domain_index in range(plane.domains_per_shard)
    ]))
    values = {r["value"] for r in results}
    print(f"Key {message!r} routed to shard {shard_index}; "
          f"all {len(results)} of its trust domains computed the same "
          f"signature share: {len(values) == 1}")


if __name__ == "__main__":
    main()
