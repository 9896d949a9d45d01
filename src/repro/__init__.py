"""repro — reproduction of *Reflections on trusting distributed trust* (HotNets '22).

The package implements the paper's auditable bootstrapping framework for
distributed-trust systems, together with every substrate it depends on:

* :mod:`repro.crypto` — finite fields, secp256k1, Schnorr/ECDSA, Shamir secret
  sharing, a dealerless DKG, a simulated bilinear group, BLS (threshold)
  signatures, Merkle trees, and hash chains.
* :mod:`repro.wire` / :mod:`repro.net` — canonical binary encoding, a simulated
  network with latency models, an RPC layer, and a vsock-style proxy.
* :mod:`repro.enclave` — simulated trusted execution environments (Nitro-style
  attestation documents, SGX-style quotes), vendor certificate chains, sealing,
  and fault injection.
* :mod:`repro.sandbox` — a from-scratch stack-based bytecode VM with fuel and
  memory metering, plus a restricted Python sandbox and a native baseline.
* :mod:`repro.transparency` — append-only hash-chain logs, a Merkle CT-style
  log with inclusion/consistency proofs, gossip, and monitors.
* :mod:`repro.core` — the application-independent framework, signed code
  updates, trust domains, deployment orchestration, auditing clients,
  third-party auditors, and misbehavior evidence.
* :mod:`repro.apps` — secret-key backup, BLS threshold signing custody,
  Prio-style private aggregation, and ODoH-style oblivious DNS built on the
  public API.
"""

from repro.version import __version__

__all__ = ["__version__"]
