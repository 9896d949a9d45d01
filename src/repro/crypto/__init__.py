"""Cryptographic substrate for the distributed-trust bootstrapping framework.

The framework in the paper depends on several cryptographic primitives:

* hashing and hash chains for code digests and per-TEE append-only logs,
* Merkle trees for the CT-style transparency log,
* digital signatures for developer code updates and simulated hardware
  attestation (Schnorr and ECDSA over secp256k1),
* Shamir secret sharing for the motivating secret-key-backup application,
  and Feldman verifiable secret sharing, which no application deals with
  (the DKG deals verifiable sharings with its own G2 commitments),
* BLS threshold signatures for the evaluated custody application (over a
  simulated bilinear group — see :mod:`repro.crypto.bilinear`).

Every primitive here is implemented from scratch on top of the Python standard
library; nothing requires third-party packages.
"""

from repro.crypto.field import PrimeField, FieldElement
from repro.crypto.hashes import sha256, sha256_hex, hkdf_extract, hkdf_expand, hash_to_int
from repro.crypto.secp256k1 import Secp256k1, Point, SECP256K1
from repro.crypto.keys import SigningKey, VerifyingKey, generate_keypair
from repro.crypto.schnorr import schnorr_sign, schnorr_verify, SchnorrSignature
from repro.crypto.ecdsa import ecdsa_sign, ecdsa_verify, EcdsaSignature
from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.crypto.feldman import FeldmanVSS, FeldmanShare
from repro.crypto.bilinear import BilinearGroup, G1Element, G2Element, GTElement
from repro.crypto.bls import (
    BlsKeyPair,
    BlsSignature,
    BlsThresholdScheme,
    bls_keygen,
    bls_sign,
    bls_verify,
    bls_aggregate,
)
from repro.crypto.merkle import MerkleTree, InclusionProof, ConsistencyProof
from repro.crypto.hashchain import HashChain, ChainEntry
from repro.crypto.dkg import DistributedKeyGeneration, DkgParticipant

__all__ = [
    "PrimeField",
    "FieldElement",
    "sha256",
    "sha256_hex",
    "hkdf_extract",
    "hkdf_expand",
    "hash_to_int",
    "Secp256k1",
    "Point",
    "SECP256K1",
    "SigningKey",
    "VerifyingKey",
    "generate_keypair",
    "schnorr_sign",
    "schnorr_verify",
    "SchnorrSignature",
    "ecdsa_sign",
    "ecdsa_verify",
    "EcdsaSignature",
    "ShamirSecretSharing",
    "Share",
    "FeldmanVSS",
    "FeldmanShare",
    "BilinearGroup",
    "G1Element",
    "G2Element",
    "GTElement",
    "BlsKeyPair",
    "BlsSignature",
    "BlsThresholdScheme",
    "bls_keygen",
    "bls_sign",
    "bls_verify",
    "bls_aggregate",
    "MerkleTree",
    "InclusionProof",
    "ConsistencyProof",
    "HashChain",
    "ChainEntry",
    "DistributedKeyGeneration",
    "DkgParticipant",
]
