"""Cryptographic substrate: PRFs, authenticated encryption, key management.

Waffle (§3.1) encodes every plaintext key ``k`` as ``prf(k, ts_k)`` — a
pseudo-random function of the key and its current access timestamp — and
encrypts values with an authenticated symmetric scheme ``E(v)``.  The PRF
is HMAC-SHA256 from the standard library (:mod:`hmac`/:mod:`hashlib`);
the value cipher is AES-256-GCM from the ``cryptography`` package.  The
protocol relies on determinism of the PRF, pseudo-randomness across
distinct inputs, randomized ciphertexts and tamper detection.
"""

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import KeyChain
from repro.crypto.prf import Prf

__all__ = [
    "AuthenticatedCipher",
    "KeyChain",
    "Prf",
]
