"""Key management for the trusted proxy.

The proxy owns all secrets (§3.1): the PRF key that derives storage ids and
the key of the value cipher.  :class:`KeyChain` derives both from one
master secret with domain-separated HMAC so a single seed reproduces an
entire deployment — important for deterministic tests and for replaying
experiments.
"""

from __future__ import annotations

import hmac
import hashlib
import os

from repro.crypto.aead import AuthenticatedCipher, RandomSource
from repro.crypto.prf import Prf

__all__ = ["KeyChain"]


def _derive(master: bytes, label: bytes) -> bytes:
    return hmac.new(master, b"repro.keychain/" + label, hashlib.sha256).digest()


class KeyChain:
    """Derives every proxy secret from a single master key.

    Parameters
    ----------
    master:
        Master secret.  ``None`` draws a fresh random secret.
    rng:
        Optional deterministic nonce source for the value cipher (tests).
    """

    __slots__ = ("_master", "prf", "cipher")

    def __init__(self, master: bytes | None = None,
                 rng: RandomSource | None = None) -> None:
        self._master = bytes(master) if master is not None else os.urandom(32)
        if not self._master:
            raise ValueError("master key must be non-empty")
        self.prf = Prf(_derive(self._master, b"prf"))
        self.cipher = AuthenticatedCipher(
            _derive(self._master, b"aes-256-gcm"), rng=rng)

    @classmethod
    def from_seed(cls, seed: int,
                  rng: RandomSource | None = None) -> "KeyChain":
        """Deterministic keychain for reproducible experiments."""
        return cls(seed.to_bytes(16, "big", signed=True), rng=rng)

    def seal_many(self, pairs: list[tuple[str, int]],
                  values: list[bytes]) -> tuple[list[str], list[bytes]]:
        """Derive storage ids for ``pairs`` and encrypt ``values``.

        The proxy's write phase funnels through this single entry point
        so that alternative kernel sets (scalar references, pooled
        parallel kernels) slot in by swapping ``prf``/``cipher`` without
        touching the protocol code.  Output order matches input order;
        nonce draws happen in ``values`` order, exactly as separate
        ``derive_many`` + ``encrypt_many`` calls would.
        """
        return self.prf.derive_many(pairs), self.cipher.encrypt_many(values)
