"""Authenticated encryption of values: AES-256-GCM.

Waffle's proxy needs two properties from the value cipher ``E(v)``
(§3.1): randomized ciphertexts, so that re-encrypting a value yields a
fresh blob and written-back objects are unlinkable, and tamper
detection.  AES-256-GCM from the ``cryptography`` package gives both at
a few microseconds per KiB (AES-NI and carry-less multiply under
OpenSSL).

Layout: ``nonce(12) || ciphertext || tag(16)``, so every blob is the
plaintext length plus :data:`OVERHEAD` (28) bytes and ciphertext length
depends only on plaintext length, matching the paper's
equal-length-values assumption.  Each value gets a fresh 96-bit nonce
from :func:`os.urandom`; a caller-supplied ``rng`` replaces that source
for deterministic tests only.  A random 96-bit nonce stays within
NIST SP 800-38D's collision bound for 2^32 encryptions under one key.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Protocol, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.errors import IntegrityError
from repro.obs import OBS

__all__ = ["AuthenticatedCipher", "NONCE_LEN", "RandomSource"]


class RandomSource(Protocol):
    """Nonce entropy source: anything with ``random.Random``'s ``randbytes``."""

    def randbytes(self, n: int) -> bytes: ...

KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16
OVERHEAD = NONCE_LEN + TAG_LEN


class AuthenticatedCipher:
    """AES-256-GCM value cipher.

    Parameters
    ----------
    key:
        The 32-byte AES-256 key.
    rng:
        Optional ``random.Random``-like object with ``randbytes``;
        supplied by tests for deterministic nonces.  Defaults to
        ``os.urandom``.
    """

    __slots__ = ("_key", "_randbytes", "_aead")

    def __init__(self, key: bytes, rng: RandomSource | None = None) -> None:
        if len(key) != KEY_LEN:
            raise ValueError(f"cipher key must be {KEY_LEN} bytes")
        self._key = bytes(key)
        self._randbytes: Callable[[int], bytes] = (
            rng.randbytes if rng is not None else os.urandom)
        self._aead = AESGCM(self._key)

    def __getstate__(self) -> tuple[bytes, Callable[[int], bytes]]:
        # The AESGCM context is a native object and cannot pickle; the
        # key fully determines it (checkpoint shipping, ha/).
        return self._key, self._randbytes

    def __setstate__(self, state: tuple[bytes, Callable[[int], bytes]]) -> None:
        self._key, self._randbytes = state
        self._aead = AESGCM(self._key)

    def encrypt(self, plaintext: bytes) -> bytes:
        """Return ``nonce || ciphertext || tag`` for ``plaintext``."""
        nonce = self._randbytes(NONCE_LEN)
        return nonce + self._aead.encrypt(nonce, plaintext, None)

    def decrypt(self, blob: bytes) -> bytes:
        """Verify and decrypt ``blob``; raise :class:`IntegrityError` on tamper."""
        if len(blob) < OVERHEAD:
            raise IntegrityError("ciphertext too short")
        try:
            return self._aead.decrypt(blob[:NONCE_LEN], blob[NONCE_LEN:], None)
        except InvalidTag:
            raise IntegrityError("authentication tag mismatch") from None

    def encrypt_many(self, plaintexts: Iterable[bytes]) -> list[bytes]:
        """Batched :meth:`encrypt`; blob ``i`` encrypts ``plaintexts[i]``.

        Nonces are drawn in one call, in input order; under a
        ``random.Random`` rng the batch form is byte-identical to looping
        :meth:`encrypt` (``randbytes`` output concatenates across calls
        whose lengths are multiples of four).
        """
        items = list(plaintexts)
        if OBS.enabled:
            start = time.perf_counter()
            out = self.encrypt_with_nonces(items, self.draw_nonces(len(items)))
            OBS.observe_kernel("aead.encrypt_many",
                               time.perf_counter() - start, len(out))
            return out
        return self.encrypt_with_nonces(items, self.draw_nonces(len(items)))

    def draw_nonces(self, count: int) -> list[bytes]:
        """Draw ``count`` nonces from this cipher's source, in order.

        Split out of :meth:`encrypt_many` for the parallel engine: the
        coordinator draws all nonces serially and ships them to workers
        alongside the plaintexts.
        """
        block = self._randbytes(NONCE_LEN * count)
        return [block[i:i + NONCE_LEN]
                for i in range(0, NONCE_LEN * count, NONCE_LEN)]

    def encrypt_with_nonces(self, plaintexts: Sequence[bytes],
                            nonces: Sequence[bytes]) -> list[bytes]:
        """Batched encryption under caller-supplied nonces.

        ``encrypt_with_nonces(pts, draw_nonces(len(pts)))`` is
        :meth:`encrypt_many` on ``pts``; the split lets the nonce draws
        happen on a coordinating thread while the AES work runs on pool
        workers.
        """
        if len(plaintexts) != len(nonces):
            raise ValueError("plaintexts and nonces must pair up")
        seal = self._aead.encrypt
        out: list[bytes] = []
        append = out.append
        for plaintext, nonce in zip(plaintexts, nonces):
            if len(nonce) != NONCE_LEN:
                raise ValueError(f"nonces must be {NONCE_LEN} bytes")
            append(nonce + seal(nonce, plaintext, None))
        return out

    def decrypt_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        """Batched :meth:`decrypt`; raises on the first tampered blob."""
        if OBS.enabled:
            start = time.perf_counter()
            out = self._decrypt_many(blobs)
            OBS.observe_kernel("aead.decrypt_many",
                               time.perf_counter() - start, len(out))
            return out
        return self._decrypt_many(blobs)

    def _decrypt_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        open_ = self._aead.decrypt
        out: list[bytes] = []
        append = out.append
        try:
            for blob in blobs:
                if len(blob) < OVERHEAD:
                    raise IntegrityError("ciphertext too short")
                append(open_(blob[:NONCE_LEN], blob[NONCE_LEN:], None))
        except InvalidTag:
            raise IntegrityError("authentication tag mismatch") from None
        return out

    def ciphertext_overhead(self) -> int:
        """Bytes added to every plaintext (nonce + tag)."""
        return OVERHEAD
