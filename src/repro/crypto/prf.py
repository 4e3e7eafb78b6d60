"""Pseudo-random function used to derive storage identifiers.

Waffle derives the storage identifier of a plaintext key ``k`` as
``prf(k || ts)`` where ``ts`` is the key's access timestamp (§5).  The PRF
must be deterministic for equal inputs and indistinguishable from random
across distinct inputs; HMAC-SHA256 under a secret key satisfies both.

Storage identifiers are rendered as fixed-width hex strings so that every
identifier has identical length — the server learns nothing from id sizes.

Hot path: every batch round derives ``2B`` identifiers (B reads + B
writes), so the naive ``hmac.new(secret, msg)`` per call — which re-keys
the HMAC inner/outer pads every time — is measurable.  The keyed digest
state is instead computed once at construction and ``.copy()``-ed per
derivation, and :meth:`derive_many` amortizes the remaining per-call
dispatch across a whole batch.  Outputs are bit-identical to the naive
form (``hmac.copy`` resumes the exact same state), which the known-answer
tests pin.
"""

from __future__ import annotations

import hmac
import hashlib
import time
from typing import Iterable

from repro.obs import OBS

__all__ = ["Prf"]

#: Number of hex characters kept from the HMAC output.  128 bits is far
#: beyond birthday-collision range for any dataset this library handles.
_DIGEST_HEX_LEN = 32


class Prf:
    """Keyed pseudo-random function ``(key, timestamp) -> storage id``.

    Parameters
    ----------
    secret:
        The PRF secret.  Two instances built from equal secrets produce
        identical outputs, which lets tests replay derivations.
    """

    __slots__ = ("_secret", "_keyed")

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise ValueError("PRF secret must be non-empty")
        self._secret = bytes(secret)
        # Keyed-but-empty HMAC state: copying it restores the state right
        # after the inner pad was absorbed, skipping the re-keying work.
        self._keyed = hmac.new(self._secret, None, hashlib.sha256)

    def derive(self, key: str, timestamp: int) -> str:
        """Return the storage identifier for ``key`` at ``timestamp``.

        The timestamp is folded into the HMAC input with an unambiguous
        separator so that ``("k1", 2)`` and ("k12", ...) style prefix
        collisions cannot produce equal inputs.
        """
        mac = self._keyed.copy()
        mac.update(key.encode("utf-8") + b"\x00" + str(int(timestamp)).encode())
        return mac.hexdigest()[:_DIGEST_HEX_LEN]

    def derive_many(self, pairs: Iterable[tuple[str, int]]) -> list[str]:
        """Batched :meth:`derive` over ``(key, timestamp)`` pairs.

        Output ``i`` equals ``derive(*pairs[i])`` exactly; the batch form
        only hoists attribute lookups out of the per-item loop.
        """
        if OBS.enabled:
            start = time.perf_counter()
            out = self._derive_many(pairs)
            OBS.observe_kernel("prf.derive_many",
                               time.perf_counter() - start, len(out))
            return out
        return self._derive_many(pairs)

    def _derive_many(self, pairs: Iterable[tuple[str, int]]) -> list[str]:
        keyed = self._keyed
        cut = _DIGEST_HEX_LEN
        out = []
        append = out.append
        for key, timestamp in pairs:
            mac = keyed.copy()
            mac.update(key.encode("utf-8") + b"\x00" + str(int(timestamp)).encode())
            append(mac.hexdigest()[:cut])
        return out

    def __getstate__(self) -> bytes:
        # The cached HMAC state is a C object and cannot pickle; the
        # secret fully determines it (checkpoint shipping, ha/).
        return self._secret

    def __setstate__(self, state: bytes) -> None:
        self.__init__(state)

    def derive_bytes(self, data: bytes) -> bytes:
        """Raw HMAC over arbitrary bytes; used for subkey derivation."""
        mac = self._keyed.copy()
        mac.update(data)
        return mac.digest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Prf(secret=<{len(self._secret)} bytes>)"
