"""Known-answer pins for the deterministic crypto surface.

A deployed Waffle's storage ids are PRF outputs and its values are
AES-256-GCM blobs; if an implementation change silently altered either,
every outsourced object would become unreachable on upgrade.  These pins
make such a change an explicit, reviewed decision instead of an accident.

The cipher is held to the GCM specification's own vectors (McGrew and
Viega, "The Galois/Counter Mode of Operation", test cases 13 and 14),
fed through :class:`AuthenticatedCipher` with a fixed-nonce rng.  The
batched PRF is additionally held byte-identical to the scalar seed
implementation preserved in :mod:`repro.sim.perf`.
"""

import random

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import KeyChain
from repro.crypto.prf import Prf
from repro.sim.perf import ScalarPrf


class _ZeroNonces:
    """Nonce source of the GCM spec's test cases: the all-zero 96-bit IV."""

    def randbytes(self, n: int) -> bytes:
        return bytes(n)


class TestPrfKnownAnswers:
    def test_fixed_secret_fixed_outputs(self):
        prf = Prf(b"known-answer-secret")
        assert prf.derive("user00000001", 0) == \
            "15837b7ce3ddd5e6b367bd71710e10c0"
        assert prf.derive("user00000001", 12345) == \
            "b1956db0690058fe907518f49165bf3a"

    def test_keychain_derivation_stable(self):
        chain = KeyChain.from_seed(42)
        assert chain.prf.derive("k", 7) == \
            "2aafb921b688174b8980ee288bb9fd3f"

    def test_ciphertext_layout_stable(self):
        """Nonce(12) + body + tag(16): layout changes break stored data."""
        chain = KeyChain.from_seed(42)
        blob = chain.cipher.encrypt(b"fixed")
        assert len(blob) == 12 + 5 + 16
        assert chain.cipher.ciphertext_overhead() == 28

    def test_decryption_of_archived_ciphertext(self):
        """A blob archived from ``KeyChain.from_seed(777)`` decrypts under
        a freshly constructed chain with the same seed (cross-process
        durability of outsourced values)."""
        blob = bytes.fromhex(
            "83a3b53a28d7227237971272"            # nonce
            "565847f9276769ec2e474d0ebfc4"        # ciphertext
            "75bc122529b7904d72b92a39e4f5e843")   # tag
        fresh = KeyChain.from_seed(777)
        assert fresh.cipher.decrypt(blob) == b"archived-value"


class TestGcmSpecVectors:
    """AES-256-GCM test cases 13 and 14: zero key, zero 96-bit IV."""

    def _cipher(self) -> AuthenticatedCipher:
        return AuthenticatedCipher(bytes(32), rng=_ZeroNonces())

    def test_case_13_empty_plaintext(self):
        cipher = self._cipher()
        blob = cipher.encrypt(b"")
        assert blob.hex() == (
            "000000000000000000000000"            # nonce (zero IV)
            "530f8afbc74536b9a963b4f1c4cb738b")   # tag
        assert cipher.decrypt(blob) == b""

    def test_case_14_one_zero_block(self):
        cipher = self._cipher()
        blob = cipher.encrypt(bytes(16))
        assert blob.hex() == (
            "000000000000000000000000"            # nonce (zero IV)
            "cea7403d4d606b6e074ec5d3baf39d18"    # ciphertext
            "d0d1c8a799996bf0265b98b5d48ab919")   # tag
        assert cipher.decrypt(blob) == bytes(16)

    def test_batched_paths_match_the_vectors(self):
        cipher = self._cipher()
        blobs = cipher.encrypt_many([b"", bytes(16)])
        assert [blob[12:].hex() for blob in blobs] == [
            "530f8afbc74536b9a963b4f1c4cb738b",
            "cea7403d4d606b6e074ec5d3baf39d18"
            "d0d1c8a799996bf0265b98b5d48ab919"]
        assert cipher.decrypt_many(blobs) == [b"", bytes(16)]


#: Plaintext shapes: empty, below one AES block, exactly one block,
#: block-aligned, and ragged tails.
_SHAPE_VECTORS = [b"", b"x", b"short", b"a" * 15, b"b" * 16, b"c" * 17,
                  b"d" * 64, b"e" * 100, b"f" * 1024, bytes(range(256)) * 5]


class TestScalarBatchedEquivalence:
    """Batched kernels vs their single-call forms and the scalar PRF."""

    def test_prf_paths_agree_on_fixed_vectors(self):
        secret = b"known-answer-secret"
        scalar, batched = ScalarPrf(secret), Prf(secret)
        pairs = [("user00000001", 0), ("user00000001", 12345), ("k", 7),
                 ("", 0), ("key-with-\x00-byte", 2**31)]
        for key, ts in pairs:
            assert scalar.derive(key, ts) == batched.derive(key, ts)
        assert batched.derive_many(pairs) == [
            batched.derive(key, ts) for key, ts in pairs]
        assert scalar.derive_many(pairs) == batched.derive_many(pairs)
        # Raw-bytes subkey derivation is pinned too (keychain depends on it).
        assert scalar.derive_bytes(b"label") == batched.derive_bytes(b"label")

    def test_prf_pins_unchanged_by_fast_path(self):
        assert Prf(b"known-answer-secret").derive("user00000001", 0) == \
            "15837b7ce3ddd5e6b367bd71710e10c0"
        assert ScalarPrf(b"known-answer-secret").derive("user00000001", 0) == \
            "15837b7ce3ddd5e6b367bd71710e10c0"

    def test_aead_many_equals_looped_single(self):
        """Under one seeded rng, the batch draws its nonces in the order
        looped single calls would, so the blobs are byte-identical."""
        key = b"ka-key".ljust(32, b".")
        looped = AuthenticatedCipher(key, rng=random.Random(7))
        many = AuthenticatedCipher(key, rng=random.Random(7))
        split = AuthenticatedCipher(key, rng=random.Random(7))
        expected = [looped.encrypt(plaintext) for plaintext in _SHAPE_VECTORS]
        blobs = many.encrypt_many(_SHAPE_VECTORS)
        assert blobs == expected
        assert split.encrypt_with_nonces(
            _SHAPE_VECTORS, split.draw_nonces(len(_SHAPE_VECTORS))) == expected
        assert many.decrypt_many(blobs) == _SHAPE_VECTORS

    def test_aead_ciphertext_pin(self):
        """Full blob bytes from ``KeyChain.from_seed`` under a fixed nonce
        rng: a change to the key derivation, the nonce layout or the
        cipher breaks decryption of already-stored data."""
        chain = KeyChain.from_seed(42, rng=random.Random(0))
        assert chain.cipher.encrypt(b"fixed").hex() == (
            "cd072cd8be6f9f62ac4c09c2"            # nonce (random.Random(0))
            "edc83c336c"                          # ciphertext
            "27bc42fb3160afa503244dd3bed74c15")   # tag
