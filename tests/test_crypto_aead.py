"""Unit and property tests for the AES-256-GCM value cipher."""

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aead import AuthenticatedCipher
from repro.errors import IntegrityError


@pytest.fixture
def cipher() -> AuthenticatedCipher:
    return AuthenticatedCipher(b"k" * 32)


def _key(label: bytes) -> bytes:
    return label.ljust(32, b".")


class TestAeadBasics:
    def test_roundtrip(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"hello world")) == b"hello world"

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_randomized_ciphertexts(self, cipher):
        # Re-encrypting a value must produce a fresh, unlinkable blob —
        # Waffle writes evicted objects back re-encrypted.
        assert cipher.encrypt(b"same") != cipher.encrypt(b"same")

    def test_length_depends_only_on_plaintext_length(self, cipher):
        a = cipher.encrypt(b"a" * 100)
        b = cipher.encrypt(b"b" * 100)
        assert len(a) == len(b)
        assert len(a) == 100 + cipher.ciphertext_overhead()

    def test_tamper_detection_nonce(self, cipher):
        blob = bytearray(cipher.encrypt(b"sensitive"))
        blob[0] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(blob))

    def test_tamper_detection_body(self, cipher):
        blob = bytearray(cipher.encrypt(b"sensitive"))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(blob))

    def test_tamper_detection_tag(self, cipher):
        blob = bytearray(cipher.encrypt(b"sensitive"))
        blob[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(blob))

    def test_truncated_blob_rejected(self, cipher):
        with pytest.raises(IntegrityError):
            cipher.decrypt(b"short")
        blob = cipher.encrypt(b"sensitive")
        for cut in (1, 16, len(blob) - cipher.ciphertext_overhead()):
            with pytest.raises(IntegrityError):
                cipher.decrypt(blob[:-cut])

    def test_key_length_must_be_256_bits(self):
        for size in (16, 24, 31, 33):
            with pytest.raises(ValueError):
                AuthenticatedCipher(b"k" * size)

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            AuthenticatedCipher(b"")

    def test_cross_cipher_rejection(self, cipher):
        other = AuthenticatedCipher(b"o" * 32)
        with pytest.raises(IntegrityError):
            other.decrypt(cipher.encrypt(b"data"))

    def test_pickle_round_trip_keeps_nonce_stream(self):
        """Checkpoints pickle the key and the nonce source; a restored
        cipher decrypts old blobs and continues the same nonce stream."""
        cipher = AuthenticatedCipher(_key(b"pk"), rng=random.Random(5))
        old = cipher.encrypt(b"old")
        clone = pickle.loads(pickle.dumps(cipher))
        assert clone.decrypt(old) == b"old"
        assert clone.encrypt(b"v") == cipher.encrypt(b"v")


class TestAeadBatched:
    def test_encrypt_many_empty_batch(self, cipher):
        assert cipher.encrypt_many([]) == []
        assert cipher.decrypt_many([]) == []

    def test_decrypt_many_rejects_short_blob(self, cipher):
        with pytest.raises(IntegrityError):
            cipher.decrypt_many([cipher.encrypt(b"ok"), b"short"])

    def test_decrypt_many_rejects_tampered_member(self, cipher):
        blobs = cipher.encrypt_many([b"a" * 64, b"b" * 64, b"c" * 64])
        blobs[1] = blobs[1][:-1] + bytes([blobs[1][-1] ^ 0x01])
        with pytest.raises(IntegrityError):
            cipher.decrypt_many(blobs)


class TestAeadProperties:
    @given(st.binary(max_size=4096))
    def test_roundtrip_any_bytes(self, plaintext):
        cipher = AuthenticatedCipher(_key(b"p"))
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    @given(st.lists(st.binary(max_size=4096), max_size=12))
    def test_batched_roundtrip_random_lengths(self, plaintexts):
        """decrypt_many(encrypt_many(xs)) == xs across lengths 0-4096."""
        cipher = AuthenticatedCipher(_key(b"b"))
        blobs = cipher.encrypt_many(plaintexts)
        assert cipher.decrypt_many(blobs) == plaintexts
        # Batch and single paths are mutually decryptable.
        for blob, plaintext in zip(blobs, plaintexts):
            assert cipher.decrypt(blob) == plaintext

    @given(st.binary(max_size=4096), st.integers(0, 10**9))
    def test_batched_tamper_detection(self, plaintext, seed):
        """A single flipped bit anywhere in any member fails the batch."""
        cipher = AuthenticatedCipher(_key(b"bt"))
        blobs = cipher.encrypt_many([b"other", plaintext])
        tampered = bytearray(blobs[1])
        position = seed % len(tampered)
        tampered[position] ^= 1 << (seed // len(tampered)) % 8
        with pytest.raises(IntegrityError):
            cipher.decrypt_many([blobs[0], bytes(tampered)])

    @given(st.binary(min_size=1, max_size=512), st.integers(0, 10**9))
    def test_single_bit_flip_always_detected(self, plaintext, seed):
        cipher = AuthenticatedCipher(_key(b"f"))
        blob = bytearray(cipher.encrypt(plaintext))
        position = seed % len(blob)
        bit = 1 << (seed // len(blob)) % 8
        blob[position] ^= bit
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(blob))
