"""Known-bad fixture: native crypto import outside ``crypto/`` (OBL305).

Only ``repro.crypto`` may import native crypto packages, so the proxy
uses exactly the PRF and value cipher its known-answer tests pin.
"""

from cryptography.hazmat.primitives import hashes


def fingerprint(data: bytes) -> bytes:
    digest = hashes.Hash(hashes.SHA256())
    digest.update(data)
    return digest.finalize()
