"""Correctness checks and digests that every run applies.

* :class:`ReferenceModel` replays requests in submit order: a GET must
  return the last value PUT before it, a PUT must echo its own value.
* :func:`trace_digest` hashes the adversary trace, the ``(op, id)``
  records of a ``RecordingStore``.
* :class:`ResponseLog` hashes every response by request id, so two runs
  of one seed can be compared whatever order responses completed in.
"""

from __future__ import annotations

import hashlib

from repro.core.batch import ClientRequest
from repro.workloads.trace import Operation

__all__ = ["ReferenceModel", "ResponseLog", "trace_digest"]


class ReferenceModel:
    """Expected responses, advanced in the order requests are submitted."""

    def __init__(self, items: dict[str, bytes]) -> None:
        self._values = dict(items)
        self.wrong: list[str] = []

    def submit(self, request: ClientRequest) -> bytes:
        """Apply ``request`` and return the response it must get."""
        if request.op is Operation.WRITE:
            self._values[request.key] = request.value
            return request.value
        return self._values[request.key]

    def check(self, request: ClientRequest, expected: bytes,
              got: bytes) -> bool:
        if got == expected:
            return True
        self.wrong.append(
            f"request {request.request_id} ({request.op.value} "
            f"{request.key}) returned a wrong value")
        return False


class ResponseLog:
    """Order-independent digest of all responses of a run."""

    def __init__(self) -> None:
        self._by_id: dict[int, bytes] = {}

    def add(self, request_id: int, value: bytes) -> None:
        self._by_id[request_id] = hashlib.blake2b(value,
                                                  digest_size=8).digest()

    def __len__(self) -> int:
        return len(self._by_id)

    def digest(self) -> str:
        hasher = hashlib.sha256()
        for request_id in sorted(self._by_id):
            hasher.update(request_id.to_bytes(8, "big"))
            hasher.update(self._by_id[request_id])
        return hasher.hexdigest()


def trace_digest(records) -> str:
    """sha256 over the ``(op, storage_id)`` sequence the server observed."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(f"{record.op} {record.storage_id}\n".encode())
    return hasher.hexdigest()
