"""In-memory spans and the pass-through wrappers that record them.

Spans are recorded only here, around calls into each layer's public
functions; nothing under ``src/`` is instrumented.  A span is the tuple
``(id, name, start, end, parent, attrs)``.  The parent is the span open
on the calling thread when the span began, so crypto and storage calls
made inside a round hang under that round's span.

Every wrapper forwards each call unchanged.  With no tracer (or a
disabled one) it adds no clock reads at all.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Iterable, Sequence

from repro.storage.base import StorageBackend

__all__ = [
    "MeteredStore",
    "TimedCipher",
    "TimedPrf",
    "Tracer",
]

_clock = time.perf_counter


class Tracer:
    """Collects spans in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def open(self, name: str) -> tuple:
        span_id = next(self._ids)
        parent = getattr(self._local, "span", None)
        self._local.span = span_id
        return (span_id, name, parent, _clock())

    def close(self, token: tuple, **attrs) -> None:
        end = _clock()
        span_id, name, parent, start = token
        self._local.span = parent
        self.spans.append((span_id, name, start, end, parent, attrs))

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span timed by the caller (e.g. one client request)."""
        self.spans.append((next(self._ids), name, start, end, None, attrs))


class _Timed:
    """Forwards attribute reads to ``inner``; times the listed calls."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def _call(self, span: str, method, items: list):
        tracer = self._tracer
        if not tracer.enabled:
            return method(items)
        token = tracer.open(span)
        try:
            return method(items)
        finally:
            tracer.close(token, items=len(items))


class TimedPrf(_Timed):
    """A keychain ``prf`` whose calls become ``crypto.prf`` spans."""

    def derive_many(self, pairs: Iterable[tuple[str, int]]) -> list[str]:
        return self._call("crypto.prf", self._inner.derive_many, list(pairs))

    def derive(self, key: str, timestamp: int) -> str:
        return self._call("crypto.prf",
                          lambda pairs: self._inner.derive(*pairs[0]),
                          [(key, timestamp)])


class TimedCipher(_Timed):
    """A keychain ``cipher`` whose calls become ``crypto.encrypt`` and
    ``crypto.decrypt`` spans."""

    def encrypt_many(self, plaintexts: Iterable[bytes]) -> list[bytes]:
        return self._call("crypto.encrypt", self._inner.encrypt_many,
                          list(plaintexts))

    def decrypt_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        return self._call("crypto.decrypt", self._inner.decrypt_many,
                          list(blobs))

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._call("crypto.encrypt",
                          lambda items: self._inner.encrypt(items[0]),
                          [plaintext])

    def decrypt(self, blob: bytes) -> bytes:
        return self._call("crypto.decrypt",
                          lambda items: self._inner.decrypt(items[0]),
                          [blob])


class MeteredStore(StorageBackend):
    """Pass-through storage that counts, checks and (optionally) times.

    Counts calls, ids read and written, and key plus value bytes moved.
    Once :attr:`checking` is set, every round must read exactly ``b``
    distinct ids and commit exactly ``b`` deletes and ``b`` writes; each
    breach is appended to :attr:`violations`.  With a tracer, every call
    becomes a ``storage.<method>`` span.
    """

    def __init__(self, inner: StorageBackend, b: int,
                 tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.b = b
        self.tracer = tracer
        self.checking = False
        self.violations: list[str] = []
        self.calls = 0
        self.reads = 0
        self.writes = 0
        self.bytes = 0

    def _timed(self, span: str, method, *args):
        self.calls += 1
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return method(*args)
        token = tracer.open(span)
        try:
            return method(*args)
        finally:
            tracer.close(token)

    def get(self, key: str) -> bytes:
        value = self._timed("storage.get", self.inner.get, key)
        self.reads += 1
        self.bytes += len(key) + len(value)
        return value

    def put(self, key: str, value: bytes) -> None:
        self._timed("storage.put", self.inner.put, key, value)
        self.writes += 1
        self.bytes += len(key) + len(value)

    def delete(self, key: str) -> None:
        self._timed("storage.delete", self.inner.delete, key)

    def __contains__(self, key: str) -> bool:
        return self._timed("storage.contains", self.inner.__contains__, key)

    def __len__(self) -> int:
        return self._timed("storage.len", self.inner.__len__)

    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        if self.checking and (len(keys) != self.b
                              or len(set(keys)) != len(keys)):
            self.violations.append(
                f"round read {len(keys)} ids, {len(set(keys))} distinct; "
                f"B={self.b}")
        values = self._timed("storage.multi_get", self.inner.multi_get, keys)
        self.reads += len(keys)
        self.bytes += sum(map(len, keys)) + sum(map(len, values))
        return values

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        items = list(items)
        self._timed("storage.multi_put", self.inner.multi_put, items)
        self.writes += len(items)
        self.bytes += sum(len(key) + len(value) for key, value in items)

    def multi_delete(self, keys: Sequence[str]) -> None:
        self._timed("storage.multi_delete", self.inner.multi_delete, keys)

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        puts = list(puts)
        if self.checking and (len(deletes) != self.b or len(puts) != self.b):
            self.violations.append(
                f"round committed {len(deletes)} deletes and {len(puts)} "
                f"writes; B={self.b}")
        self._timed("storage.commit_round", self.inner.commit_round,
                    deletes, puts)
        self.writes += len(puts)
        self.bytes += sum(len(key) + len(value) for key, value in puts)
