"""Worker-pool round execution engine (coordinator side).

A Waffle round has two kinds of work (DESIGN.md §10, and the mechanism
:mod:`repro.sim.pipeline` models): *assembly* — dedup, fake-query
sampling, index/LRU updates — which mutates shared proxy state and must
stay on the coordinating thread, and the *embarrassingly parallel* kernel
work — PRF id derivation and AEAD encrypt/decrypt over the B+D batch —
which is a pure function of its inputs.  :class:`WorkerPool` spreads the
latter across ``concurrent.futures`` process workers; :class:`PooledPrf`
and :class:`PooledCipher` wrap the real kernels with the exact same call
surface, so an unmodified :class:`~repro.core.proxy.WaffleProxy` runs
pooled via :func:`attach_pool` with zero protocol changes.

Determinism contract (pinned by ``tests/test_parallel.py`` and the chaos
determinism suite): pooled output is byte-identical to inline execution
for every worker count.  Two mechanisms guarantee it:

* PRF derivation and AEAD decryption are deterministic functions;
* AEAD *encryption* nonces are drawn serially on the coordinator, in
  input order, from the inner cipher's own rng —  workers only consume
  the nonce they are handed, so the proxy's rng stream advances
  draw-for-draw identically to inline execution.

Checkpoint compatibility: :mod:`repro.ha.checkpoint` pickles the proxy's
keychain.  The pooled wrappers reduce to their *inner* kernels on
pickle — a restored standby starts with plain kernels (byte-identical
behaviour) and the chaos runner re-attaches the pool after promotion.

Transport: chunks default to shared-memory segments (see
:mod:`repro.parallel.shm` — the coordinator packs frames into a pooled
segment, workers read views and write results into a response segment,
and only segment names cross the pipe), with the PR-5 pickle pipe kept
as ``transport="pipe"`` for apples-to-apples benchmarking.  Both
transports carry the raw key material in each chunk, so workers rebuild
the coordinator's kernels from it.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, wait
from typing import Iterable, Sequence

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import KeyChain
from repro.crypto.prf import Prf
from repro.obs import OBS
from repro.obs.delta import decode_delta, merge_delta
from repro.parallel.shm import SegmentPool
from repro.parallel.worker import (
    TELEMETRY_ALLOWANCE,
    init_worker,
    iter_frames,
    pack_frames,
    pack_frames_into,
    packed_size,
    run_chunk,
    run_chunk_shm,
    unpack_frames,
)

__all__ = ["PooledCipher", "PooledPrf", "WorkerPool", "attach_pool",
           "detach_pool", "unwrap_kernel"]

#: Below this many items a dispatch is not worth the serialization and
#: scheduling cost; the wrappers fall back to the inline kernel.  The
#: chaos determinism tests pass ``min_batch=1`` to force pool traffic
#: even at chaos-sized batches.
_DEFAULT_MIN_BATCH = 32

#: Target items per chunk; the pool never splits finer than this (fewer,
#: larger chunks amortize pickling) nor wider than the worker count.
_DEFAULT_CHUNK_ITEMS = 48


def unwrap_kernel(inner: object) -> object:
    """Pickle helper: a pooled wrapper unpickles as its inner kernel."""
    return inner


class WorkerPool:
    """A process pool executing chunked crypto kernels.

    Parameters
    ----------
    workers:
        Worker process count.  ``1`` keeps everything inline (no
        subprocesses, no serialization) — the baseline the speedup curve
        is measured against.
    min_batch:
        Smallest batch worth offloading; smaller calls run inline.
    chunk_items:
        Target items per chunk (see module docstring).
    transport:
        ``"shm"`` (default) moves chunks through pooled
        :mod:`multiprocessing.shared_memory` segments — one copy in,
        zero-copy worker reads, one copy out — with only segment names
        crossing the pipe.  ``"pipe"`` is the PR-5 pickle channel, kept
        as the comparison baseline the benchmark measures against.

    The pool is key-agnostic: each chunk carries the key material that
    parameterizes its kernel, and workers cache kernels per material.
    One pool therefore serves any number of keychains (partitions,
    reseeded chaos episodes) for its whole lifetime.
    """

    def __init__(self, workers: int, min_batch: int = _DEFAULT_MIN_BATCH,
                 chunk_items: int = _DEFAULT_CHUNK_ITEMS,
                 transport: str = "shm") -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if min_batch < 1 or chunk_items < 1:
            raise ValueError("min_batch and chunk_items must be positive")
        if transport not in ("shm", "pipe"):
            raise ValueError(f"unknown transport {transport!r}; "
                             "choose 'shm' or 'pipe'")
        self.workers = workers
        self.min_batch = min_batch
        self.chunk_items = chunk_items
        self.transport = transport
        self._executor: ProcessPoolExecutor | None = None
        self._segments: SegmentPool | None = None
        if workers > 1:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0])
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx, initializer=init_worker)
            if transport == "shm":
                self._segments = SegmentPool(workers)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def offloads(self, items: int) -> bool:
        """Whether a batch of ``items`` goes to the pool or stays inline."""
        return self._executor is not None and items >= self.min_batch

    def run(self, kind: str, material: tuple[bytes, ...],
            frames: list) -> list[bytes]:
        """Execute ``frames`` through the workers; results in input order.

        A frame is bytes or a tuple of byte parts (packed contiguously);
        the encrypt path passes ``(nonce, plaintext)`` pairs so no
        concatenation happens on the coordinator.
        """
        executor = self._executor
        if executor is None:
            raise RuntimeError("single-worker pool has no executor; "
                               "callers must check offloads() first")
        chunks = max(1, min(self.workers,
                            (len(frames) + self.chunk_items - 1)
                            // self.chunk_items))
        per_chunk = (len(frames) + chunks - 1) // chunks
        observing = OBS.enabled
        if observing:
            start = time.perf_counter()
        if self._segments is not None:
            results, out_bytes, in_bytes, chunk_meta = self._run_shm(
                kind, material, frames, per_chunk, observing)
        else:
            results, out_bytes, in_bytes, chunk_meta = self._run_pipe(
                kind, material, frames, per_chunk, observing)
        if observing:
            labels = {"workers": str(self.workers)}
            reg = OBS.registry
            tracer = OBS.tracer
            wait_hist = reg.histogram("parallel.chunk.wait.seconds", **labels)
            # Each chunk becomes a span under the currently open phase
            # (implicit parent via the tracer's span stack); the worker's
            # piggybacked delta — metrics plus its own chunk span — then
            # merges under that span's id, extending the tree across the
            # process boundary.
            for elapsed, chunk_items, delta in chunk_meta:
                wait_hist.observe(elapsed)
                span_id = tracer.record_span("parallel.chunk", elapsed,
                                             kind=kind, items=chunk_items,
                                             **labels)
                if delta is not None:
                    merge_delta(reg, tracer, decode_delta(delta),
                                parent=span_id)
            reg.counter("parallel.chunks.total", **labels).inc(len(chunk_meta))
            reg.counter("parallel.items.total", **labels).inc(len(frames))
            reg.counter("parallel.serialized.bytes.total", dir="out",
                        **labels).inc(out_bytes)
            reg.counter("parallel.serialized.bytes.total", dir="in",
                        **labels).inc(in_bytes)
            OBS.observe_kernel("pooled." + kind,
                               time.perf_counter() - start, len(frames))
        return results

    def _run_pipe(self, kind: str, material: tuple[bytes, ...], frames: list,
                  per_chunk: int, observing: bool):
        """Pickle-pipe transport: one bytes payload per chunk, each way."""
        executor = self._executor
        assert executor is not None
        pending = []
        out_bytes = 0
        for lo in range(0, len(frames), per_chunk):
            chunk = frames[lo: lo + per_chunk]
            payload = pack_frames(chunk)
            out_bytes += len(payload)
            pending.append((executor.submit(run_chunk, kind, material,
                                            payload, observing),
                            time.perf_counter() if observing else 0.0,
                            len(chunk)))
        results: list[bytes] = []
        in_bytes = 0
        chunk_meta: list[tuple[float, int, bytes | None]] = []
        for future, submitted, items in pending:
            payload = future.result()
            in_bytes += len(payload)
            # Kernels map frames 1:1, so the first `items` frames are
            # data; a single trailing frame is the telemetry delta.
            out = unpack_frames(payload)
            results.extend(out[:items])
            if observing:
                delta = out[items] if len(out) > items else None
                chunk_meta.append(
                    (time.perf_counter() - submitted, items, delta))
        return results, out_bytes, in_bytes, chunk_meta

    def _run_shm(self, kind: str, material: tuple[bytes, ...], frames: list,
                 per_chunk: int, observing: bool):
        """Shared-memory transport: frames cross in pooled segments.

        The request is packed straight into a segment (one copy); the
        worker reads views and packs its output into a response segment;
        only names and lengths cross the pipe.  Segments return to the
        free-list once their chunk's results are copied out — after a
        failure the cleanup waits for every outstanding chunk first, so
        a still-running worker can never scribble on a reused segment.
        """
        executor = self._executor
        segments = self._segments
        assert executor is not None and segments is not None
        pending = []
        out_bytes = 0
        in_bytes = 0
        chunk_meta: list[tuple[float, int, bytes | None]] = []
        results: list[bytes] = []
        try:
            for lo in range(0, len(frames), per_chunk):
                chunk = frames[lo: lo + per_chunk]
                request_len = packed_size(chunk)
                request = segments.acquire(request_len)
                pack_frames_into(chunk, request.buf)
                out_bytes += request_len
                # Sized for every kind's worst case: derive emits 36
                # bytes per frame from arbitrarily small inputs, encrypt
                # adds the 16-byte tag per frame, decrypt only shrinks.
                # The telemetry allowance leaves room for the piggyback
                # delta frame; the worker drops the delta (never fails
                # the chunk) if it would not fit.
                response_cap = request_len + 48 * len(chunk) + 64
                if observing:
                    response_cap += TELEMETRY_ALLOWANCE
                response = segments.acquire(response_cap)
                pending.append((
                    executor.submit(run_chunk_shm, kind, material,
                                    request.name, request_len,
                                    response.name, response_cap, observing),
                    time.perf_counter() if observing else 0.0,
                    len(chunk), request, response))
            for future, submitted, items, _, response in pending:
                response_len = future.result()
                in_bytes += response_len
                out = [bytes(frame)
                       for frame in iter_frames(response.buf[:response_len])]
                # Kernels map frames 1:1, so the first `items` frames
                # are data; a single trailing frame is the telemetry
                # delta.
                results.extend(out[:items])
                if observing:
                    delta = out[items] if len(out) > items else None
                    chunk_meta.append(
                        (time.perf_counter() - submitted, items, delta))
        finally:
            # On the success path every future is already done; on
            # failure, block until in-flight workers stop touching the
            # segments before recycling them.
            if pending:
                wait([entry[0] for entry in pending])
            for _, _, _, request, response in pending:
                segments.release(request)
                segments.release(response)
        return results, out_bytes, in_bytes, chunk_meta

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down workers, then unlink every shared-memory segment.

        Ordering matters: workers must exit (or be known dead) before
        the segments they might map by name are unlinked.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._segments is not None:
            self._segments.close()
            self._segments = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class PooledPrf:
    """Drop-in :class:`~repro.crypto.prf.Prf` running batches on a pool."""

    __slots__ = ("_inner", "_pool", "_material")

    def __init__(self, inner: Prf, pool: WorkerPool) -> None:
        self._inner = inner
        self._pool = pool
        self._material = (b"prf", inner.__getstate__())

    @property
    def inner(self) -> Prf:
        return self._inner

    def derive(self, key: str, timestamp: int) -> str:
        return self._inner.derive(key, timestamp)

    def derive_bytes(self, data: bytes) -> bytes:
        return self._inner.derive_bytes(data)

    def derive_many(self, pairs: Iterable[tuple[str, int]]) -> list[str]:
        items = list(pairs)
        if not self._pool.offloads(len(items)):
            return self._inner.derive_many(items)
        frames = [
            key.encode("utf-8") + b"\x00" + str(int(timestamp)).encode()
            for key, timestamp in items
        ]
        return [frame.decode("ascii")
                for frame in self._pool.run("derive", self._material, frames)]

    def __reduce__(self):
        # Checkpoints must not capture the pool (process handles do not
        # pickle); the inner kernel is behaviourally identical.
        return (unwrap_kernel, (self._inner,))


class PooledCipher:
    """Drop-in :class:`AuthenticatedCipher` running batches on a pool."""

    __slots__ = ("_inner", "_pool", "_material")

    def __init__(self, inner: AuthenticatedCipher, pool: WorkerPool) -> None:
        self._inner = inner
        self._pool = pool
        key, _ = inner.__getstate__()
        self._material = (b"aead", key)

    @property
    def inner(self) -> AuthenticatedCipher:
        return self._inner

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._inner.encrypt(plaintext)

    def decrypt(self, blob: bytes) -> bytes:
        return self._inner.decrypt(blob)

    def ciphertext_overhead(self) -> int:
        return self._inner.ciphertext_overhead()

    def encrypt_many(self, plaintexts: Iterable[bytes]) -> list[bytes]:
        items = list(plaintexts)
        if not self._pool.offloads(len(items)):
            return self._inner.encrypt_many(items)
        # Nonces are drawn serially, in input order, from the inner
        # cipher's rng: the proxy rng stream (and hence the adversary
        # trace) is draw-for-draw identical to inline execution.
        nonces = self._inner.draw_nonces(len(items))
        # (nonce, plaintext) part-tuples: the transport packs the pair
        # contiguously, so no per-item concatenation happens here.
        frames = list(zip(nonces, items))
        return self._pool.run("encrypt", self._material, frames)

    def decrypt_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        items = list(blobs)
        if not self._pool.offloads(len(items)):
            return self._inner.decrypt_many(items)
        return self._pool.run("decrypt", self._material, items)

    def __reduce__(self):
        return (unwrap_kernel, (self._inner,))


def attach_pool(proxy: object, pool: WorkerPool) -> None:
    """Route ``proxy``'s batched crypto through ``pool`` (idempotent).

    Re-attaching after a checkpoint restore (which reduces the wrappers
    back to plain kernels) or with a different pool replaces the wrapper
    but keeps the same inner kernel, so behaviour never changes.
    """
    chain: KeyChain = proxy.keychain  # type: ignore[attr-defined]
    prf = chain.prf
    if isinstance(prf, PooledPrf):
        prf = prf.inner
    cipher = chain.cipher
    if isinstance(cipher, PooledCipher):
        cipher = cipher.inner
    chain.prf = PooledPrf(prf, pool)  # type: ignore[assignment]
    chain.cipher = PooledCipher(cipher, pool)  # type: ignore[assignment]


def detach_pool(proxy: object) -> None:
    """Restore ``proxy``'s plain kernels (inverse of :func:`attach_pool`)."""
    chain: KeyChain = proxy.keychain  # type: ignore[attr-defined]
    if isinstance(chain.prf, PooledPrf):
        chain.prf = chain.prf.inner
    if isinstance(chain.cipher, PooledCipher):
        chain.cipher = chain.cipher.inner
