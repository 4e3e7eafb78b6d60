"""Process-worker side of the parallel round engine.

The coordinator ships each chunk of kernel work as length-prefixed
frames plus the key material that parameterizes the kernel.  Two
transports share this module's frame codec:

* **shared memory** (the default): frames live in a
  ``multiprocessing.shared_memory`` segment owned by the coordinator's
  :class:`~repro.parallel.shm.SegmentPool`; :func:`run_chunk_shm` maps
  the segment and iterates zero-copy ``memoryview`` frames, writing its
  output frames into a response segment.  Only segment names and two
  integers cross the pipe.
* **pipe** (fallback, and the comparison baseline the benchmark keeps
  honest): one contiguous bytes payload per chunk through the
  ``multiprocessing`` pickle channel — :func:`run_chunk`.

The codec rejects malformed input: a payload that ends inside a 4-byte
length prefix, or a frame that declares more bytes than follow, raises
:class:`~repro.errors.FrameError` instead of silently misparsing (a
short frame would otherwise hand the kernels misaligned crypto inputs).

Workers are stateless apart from two per-process caches — kernels keyed
by raw key material, attached segments keyed by name — so one pool
serves any number of keychains (each partition of a
:class:`~repro.scaleout.partitioned.PartitionedWaffle` carries its own
keys, and every chaos episode reseeds) without respawn.

Everything here is a pure function of its inputs: PRF derivation is
deterministic, AEAD encryption receives its nonces from the coordinator
(drawn serially, in input order, from the proxy cipher's own rng) — so
pooled output matches inline execution exactly, which the determinism
tests pin across worker counts.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Iterator

from repro.crypto.aead import NONCE_LEN, AuthenticatedCipher
from repro.crypto.prf import Prf
from repro.errors import FrameError
from repro.obs.delta import TelemetryBuffer, encode_delta

__all__ = [
    "NONCE_LEN",
    "TELEMETRY_ALLOWANCE",
    "init_worker",
    "iter_frames",
    "pack_frames",
    "pack_frames_into",
    "packed_size",
    "run_chunk",
    "run_chunk_shm",
    "unpack_frames",
]

#: Per-process kernel cache: key material -> constructed kernel.  Bounded
#: in practice by the number of distinct keychains the coordinator uses.
_KERNELS: dict[tuple[bytes, ...], object] = {}

#: Per-process attached-segment cache: name -> mapped segment.  The
#: coordinator's free-list reuses a handful of segment names for a
#: pool's whole lifetime, so attaches happen once, not per chunk.
_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_SEGMENTS_MAX = 64

#: Per-process telemetry buffer (single-threaded, hence lock-free).  The
#: coordinator decides per chunk — from its own ``OBS.enabled`` at
#: dispatch time — whether the worker fills and drains it; the worker
#: never consults the (forced-off) process-wide OBS handle.
_TELEMETRY = TelemetryBuffer()

#: Extra response-segment headroom the coordinator reserves for one
#: telemetry piggyback frame when observing (a drained per-chunk delta
#: is a few hundred bytes of compact JSON).
TELEMETRY_ALLOWANCE = 4096

# A frame is bytes (or a view) — or a tuple of byte parts packed
# contiguously, which lets the coordinator pass (nonce, plaintext)
# pairs without concatenating on the hot path.
def packed_size(frames: list) -> int:
    """Bytes :func:`pack_frames_into` will write for ``frames``."""
    total = 0
    for frame in frames:
        if isinstance(frame, tuple):
            total += 4 + sum(len(part) for part in frame)
        else:
            total += 4 + len(frame)
    return total


def pack_frames(frames: list) -> bytes:
    """Concatenate ``frames`` into one length-prefixed payload."""
    parts: list = []
    append = parts.append
    for frame in frames:
        if isinstance(frame, tuple):
            append(sum(len(part) for part in frame).to_bytes(4, "big"))
            parts.extend(frame)
        else:
            append(len(frame).to_bytes(4, "big"))
            append(frame)
    return b"".join(parts)


def pack_frames_into(frames: list, buf: memoryview) -> int:
    """Pack ``frames`` into ``buf`` in place; returns bytes written.

    The shared-memory analogue of :func:`pack_frames`: slice assignment
    into the mapped segment is the single copy the request path makes.
    The caller sizes ``buf`` via :func:`packed_size`.
    """
    offset = 0
    for frame in frames:
        if isinstance(frame, tuple):
            length = sum(len(part) for part in frame)
            buf[offset: offset + 4] = length.to_bytes(4, "big")
            offset += 4
            for part in frame:
                step = len(part)
                buf[offset: offset + step] = part
                offset += step
        else:
            length = len(frame)
            buf[offset: offset + 4] = length.to_bytes(4, "big")
            offset += 4
            buf[offset: offset + length] = frame
            offset += length
    return offset


def iter_frames(view: memoryview) -> Iterator[memoryview]:
    """Yield zero-copy frame views from a packed payload.

    Validates as it goes: truncation — a partial length prefix, or a
    frame declaring more bytes than remain — raises
    :class:`~repro.errors.FrameError` rather than yielding garbage.
    """
    offset = 0
    end = len(view)
    while offset < end:
        if end - offset < 4:
            raise FrameError(
                f"payload ends inside a frame length prefix at byte "
                f"{offset}: {end - offset} of 4 prefix bytes present")
        length = int.from_bytes(view[offset: offset + 4], "big")
        offset += 4
        if end - offset < length:
            raise FrameError(
                f"frame at byte {offset - 4} declares {length} bytes "
                f"but only {end - offset} remain")
        yield view[offset: offset + length]
        offset += length


def unpack_frames(payload: bytes) -> list[bytes]:
    """Inverse of :func:`pack_frames`; raises on truncated payloads."""
    return [bytes(frame) for frame in iter_frames(memoryview(payload))]


def init_worker() -> None:
    """Pool initializer run once per worker process.

    Forked workers inherit the coordinator's observability switch; they
    must not record (their registries are invisible copies) nor share the
    parent's trace file descriptor, so the child's handle is forced off.
    Workers also start with empty kernel, segment and telemetry state —
    fork may have copied the parent's, and a stale inherited mapping
    must not shadow a fresh attach (nor inherited telemetry ship as a
    first chunk's delta).
    """
    from repro.obs import OBS

    OBS.enabled = False
    _KERNELS.clear()
    _SEGMENTS.clear()
    _TELEMETRY.clear()


def _prf(material: tuple[bytes, ...]) -> Prf:
    kernel = _KERNELS.get(material)
    if kernel is None:
        kernel = _KERNELS[material] = Prf(material[1])
    return kernel  # type: ignore[return-value]


def _cipher(material: tuple[bytes, ...]) -> AuthenticatedCipher:
    kernel = _KERNELS.get(material)
    if kernel is None:
        kernel = _KERNELS[material] = AuthenticatedCipher(material[1])
    return kernel  # type: ignore[return-value]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map a coordinator-owned segment, caching the mapping.

    Python 3.11 registers even plain attaches with the process's
    ``resource_tracker`` (bpo-38119), and ownership must stay with the
    coordinator alone.  Under ``fork`` the worker *shares* the
    coordinator's tracker, where the attach-side register is an
    idempotent set-add — unregistering here would cancel the
    coordinator's own registration, so the attach is left alone.  Under
    ``spawn`` the worker has a private tracker that would unlink (and
    warn about) the coordinator's segments at worker exit, so there the
    spurious registration is removed.
    """
    segment = _SEGMENTS.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        if multiprocessing.get_start_method() != "fork":
            try:  # pragma: no cover - fork is available on test hosts
                resource_tracker.unregister(segment._name,  # noqa: SLF001
                                            "shared_memory")
            except Exception:
                pass
        if len(_SEGMENTS) >= _SEGMENTS_MAX:
            stale = next(iter(_SEGMENTS))
            try:
                _SEGMENTS.pop(stale).close()
            except BufferError:  # pragma: no cover - view still exported
                pass
        _SEGMENTS[name] = segment
    return segment


def _compute(kind: str, material: tuple[bytes, ...],
             frames: list) -> list[bytes]:
    """Run one chunk's kernel work over ``frames`` (bytes or views).

    ``kind`` selects the kernel:

    * ``"derive"`` — frames are raw PRF messages (the coordinator encodes
      ``key || \\x00 || str(ts)`` exactly as :meth:`Prf.derive` does);
      output frames are the 32-char hex storage ids as ASCII.
    * ``"encrypt"`` — frames are ``nonce || plaintext`` with the nonce
      drawn by the coordinator; output frames are AEAD blobs.
    * ``"decrypt"`` — frames are AEAD blobs; output frames are
      plaintexts.  A tampered blob raises, and the exception propagates
      to the coordinator through the pool.
    """
    if kind == "derive":
        derive_bytes = _prf(material).derive_bytes
        return [derive_bytes(frame).hex()[:32].encode("ascii")
                for frame in frames]
    if kind == "encrypt":
        cipher = _cipher(material)
        return cipher.encrypt_with_nonces(
            [frame[NONCE_LEN:] for frame in frames],
            [bytes(frame[:NONCE_LEN]) for frame in frames])
    if kind == "decrypt":
        return _cipher(material).decrypt_many(frames)
    raise ValueError(f"unknown chunk kind {kind!r}")


def _drain_telemetry(kind: str, items: int, total_s: float,
                     compute_s: float) -> bytes:
    """Record one chunk's timings and drain the buffer as a wire delta.

    Metric names are final (``parallel.worker.*``); the coordinator's
    merge only adds the ``worker`` label.  The drain resets the buffer,
    so each observation ships in exactly one delta — a chunk whose
    future never resolves (killed worker) loses its delta instead of
    replaying it.
    """
    buf = _TELEMETRY
    buf.observe("parallel.worker.chunk.seconds", total_s, kind=kind)
    buf.observe("parallel.worker.compute.seconds", compute_s, kind=kind)
    buf.observe("parallel.worker.overhead.seconds",
                max(0.0, total_s - compute_s), kind=kind)
    buf.inc("parallel.worker.chunks.total", 1, kind=kind)
    buf.inc("parallel.worker.items.total", items, kind=kind)
    buf.span("parallel.worker.chunk", total_s, kind=kind, items=items,
             compute=compute_s)
    return encode_delta(buf.drain(), str(os.getpid()))


def run_chunk(kind: str, material: tuple[bytes, ...], payload: bytes,
              telemetry: bool = False) -> bytes:
    """Pipe-transport chunk: packed payload in, packed payload out.

    With ``telemetry`` (the coordinator's ``OBS.enabled`` at dispatch
    time) the response carries one extra trailing frame — the worker's
    drained metric/span delta.  Every kind maps input frames to output
    frames 1:1, so the coordinator splits data from telemetry by count.
    """
    if not telemetry:
        return pack_frames(_compute(kind, material, unpack_frames(payload)))
    start = time.perf_counter()
    frames = unpack_frames(payload)
    compute_start = time.perf_counter()
    out = _compute(kind, material, frames)
    compute_s = time.perf_counter() - compute_start
    total_s = time.perf_counter() - start
    out.append(_drain_telemetry(kind, len(frames), total_s, compute_s))
    return pack_frames(out)


def run_chunk_shm(kind: str, material: tuple[bytes, ...],
                  request_name: str, request_len: int,
                  response_name: str, response_cap: int,
                  telemetry: bool = False) -> int:
    """Shared-memory chunk: reads frame *views*, writes the response.

    Returns the packed length of the response, the only payload that
    crosses the pipe.  ``response_cap`` is the coordinator's sizing of
    the response segment; the worker re-checks it so a sizing bug
    surfaces as an explicit error, not a silent out-of-bounds write.
    With ``telemetry``, one extra trailing frame carries the worker's
    drained delta — appended only if it fits the remaining capacity, so
    telemetry can degrade (drop) but never fail a chunk.
    """
    start = time.perf_counter() if telemetry else 0.0
    request = _attach_segment(request_name)
    frames = list(iter_frames(request.buf[:request_len]))
    compute_start = time.perf_counter() if telemetry else 0.0
    out = _compute(kind, material, frames)
    needed = packed_size(out)
    if needed > response_cap:
        raise FrameError(
            f"response needs {needed} bytes but the coordinator sized "
            f"the segment for {response_cap}")
    if telemetry:
        now = time.perf_counter()
        delta = _drain_telemetry(kind, len(frames), now - start,
                                 now - compute_start)
        if needed + 4 + len(delta) <= response_cap:
            out.append(delta)
    response = _attach_segment(response_name)
    return pack_frames_into(out, response.buf)
