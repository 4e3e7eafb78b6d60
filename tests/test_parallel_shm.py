"""Shared-memory transport: frame codec pins, segment lifecycle, leaks.

Three contracts this file freezes:

* **Codec rejection** — a payload that ends inside a 4-byte length
  prefix, or whose frame declares more bytes than remain, raises
  :class:`~repro.errors.FrameError` instead of silently misparsing.  A
  short frame fed onward would hand the crypto kernels misaligned
  inputs, so truncation must be loud.
* **Segment economy** — ``SegmentPool`` reuses released segments; the
  steady state of a long pooled run allocates nothing new.
* **No leaks** — a closed pool leaves nothing under ``/dev/shm`` with
  its name prefix, including after worker processes are killed
  mid-flight (POSIX shared memory outlives processes; only an explicit
  unlink removes it, so leak coverage needs the crash path, not just
  the clean one).
"""

from __future__ import annotations

import os
import pathlib
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.crypto.prf import Prf
from repro.errors import FrameError, ProtocolError
from repro.parallel import SegmentPool, WorkerPool, iter_frames
from repro.parallel.worker import (
    pack_frames,
    pack_frames_into,
    packed_size,
    run_chunk_shm,
    unpack_frames,
)

SHM_DIR = pathlib.Path("/dev/shm")


def _leftovers(prefix: str) -> list[str]:
    """Names still present under /dev/shm for a pool's prefix."""
    if not SHM_DIR.is_dir():  # pragma: no cover - non-POSIX-shm host
        pytest.skip("/dev/shm not available on this platform")
    return sorted(p.name for p in SHM_DIR.glob(prefix + "*"))


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------
class TestFrameCodecRejection:
    FRAMES = [b"", b"a", b"frame-two", b"\x00" * 100]

    def test_roundtrip(self):
        assert unpack_frames(pack_frames(self.FRAMES)) == self.FRAMES
        assert unpack_frames(b"") == []

    def test_tuple_frames_pack_contiguously(self):
        parts = [(b"nonce0000nonce00", b"payload"), (b"", b"x"), b"plain"]
        flat = [b"nonce0000nonce00payload", b"x", b"plain"]
        assert pack_frames(parts) == pack_frames(flat)
        assert packed_size(parts) == len(pack_frames(flat))

    def test_pack_into_matches_pack(self):
        buf = bytearray(packed_size(self.FRAMES))
        written = pack_frames_into(self.FRAMES, memoryview(buf))
        assert written == len(buf)
        assert bytes(buf) == pack_frames(self.FRAMES)

    def test_iter_frames_is_zero_copy(self):
        payload = memoryview(pack_frames([b"abc", b"defg"]))
        views = list(iter_frames(payload))
        assert all(isinstance(view, memoryview) for view in views)
        assert [bytes(view) for view in views] == [b"abc", b"defg"]

    def test_partial_length_prefix_rejected(self):
        payload = pack_frames([b"intact"]) + b"\x00\x01"
        with pytest.raises(FrameError, match="inside a frame length prefix"):
            unpack_frames(payload)

    def test_frame_longer_than_payload_rejected(self):
        payload = pack_frames([b"intact"]) + (900).to_bytes(4, "big") + b"xy"
        with pytest.raises(FrameError, match="declares 900 bytes"):
            unpack_frames(payload)

    def test_truncated_mid_frame_rejected(self):
        payload = pack_frames([b"a-frame-that-gets-cut"])
        with pytest.raises(FrameError, match="declares"):
            unpack_frames(payload[:-3])

    def test_frame_error_is_fatal_protocol_error(self):
        # Retrying a truncated chunk would re-feed garbage to the
        # kernels; the taxonomy must classify it as non-retryable.
        from repro.errors import is_retryable

        assert issubclass(FrameError, ProtocolError)
        assert not is_retryable(FrameError("short"))


# ---------------------------------------------------------------------------
# Segment pool
# ---------------------------------------------------------------------------
class TestSegmentPool:
    def test_sizes_are_power_of_two_pages(self):
        with SegmentPool() as pool:
            assert pool.acquire(1).size == 4096
            assert pool.acquire(4096).size == 4096
            assert pool.acquire(4097).size == 8192
            assert pool.acquire(100_000).size == 131072

    def test_release_reuses_segment(self):
        with SegmentPool() as pool:
            first = pool.acquire(1000)
            pool.release(first)
            assert pool.acquire(500).name == first.name

    def test_best_fit_prefers_smallest_sufficient(self):
        with SegmentPool() as pool:
            small = pool.acquire(1000)
            large = pool.acquire(50_000)
            pool.release(large)
            pool.release(small)
            assert pool.acquire(800).name == small.name
            assert pool.acquire(40_000).name == large.name

    def test_close_unlinks_everything(self):
        pool = SegmentPool()
        pool.acquire(1000)
        held = pool.acquire(20_000)
        pool.release(held)
        assert _leftovers(pool.prefix)
        pool.close()
        assert _leftovers(pool.prefix) == []
        pool.close()  # idempotent

    def test_closed_pool_rejects_acquire(self):
        pool = SegmentPool()
        segment = pool.acquire(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.acquire(1)
        pool.release(segment)  # late release after close is a no-op


# ---------------------------------------------------------------------------
# Transport end-to-end
# ---------------------------------------------------------------------------
def _derive_frames(count: int) -> list[bytes]:
    return [f"key{i:04d}".encode() + b"\x00" + str(i).encode()
            for i in range(count)]


class TestShmTransport:
    MATERIAL = (b"prf", b"shm-transport-secret")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            WorkerPool(2, transport="carrier-pigeon")

    def test_shm_matches_pipe_and_inline(self):
        frames = _derive_frames(100)
        oracle = Prf(self.MATERIAL[1])
        expected = [
            oracle.derive_bytes(frame).hex()[:32].encode("ascii")
            for frame in frames
        ]
        for transport in ("shm", "pipe"):
            with WorkerPool(2, min_batch=1, transport=transport) as pool:
                assert pool.run("derive", self.MATERIAL, frames) == expected

    def test_steady_state_allocates_nothing(self):
        """After the first round, chunk traffic rides the free-list."""
        frames = _derive_frames(120)
        with WorkerPool(2, min_batch=1) as pool:
            pool.run("derive", self.MATERIAL, frames)
            created = {seg.name for seg in pool._segments._all}
            for _ in range(3):
                pool.run("derive", self.MATERIAL, frames)
            assert {seg.name for seg in pool._segments._all} == created

    def test_undersized_response_cap_is_loud(self):
        """The worker re-checks the coordinator's sizing: a cap bug is an
        explicit FrameError, never an out-of-bounds segment write."""
        frames = _derive_frames(8)
        with SegmentPool() as segments:
            request = segments.acquire(packed_size(frames))
            pack_frames_into(frames, request.buf)
            response = segments.acquire(64)
            with pytest.raises(FrameError, match="coordinator sized"):
                run_chunk_shm("derive", self.MATERIAL, request.name,
                              packed_size(frames), response.name, 16)

    def test_clean_close_leaves_no_shm(self):
        pool = WorkerPool(2, min_batch=1)
        prefix = pool._segments.prefix
        pool.run("derive", self.MATERIAL, _derive_frames(64))
        assert _leftovers(prefix)
        pool.close()
        assert _leftovers(prefix) == []

    def test_worker_death_mid_chunk_leaves_no_shm(self):
        """Killing every worker between chunks breaks the pool, but the
        coordinator still owns the segments: close() unlinks them all."""
        pool = WorkerPool(2, min_batch=1)
        prefix = pool._segments.prefix
        pool.run("derive", self.MATERIAL, _derive_frames(64))
        victims = list(pool._executor._processes.keys())
        assert victims, "expected live worker processes"
        for pid in victims:
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        with pytest.raises(BrokenProcessPool):
            # The kill can race the submit; keep dispatching until the
            # executor notices its workers are gone.
            while time.monotonic() < deadline:
                pool.run("derive", self.MATERIAL, _derive_frames(64))
        pool.close()
        assert _leftovers(prefix) == []
