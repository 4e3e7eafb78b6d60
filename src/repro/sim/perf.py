"""Wall-clock performance harness: real seconds, not simulated ones.

Everything else in :mod:`repro.sim` charges *simulated* time so the
paper's figures do not measure CPython (DESIGN.md §1).  This module is
the deliberate exception: the ROADMAP's north star is a proxy that also
runs fast in real time, so we need a measurement of what the hardware
actually does per round — and a scalar reference implementation to hold
the batched PRF accountable against.

Three layers:

* **Scalar reference PRF** — :class:`ScalarPrf` preserves the original
  one-call-at-a-time derivation (fresh ``hmac.new`` per call).  It is
  bit-compatible with :class:`~repro.crypto.prf.Prf` and exposes the
  same ``derive_many`` surface, so an unmodified
  :class:`~repro.core.proxy.WaffleProxy` runs on either — which is both
  the equivalence oracle and the benchmark baseline.
* **Kernel microbenchmarks** — :func:`bench_prf_kernel` and
  :func:`bench_cache_kernel` time one kernel in isolation at a
  representative round shape.
* **End-to-end rounds** — :func:`bench_rounds` drives a real proxy
  against an in-memory store and reports rounds/sec and µs/request, with
  a PRF/AEAD/other breakdown captured by timing wrappers, and
  :func:`compare_traces` checks that the adversary-visible access
  sequence is independent of which PRF kernel ran.

:func:`run_wallclock_benchmark` bundles all of it into one
machine-readable dict (``benchmarks/bench_wallclock.py`` writes it to
``BENCH_wallclock.json`` so successive PRs accumulate a trajectory).
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
import time
from typing import Callable, Iterable, Sequence

from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.proxy import WaffleProxy
from repro.crypto.keys import KeyChain
from repro.ds.lru import LruCache
from repro.storage.memory import InMemoryStore
from repro.storage.recording import RecordingStore
from repro.workloads.trace import Operation

__all__ = [
    "ScalarPrf",
    "bench_cache_kernel",
    "bench_prf_kernel",
    "bench_rounds",
    "bench_rounds_parallel",
    "compare_obs_traces",
    "compare_parallel_traces",
    "compare_shard_traces",
    "compare_telemetry_traces",
    "compare_traces",
    "parallel_round_config",
    "run_parallel_benchmark",
    "run_wallclock_benchmark",
    "scalar_keychain",
]

_DIGEST_HEX_LEN = 32


# ----------------------------------------------------------------------
# scalar reference PRF (the pre-optimization implementation)
# ----------------------------------------------------------------------
class ScalarPrf:
    """The original per-call PRF: a fresh ``hmac.new`` every derivation.

    Bit-compatible with :class:`repro.crypto.prf.Prf`; kept as the
    benchmark baseline and the equivalence oracle for the cached-HMAC
    fast path.
    """

    __slots__ = ("_secret",)

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise ValueError("PRF secret must be non-empty")
        self._secret = bytes(secret)

    def derive(self, key: str, timestamp: int) -> str:
        message = key.encode("utf-8") + b"\x00" + str(int(timestamp)).encode()
        digest = hmac.new(self._secret, message, hashlib.sha256).hexdigest()
        return digest[:_DIGEST_HEX_LEN]

    def derive_many(self, pairs: Iterable[tuple[str, int]]) -> list[str]:
        return [self.derive(key, timestamp) for key, timestamp in pairs]

    def derive_bytes(self, data: bytes) -> bytes:
        return hmac.new(self._secret, data, hashlib.sha256).digest()


def scalar_keychain(seed: int, rng=None) -> KeyChain:
    """A :class:`KeyChain` whose PRF is the scalar reference.

    Key material is identical to ``KeyChain.from_seed(seed)`` and the
    cipher is the real one, so the two chains produce identical storage
    ids and mutually decryptable ciphertexts.
    """
    chain = KeyChain.from_seed(seed, rng=rng)
    chain.prf = ScalarPrf(chain.prf._secret)
    return chain


# ----------------------------------------------------------------------
# timing utilities
# ----------------------------------------------------------------------
def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class _TimedPrf:
    """Pass-through PRF accumulating wall-clock seconds spent inside."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.seconds = 0.0

    def derive(self, key, timestamp):
        start = time.perf_counter()
        out = self._inner.derive(key, timestamp)
        self.seconds += time.perf_counter() - start
        return out

    def derive_many(self, pairs):
        start = time.perf_counter()
        out = self._inner.derive_many(pairs)
        self.seconds += time.perf_counter() - start
        return out

    def derive_bytes(self, data):
        return self._inner.derive_bytes(data)


class _TimedCipher:
    """Pass-through cipher accumulating wall-clock seconds spent inside."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.seconds = 0.0

    def _timed(self, method, arg):
        start = time.perf_counter()
        out = method(arg)
        self.seconds += time.perf_counter() - start
        return out

    def encrypt(self, plaintext):
        return self._timed(self._inner.encrypt, plaintext)

    def decrypt(self, blob):
        return self._timed(self._inner.decrypt, blob)

    def encrypt_many(self, plaintexts):
        return self._timed(self._inner.encrypt_many, plaintexts)

    def decrypt_many(self, blobs):
        return self._timed(self._inner.decrypt_many, blobs)

    def ciphertext_overhead(self):
        return self._inner.ciphertext_overhead()


# ----------------------------------------------------------------------
# kernel microbenchmarks
# ----------------------------------------------------------------------
def bench_prf_kernel(batch: int = 1000, repeats: int = 3) -> dict:
    """Scalar vs batched storage-id derivation for one read batch."""
    secret = b"wallclock-prf-secret"
    from repro.crypto.prf import Prf

    scalar, batched = ScalarPrf(secret), Prf(secret)
    pairs = [(f"user{i:08d}", i % 97) for i in range(batch)]
    assert scalar.derive_many(pairs) == batched.derive_many(pairs)
    scalar_s = _best_of(lambda: scalar.derive_many(pairs), repeats)
    batched_s = _best_of(lambda: batched.derive_many(pairs), repeats)
    return {
        "kernel": "prf",
        "batch": batch,
        "scalar_ops_per_sec": batch / scalar_s,
        "batched_ops_per_sec": batch / batched_s,
        "speedup": scalar_s / batched_s,
    }


def bench_cache_kernel(population: int = 4096, lookups: int = 4096,
                       hit_fraction: float = 0.5, repeats: int = 3) -> dict:
    """``in`` + ``get`` double descent vs single-lookup ``get_if_present``."""
    cache = LruCache(population)
    for i in range(population):
        cache.put(f"k{i:06d}", b"v")
    probe_rng = random.Random(3)
    probes = [
        f"k{probe_rng.randrange(population):06d}"
        if probe_rng.random() < hit_fraction else f"m{probe_rng.randrange(population):06d}"
        for _ in range(lookups)
    ]

    def scalar() -> int:
        hits = 0
        for key in probes:
            if key in cache:
                cache.get(key)
                hits += 1
        return hits

    miss = object()

    def batched() -> int:
        # The bulk probe kernel the proxy's read phase uses for runs of
        # consecutive READ requests; the per-call get_if_present form
        # lost to the double descent on attribute dispatch alone.
        return sum(value is not miss
                   for value in cache.get_if_present_many(probes, miss))

    assert scalar() == batched()
    scalar_s = _best_of(scalar, repeats)
    batched_s = _best_of(batched, repeats)
    return {
        "kernel": "cache",
        "lookups": lookups,
        "scalar_ops_per_sec": lookups / scalar_s,
        "batched_ops_per_sec": lookups / batched_s,
        "speedup": scalar_s / batched_s,
    }


# ----------------------------------------------------------------------
# end-to-end rounds
# ----------------------------------------------------------------------
def _build_proxy(config: WaffleConfig, keychain: KeyChain,
                 record: bool = False) -> WaffleProxy:
    inner = InMemoryStore(write_once=True)
    store = RecordingStore(inner) if record else inner
    proxy = WaffleProxy(config, store, keychain=keychain,
                        keep_round_stats=False)
    items = {
        f"user{i:08d}": (b"value-%08d" % i).ljust(config.value_size, b".")[: config.value_size]
        for i in range(config.n)
    }
    proxy.initialize(items)
    return proxy


def _request_stream(config: WaffleConfig, rounds: int,
                    seed: int) -> list[list[ClientRequest]]:
    rng = random.Random(seed)
    keys = [f"user{i:08d}" for i in range(config.n)]
    batches = []
    for _ in range(rounds):
        batch = []
        for _ in range(config.r):
            key = keys[rng.randrange(config.n)]
            if rng.random() < 0.3:
                value = (b"write-%08d" % rng.randrange(10**8))
                batch.append(ClientRequest(
                    op=Operation.WRITE, key=key,
                    value=value.ljust(config.value_size, b"_")[: config.value_size]))
            else:
                batch.append(ClientRequest(op=Operation.READ, key=key))
        batches.append(batch)
    return batches


def bench_rounds(n: int = 2048, rounds: int = 30, seed: int = 99,
                 scalar: bool = False) -> dict:
    """Drive a real proxy for ``rounds`` batches and time each round.

    ``scalar=True`` swaps the seed-era PRF in (same key material), so
    the pair of runs quantifies the end-to-end effect of the batched PRF
    alone.  The PRF/AEAD share of each round is measured by timing
    wrappers; the remainder is index/cache/bookkeeping.
    """
    config = WaffleConfig.paper_defaults(n=n, seed=seed)
    keychain = scalar_keychain(seed) if scalar else KeyChain.from_seed(seed)
    proxy = _build_proxy(config, keychain)
    prf_timer = _TimedPrf(proxy.keychain.prf)
    cipher_timer = _TimedCipher(proxy.keychain.cipher)
    proxy.keychain.prf = prf_timer
    proxy.keychain.cipher = cipher_timer

    batches = _request_stream(config, rounds, seed)
    start = time.perf_counter()
    for batch in batches:
        proxy.handle_batch(batch)
    elapsed = time.perf_counter() - start

    requests = rounds * config.r
    return {
        "mode": "scalar" if scalar else "batched",
        "n": n,
        "b": config.b,
        "r": config.r,
        "value_size": config.value_size,
        "rounds": rounds,
        "seconds": elapsed,
        "rounds_per_sec": rounds / elapsed,
        "us_per_request": elapsed / requests * 1e6,
        "breakdown_seconds": {
            "prf": prf_timer.seconds,
            "aead": cipher_timer.seconds,
            "index_cache_other": max(0.0, elapsed - prf_timer.seconds
                                     - cipher_timer.seconds),
        },
    }


def compare_traces(n: int = 512, rounds: int = 12, seed: int = 31) -> dict:
    """Run scalar-PRF and batched-PRF proxies on one fixed workload and
    compare the adversary-visible access sequences and responses."""
    digests = {}
    for mode, chain in (("scalar", scalar_keychain(seed)),
                        ("batched", KeyChain.from_seed(seed))):
        config = WaffleConfig.paper_defaults(n=n, seed=seed)
        proxy = _build_proxy(config, chain, record=True)
        responses = hashlib.sha256()
        for batch in _request_stream(config, rounds, seed):
            for resp in proxy.handle_batch(batch):
                responses.update(resp.key.encode() + b"\x00" + resp.value)
        trace = hashlib.sha256()
        for rec in proxy.store.records:
            trace.update(
                f"{rec.op}:{rec.storage_id}:{rec.round}:{rec.seq}\n".encode())
        digests[mode] = {"trace": trace.hexdigest(),
                         "responses": responses.hexdigest()}
    digests["identical"] = digests["scalar"] == digests["batched"]
    return digests


def _trace_digest(records) -> str:
    digest = hashlib.sha256()
    for rec in records:
        digest.update(
            f"{rec.op}:{rec.storage_id}:{rec.round}:{rec.seq}\n".encode())
    return digest.hexdigest()


def compare_obs_traces(n: int = 256, rounds: int = 8, seed: int = 47) -> dict:
    """Trace neutrality oracle: observability must not change the trace.

    Runs Waffle and all three baselines (Pancake, PathORAM, TaoStore) on
    fixed-seed workloads twice each — once with observability disabled,
    once fully enabled — and digests the adversary-visible access
    sequence from the :class:`RecordingStore`.  Instrumentation that
    consumes rng draws or adds/perturbs server accesses shows up here as
    a digest mismatch.  Leaves observability disabled on return.
    """
    from repro import obs
    from repro.baselines.pancake.proxy import PancakeProxy
    from repro.baselines.pathoram import PathOram
    from repro.baselines.taostore import TaoStore
    from repro.workloads.trace import TraceRequest

    keys = [f"user{i:08d}" for i in range(n)]

    def run_waffle() -> str:
        config = WaffleConfig.paper_defaults(n=n, seed=seed)
        proxy = _build_proxy(config, KeyChain.from_seed(seed), record=True)
        for batch in _request_stream(config, rounds, seed):
            proxy.handle_batch(batch)
        return _trace_digest(proxy.store.records)

    def run_pancake() -> str:
        store = RecordingStore(InMemoryStore())
        proxy = PancakeProxy(
            keys, {key: b"v" * 32 for key in keys}, [1.0 / n] * n, store,
            batch_size=32, keychain=KeyChain.from_seed(seed), seed=seed)
        rng = random.Random(seed + 1)
        for _ in range(rounds):
            for _ in range(8):
                proxy.submit(TraceRequest(Operation.READ,
                                          keys[rng.randrange(n)]))
            proxy.process_batch()
        return _trace_digest(store.records)

    def run_pathoram() -> str:
        store = RecordingStore(InMemoryStore())
        oram = PathOram({key: b"v" * 32 for key in keys}, store,
                        keychain=KeyChain.from_seed(seed), seed=seed)
        rng = random.Random(seed + 2)
        for _ in range(rounds * 4):
            oram.get(keys[rng.randrange(n)])
        return _trace_digest(store.records)

    def run_taostore() -> str:
        store = RecordingStore(InMemoryStore())
        tao = TaoStore({key: b"v" * 32 for key in keys}, store,
                       keychain=KeyChain.from_seed(seed), seed=seed)
        rng = random.Random(seed + 3)
        for _ in range(rounds * 4):
            tao.submit(TraceRequest(Operation.READ, keys[rng.randrange(n)]))
            tao.drain()
        return _trace_digest(store.records)

    out: dict = {}
    identical = True
    for name, runner in (("waffle", run_waffle), ("pancake", run_pancake),
                         ("pathoram", run_pathoram),
                         ("taostore", run_taostore)):
        off = runner()
        with obs.capture():
            on = runner()
        out[name] = {"off": off, "on": on, "identical": off == on}
        identical = identical and off == on
    out["identical"] = identical
    return out


# ----------------------------------------------------------------------
# parallel round execution (repro.parallel)
# ----------------------------------------------------------------------
def parallel_round_config(n: int = 1024, seed: int = 23, b: int = 128,
                          value_size: int = 4096) -> WaffleConfig:
    """A crypto-heavy round shape for the multi-core benchmark.

    The paper-defaults shape at small N (B=10, 1 KiB values) spends a
    few hundred microseconds of crypto per round — far below the cost of
    dispatching to a process pool.  Figure 2c's regime is the opposite:
    large batches of large values where PRF+AEAD dominate the round.
    This shape (B=128, 4 KiB values by default) puts ~50 ms of kernel
    work in each round, which is what the workers parallelize.
    """
    r = max(1, (2 * b) // 5)
    f_d = max(1, b // 5)
    return WaffleConfig(n=n, b=b, r=r, f_d=f_d, d=4 * f_d, c=n // 4,
                        value_size=value_size, seed=seed)


def bench_rounds_parallel(workers: int = 1, n: int = 1024, rounds: int = 12,
                          seed: int = 23, b: int = 128,
                          value_size: int = 4096,
                          min_batch: int | None = None,
                          transport: str = "shm") -> dict:
    """Drive one proxy through ``rounds`` batches with ``workers`` workers.

    Returns wall-clock throughput plus the adversary-trace and response
    digests, so one sweep yields both the speedup curve and the
    byte-identity evidence.  ``workers=1`` runs fully inline (no pool) —
    the baseline every other worker count is compared against.

    ``transport`` selects the chunk channel (``"shm"`` segments vs the
    legacy ``"pipe"``), so one sweep can label every combination the
    speedup claims rest on.
    """
    from repro.parallel import WorkerPool, attach_pool

    config = parallel_round_config(n=n, seed=seed, b=b,
                                   value_size=value_size)
    proxy = _build_proxy(config, KeyChain.from_seed(seed), record=True)
    pool = None
    if workers > 1:
        pool = (WorkerPool(workers, transport=transport)
                if min_batch is None
                else WorkerPool(workers, min_batch=min_batch,
                                transport=transport))
        attach_pool(proxy, pool)
    try:
        batches = _request_stream(config, rounds, seed)
        responses = hashlib.sha256()
        start = time.perf_counter()
        for batch in batches:
            for resp in proxy.handle_batch(batch):
                responses.update(resp.key.encode() + b"\x00" + resp.value)
        elapsed = time.perf_counter() - start
    finally:
        if pool is not None:
            pool.close()
    return {
        "workers": workers,
        "transport": transport if workers > 1 else "inline",
        "n": n,
        "b": config.b,
        "r": config.r,
        "value_size": config.value_size,
        "rounds": rounds,
        "seconds": elapsed,
        "rounds_per_sec": rounds / elapsed,
        "us_per_request": elapsed / (rounds * config.r) * 1e6,
        "trace": _trace_digest(proxy.store.records),
        "responses": responses.hexdigest(),
    }


def compare_parallel_traces(worker_counts: Sequence[int] = (1, 2, 4, 8),
                            n: int = 256, rounds: int = 6, seed: int = 31,
                            b: int = 32, value_size: int = 512) -> dict:
    """Byte-identity oracle across worker counts (small/fast shape).

    ``min_batch=1`` forces every kernel call through the pool, so even
    the small plan-phase PRF batches exercise the chunked dispatch path.
    """
    runs = {
        workers: bench_rounds_parallel(
            workers=workers, n=n, rounds=rounds, seed=seed, b=b,
            value_size=value_size, min_batch=1)
        for workers in worker_counts
    }
    digests = {workers: {"trace": row["trace"],
                         "responses": row["responses"]}
               for workers, row in runs.items()}
    reference = next(iter(digests.values()))
    digests["identical"] = all(row == reference
                               for row in digests.values()
                               if isinstance(row, dict))
    return digests


def compare_telemetry_traces(workers: int = 2, n: int = 256, rounds: int = 6,
                             seed: int = 31, b: int = 32,
                             value_size: int = 512) -> dict:
    """Worker-telemetry neutrality oracle (the PR-7 acceptance check).

    A pooled run with full observability on — per-chunk telemetry deltas
    piggybacking on every response frame — must reproduce the serial,
    observability-off run's adversary trace and responses byte for byte.
    The telemetry must also actually arrive: the merged
    ``parallel.worker.chunks.total`` counters must account for at least
    one chunk per round, each labelled with the worker that ran it.
    ``min_batch=1`` forces every kernel call through the pool so the
    piggyback rides every dispatch path.
    """
    from repro import obs

    reference = bench_rounds_parallel(
        workers=1, n=n, rounds=rounds, seed=seed, b=b,
        value_size=value_size, min_batch=1)
    with obs.capture() as handle:
        pooled = bench_rounds_parallel(
            workers=workers, n=n, rounds=rounds, seed=seed, b=b,
            value_size=value_size, min_batch=1)
        worker_chunks = 0.0
        worker_ids: list[str] = []
        for name, labels, metric in handle.registry:
            if name == "parallel.worker.chunks.total":
                worker_chunks += metric.value
                worker = dict(labels).get("worker")
                if worker and worker not in worker_ids:
                    worker_ids.append(worker)
    identical = (pooled["trace"] == reference["trace"]
                 and pooled["responses"] == reference["responses"])
    return {
        "workers": workers,
        "trace": {"off": reference["trace"], "on": pooled["trace"]},
        "responses": {"off": reference["responses"],
                      "on": pooled["responses"]},
        "worker_chunks_merged": worker_chunks,
        "workers_reporting": sorted(worker_ids),
        "telemetry_arrived": worker_chunks >= rounds,
        "identical": identical,
    }


def compare_shard_traces(partitions: int = 2, shard_workers: int = 2,
                         n_per_partition: int = 256, rounds: int = 6,
                         seed: int = 13) -> dict:
    """Serial vs shard-parallel ``PartitionedWaffle``: per-partition
    adversary traces and the merged responses must be byte-identical."""
    from repro.scaleout.partitioned import PartitionedWaffle

    config = WaffleConfig.paper_defaults(n=n_per_partition, seed=seed)
    candidates = (f"user{i:08d}" for i in range(64 * n_per_partition))
    keys = PartitionedWaffle.plan_partitions(
        candidates, n_per_partition, partitions, master_seed=seed)
    items = {
        key: f"value-of-{key}".encode().ljust(64, b".")
        for key in keys
    }
    rng = random.Random(seed)
    batches = []
    for _ in range(rounds):
        batch = []
        for _ in range(partitions * config.r):
            key = keys[rng.randrange(len(keys))]
            if rng.random() < 0.3:
                batch.append(ClientRequest(
                    op=Operation.WRITE, key=key,
                    value=b"write-%06d" % rng.randrange(10**6)))
            else:
                batch.append(ClientRequest(op=Operation.READ, key=key))
        batches.append(batch)

    out: dict = {}
    for mode, workers in (("serial", 1), ("parallel", shard_workers)):
        store = PartitionedWaffle(config, items, partitions,
                                  master_seed=seed, record=True,
                                  shard_workers=workers)
        try:
            responses = hashlib.sha256()
            for batch in batches:
                for resp in store.execute_batch(batch):
                    responses.update(
                        resp.key.encode() + b"\x00" + resp.value)
            out[mode] = {
                "traces": [_trace_digest(part.recorder.records)
                           for part in store.stores],
                "responses": responses.hexdigest(),
            }
        finally:
            store.close()
    out["identical"] = out["serial"] == out["parallel"]
    return out


def run_parallel_benchmark(worker_counts: Sequence[int] = (1, 2, 4, 8),
                           n: int = 1024, rounds: int = 12,
                           seed: int = 23) -> dict:
    """The full multi-core report consumed by ``benchmarks/bench_parallel.py``.

    Sweeps ``worker_counts`` through :func:`bench_rounds_parallel` on
    the default (shm) transport, overlays the measured speedup curve on
    the :class:`PipelineModel` prediction for the same round shape,
    re-measures the 2-worker point on the legacy pipe transport (the
    regression this engine exists to fix), and bundles the byte-identity
    oracles (worker counts, shard partitions, telemetry).
    """
    from repro.sim.costmodel import CostModel
    from repro.sim.pipeline import model_from_cost

    config = parallel_round_config(n=n, seed=seed)
    measured = {}
    base = None
    for workers in worker_counts:
        row = bench_rounds_parallel(workers=workers, n=n, rounds=rounds,
                                    seed=seed)
        if base is None:
            base = row["rounds_per_sec"]
        row["speedup"] = row["rounds_per_sec"] / base
        measured[workers] = row

    model = model_from_cost(config, CostModel())
    model_base = model.simulate(1).throughput_rounds_per_s
    modeled = {
        workers: model.simulate(workers).throughput_rounds_per_s / model_base
        for workers in worker_counts
    }

    # The transport ablation: same 2-worker run through the PR-5 pickle
    # pipe, so the report always shows what the shm segments bought.
    transports = {}
    ablation_workers = next((w for w in worker_counts if w > 1), None)
    if ablation_workers is not None:
        for transport in ("shm", "pipe"):
            row = bench_rounds_parallel(
                workers=ablation_workers, n=n, rounds=rounds, seed=seed,
                transport=transport)
            row["speedup"] = row["rounds_per_sec"] / base
            transports[transport] = row

    reference = {"trace": measured[worker_counts[0]]["trace"],
                 "responses": measured[worker_counts[0]]["responses"]}

    def _matches(row: dict) -> bool:
        return (row["trace"] == reference["trace"]
                and row["responses"] == reference["responses"])

    return {
        "schema": "repro.parallel/2",
        "cpu_count": os.cpu_count(),
        "config": {"n": config.n, "b": config.b, "r": config.r,
                   "f_d": config.f_d, "value_size": config.value_size,
                   "rounds": rounds},
        "measured": measured,
        "modeled_speedup": modeled,
        "transports": transports,
        "digests_identical": (
            all(_matches(row) for row in measured.values())
            and all(_matches(row) for row in transports.values())),
        "shard_equivalence": compare_shard_traces(),
        "small_shape_equivalence": compare_parallel_traces(),
        "telemetry": compare_telemetry_traces(),
    }


def run_wallclock_benchmark(n: int = 2048, rounds: int = 30,
                            repeats: int = 3) -> dict:
    """The full wall-clock report consumed by ``bench_wallclock.py``."""
    e2e_scalar = min(
        (bench_rounds(n=n, rounds=rounds, scalar=True) for _ in range(repeats)),
        key=lambda row: row["seconds"])
    e2e_batched = min(
        (bench_rounds(n=n, rounds=rounds, scalar=False) for _ in range(repeats)),
        key=lambda row: row["seconds"])
    return {
        "schema": "repro.wallclock/1",
        "kernels": {
            "prf": bench_prf_kernel(repeats=repeats),
            "cache": bench_cache_kernel(repeats=repeats),
        },
        "end_to_end": {
            "scalar": e2e_scalar,
            "batched": e2e_batched,
            "rounds_per_sec_speedup": (
                e2e_batched["rounds_per_sec"] / e2e_scalar["rounds_per_sec"]),
        },
        "trace_equivalence": compare_traces(),
    }
