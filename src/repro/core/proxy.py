"""The Waffle proxy: Algorithm 1 plus initialization (§6).

The proxy is the trusted, stateful component.  Per batch round it:

1. **Read phase** — serves cache hits locally; deduplicates misses;
   appends ``f_D`` fake queries on dummy objects and
   ``f_R = B - (r + f_D)`` fake queries on least-recently-accessed real
   objects; derives each storage id as ``prf(k, ts_k)`` *before* bumping
   ``ts_k`` to the current round; reads the ``B`` ids in one pipelined
   batch and then deletes them (each id is read at most once, Challenge 4).
2. **Write phase** — answers deduplicated requests from the fetched
   values; caches every fetched real object; evicts the cache back down to
   ``C``, writing each evicted object back under its *new* id
   ``prf(k, ts'_k)``; re-encrypts and rewrites the ``f_D`` dummies under
   their new ids.  Every round therefore reads exactly ``B`` ids and
   writes exactly ``B`` ids.

Two deliberate deviations from the pseudocode-as-printed, both discussed
in the paper's prose:

* Algorithm 1 line 10 as printed would enqueue a server fetch even for a
  write whose key is cached — but a cached key has no server copy (an
  object "either only resides in the cache or at the server", Challenge 4),
  so the fetch would fail; cache-hit writes are served purely locally.
* the "background thread" that deletes read ids runs synchronously here
  ("deleting these objects has no security implications", §6.2).

Small-cache regime: Algorithm 1 assumes ``C >= B - f_D + R``.  Below
that (the paper's "re-write the objects fetched" fallback, §6.2) a
write-miss key can be evicted back to the server before its fetched
server copy is processed; the stale copy is then discarded rather than
resurrected, so such rounds write slightly fewer than ``B`` objects.
In the standard regime every round writes exactly ``B``.

Insert/delete support (§6.2 end) swaps dummy objects for real objects and
vice versa; see :mod:`repro.core.mutations`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.obs import OBS

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.config import WaffleConfig
from repro.core.mutations import MutationQueue
from repro.core.timestamp_index import DummyObjectIndex, RealObjectIndex
from repro.crypto.keys import KeyChain
from repro.ds.lru import LruCache
from repro.errors import ConfigurationError, ProtocolError
from repro.storage.base import StorageBackend
from repro.workloads.trace import Operation

__all__ = ["RoundStats", "WaffleProxy"]

_DUMMY_PREFIX = "\x00dummy:"

#: Cache-miss sentinel for single-lookup reads (values may be any bytes).
_MISS = object()


@dataclass(slots=True)
class RoundStats:
    """Operation counts of one batch round, consumed by the cost model."""

    round: int
    requests: int = 0
    cache_hits: int = 0
    unique_real_reads: int = 0  # r
    fake_real_reads: int = 0  # f_R
    fake_dummy_reads: int = 0  # f_D actually issued
    server_reads: int = 0
    server_writes: int = 0
    server_deletes: int = 0
    prf_evals: int = 0
    decryptions: int = 0
    encryptions: int = 0
    cache_ops: int = 0
    index_ops: int = 0


@dataclass(slots=True)
class ProxyTotals:
    """Lifetime aggregates across all rounds."""

    rounds: int = 0
    requests: int = 0
    cache_hits: int = 0
    server_reads: int = 0
    server_writes: int = 0
    max_transient_cache: int = 0
    stats_by_round: list = field(default_factory=list)


class WaffleProxy:
    """Stateful trusted proxy executing Algorithm 1.

    Parameters
    ----------
    config:
        System parameters (Table 1).
    store:
        The untrusted server.  Wrap it in a
        :class:`~repro.storage.recording.RecordingStore` to capture the
        adversary's view; the proxy advances its round counter if present.
    keychain:
        Proxy-held secrets; defaults to a fresh random keychain.
    keep_round_stats:
        Retain per-round :class:`RoundStats` (benchmarks need them; long
        soak tests can disable to bound memory).
    """

    def __init__(self, config: WaffleConfig, store: StorageBackend,
                 keychain: KeyChain | None = None,
                 keep_round_stats: bool = True,
                 log_ids: bool = False) -> None:
        self.config = config
        self.store = store
        self.keychain = keychain if keychain is not None else KeyChain()
        self._rng = random.Random(config.seed)
        self.cache = LruCache(config.c)
        self.ts = 0
        self.totals = ProxyTotals()
        self._keep_round_stats = keep_round_stats
        self.mutations = MutationQueue()
        self._real_index: RealObjectIndex | None = None
        self._dummy_index: DummyObjectIndex | None = None
        self._initialized = False
        self._last_stats: RoundStats | None = None
        #: Optional storage-id provenance (sid -> plaintext key): the
        #: system-side ground truth the security analysis uses to measure
        #: beta, which the adversary cannot observe (§8.3.1).
        self.id_log: dict[str, str] | None = {} if log_ids else None

    # ------------------------------------------------------------------
    # initialization (§6.1)
    # ------------------------------------------------------------------
    def initialize(self, items: dict[str, bytes]) -> None:
        """Load the initial dataset: seed the cache, indexes and the server."""
        if self._initialized:
            raise ProtocolError("proxy already initialized")
        if len(items) != self.config.n:
            raise ConfigurationError(
                f"expected N={self.config.n} items, got {len(items)}"
            )
        if any(key.startswith(_DUMMY_PREFIX) for key in items):
            raise ConfigurationError("client keys may not use the dummy prefix")

        cfg = self.config
        seed_base = self._rng.randrange(2**63)
        self._real_index = RealObjectIndex(items.keys())
        dummy_keys = [f"{_DUMMY_PREFIX}{i:012d}" for i in range(cfg.d)]
        self._dummy_index = DummyObjectIndex(
            dummy_keys, seed=seed_base + 17,
            reshuffle=cfg.dummy_policy == "reshuffle",
        )

        # Randomly chosen cache seed of C real objects.
        all_keys = list(items.keys())
        self._rng.shuffle(all_keys)
        cached_keys = all_keys[: cfg.c]
        server_keys = all_keys[cfg.c:]
        for key in cached_keys:
            self.cache.put(key, items[key])

        # Remaining reals and all dummies, shuffled, encoded, loaded.  The
        # N - C + D outsourced objects go through the batched crypto
        # kernels in B-sized calls, the shape of a round, so the one-off
        # load does not skew the per-call kernel profile.
        self._real_index.mark_server_resident_many(server_keys)
        load_keys = server_keys + dummy_keys
        values = [items[key] for key in server_keys]
        values.extend(self._dummy_payload() for _ in dummy_keys)
        encrypt_many = self.keychain.cipher.encrypt_many
        sids: list[str] = []
        blobs: list[bytes] = []
        for lo in range(0, len(load_keys), cfg.b):
            hi = lo + cfg.b
            sids += self._encode_ids([(key, 0) for key in load_keys[lo:hi]])
            blobs += encrypt_many(values[lo:hi])
        outsourced = list(zip(sids, blobs))
        self._rng.shuffle(outsourced)
        self.store.multi_put(outsourced)
        self._initialized = True

    # ------------------------------------------------------------------
    # crypto helpers
    # ------------------------------------------------------------------
    def _encode_id(self, key: str, ts: int) -> str:
        sid = self.keychain.prf.derive(key, ts)
        if self.id_log is not None:
            self.id_log[sid] = key
        return sid

    def _encode_ids(self, pairs: list[tuple[str, int]]) -> list[str]:
        """Batched :meth:`_encode_id` over ``(key, timestamp)`` pairs."""
        sids = self.keychain.prf.derive_many(pairs)
        if self.id_log is not None:
            for sid, (key, _) in zip(sids, pairs):
                self.id_log[sid] = key
        return sids

    def _encrypt(self, value: bytes) -> bytes:
        return self.keychain.cipher.encrypt(value)

    def _decrypt(self, blob: bytes) -> bytes:
        return self.keychain.cipher.decrypt(blob)

    def _dummy_payload(self) -> bytes:
        return self._rng.randbytes(self.config.value_size)

    def _is_dummy(self, key: str) -> bool:
        return key.startswith(_DUMMY_PREFIX)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def handle_batch(self, requests: list[ClientRequest]) -> list[ClientResponse]:
        """Process one batch of up to R client requests; returns responses."""
        if not self._initialized:
            raise ProtocolError("proxy not initialized")
        cfg = self.config
        if len(requests) > cfg.r:
            raise ProtocolError(
                f"batch carries {len(requests)} requests, R={cfg.r}"
            )
        real_index = self._real_index
        dummy_index = self._dummy_index
        self.ts += 1
        stats = RoundStats(round=self.ts, requests=len(requests))
        # Duck-typed so fault-injection and other wrappers stacked above a
        # RecordingStore can forward the round boundary.
        next_round = getattr(self.store, "next_round", None)
        if next_round is not None:
            next_round()
        # Observability: phase boundaries are perf_counter readings taken
        # only when enabled; the disabled path costs one branch per phase
        # (the zero-cost contract pinned by tests/test_obs_overhead.py).
        # Phases form a span tree under the round: open_span(root=True)
        # resets the thread's span stack, so a chaos-injected mid-round
        # exception cannot corrupt the parentage of later rounds.
        obs = OBS
        observing = obs.enabled
        if observing:
            _pc = time.perf_counter
            _round_tok = obs.open_span("round", root=True)
            _tok = obs.open_span("phase.plan")
            _t0 = _pc()

        cli_resp: dict[int, bytes] = {}
        dedup: dict[str, list[tuple[int, bool]]] = {}

        inserts, deletes = self.mutations.drain(
            insert_limit=min(cfg.f_d, len(dummy_index)),
            delete_limit=cfg.f_r_min,
        )

        # -------------------- read phase --------------------
        # Consecutive READ requests probe the cache through one bulk
        # get_if_present_many call (a pure READ run performs no cache
        # mutations, so batching the probes cannot reorder anything:
        # recency bumps land hit-by-hit in request order, exactly as the
        # scalar loop produced them).  WRITE requests mutate the cache
        # and therefore stay scalar, bounding each run at the next write.
        index = 0
        total = len(requests)
        while index < total:
            request = requests[index]
            if request.op is Operation.READ:
                run_end = index + 1
                while (run_end < total
                       and requests[run_end].op is Operation.READ):
                    run_end += 1
                run = requests[index:run_end]
                values = self.cache.get_if_present_many(
                    [req.key for req in run], _MISS)
                for req, value in zip(run, values):
                    key = req.key
                    if key not in real_index:
                        raise ProtocolError(
                            f"request for unknown key: {key!r}")
                    if value is not _MISS:
                        cli_resp[req.request_id] = value
                        stats.cache_hits += 1
                        stats.cache_ops += 1
                    else:
                        dedup.setdefault(key, []).append(
                            (req.request_id, True))
                index = run_end
            else:  # WRITE
                key = request.key
                if key not in real_index:
                    raise ProtocolError(f"request for unknown key: {key!r}")
                if key in self.cache:
                    self.cache.put(key, request.value)
                    stats.cache_hits += 1
                else:
                    dedup.setdefault(key, []).append((request.request_id, False))
                    self.cache.put(key, request.value)
                stats.cache_ops += 1
                cli_resp[request.request_id] = request.value
                index += 1

        read_batch: dict[str, str] = {}  # storage id -> plaintext key
        dedup_pairs = [(key, real_index.stamp_cached(key, self.ts))
                       for key in dedup]
        for sid, key in zip(self._encode_ids(dedup_pairs), dedup):
            read_batch[sid] = key
        stats.prf_evals += len(dedup)
        stats.index_ops += 2 * len(dedup)

        # Deleted server-resident keys are force-read this round so their
        # ids leave the server (they consume fake-real slots below).
        forced_reads: list[str] = []
        newborn_dummies: list[str] = []
        for key in deletes:
            if key in dedup:
                # The key is being fetched for a client in this very round;
                # retry the delete next round to keep the response correct.
                self.mutations.enqueue_delete(key)
                continue
            if key in self.cache:
                self.cache.remove(key)
                real_index.drop_key(key)
            else:
                forced_reads.append(key)
            newborn_dummies.append(self._new_dummy_key())

        # Fake queries on dummy objects (lines 20-23).  Retiring dummies
        # (freeing slots for inserts) are read but will not be rewritten.
        # The f_D least-recently-read dummies are detached from the
        # selection index in one batched pop; ids derive from their
        # still-stored timestamps in one PRF pass.
        dummy_budget = min(cfg.f_d, len(dummy_index))
        dummy_sel = dummy_index.take_min_keys(dummy_budget)
        if len(inserts) > len(dummy_sel):
            raise ProtocolError("insert queue exceeded available dummy reads")
        dummy_pairs = [
            (key, dummy_index.stored_timestamp(key)) for key in dummy_sel
        ]
        for sid, key in zip(self._encode_ids(dummy_pairs), dummy_sel):
            read_batch[sid] = key
        retired_dummies = set(dummy_sel[: len(inserts)])
        for key in dummy_sel[: len(inserts)]:
            dummy_index.retire(key)
        dummy_index.record_access_many(dummy_sel[len(inserts):], self.ts)
        stats.prf_evals += len(dummy_sel)
        stats.index_ops += len(dummy_sel)
        stats.fake_dummy_reads += len(dummy_sel)
        for key, value in inserts:
            real_index.add_key(key, self.ts, server_resident=False)
            self.cache.put(key, value)
            stats.cache_ops += 1

        # Fake queries on real objects (lines 24-28): least-recently
        # accessed server-resident keys, preceded by any forced deletes.
        r = len(dedup)
        f_r = cfg.b - (r + stats.fake_dummy_reads)
        if f_r < 0:
            raise ProtocolError("batch overflow: r + f_D exceeds B")
        dropped_reads: set[str] = set()
        # Forced deletes consume fake-real slots first (the scalar loop
        # popped them from the end of the list, one per slot).
        forced_sel = [forced_reads.pop() for _ in range(min(len(forced_reads), f_r))]
        forced_pairs = [(key, real_index.timestamp(key)) for key in forced_sel]
        for sid, key in zip(self._encode_ids(forced_pairs), forced_sel):
            read_batch[sid] = key
            real_index.drop_key(key)
            dropped_reads.add(key)
        stats.prf_evals += len(forced_sel)
        stats.index_ops += len(forced_sel)

        remaining = f_r - len(forced_sel)
        if remaining:
            if remaining > real_index.server_resident_count:
                raise ProtocolError(
                    "no server-resident real objects left for fake queries; "
                    "N - C is too small for this configuration"
                )
            if cfg.fake_real_policy == "least_recent":
                fake_pairs = real_index.pop_min_keys(remaining, self.ts)
            else:  # "uniform": the Challenge-2 ablation
                fake_pairs = real_index.pop_random_keys(
                    remaining, self._rng, self.ts)
            for sid, (key, _) in zip(self._encode_ids(fake_pairs), fake_pairs):
                read_batch[sid] = key
            stats.prf_evals += remaining
            stats.index_ops += 2 * remaining
        if forced_reads:
            raise ProtocolError("delete queue exceeded fake-real budget")
        stats.unique_real_reads = r
        stats.fake_real_reads = f_r
        if observing:
            _t1 = _pc()
            obs.close_span(_tok, _t1 - _t0,
                           labels={"system": "waffle"}, round=self.ts)
            _tok = obs.open_span("phase.server_io")

        # One pipelined read of B ids.  Their deletion (read-once ids) is
        # deferred into the end-of-round commit_round so that a crash
        # anywhere in the round leaves the server untouched by it — the
        # property snapshot-based failover recovery relies on.  The
        # adversary-visible trace is unchanged: reads, then deletes, then
        # writes, once per round.
        sids = sorted(read_batch)
        blobs = self.store.multi_get(sids)
        stats.server_reads = len(sids)
        stats.server_deletes = len(sids)
        if observing:
            _t2 = _pc()
            obs.close_span(_tok, _t2 - _t1,
                           labels={"system": "waffle", "dir": "read"},
                           round=self.ts, ids=len(sids))
            _tok = obs.open_span("phase.decrypt")

        # -------------------- write phase --------------------
        # "The algorithm first evicts an object from the cache before
        # adding a new object" (lines 37-41): interleaving eviction with
        # insertion keeps the transient cache at C + R, never C + B.
        #
        # Crypto is deferred: the loop plans (key, id_timestamp, plaintext)
        # triples in emission order, then one derive_many + encrypt_many
        # pass produces the actual write batch.  Dummy payloads are still
        # drawn at plan time so the proxy rng stream matches the scalar
        # path draw-for-draw (the recorded trace is identical).
        write_plan: list[tuple[str, int, bytes]] = []
        written_this_phase: set[str] = set()

        def evict_one() -> None:
            evicted_key, evicted_value = self.cache.evict()
            real_index.mark_server_resident(evicted_key)
            written_this_phase.add(evicted_key)
            write_plan.append(
                (evicted_key, real_index.timestamp(evicted_key), evicted_value)
            )
            stats.prf_evals += 1
            stats.encryptions += 1
            stats.cache_ops += 1
            stats.index_ops += 1

        # Every fetched real object decrypts in one batched kernel pass
        # (dummy payloads are random bytes and never inspected).
        real_positions = [
            pos for pos, sid in enumerate(sids)
            if not self._is_dummy(read_batch[sid])
        ]
        plaintexts = self.keychain.cipher.decrypt_many(
            [blobs[pos] for pos in real_positions]
        )
        decrypted = dict(zip(real_positions, plaintexts))
        stats.decryptions += len(real_positions)
        if observing:
            _t3 = _pc()
            obs.close_span(_tok, _t3 - _t2,
                           labels={"system": "waffle"}, round=self.ts,
                           values=len(real_positions))
            _tok = obs.open_span("phase.cache")

        for pos, sid in enumerate(sids):
            key = read_batch[sid]
            if self._is_dummy(key):
                if key in retired_dummies:
                    continue  # slot freed for an inserted real object
                write_plan.append(
                    (key, dummy_index.stored_timestamp(key), self._dummy_payload())
                )
                stats.prf_evals += 1
                stats.encryptions += 1
                continue
            value = decrypted[pos]
            if key in dropped_reads:
                continue  # deleted key: fetched only to clear its id
            for request_id, need_resp in dedup.get(key, ()):
                if need_resp:
                    cli_resp[request_id] = value
            if key in written_this_phase:
                # A write-miss key whose (newer) cached value was already
                # evicted back to the server earlier in this phase; do not
                # resurrect the stale fetched copy.
                continue
            if not self.cache.touch_if_present(key):
                # touch_if_present: a hit means the key was written this
                # batch and the cached value wins; recency still bumps.
                if len(self.cache) >= cfg.c:
                    evict_one()
                self.cache.put(key, value)
            stats.cache_ops += 1

        for key in newborn_dummies:
            dummy_index.swap_in(key, self.ts)
            write_plan.append((key, self.ts, self._dummy_payload()))
            stats.prf_evals += 1
            stats.encryptions += 1

        self.totals.max_transient_cache = max(
            self.totals.max_transient_cache, len(self.cache)
        )
        if observing:
            _t4 = _pc()
            obs.close_span(_tok, _t4 - _t3,
                           labels={"system": "waffle"}, round=self.ts)
            _tok = obs.open_span("phase.evict")
        # Drain the write-miss overage (the C + R transient) back to C.
        while self.cache.over_capacity():
            evict_one()
        if observing:
            _t5 = _pc()
            obs.close_span(_tok, _t5 - _t4,
                           labels={"system": "waffle"}, round=self.ts)
            _tok = obs.open_span("phase.seal")

        write_ids, ciphertexts = self.keychain.seal_many(
            [(key, ts) for key, ts, _ in write_plan],
            [value for _, _, value in write_plan],
        )
        if self.id_log is not None:
            for sid, (key, _, _) in zip(write_ids, write_plan):
                self.id_log[sid] = key
        write_batch = list(zip(write_ids, ciphertexts))
        if observing:
            _t6 = _pc()
            obs.close_span(_tok, _t6 - _t5,
                           labels={"system": "waffle"}, round=self.ts,
                           writes=len(write_batch))
            _tok = obs.open_span("phase.server_io")
        self.store.commit_round(sids, write_batch)
        stats.server_writes = len(write_batch)
        dummy_index.end_round(self.ts)
        if observing:
            _t7 = _pc()
            obs.close_span(_tok, _t7 - _t6,
                           labels={"system": "waffle", "dir": "write"},
                           round=self.ts, ids=len(write_batch))

        # -------------------- bookkeeping --------------------
        totals = self.totals
        totals.rounds += 1
        totals.requests += stats.requests
        totals.cache_hits += stats.cache_hits
        totals.server_reads += stats.server_reads
        totals.server_writes += stats.server_writes
        if self._keep_round_stats:
            totals.stats_by_round.append(stats)
        self._last_stats = stats

        if observing:
            labels = {"system": "waffle"}
            reg = obs.registry
            reg.counter("rounds.total", **labels).inc()
            reg.counter("requests.total", **labels).inc(stats.requests)
            reg.counter("cache.hits.total", **labels).inc(stats.cache_hits)
            reg.counter("server.reads.total", **labels).inc(stats.server_reads)
            reg.counter("server.writes.total", **labels).inc(stats.server_writes)
            reg.counter("batch.real.total", **labels).inc(stats.unique_real_reads)
            reg.counter("batch.fake_real.total", **labels).inc(stats.fake_real_reads)
            reg.counter("batch.fake_dummy.total", **labels).inc(stats.fake_dummy_reads)
            reg.gauge("cache.size", **labels).set(len(self.cache))
            obs.close_span(_round_tok, _pc() - _t0, labels=labels,
                           round=self.ts, requests=stats.requests,
                           real=stats.unique_real_reads,
                           fake_real=stats.fake_real_reads,
                           fake_dummy=stats.fake_dummy_reads,
                           cache_hits=stats.cache_hits)

        return [
            ClientResponse(request_id=request.request_id, key=request.key,
                           value=cli_resp[request.request_id])
            for request in requests
        ]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def last_stats(self) -> RoundStats:
        return self._last_stats

    @property
    def real_count(self) -> int:
        """Current N (changes under inserts/deletes)."""
        return len(self._real_index) if self._real_index else 0

    @property
    def dummy_count(self) -> int:
        """Current D (changes under inserts/deletes)."""
        return len(self._dummy_index) if self._dummy_index else 0

    def contains_key(self, key: str) -> bool:
        return self._real_index is not None and key in self._real_index

    def _new_dummy_key(self) -> str:
        return f"{_DUMMY_PREFIX}n{self._rng.randrange(2**63):015x}"
