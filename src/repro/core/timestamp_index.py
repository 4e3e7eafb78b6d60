"""Access-timestamp index: the proxy's two ordered indexes (§6.1).

Waffle maintains one balanced BST for real objects and one for dummy
objects, ordered on ``<ts : plaintext_key>``, to find least-recently-
accessed objects for fake queries (Challenge 2).  The protocol never
walks that order, though: it pops the ``k`` least keys each round and
re-stamps single keys.  A min-heap with lazy invalidation
(:class:`~repro.ds.heap_index.HeapIndex`) answers exactly those two
questions, and because every sort key ends with the key itself, it pops
in the same order the BST would.  This module adds Waffle's semantics:

* **Real index** (:class:`RealObjectIndex`): tracks *server-resident* real
  keys only — Algorithm 1 line 26 requires fake-query candidates to not be
  in the cache, so cached keys are removed from the index and re-inserted
  on eviction.  The authoritative ``timestamp`` of *every* real key (cached
  or not) is kept alongside, because ``GetIndex`` needs it when evicted
  objects are written back.
* **Dummy index** (:class:`DummyObjectIndex`): all ``D`` dummies are always
  server-resident.  The paper resets all dummy timestamps once every
  ``D/f_D`` batches "to randomize the order in which dummy objects are
  picked".  A naive reset would desynchronize the selection order from the
  storage ids (which embed the timestamp of the *last write*), so the
  index keeps two notions per dummy: ``stored_ts`` — the timestamp baked
  into its current storage id — and the index position used for selection,
  whose tiebreak is reshuffled on every epoch reset.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.ds.heap_index import HeapIndex
from repro.seeding import seeded_rng

__all__ = ["DummyObjectIndex", "RealObjectIndex"]


class RealObjectIndex:
    """Timestamps for real objects + ordered index of server-resident ones.

    Index order is ``(timestamp, arrival, key)``: the arrival counter makes
    equal-timestamp keys FIFO, so a freshly evicted key cannot be
    indefinitely preempted by later evictions that happen to sort before
    it lexicographically (observable as an α tail otherwise).
    """

    __slots__ = ("_timestamps", "_index", "_arrivals")

    def __init__(self, keys: Iterable[str]) -> None:
        self._timestamps: dict[str, int] = dict.fromkeys(keys, 0)
        self._index = HeapIndex()
        self._arrivals = 0

    def __len__(self) -> int:
        return len(self._timestamps)

    def __contains__(self, key: str) -> bool:
        return key in self._timestamps

    @property
    def server_resident_count(self) -> int:
        return len(self._index)

    def timestamp(self, key: str) -> int:
        """Current access timestamp of ``key`` (BST.getTimestamp)."""
        return self._timestamps[key]

    def _next_arrival(self) -> int:
        self._arrivals += 1
        return self._arrivals

    def set_timestamp(self, key: str, ts: int) -> None:
        """BST.setTimestamp: update ``key``'s timestamp; if the key is
        tracked as server-resident its index position moves accordingly."""
        if key not in self._timestamps:
            raise KeyError(key)
        self._timestamps[key] = ts
        if key in self._index:
            self._index.push((ts, self._next_arrival(), key))

    def mark_server_resident(self, key: str) -> None:
        """Key now lives on the server: make it a fake-query candidate."""
        self._index.push((self._timestamps[key], self._next_arrival(), key))

    def mark_server_resident_many(self, keys: Iterable[str]) -> None:
        """:meth:`mark_server_resident` over ``keys`` in order, built in
        one O(n) heapify; the index must hold no resident key yet."""
        if len(self._index):
            raise ValueError("bulk build needs an empty index")
        timestamps = self._timestamps
        self._index.reset(
            (timestamps[key], self._next_arrival(), key) for key in keys)

    def mark_cached(self, key: str) -> None:
        """Key now lives in the cache: exclude it from fake-query selection."""
        if key in self._index:
            self._index.remove(key)

    def stamp_cached(self, key: str, ts: int) -> int:
        """:meth:`set_timestamp` + :meth:`mark_cached` for a key fetched
        into the cache; returns its previous timestamp.

        The arrival counter advances exactly as the pair would, but no
        index tuple is pushed only to be invalidated again.
        """
        previous = self._timestamps[key]
        self._timestamps[key] = ts
        if key in self._index:
            self._arrivals += 1
            self._index.remove(key)
        return previous

    def min_timestamp_key(self) -> str:
        """BST.getMinTimestampObj(real): least-recently-accessed resident key."""
        key: str = self._index.min()[-1]
        return key

    def pop_min_keys(self, count: int, ts: int) -> list[tuple[str, int]]:
        """Batched fake-query selection: take the ``count`` least-recently-
        accessed resident keys, stamp each with ``ts`` and mark it cached.

        Returns ``(key, previous_timestamp)`` pairs in selection order —
        the previous timestamp is what ``GetIndex`` must feed the PRF.
        Equivalent to ``count`` rounds of :meth:`min_timestamp_key` +
        :meth:`stamp_cached` (including the arrival counter, so eviction
        FIFO tiebreaks are unchanged).
        """
        timestamps = self._timestamps
        selected: list[tuple[str, int]] = []
        for _, _, key in self._index.pop_min_many(count):
            selected.append((key, timestamps[key]))
            timestamps[key] = ts
        self._arrivals += len(selected)
        return selected

    def pop_random_keys(self, count: int, rng: random.Random,
                        ts: int) -> list[tuple[str, int]]:
        """The Challenge-2 ablation: like :meth:`pop_min_keys`, but each
        pick is a uniformly random resident key (recency is ignored).

        One sorted snapshot serves the whole round: removing a pick does
        not reorder the rest, so ``rng.randrange`` over the shrinking
        snapshot draws the same ranks, in the same order, as a rank
        ``select`` on the live index would.
        """
        snapshot = self._index.sorted_entries()
        selected: list[tuple[str, int]] = []
        for _ in range(count):
            _, _, key = snapshot.pop(rng.randrange(len(snapshot)))
            selected.append((key, self.stamp_cached(key, ts)))
        return selected

    def add_key(self, key: str, ts: int, server_resident: bool) -> None:
        """Register a brand-new real key (insert support, §6.2)."""
        if key in self._timestamps:
            raise KeyError(f"key already tracked: {key}")
        self._timestamps[key] = ts
        if server_resident:
            self._index.push((ts, self._next_arrival(), key))

    def drop_key(self, key: str) -> None:
        """Forget a real key entirely (delete support, §6.2)."""
        del self._timestamps[key]
        if key in self._index:
            self._index.remove(key)


class DummyObjectIndex:
    """Selection order and stored timestamps for the ``D`` dummy objects.

    Index order is ``(timestamp, tiebreak, key)`` with the tiebreak drawn
    from the index's own rng on every re-stamp.
    """

    __slots__ = ("_stored_ts", "_index", "_rng", "_accessed_since_reset",
                 "reshuffle")

    def __init__(self, keys: Iterable[str], seed: int | None = None,
                 reshuffle: bool = True) -> None:
        self._rng = seeded_rng(seed)
        #: Apply the paper's epoch reset (see WaffleConfig.dummy_policy).
        self.reshuffle = reshuffle
        self._stored_ts: dict[str, int] = dict.fromkeys(keys, 0)
        self._index = HeapIndex(
            (0, self._rng.random(), key) for key in self._stored_ts)
        self._accessed_since_reset = 0

    def __len__(self) -> int:
        return len(self._stored_ts)

    def __contains__(self, key: str) -> bool:
        return key in self._stored_ts

    def stored_timestamp(self, key: str) -> int:
        """Timestamp embedded in the dummy's current storage id."""
        return self._stored_ts[key]

    def min_timestamp_key(self) -> str:
        """BST.getMinTimestampObj(dummy)."""
        key: str = self._index.min()[-1]
        return key

    def take_min_keys(self, count: int) -> list[str]:
        """Batched BST.getMinTimestampObj: detach the ``count`` least keys.

        Stored timestamps are untouched (``GetIndex`` still needs them for
        the ids being read), and the keys leave the selection index, so a
        dummy cannot be selected twice in one batch.  Callers must follow
        up with :meth:`record_access_many` (rewritten dummies) and/or
        :meth:`retire` (dummies swapped out for inserted real objects).
        """
        return [entry[-1] for entry in self._index.pop_min_many(count)]

    def record_access_many(self, keys: Iterable[str], ts: int) -> None:
        """Batched :meth:`record_access` over keys already detached by
        :meth:`take_min_keys`; tiebreak draws happen in ``keys`` order, so
        the selection sequence matches the one-at-a-time path exactly."""
        for key in keys:
            self.record_access(key, ts)

    def retire(self, key: str) -> int:
        """Forget a dummy already detached by :meth:`take_min_keys` (insert
        support swaps it for a real key); returns its stored timestamp."""
        return self._stored_ts.pop(key)

    def record_access(self, key: str, ts: int) -> None:
        """The dummy was just read; its next storage id embeds ``ts``.

        Once every dummy has been accessed (``D`` accesses), all selection
        positions are reshuffled — the paper's epoch reset — while the
        stored timestamps, which storage ids depend on, advance normally.
        The reshuffle is deferred to :meth:`end_round` so a dummy cannot
        be selected twice within one batch (its new id is only written in
        the round's write phase).
        """
        self._stored_ts[key] = ts
        self._index.push((ts, self._rng.random(), key))
        self._accessed_since_reset += 1

    def end_round(self, ts: int) -> None:
        """Apply the epoch reset if every dummy has been accessed."""
        if not self.reshuffle:
            return
        if self._stored_ts and self._accessed_since_reset >= len(self._stored_ts):
            self._reshuffle(ts)
            self._accessed_since_reset = 0

    def _reshuffle(self, ts: int) -> None:
        entries = list(self._stored_ts)
        self._rng.shuffle(entries)
        rand = self._rng.random
        self._index.reset([(ts, rand(), key) for key in entries])

    def swap_out(self, key: str) -> int:
        """Remove a dummy (insert support swaps it for a real key); returns
        the timestamp baked into its current storage id."""
        ts = self._stored_ts.pop(key)
        self._index.remove(key)
        return ts

    def swap_in(self, key: str, ts: int) -> None:
        """Add a dummy (delete support swaps a real key for a dummy)."""
        if key in self._stored_ts:
            raise KeyError(f"dummy already tracked: {key}")
        self._stored_ts[key] = ts
        self._index.push((ts, self._rng.random(), key))

    def any_key(self) -> str:
        """An arbitrary dummy key (used by insert's swap)."""
        return self.min_timestamp_key()
