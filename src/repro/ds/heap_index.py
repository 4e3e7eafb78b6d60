"""A min-heap with lazy invalidation: the ordered index behind Waffle's BSTs.

Waffle orders objects on ``<ts : key>`` (§6.1) but only ever asks for the
``k`` least entries and re-stamps single keys.  A binary heap of sort-key
tuples does both at C speed through :mod:`heapq`.  Each tuple ends with
its entry key, and a dict maps every live key to its current tuple, so
removing or re-stamping a key only touches the dict: the old tuple stays
in the heap and a pop skips any tuple that *is* not its key's current one.
When stale tuples outnumber live ones the heap is rebuilt from the dict.

Sort keys must be unique (Waffle's always end with the key itself), so
the pop order is fully determined by them, never by the heap's shape.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Hashable, Iterable

from repro.obs import OBS

__all__ = ["Entry", "HeapIndex"]

#: A sort-key tuple whose last element is the entry key.
Entry = tuple[Any, ...]

#: Stale tuples tolerated beyond the live count before a rebuild.
SLACK = 64


class HeapIndex:
    """Ordered set of keys, each positioned by its current sort-key tuple."""

    __slots__ = ("_heap", "_live")

    def __init__(self, entries: Iterable[Entry] = ()) -> None:
        self._heap: list[Entry] = []
        self._live: dict[Hashable, Entry] = {}
        self.reset(entries)

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._live

    @property
    def heap_size(self) -> int:
        """Tuples held, live and stale (bounded by ``2·len + SLACK``)."""
        return len(self._heap)

    def reset(self, entries: Iterable[Entry]) -> None:
        """Replace the contents with ``entries`` in one O(n) heapify."""
        self._heap = list(entries)
        self._live = {entry[-1]: entry for entry in self._heap}
        heapq.heapify(self._heap)

    def push(self, entry: Entry) -> None:
        """Insert ``entry``; a key already present moves to the new tuple."""
        live, heap = self._live, self._heap
        live[entry[-1]] = entry
        heapq.heappush(heap, entry)
        if len(heap) > 2 * len(live) + SLACK:
            self._compact()

    def remove(self, key: Hashable) -> None:
        """Remove ``key`` (KeyError if absent); its tuple goes stale."""
        del self._live[key]
        if len(self._heap) > 2 * len(self._live) + SLACK:
            self._compact()

    def _compact(self) -> None:
        """Drop every stale tuple: heapify the live ones afresh."""
        self.reset(self._live.values())

    def min(self) -> Entry:
        """The least live tuple (KeyError if empty); stale tops are dropped."""
        heap, live = self._heap, self._live
        while heap:
            entry = heap[0]
            if live.get(entry[-1]) is entry:
                return entry
            heapq.heappop(heap)
        raise KeyError("index is empty")

    def pop_min_many(self, count: int) -> list[Entry]:
        """Remove and return the ``count`` least live tuples, ascending."""
        if OBS.enabled:
            start = time.perf_counter()
            out = self._pop_min_many(count)
            OBS.observe_kernel("index.pop_min_many",
                               time.perf_counter() - start, len(out))
            return out
        return self._pop_min_many(count)

    def _pop_min_many(self, count: int) -> list[Entry]:
        heap, live = self._heap, self._live
        pop = heapq.heappop
        out: list[Entry] = []
        append = out.append
        while count > 0 and heap:
            entry = pop(heap)
            key = entry[-1]
            if live.get(key) is entry:
                del live[key]
                append(entry)
                count -= 1
        if len(heap) > 2 * len(live) + SLACK:
            self._compact()
        return out

    def sorted_entries(self) -> list[Entry]:
        """Every live tuple in ascending order (O(n log n) snapshot)."""
        return sorted(self._live.values())
