"""Data-structure substrate: the ordered index and LRU cache Waffle relies on.

§4 (Challenge 2) requires an index ordered on ``(timestamp, key)`` that
yields the least-recently-accessed objects and absorbs timestamp updates
in ``O(log n)``; §4 (Challenge 3) requires a bounded least-recently-used
cache.  Both are implemented here on the standard library.
"""

from repro.ds.heap_index import HeapIndex
from repro.ds.lru import LruCache

__all__ = ["HeapIndex", "LruCache"]
