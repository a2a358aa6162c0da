"""Addressable max-heap keyed by integer gain.

Built on heapq with lazy invalidation: updates and removals mark the old
entry stale and push a fresh one; stale entries are skipped at the top.
Ties break toward the lower item id so pops are deterministic.  An entry
can be shelved: taken out of heap order while it stays live, so that a
caller can pass over a top it cannot use now and put it back later.
Shelved entries sit in buckets that a caller names by the event that lets
them back: `unshelve(bucket)` returns that bucket's entries only.
"""

from __future__ import annotations

import heapq


class AddressableMaxHeap:
    __slots__ = ("_heap", "_live", "_shelves")

    def __init__(self):
        self._heap: list[tuple[int, int]] = []  # (-gain, item)
        self._live: dict[int, int] = {}  # item -> current gain
        self._shelves: dict[object, list[tuple[int, int]]] = {}  # bucket -> entries

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, item: int) -> bool:
        return item in self._live

    def get(self, item: int, default: int | None = None) -> int | None:
        return self._live.get(item, default)

    def push(self, item: int, gain: int) -> None:
        """Insert or re-key an item."""
        self._live[item] = gain
        heapq.heappush(self._heap, (-gain, item))

    def fill(self, items: dict[int, int]) -> None:
        """Make an empty heap hold `items` (item -> gain), all at once."""
        self._live.update(items)
        self._heap = [(-gain, item) for item, gain in items.items()]
        heapq.heapify(self._heap)

    def update(self, item: int, gain: int | None) -> None:
        """Set an item's gain, or remove it when `gain` is None.  An entry
        whose gain is unchanged is left in place, shelved or not."""
        if gain is None:
            self._live.pop(item, None)
        elif self._live.get(item) != gain:
            self._live[item] = gain
            heapq.heappush(self._heap, (-gain, item))

    def _clean_top(self) -> None:
        heap = self._heap
        live = self._live
        while heap:
            neg, item = heap[0]
            if live.get(item) == -neg:
                return
            heapq.heappop(heap)

    def peek(self) -> tuple[int, int] | None:
        """(gain, item) of the current maximum, or None if empty."""
        self._clean_top()
        if not self._heap:
            return None
        neg, item = self._heap[0]
        return -neg, item

    def shelve(self, bucket: object = None) -> None:
        """Take the current maximum out of heap order, with any copies of
        it that re-keying left behind, into `bucket`.  It stays live (for
        `get`, `items` and `len`) until `unshelve(bucket)`; a `push` or
        `update` of the item meanwhile acts as usual."""
        self._clean_top()
        heap = self._heap
        top = heapq.heappop(heap)
        while heap and heap[0] == top:
            heapq.heappop(heap)
        self._shelves.setdefault(bucket, []).append(top)

    def unshelve(self, bucket: object = None) -> None:
        """Put the entries shelved in `bucket` back into heap order."""
        for entry in self._shelves.pop(bucket, ()):
            heapq.heappush(self._heap, entry)

    def items(self) -> dict[int, int]:
        """Live item -> gain snapshot."""
        return dict(self._live)
