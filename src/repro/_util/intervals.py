"""Half-open integer interval sets with payload lookup.

Used by the detectors for benign-race address ranges and by the
classification oracle to map warning addresses back to the guest object
(and therefore the paper's warning category) they fall into.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator

__all__ = ["IntervalMap", "IntervalSet"]


class IntervalMap:
    """Maps half-open ``[start, end)`` integer ranges to payloads.

    Later insertions shadow earlier ones on overlap (lookup returns the
    most recently added covering interval), which matches how guest
    memory is reused: the newest object at an address is the one a
    warning refers to.
    """

    def __init__(self) -> None:
        #: Insertion-ordered list of (start, end, payload).
        self._entries: list[tuple[int, int, object]] = []

    def add(self, start: int, end: int, payload: object) -> None:
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        self._entries.append((start, end, payload))

    def lookup(self, addr: int) -> object | None:
        """Payload of the most recently added interval covering ``addr``."""
        for start, end, payload in reversed(self._entries):
            if start <= addr < end:
                return payload
        return None

    def lookup_all(self, addr: int) -> list[object]:
        """Payloads of *every* covering interval, newest first."""
        return [p for s, e, p in reversed(self._entries) if s <= addr < e]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[int, int, object]]:
        return iter(self._entries)


class IntervalSet:
    """A set of non-overlapping half-open integer intervals.

    Supports membership queries in O(log n).  Adding an interval merges
    it with any intervals it touches, so the internal representation
    stays disjoint and sorted.  ``_starts`` is empty exactly when the
    set is: a per-event path tests it for truth, which costs no Python
    call, before asking for membership.
    """

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> None:
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        # Find the window of existing intervals that overlap or touch:
        # an interval with end == start touches us, hence bisect_left.
        lo = bisect_left(self._ends, start)
        hi = bisect_right(self._starts, end)
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]

    def __contains__(self, addr: int) -> bool:
        idx = bisect_right(self._starts, addr) - 1
        return idx >= 0 and addr < self._ends[idx]

    def __len__(self) -> int:
        """Number of disjoint intervals."""
        return len(self._starts)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    @property
    def total_words(self) -> int:
        return sum(e - s for s, e in self)
