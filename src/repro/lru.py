"""A bounded least-recently-used memo whose values are built at most once per miss.

The :class:`~repro.api.Session` memoizes selection contexts and the planning
daemon memoizes finished response documents, both in long-running processes
shared by many threads.  :class:`BuildOnceLRU` is that memo, once: concurrent
misses on one key run one build while the others wait for it, builds of
different keys run in parallel, and the least recently used entry is evicted
once the cache holds more than its capacity.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Tuple, TypeVar

#: Entries one cache keeps.  No workload of the tests, benchmarks or
#: perfbench holds more than 44 keys in one Session or daemon, so none evicts.
CAPACITY = 128

V = TypeVar("V")


class BuildOnceLRU(Generic[V]):
    """Values keyed by a hashable, built once per miss, at most :data:`CAPACITY` kept.

    The capacity is read from the module constant when the cache is
    constructed.  :meth:`stats` counts hits and misses; a miss is counted
    when its build succeeds.
    """

    def __init__(self) -> None:
        self.capacity = CAPACITY
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        # Keys whose build is in flight, each with the event its waiters block
        # on; a key leaves this dict as soon as its build ends.
        self._building: Dict[Hashable, threading.Event] = {}
        self._hits = 0
        self._misses = 0

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> Tuple[V, bool]:
        """Return ``(value, was_cached)``, running ``build`` on a miss.

        A caller that finds the key's build in flight waits for it and looks
        again: it then counts a hit, or builds itself if that build raised.
        A build that raises stores nothing.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return self._entries[key], True
                in_flight = self._building.get(key)
                if in_flight is None:
                    done = self._building[key] = threading.Event()
                    break
            in_flight.wait()
        try:
            value = build()
            with self._lock:
                self._misses += 1
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
        finally:
            with self._lock:
                del self._building[key]
            done.set()
        return value, False

    def stats(self) -> Tuple[int, int, int]:
        """``(hits, misses, entries)``, read together."""
        with self._lock:
            return self._hits, self._misses, len(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters; in-flight builds still land."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
