"""Hot top-k cache for the serving layer.

Recommendation traffic is heavily repeat-skewed (the same user asks for
the same front page many times between training rounds), while the
underlying answer only changes when a new checkpoint is swapped in.  The
cache therefore keys every entry by ``(model_version, user_id, k)``: a
hot-swap bumps the version, so stale entries can never be served even
before :meth:`TopKCache.invalidate` reclaims their memory.

Plain-python LRU (an :class:`~collections.OrderedDict` under a lock) —
bounded, thread-safe, and dependency-free, matching the rest of the
serving core.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional, Tuple


class TopKCache:
    """Bounded LRU cache with hit/miss accounting.

    Parameters
    ----------
    max_entries:
        Capacity; ``0`` disables the cache entirely (every ``get`` is a
        miss, every ``put`` a no-op) — benchmarks use this to isolate
        the scoring path.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple[Hashable, ...], object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.stale_hits = 0

    def get(self, key: Tuple[Hashable, ...]) -> Optional[object]:
        """The cached value for ``key`` (refreshing its recency), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Tuple[Hashable, ...], value: object) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def invalidate(self) -> int:
        """Drop every entry; returns how many were evicted.

        Version-keyed entries are already unreachable after a swap — this
        reclaims their memory and is also the explicit escape hatch for
        out-of-band model edits.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += 1
            return dropped

    def evict_older_than(self, min_version: int) -> int:
        """Drop every entry whose model version is below ``min_version``.

        This is the hot-swap reclaim when a stale window is retained:
        versions in ``[min_version, current]`` survive so the
        degradation ladder can still answer from them.
        """
        min_version = int(min_version)
        with self._lock:
            victims = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key and key[0] < min_version
            ]
            for key in victims:
                del self._entries[key]
            self.evictions += len(victims)
            return len(victims)

    def get_stale(
        self, user_id: int, k: int, current_version: int, max_back: int = 1
    ) -> Optional[Tuple[int, object]]:
        """A recent *previous-generation* answer for ``(user_id, k)``.

        Probes versions ``current_version - 1`` down to
        ``current_version - max_back`` directly (keys are exact, so this
        is O(max_back), not a scan) and returns ``(version, value)`` for
        the freshest hit, or None.  Counted separately from regular hits
        so ``stats()`` shows how often the service answered stale.
        """
        with self._lock:
            for back in range(1, int(max_back) + 1):
                version = int(current_version) - back
                if version < 1:
                    break
                value = self._entries.get((version, user_id, k))
                if value is not None:
                    self._entries.move_to_end((version, user_id, k))
                    self.stale_hits += 1
                    return version, value
            return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "stale_hits": self.stale_hits,
            }
