"""The extraction service's bounded result memo.

Fully rendered response rows are keyed by ``(canonical_hash, master)`` in
one LRU with hit/miss/eviction counters.  Because the solver is
deterministic, an entry never goes stale — eviction is purely a memory
bound, and a re-request after eviction recomputes the byte-identical rows
(the same revive-by-replay discipline as the MT walk-stream LRU).  It is
the service's only cache: structure assets are built once per solve by
the solver's :class:`~repro.frw.context.SharedAssets`, and cube tables
come from :func:`~repro.greens.get_cube_table`.
"""

from __future__ import annotations

from collections import OrderedDict


class LRUCache:
    """A counted LRU mapping with a hard entry bound.

    Values must be pure functions of their keys (the caller's contract);
    eviction then only trades recompute latency for memory and can never
    change what a lookup returns.
    """

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        """Value for ``key`` or ``None``; counts the hit/miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict:
        """Counters + occupancy for the service stats endpoint."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
        }
