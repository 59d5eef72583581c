"""Bounded memo caches for the extraction service.

Two tiers, both LRU with hit/miss/eviction counters:

* **Result tier** (:class:`ResultCache`): fully rendered response rows
  keyed by ``(canonical_hash, seed)``.  Because the solver is
  deterministic, an entry never goes stale — eviction is purely a memory
  bound, and a re-request after eviction recomputes the byte-identical
  rows (the same revive-by-replay discipline as the MT walk-stream LRU
  and the SharedAssets bounds).
* **Asset tier** (:class:`AssetCache`): per-canonical-geometry
  :class:`~repro.frw.context.SharedAssets`, so the expensive
  master-independent builds (spatial index tiers, cube transition tables)
  are amortized across requests *and* configs.  The inner SharedAssets is
  itself LRU-bounded per config-level subkey, giving the two-tier bound
  the service needs to run indefinitely.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from ..frw.context import SharedAssets
from ..geometry import Structure


class LRUCache:
    """A counted LRU mapping with a hard entry bound.

    Values must be pure functions of their keys (the caller's contract);
    eviction then only trades recompute latency for memory and can never
    change what a lookup returns.
    """

    def __init__(self, max_entries: int, name: str = "cache"):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.name = name
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

    def get_or_create(self, key, factory: Callable):
        """Cached value for ``key``, creating it via ``factory()`` on miss."""
        value = self.get(key)
        if value is None:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries (counters are kept — they are telemetry)."""
        self._entries.clear()

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


class ResultCache(LRUCache):
    """Row-payload memo keyed by ``(canonical_hash, seed)``.

    Stores the fully serialized response payload (JSON-safe dict), so a
    hit replays byte-identical rows without touching the solver.
    """

    def __init__(self, max_entries: int = 1024):
        super().__init__(max_entries, name="results")


class AssetCache(LRUCache):
    """Per-canonical-geometry :class:`SharedAssets` memo.

    Keyed by the geometry digest; each entry owns the (bounded)
    SharedAssets of one canonical structure.  ``assets_for`` also pins the
    canonical structure on the entry so later requests with an equal
    digest reuse the *same* Structure object (contexts built against it
    share the geometry SoA arrays).
    """

    def __init__(self, max_entries: int = 64, max_indexes: int = 4):
        super().__init__(max_entries, name="assets")
        self.max_indexes = int(max_indexes)

    def assets_for(
        self, digest: str, structure: Structure
    ) -> tuple[Structure, SharedAssets]:
        """The pinned ``(structure, SharedAssets)`` pair for a geometry."""
        return self.get_or_create(
            digest,
            lambda: (
                structure,
                SharedAssets(structure, max_indexes=self.max_indexes),
            ),
        )

    def stats(self) -> dict:
        entry = super().stats()
        entry["max_indexes"] = self.max_indexes
        return entry
