"""Sharded, byte-budgeted LRU cache for decoded tiles.

Region reads repeatedly touch the same hot tiles (halo neighbourhoods,
time-series probes), and entropy-decoding a tile costs orders of
magnitude more than slicing an already-decoded array.
:class:`TileLRUCache` keeps decoded tiles (numpy arrays) under a global
byte budget so warm reads skip the codec entirely.

Design points:

* **Sharding** — keys are hashed across independent shards, each with
  its own lock and LRU list, so concurrent readers rarely contend on
  one mutex.  The byte budget is split evenly across shards.
* **Request coalescing** — when several threads miss on the *same*
  tile simultaneously, exactly one (the leader) runs the loader; the
  rest block on an event and receive the leader's result, so a hot
  cold tile is decoded once rather than once per request
  (``stats().coalesced`` counts the waits).  A read claims all of its
  keys in one pass (:meth:`TileLRUCache.get_or_load_many`) and loads
  every key it leads in one batch — a region's misses decode as one
  stack — while each key keeps its own value or error, and keys
  another read is loading are waited for only after this read's own
  are published.
* **Counters** — per-shard hits / misses / evictions / coalesced waits
  aggregate into :meth:`stats`, which the server exposes at
  ``/v1/cache/stats`` and the latency benchmark records.

Cached arrays are marked read-only before insertion: every consumer
receives the same object, and a caller mutating it would silently
corrupt later reads.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

__all__ = ["CacheStats", "TileLRUCache"]

DEFAULT_BYTE_BUDGET = 256 << 20  # 256 MiB
DEFAULT_SHARDS = 8


@dataclass(frozen=True)
class CacheStats:
    """Aggregated cache counters (see :meth:`TileLRUCache.stats`)."""

    hits: int
    misses: int
    evictions: int
    coalesced: int
    entries: int
    bytes_cached: int
    byte_budget: int
    shards: int
    #: keys whose load failed — a growing count under a
    #: steady workload is the cache-side smoke signal of data damage
    load_failures: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_json(self) -> dict:
        """JSON-friendly dict (counters plus derived hit rate)."""
        return dict(asdict(self), hit_rate=round(self.hit_rate, 6))


#: the :class:`CacheStats` fields that are sums of per-shard counters
_SUMMED = (
    "hits", "misses", "evictions", "coalesced", "bytes_cached",
    "byte_budget", "load_failures",
)


class _InFlight:
    """A tile decode in progress; waiters block on the event."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: np.ndarray | None = None
        self.error: BaseException | None = None


class _Shard:
    """One lock + LRU list + counters; values are numpy arrays."""

    def __init__(self, byte_budget: int) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self.inflight: dict[Hashable, _InFlight] = {}
        self.byte_budget = byte_budget
        self.bytes_cached = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0
        self.load_failures = 0

    def insert(self, key: Hashable, value: np.ndarray) -> None:
        """Insert under the budget; caller holds the lock."""
        if value.nbytes > self.byte_budget:
            # would evict the whole shard and still not fit: serve
            # uncached rather than thrash
            return
        old = self.entries.pop(key, None)
        if old is not None:
            self.bytes_cached -= old.nbytes
        self.entries[key] = value
        self.bytes_cached += value.nbytes
        while self.bytes_cached > self.byte_budget and self.entries:
            _, evicted = self.entries.popitem(last=False)
            self.bytes_cached -= evicted.nbytes
            self.evictions += 1


class TileLRUCache:
    """Sharded LRU over decoded tiles, bounded by a byte budget."""

    def __init__(
        self,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
        shards: int = DEFAULT_SHARDS,
    ) -> None:
        if byte_budget < 0:
            raise ValueError(
                "byte_budget must be non-negative (0 disables caching)"
            )
        if shards < 1:
            raise ValueError("shards must be positive")
        # degenerate tiny budgets: never let a shard round down to a
        # zero budget unless the whole cache is disabled (budget 0,
        # where every insert is skipped and every lookup misses)
        shards = max(1, min(shards, byte_budget))
        per_shard = byte_budget // shards
        self._shards = [_Shard(per_shard) for _ in range(shards)]

    # -- shard routing ---------------------------------------------------------

    def _shard_for(self, key: Hashable) -> _Shard:
        return self._shards[hash(key) % len(self._shards)]

    # -- lookups ---------------------------------------------------------------

    def get(self, key: Hashable) -> np.ndarray | None:
        """Return the cached array (LRU-refreshed) or ``None``."""
        shard = self._shard_for(key)
        with shard.lock:
            value = shard.entries.get(key)
            if value is None:
                shard.misses += 1
                return None
            shard.entries.move_to_end(key)
            shard.hits += 1
            return value

    def put(self, key: Hashable, value: np.ndarray) -> None:
        """Insert *value* (marked read-only), evicting LRU entries."""
        value = self._freeze(value)
        shard = self._shard_for(key)
        with shard.lock:
            shard.insert(key, value)

    def get_or_load(
        self, key: Hashable, loader: Callable[[], np.ndarray]
    ) -> tuple[np.ndarray, bool]:
        """Return ``(value, was_hit)``; concurrent misses load once.

        The one-key case of :meth:`get_or_load_many`: *loader* runs in
        the leader, outside any lock.
        """
        return self.get_or_load_many((key,), lambda _: [loader()])[0]

    def get_or_load_many(
        self,
        keys: Sequence[Hashable],
        load_many: Callable[[list], Sequence[np.ndarray | BaseException]],
    ) -> list[tuple[np.ndarray, bool]]:
        """``(value, was_hit)`` per key of *keys*; misses load as a batch.

        One pass over the shard locks sorts each key into a hit, a
        leader or a follower of another call's load (``coalesced``).
        All leaders load through one ``load_many(leaders)`` call outside
        any lock, which returns each key's value or its own exception,
        in order (what it raises is every leader's).  Every leader is
        published before the call waits on a key it follows, so calls
        wait in no cycle while no loader waits on a key a caller of its
        own batch may lead (the store's rule: a chain version waits only
        on older ones).  A key listed twice is claimed once; the first
        failed key in *keys* raises.
        """
        claims: dict[Hashable, tuple] = {}
        leaders: list[Hashable] = []
        for key in keys:
            if key in claims:
                continue
            shard = self._shard_for(key)
            with shard.lock:
                value = shard.entries.get(key)
                if value is not None:
                    shard.entries.move_to_end(key)
                    shard.hits += 1
                    claims[key] = (value, None)
                    continue
                flight = shard.inflight.get(key)
                if flight is None:
                    flight = shard.inflight[key] = _InFlight()
                    shard.misses += 1
                    leaders.append(key)
                else:
                    shard.coalesced += 1
            claims[key] = (None, flight)
        if leaders:
            try:
                results = [
                    r if isinstance(r, BaseException) else self._freeze(r)
                    for r in load_many(leaders)
                ]
                if len(results) != len(leaders):
                    raise RuntimeError("load_many returned a wrong count")
            except BaseException as exc:
                results = [exc] * len(leaders)
            for key, result in zip(leaders, results):
                self._publish(key, claims[key][1], result)
        out = []
        for key in keys:
            value, flight = claims[key]
            if flight is not None:
                flight.event.wait()
                if flight.error is not None:
                    raise flight.error
                value = flight.value
            out.append((value, flight is None))
        return out

    def _publish(self, key: Hashable, flight: _InFlight, result) -> None:
        """Settle a leader's *flight* with its (frozen) value or error."""
        shard = self._shard_for(key)
        if isinstance(result, BaseException):
            flight.error = result
            with shard.lock:
                shard.inflight.pop(key, None)
                shard.load_failures += 1
        else:
            with shard.lock:
                shard.inflight.pop(key, None)
                shard.insert(key, result)
            flight.value = result
        flight.event.set()

    @staticmethod
    def _freeze(value: np.ndarray) -> np.ndarray:
        value = np.asarray(value)
        if value.flags.writeable:
            value = value.view()
            value.flags.writeable = False
        return value

    # -- maintenance -----------------------------------------------------------

    def invalidate_where(
        self, predicate: Callable[[Hashable], bool]
    ) -> int:
        """Drop every entry whose key satisfies *predicate*."""
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                doomed = [k for k in shard.entries if predicate(k)]
                for key in doomed:
                    value = shard.entries.pop(key)
                    shard.bytes_cached -= value.nbytes
                dropped += len(doomed)
        return dropped

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self.invalidate_where(lambda _key: True)

    def keys(self) -> Iterable[Hashable]:
        """Snapshot of the cached keys (diagnostics only)."""
        out: list[Hashable] = []
        for shard in self._shards:
            with shard.lock:
                out.extend(shard.entries.keys())
        return out

    def stats(self) -> CacheStats:
        """Aggregate counters across shards."""
        totals = Counter()
        for shard in self._shards:
            with shard.lock:
                totals.update({n: getattr(shard, n) for n in _SUMMED})
                totals["entries"] += len(shard.entries)
        return CacheStats(shards=len(self._shards), **totals)
