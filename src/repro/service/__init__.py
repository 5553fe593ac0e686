"""Compressed-array serving subsystem.

The paper's downstream consumers — post-hoc analyses reading small
regions of huge compressed snapshots — get a serving layer here:

* :class:`~repro.service.store.ArrayStore` — a directory of named
  datasets persisted as tiled (adaptive: palettized) RQSZ containers;
* :class:`~repro.service.cache.TileLRUCache` — a sharded,
  byte-budgeted decoded-tile LRU with request coalescing, so hot
  region reads skip entropy decode;
* :class:`~repro.service.server.ArrayServer` — a threaded HTTP server
  (``repro serve``) with JSON metadata and binary ``.npy`` region
  reads;
* :class:`~repro.service.client.ArrayClient` — the matching stdlib
  client (``repro remote-read`` / ``remote-put`` / ``remote-stat``)
  with an opt-in :class:`~repro.service.client.RetryPolicy`;
* :mod:`~repro.service.faults` /
  :mod:`~repro.service.recovery` — deterministic fault injection and
  the crash-recovery pass behind :meth:`ArrayStore.recover`.
"""

from repro.service.cache import CacheStats, TileLRUCache
from repro.service.client import ArrayClient, RetryPolicy, ServiceError
from repro.service.faults import FaultInjector, SimulatedCrash
from repro.service.recovery import RecoveryReport
from repro.service.server import ArrayServer, serve
from repro.service.store import (
    ArrayStore,
    DatasetCorruptError,
    RegionResult,
)

__all__ = [
    "ArrayStore",
    "DatasetCorruptError",
    "RegionResult",
    "TileLRUCache",
    "CacheStats",
    "ArrayServer",
    "serve",
    "ArrayClient",
    "RetryPolicy",
    "ServiceError",
    "FaultInjector",
    "SimulatedCrash",
    "RecoveryReport",
]
