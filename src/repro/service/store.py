"""Multi-dataset store of tiled compressed arrays, with cached reads.

:class:`ArrayStore` manages a directory of named datasets.  A dataset
is an **append-only snapshot chain**: version 0 comes from
:meth:`create` (or the first :meth:`put_snapshot`) and every further
:meth:`put_snapshot` appends one version.  Periodic versions are
**keyframes** — standalone tiled (or adaptive) containers — and the
versions in between are temporal **deltas**
(:class:`repro.compressor.temporal.TemporalCompressor`) whose tiles
encode residuals against the decoded previous version.  The keyframe
cadence (``keyframe_interval``, default 4) bounds how many containers
random access to any version has to decode.  A JSON manifest
(``store.json``) records every dataset's shape, dtype, tile grid,
compression settings, byte accounting and chain topology, so a fresh
process can serve an existing directory without touching the
containers.

Reads go through :meth:`read_region`, which decodes **only** the tiles
intersecting the requested hyperslab — and, for tiles already decoded
by an earlier request, skips the codec entirely via the shared
:class:`repro.service.cache.TileLRUCache` (one cache across all
datasets; keys are ``(dataset, generation, version, tile offset)``,
where the generation is bumped on every create/delete so a decode
racing a delete or overwrite can never surface stale tiles under the
new dataset, and the version component keeps a chain's snapshots from
ever colliding on equal byte offsets).  A temporal tile's loader
fetches the matching reference tile of the previous version *through
the same cache*, so chain walks — and time-range reads over a chain —
share every decoded reference tile.  Concurrent misses on the same
tile are coalesced: one decode, many consumers.

Writes seed that cache.  An encode already holds what a decoder will
reconstruct, so every put asks its compressor to surface it and, once
the version is committed (file fsynced and renamed, manifest rewritten,
still under the store lock), inserts the decoded tiles under the keys a
read of that version computes: the read-after-write and the next delta
put's reference are hits.  A put whose snapshot is larger than the
whole cache budget, or whose codec cannot surface a reconstruction,
seeds nothing and reads decode as before.

Everything is thread-safe: the manifest and reader table are guarded
by an RLock, long-lived :class:`TiledReader` instances serialize their
seek+read pairs internally, and the per-tile codec is stateless — so
one store instance backs the whole multi-threaded server.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.compressor import (
    CompressionConfig,
    TemporalCompressor,
    TiledResult,
)
from repro.compressor.container import TiledReader, TileRecord
from repro.compressor.executor import resolve_executor
from repro.compressor.inspect import describe_container
from repro.compressor.tiled import decode_tile, decode_tile_task
from repro.compressor.tiled_geometry import (
    copy_overlap,
    extent_slices,
    intersecting_tiles,
    normalize_region,
)
from repro.service.cache import TileLRUCache
from repro.service.faults import FaultInjector

__all__ = ["ArrayStore", "RegionResult", "DatasetCorruptError"]


class DatasetCorruptError(RuntimeError):
    """A stored container failed to parse or decode.

    Distinguishes server-side data damage from caller mistakes (bad
    names, bad regions), so the HTTP layer can answer 500 rather than
    blaming the client with a 400.
    """

MANIFEST_NAME = "store.json"
#: write-ahead intent record bracketing multi-file operations
INTENT_NAME = "store.json.intent"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")
#: default keyframe cadence of snapshot chains: random access to any
#: version decodes at most this many containers
DEFAULT_KEYFRAME_INTERVAL = 4


def _fsync_path(path: str) -> None:
    """fsync a file (or, on platforms that allow it, a directory).

    Directory fsync makes the rename that committed a file durable;
    where the platform refuses to open directories the rename is
    already the best available barrier, so failures are ignored.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class RegionResult:
    """A decoded hyperslab plus the read's cache/decode accounting.

    ``version`` is the snapshot the region came from and
    ``chain_depth`` how many containers materializing it touches (1
    for keyframes; bounded by the chain's keyframe interval).  The
    hit/miss counters cover the requested snapshot's tiles only —
    reference tiles fetched while reconstructing temporal tiles are
    accounted to the cache, not to this read.

    ``degraded`` marks a fallback read: the requested version was
    unreadable (corrupt delta, damaged container) and the data comes
    from the nearest intact keyframe instead — ``version`` always
    names the snapshot actually served, never the one requested.
    """

    data: np.ndarray
    tiles_touched: int
    cache_hits: int
    cache_misses: int
    version: int = 0
    chain_depth: int = 1
    degraded: bool = False


class ArrayStore:
    """A directory of named tiled-compressed datasets.

    Parameters
    ----------
    root:
        Store directory; created if missing.  An existing manifest is
        loaded, so stores persist across processes.
    cache:
        Decoded-tile cache shared across datasets; ``None`` builds a
        default :class:`TileLRUCache`.
    workers:
        Parallel width for tile *encoding* on :meth:`create` and for
        the per-request cache-miss fan-out of :meth:`read_region`
        (``None``/1 keeps reads sequential, the historical behavior).
    factory:
        Optional :class:`repro.factory.CodecFactory` supplying the
        compressor of every put, so adaptive keyframes — of any
        version — sample at the same rate/seed, and share the plan
        cache, of the rest of the caller's pipeline.
    parallel_backend:
        Execution backend for the codec hot paths (``"serial"``,
        ``"thread"``, ``"process"``).  With the process backend,
        cache-miss tiles are entropy-decoded in executor worker
        processes (decoded samples return through shared memory), so
        the serving threads — and the cache shard locks they take —
        are never held hostage by a slow pure-Python decode.
    keyframe_interval:
        Default keyframe cadence for snapshot chains appended with
        :meth:`put_snapshot`: every Nth version is a standalone
        keyframe, so random access decodes at most N containers.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        cache: TileLRUCache | None = None,
        workers: int | None = None,
        factory=None,
        parallel_backend: str | None = None,
        plan_cache=None,
        keyframe_interval: int = DEFAULT_KEYFRAME_INTERVAL,
        faults: FaultInjector | None = None,
    ) -> None:
        if keyframe_interval < 1:
            raise ValueError("keyframe_interval must be at least 1")
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.cache = cache or TileLRUCache()
        self._workers = workers
        self._factory = factory
        self._backend = parallel_backend
        self._keyframe_interval = int(keyframe_interval)
        # test seam: an armed FaultInjector turns the named crash
        # points in the write paths into simulated process kills
        self._faults = faults
        # PlannerCache instance or path: successive puts of the same
        # dataset name reuse the previous adaptive plan when tile stats
        # have not drifted.  A factory carries its own plan_cache
        # setting; this parameter covers the factory-less default path.
        self._plan_cache = plan_cache
        self._fanout_lock = threading.Lock()
        self._fanout: "ThreadPoolExecutor | None" = None
        self._lock = threading.RLock()
        self._readers: dict[tuple[str, int], TiledReader] = {}
        # per-(name, version) map of tile start -> TileRecord, for the
        # chain walk's reference-tile lookups (chains share a tile grid)
        self._tile_index: dict[tuple[str, int], dict] = {}
        self._manifest: dict = {"datasets": {}}
        path = self._manifest_path()
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    manifest = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"corrupt store manifest: {path}: {exc}"
                ) from exc
            if (
                not isinstance(manifest, dict)
                or "datasets" not in manifest
            ):
                raise ValueError(f"corrupt store manifest: {path}")
            self._manifest = manifest

    # -- paths / manifest ------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _intent_path(self) -> str:
        return os.path.join(self.root, INTENT_NAME)

    def _crash(self, point: str) -> None:
        """Pass a named crash point (no-op without a fault injector)."""
        if self._faults is not None:
            self._faults.crash(point)

    def _snapshot_file(self, name: str, version: int) -> str:
        """Basename of one chain version's container.

        Version 0 keeps the historical ``{name}.rqsz`` so stores
        written before snapshot chains stay readable; later versions
        use ``@v{n}`` (``@`` cannot appear in dataset names, so the
        suffix never collides with another dataset).
        """
        if version == 0:
            return f"{name}.rqsz"
        return f"{name}@v{version}.rqsz"

    def _persist(self) -> None:
        """Crash-safely rewrite the manifest (caller holds the lock).

        tempfile + fsync + rename + directory fsync: a crash at any
        instant leaves either the old or the new manifest on disk,
        never a torn one.
        """
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            # dumps, not dump: only the one-shot call reaches the C
            # encoder (dump and any indent iterate in pure Python)
            fh.write(json.dumps(self._manifest, sort_keys=True))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._crash("manifest_tmp_written")
        os.replace(tmp, self._manifest_path())
        _fsync_path(self.root)
        self._crash("manifest_renamed")

    def _write_intent(self, record: dict) -> None:
        """Durably record the intent of an in-flight multi-file op.

        Written *before* any rename of version files, so recovery can
        always tell an interrupted operation's orphans from committed
        state (the manifest stays the single source of truth).
        """
        tmp = self._intent_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._intent_path())
        _fsync_path(self.root)
        self._crash("intent_written")

    def _clear_intent(self) -> None:
        path = self._intent_path()
        if os.path.exists(path):
            os.remove(path)
            _fsync_path(self.root)
        self._crash("intent_cleared")

    def _commit_version_file(self, tmp: str, path: str) -> None:
        """Durably move a finished container from *tmp* into place."""
        self._crash("version_tmp_written")
        _fsync_path(tmp)
        self._crash("version_file_synced")
        os.replace(tmp, path)
        _fsync_path(self.root)
        self._crash("version_renamed")

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name or ""):
            raise ValueError(
                f"invalid dataset name {name!r}: use letters, digits, "
                "'.', '_' or '-' (max 128 chars, no leading punctuation)"
            )
        return name

    # -- writing ---------------------------------------------------------------

    def create(
        self,
        name: str,
        data: np.ndarray,
        config: CompressionConfig,
        overwrite: bool = False,
        put_token: str | None = None,
    ) -> dict:
        """Compress *data* into the store as dataset *name*.

        The container is tiled (``config.tile_shape``; a ``None`` tile
        shape stores one whole-array tile) and adaptive when
        ``config.adaptive`` is set.  Returns the recorded metadata.

        ``put_token`` is the idempotency precondition for retries: a
        create finding the dataset already present *with the same
        token* returns the existing entry (marked ``duplicate``)
        instead of raising — so a client whose first attempt committed
        but whose response was lost can safely retry.
        """
        entry, _, flags = self._put(
            name, data, config, put_token, None, overwrite=overwrite
        )
        return dict(entry, name=name, **flags)

    def put_snapshot(
        self,
        name: str,
        data: np.ndarray,
        config: CompressionConfig,
        keyframe_interval: int | None = None,
        put_token: str | None = None,
    ) -> dict:
        """Append one snapshot version to dataset *name*'s chain.

        A missing dataset is created (version 0, always a keyframe).
        Every ``keyframe_interval``-th version is a standalone
        keyframe; the versions in between are temporal deltas encoded
        against the *decoded* previous version (fetched through the
        tile cache), with the per-tile temporal/spatial choice driven
        by the rate-quality model.  Appends never rewrite or invalidate
        existing versions, so concurrent reads of the chain — at any
        version — race-freely overlap a put.

        The chain's shape, dtype and tile grid are fixed by version 0;
        mismatching snapshots are rejected.  Returns the snapshot's
        manifest record (plus ``name`` and ``version``).

        ``put_token`` makes appends retry-safe: when the chain's
        latest snapshot already carries the same token, this append
        was a retry of an operation that committed but whose response
        was lost — the recorded snapshot is returned (marked
        ``duplicate``) instead of appending the payload twice.
        """
        _, record, flags = self._put(
            name, data, config, put_token, keyframe_interval, append=True
        )
        return dict(record, name=name, **flags)

    def _put(
        self,
        name: str,
        data: np.ndarray,
        config: CompressionConfig,
        put_token: str | None,
        keyframe_interval: int | None,
        append: bool = False,
        overwrite: bool = False,
    ) -> tuple[dict, dict, dict]:
        """The one write path: version *data* into dataset *name*.

        *append* extends an existing chain (and starts a missing one);
        without it the put starts a dataset, replacing one only with
        *overwrite*.  Resolves the version, tile grid and keyframe
        cadence under the lock, encodes outside it, re-checks under the
        lock and commits.  Returns the dataset entry, the snapshot
        record and the flags (``duplicate``) to report with them.
        """
        self._check_name(name)
        data = np.asarray(data)
        with self._lock:
            chain = self._manifest["datasets"].get(name)
            if chain is not None and not overwrite:
                if self._holds_put(chain, put_token, append):
                    record = self._snapshots(chain)[-1]
                    return chain, record, {"duplicate": True}
                if not append:
                    raise ValueError(
                        f"dataset {name!r} already exists "
                        "(pass overwrite to replace)"
                    )
                if list(data.shape) != list(chain["shape"]):
                    raise ValueError(
                        f"snapshot shape {tuple(data.shape)} does not "
                        f"match chain shape {tuple(chain['shape'])}"
                    )
                if data.dtype.str != chain["dtype"]:
                    raise ValueError(
                        f"snapshot dtype {data.dtype.str!r} does not "
                        f"match chain dtype {chain['dtype']!r}"
                    )
            if chain is None or not append:
                chain, version = {}, 0
            else:
                version = int(chain.get("latest_version", 0)) + 1
            interval = int(
                keyframe_interval
                or chain.get("keyframe_interval", self._keyframe_interval)
            )
            if interval < 1:
                raise ValueError("keyframe_interval must be at least 1")
            # the chain's tile grid is fixed at version 0 so every
            # version's tiles line up for reference reuse
            tile_shape = chain.get("tile_shape", config.tile_shape)
        keyframe = version % interval == 0
        snapshot_config = replace(
            config,
            temporal=not keyframe,
            tile_shape=tile_shape,
            # deltas encode per tile under a resolved absolute bound;
            # adaptive planning only applies to keyframes
            adaptive=config.adaptive and keyframe,
        )
        # encode outside the lock, so concurrent reads — of this chain
        # at any version, and of other datasets — are never stalled
        # behind a long encode
        path = os.path.join(self.root, self._snapshot_file(name, version))
        tmp = f"{path}.tmp-{threading.get_ident()}"
        compressor = (
            self._factory.temporal_compressor()
            if self._factory is not None
            else TemporalCompressor(
                workers=self._workers,
                backend=self._backend,
                plan_cache=self._plan_cache,
            )
        )
        # surface the decoded tiles for the cache — unless the snapshot
        # is larger than the whole cache: seeding it would only flush
        # what readers are using
        seed_cache = data.nbytes <= self.cache.stats().byte_budget
        try:
            if keyframe:
                # a plain tiled container, planned (when adaptive) under
                # the dataset name that keys the cross-snapshot plan
                # cache: keyframes of every version, and overwriting
                # puts, reuse the prior plan
                result = compressor.tiled.compress(
                    data,
                    snapshot_config,
                    out=tmp,
                    dataset=name,
                    reconstruct=seed_cache,
                )
            else:
                result = compressor.compress_snapshot(
                    data,
                    snapshot_config,
                    # the decoded previous version, through the shared
                    # tile cache
                    reference=self.read_full(name, version=version - 1),
                    ref_id=f"{name}@v{version - 1}",
                    snapshot_index=version,
                    out=tmp,
                    reconstruct=seed_cache,
                )
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        with self._lock:
            entry = self._manifest["datasets"].get(name)
            latest = (
                -1 if entry is None else int(entry.get("latest_version", 0))
            )
            if latest != version - 1 and not overwrite:
                os.remove(tmp)
                if self._holds_put(entry, put_token, append):
                    record = self._snapshots(entry)[-1]
                    return entry, record, {"duplicate": True}
                if version == 0:
                    raise ValueError(
                        f"dataset {name!r} already exists "
                        "(pass overwrite to replace)"
                    )
                raise ValueError(
                    f"concurrent append to dataset {name!r} "
                    f"(expected latest version {version - 1})"
                )
            if version == 0:
                if entry is not None:
                    self.delete(name)
                entry = {
                    "file": os.path.basename(path),
                    "shape": [int(n) for n in data.shape],
                    "dtype": data.dtype.str,
                    "tile_shape": [int(t) for t in result.tile_shape],
                    "n_tiles": result.n_tiles,
                    "raw_bytes": int(result.original_bytes),
                    "compressed_bytes": int(result.compressed_bytes),
                    "ratio": round(result.ratio, 6),
                    "config": {
                        "predictor": config.predictor,
                        "mode": config.mode.value,
                        "error_bound": config.error_bound,
                        "lossless": config.lossless,
                        "adaptive": bool(config.adaptive),
                    },
                    "put_token": put_token,
                }
            record = self._commit(
                name,
                version,
                tmp,
                path,
                result,
                put_token,
                interval,
                entry if version == 0 else None,
            )
            return entry, record, {}

    def _commit(
        self,
        name: str,
        version: int,
        tmp: str,
        path: str,
        result: TiledResult,
        put_token: str | None,
        keyframe_interval: int,
        new_entry: dict | None = None,
    ) -> dict:
        """Make the encoded *version* at *tmp* durable, then visible.

        The one commit sequence of every put (caller holds the lock):
        intent record, fsync + rename of the version file, one manifest
        rewrite, intent cleared.  *new_entry* starts a dataset (version
        0, next generation); without it the version is appended to the
        existing chain.  Returns the snapshot's manifest record.

        Only then — the version committed, still under the lock — are
        the decoded tiles the encode surfaced (``result.reconstruction``)
        written through to the tile cache under the keys a read of this
        version computes, so the read-after-write and the next delta
        put's reference are hits.  A version that did not commit is
        never seeded; a later delete or overwrite bumps the generation
        and orphans the keys.
        """
        self._write_intent(
            {
                "op": "put",
                "name": name,
                "version": version,
                "file": os.path.basename(path),
            }
        )
        self._commit_version_file(tmp, path)
        stats = result.stats
        record = {
            "version": version,
            "file": os.path.basename(path),
            "put_token": put_token,
            "keyframe": result.keyframe,
            "ref_version": None if result.keyframe else version - 1,
            "raw_bytes": int(result.original_bytes),
            "compressed_bytes": int(result.compressed_bytes),
            "temporal_tiles": stats.temporal_tiles if stats is not None else 0,
            "spatial_tiles": (
                stats.spatial_tiles if stats is not None else result.n_tiles
            ),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        }
        if new_entry is not None:
            entry = new_entry
            entry["generation"] = self._bump_generation(name)
            entry["created"] = record["created"]
            entry["snapshots"] = [record]
            self._manifest["datasets"][name] = entry
        else:
            entry = self._entry(name)
            snapshots = entry.setdefault("snapshots", self._snapshots(entry))
            snapshots.append(record)
            entry["total_compressed_bytes"] = sum(
                int(s.get("compressed_bytes", 0)) for s in snapshots
            )
        entry["latest_version"] = version
        entry["keyframe_interval"] = keyframe_interval
        self._persist()
        self._clear_intent()
        if result.reconstruction is not None:
            generation = int(entry.get("generation", 0))
            for tile in result.tiles:
                extent = extent_slices(tile.start, tile.stop)
                # a copy, not a view: an entry must own exactly the
                # bytes the cache accounts for, not pin the snapshot
                self.cache.put(
                    (name, generation, version, tile.offset),
                    result.reconstruction[extent].copy(),
                )
        return record

    @staticmethod
    def _holds_put(
        entry: dict | None, put_token: str | None, append: bool
    ) -> bool:
        """Whether *entry* already holds the put that *put_token* names.

        An append is a retry when the chain's latest snapshot carries
        the token, a create when the dataset was created with it.
        """
        if entry is None or put_token is None:
            return False
        held = ArrayStore._snapshots(entry)[-1] if append else entry
        return held.get("put_token") == put_token

    def _bump_generation(self, name: str) -> int:
        """Next generation for *name*; survives deletes (caller locks).

        Generations are part of every cache key, so a tile decode
        racing a delete/overwrite re-inserts under the *old*
        generation — unreachable by any future read — instead of
        poisoning the replacement dataset.
        """
        generations = self._manifest.setdefault("generations", {})
        generations[name] = int(generations.get(name, 0)) + 1
        return generations[name]

    # -- snapshot chains -------------------------------------------------------

    @staticmethod
    def _snapshots(entry: dict) -> list[dict]:
        """Chain topology of *entry* (legacy entries = one keyframe)."""
        snapshots = entry.get("snapshots")
        if snapshots:
            return snapshots
        return [
            {
                "version": 0,
                "file": entry["file"],
                "keyframe": True,
                "ref_version": None,
            }
        ]

    @staticmethod
    def _resolve_version(entry: dict, version: int | None) -> int:
        latest = int(entry.get("latest_version", 0))
        if version is None:
            return latest
        version = int(version)
        if not 0 <= version <= latest:
            raise KeyError(
                f"no snapshot version {version} "
                f"(chain has versions 0..{latest})"
            )
        return version

    @staticmethod
    def _chain_depth(snapshots: list[dict], version: int) -> int:
        """Containers a cold decode of *version* touches (>= 1)."""
        depth = 0
        for snap in reversed(snapshots[: version + 1]):
            depth += 1
            if snap.get("keyframe", True):
                break
        return depth

    def versions(self, name: str) -> list[dict]:
        """Chain topology of dataset *name*, oldest first."""
        with self._lock:
            return [
                dict(snap) for snap in self._snapshots(self._entry(name))
            ]

    def delete(self, name: str) -> None:
        """Remove a dataset: every chain file, manifest entry, cache."""
        with self._lock:
            entry = self._entry(name)
            # pop but do NOT close: an in-flight read_region may still
            # hold these readers; they finish against the old (unlinked
            # or replaced) files and the handles close when the last
            # reference drops.  Closing here would turn a benign
            # read-vs-delete race into a spurious corruption error.
            for key in [k for k in self._readers if k[0] == name]:
                self._readers.pop(key, None)
                self._tile_index.pop(key, None)
            # the intent lets recovery finish a delete interrupted
            # between the manifest rewrite and the file removals
            self._write_intent(
                {
                    "op": "delete",
                    "name": name,
                    "files": [
                        snap["file"] for snap in self._snapshots(entry)
                    ],
                }
            )
            del self._manifest["datasets"][name]
            self._bump_generation(name)
            self._persist()
            for snap in self._snapshots(entry):
                path = os.path.join(self.root, snap["file"])
                if os.path.exists(path):
                    os.remove(path)
            self._clear_intent()
        self.cache.invalidate_where(lambda key: key[0] == name)

    # -- metadata --------------------------------------------------------------

    def _entry(self, name: str) -> dict:
        try:
            return self._manifest["datasets"][name]
        except KeyError:
            raise KeyError(f"no dataset named {name!r}") from None

    def names(self) -> list[str]:
        """Sorted names of the stored datasets."""
        with self._lock:
            return sorted(self._manifest["datasets"])

    def info(self, name: str) -> dict:
        """Manifest metadata of one dataset."""
        with self._lock:
            return dict(self._entry(name), name=name)

    def list_datasets(self) -> list[dict]:
        """Metadata of every dataset (manifest order-independent)."""
        with self._lock:
            return [self.info(name) for name in self.names()]

    def stat(self, name: str, version: int | None = None) -> dict:
        """Manifest metadata plus one container's full description.

        The container part is exactly ``repro inspect --json`` output
        (:func:`repro.compressor.inspect.describe_container`), so CLI
        and HTTP tooling see one schema.  ``version`` picks a chain
        snapshot (default: the latest).
        """
        with self._lock:
            entry = self.info(name)
            resolved = self._resolve_version(entry, version)
            snapshots = self._snapshots(entry)
            path = os.path.join(
                self.root, snapshots[resolved]["file"]
            )
        try:
            entry["container"] = describe_container(path)
        except (ValueError, OSError) as exc:
            raise DatasetCorruptError(
                f"stored container for dataset {name!r} is "
                f"unreadable: {exc}"
            ) from exc
        entry["version"] = resolved
        entry["chain_depth"] = self._chain_depth(snapshots, resolved)
        return entry

    # -- reading ---------------------------------------------------------------

    def _reader(
        self, name: str, version: int | None = None
    ) -> tuple[TiledReader, int, int, int]:
        """Long-lived reader for one chain version.

        Returns ``(reader, generation, resolved version, chain
        depth)``; readers are cached per ``(name, version)``.
        """
        with self._lock:
            entry = self._entry(name)
            generation = int(entry.get("generation", 0))
            resolved = self._resolve_version(entry, version)
            snapshots = self._snapshots(entry)
            depth = self._chain_depth(snapshots, resolved)
            key = (name, resolved)
            reader = self._readers.get(key)
            if reader is None:
                try:
                    reader = TiledReader(
                        os.path.join(
                            self.root, snapshots[resolved]["file"]
                        )
                    )
                except (ValueError, OSError) as exc:
                    raise DatasetCorruptError(
                        f"stored container for dataset {name!r} "
                        f"version {resolved} is unreadable: {exc}"
                    ) from exc
                self._readers[key] = reader
            return reader, generation, resolved, depth

    def _tile_at(self, name: str, version: int, start: tuple) -> "TileRecord":
        """The tile record of *version* whose extent begins at *start*."""
        key = (name, version)
        with self._lock:
            index = self._tile_index.get(key)
            if index is None:
                reader, _, _, _ = self._reader(name, version)
                index = {rec.start: rec for rec in reader.tiles}
                self._tile_index[key] = index
        try:
            return index[tuple(start)]
        except KeyError:
            raise DatasetCorruptError(
                f"dataset {name!r} version {version} has no tile at "
                f"{tuple(start)}: chain tile grids are misaligned"
            ) from None

    def _decode_tile_blob(
        self, executor, blob: bytes, rec: TileRecord, dtype
    ) -> np.ndarray:
        """Decode one tile payload, on *executor* when it is a pool.

        With the ``process`` backend the entropy decode runs in an
        executor worker and the decoded samples come back through a
        shared-memory output region (never pickled); otherwise the
        decode is inline.  Tiles go one at a time — not as one batch
        per request — because each one must pass through the cache's
        ``get_or_load`` coalescing individually; the per-tile segment
        setup is microseconds against a multi-millisecond decode.
        """
        shape = rec.shape
        if executor.name != "process":
            return decode_tile(blob, shape, dtype, params=rec.params)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        buffer = executor.output_buffer(nbytes)
        try:
            executor.run_batch(
                decode_tile_task,
                [(blob, 0, shape, dtype.str, None, None, rec.params)],
                output=buffer,
            )
            return buffer.array.view(dtype).reshape(shape).copy()
        finally:
            buffer.release()

    def _fanout_pool(self, width: int) -> ThreadPoolExecutor:
        """Lazily built pool for per-request cache-miss fan-out."""
        with self._fanout_lock:
            if self._fanout is None:
                self._fanout = ThreadPoolExecutor(
                    max_workers=max(2, width),
                    thread_name_prefix="store-read",
                )
            return self._fanout

    def _fetch_tile(
        self,
        name: str,
        generation: int,
        version: int,
        rec: TileRecord,
        executor,
        dtype: np.dtype,
    ) -> tuple[np.ndarray, bool]:
        """One decoded tile of one chain version, through the cache.

        Temporal tiles recursively fetch the matching reference tile of
        the previous version — also through the cache, so a chain walk
        decodes each ancestor tile at most once and time-range reads
        share every reference.  The recursion happens inside the
        cache's loader, which runs with the shard lock *released*, so
        nested fetches cannot deadlock; depth is bounded by the chain's
        keyframe interval.
        """

        def load() -> np.ndarray:
            reader, _, _, _ = self._reader(name, version)
            try:
                tile = self._decode_tile_blob(
                    executor, reader.read_tile(rec), rec, dtype
                )
            except (ValueError, OSError) as exc:
                raise DatasetCorruptError(
                    f"tile at offset {rec.offset} of dataset "
                    f"{name!r} version {version} failed to decode: "
                    f"{exc}"
                ) from exc
            if rec.temporal:
                parent = self._tile_at(name, version - 1, rec.start)
                ref_tile, _ = self._fetch_tile(
                    name, generation, version - 1, parent, executor, dtype
                )
                tile = TemporalCompressor.combine(tile, ref_tile)
            return tile

        return self.cache.get_or_load(
            (name, generation, version, rec.offset), load
        )

    def read_region(
        self,
        name: str,
        region: Sequence[slice | int] | slice | int,
        version: int | None = None,
        allow_degraded: bool = False,
    ) -> RegionResult:
        """Decode the hyperslab *region* of dataset *name*.

        ``version`` picks a chain snapshot (default: the latest).
        Only intersecting tiles are touched; each comes from the
        decoded-tile cache when possible (concurrent cold misses on one
        tile are coalesced into a single decode), and temporal tiles
        pull their reference tiles through the same cache, decoding at
        most ``chain_depth`` containers per tile.  With ``workers`` > 1
        the misses of one request are fetched concurrently — decodes
        run on the configured executor backend — so a single slow tile
        never serializes the rest of the request.

        ``allow_degraded`` controls what happens when the requested
        snapshot is unreadable (corrupt delta or damaged container):
        by default the :class:`DatasetCorruptError` propagates; with
        ``allow_degraded=True`` the read falls back to the nearest
        intact keyframe at or below the requested version and the
        result carries ``degraded=True`` with ``version`` naming the
        snapshot actually served — stale-but-correct bytes, explicitly
        marked, never silently wrong ones.
        """
        try:
            return self._read_region_exact(name, region, version)
        except DatasetCorruptError as exc:
            if not allow_degraded:
                raise
            original = exc
        with self._lock:
            entry = self._entry(name)
            resolved = self._resolve_version(entry, version)
            snapshots = self._snapshots(entry)
        fallbacks = sorted(
            (
                int(snap["version"])
                for snap in snapshots[: resolved + 1]
                if snap.get("keyframe", True)
                and int(snap["version"]) < resolved
            ),
            reverse=True,
        )
        for keyframe_version in fallbacks:
            try:
                result = self._read_region_exact(
                    name, region, keyframe_version
                )
            except DatasetCorruptError:
                continue
            return replace(result, degraded=True)
        raise DatasetCorruptError(
            f"dataset {name!r} version {resolved} is unreadable and "
            "no intact keyframe at or below it exists to degrade to"
        ) from original

    def _read_region_exact(
        self,
        name: str,
        region: Sequence[slice | int] | slice | int,
        version: int | None = None,
    ) -> RegionResult:
        reader, generation, resolved, depth = self._reader(
            name, version
        )
        shape = tuple(reader.header["shape"])
        dtype = np.dtype(reader.header["dtype"])
        slices = normalize_region(region, shape)
        out = np.zeros(
            tuple(r.stop - r.start for r in slices), dtype=dtype
        )
        executor = resolve_executor(self._backend, self._workers)

        def fetch(rec) -> tuple[np.ndarray, bool]:
            return self._fetch_tile(
                name, generation, resolved, rec, executor, dtype
            )

        needed = intersecting_tiles(reader.tiles, slices)
        if executor.workers > 1 and len(needed) > 1:
            pool = self._fanout_pool(executor.workers)
            fetched = list(
                pool.map(fetch, [record for record, _ in needed])
            )
        else:
            fetched = [fetch(record) for record, _ in needed]

        hits = misses = 0
        for (record, overlap), (tile, was_hit) in zip(needed, fetched):
            if was_hit:
                hits += 1
            else:
                misses += 1
            copy_overlap(out, slices, tile, record.start, overlap)
        return RegionResult(
            data=out,
            tiles_touched=len(needed),
            cache_hits=hits,
            cache_misses=misses,
            version=resolved,
            chain_depth=depth,
        )

    def read_range(
        self,
        name: str,
        region: Sequence[slice | int] | slice | int,
        start_version: int,
        stop_version: int,
        allow_degraded: bool = False,
    ) -> list[RegionResult]:
        """Decode *region* for every version in ``[start, stop]``.

        Versions are read in increasing order, so each delta's
        reference tiles are warm in the cache by the time the next
        version needs them — the whole range decodes every chain tile
        at most once.  With ``allow_degraded`` a corrupt version in
        the middle of the range serves its nearest intact keyframe
        (marked ``degraded``) instead of failing the whole range.
        """
        with self._lock:
            entry = self._entry(name)
            lo = self._resolve_version(entry, start_version)
            hi = self._resolve_version(entry, stop_version)
        if lo > hi:
            raise ValueError(
                f"empty version range {start_version}..{stop_version}"
            )
        return [
            self.read_region(
                name, region, version=v, allow_degraded=allow_degraded
            )
            for v in range(lo, hi + 1)
        ]

    def read_full(
        self, name: str, version: int | None = None
    ) -> np.ndarray:
        """Decode a whole snapshot (through the tile cache)."""
        return self.read_region(name, (), version=version).data

    def flush(self) -> None:
        """Durably rewrite the manifest (graceful-shutdown hook)."""
        with self._lock:
            self._persist()

    def recover(self, deep: bool = False):
        """Repair this store's directory after a crash.

        Removes stale temp files, resolves a pending write-ahead
        intent record against the manifest, quarantines partial or
        corrupt version files and truncates broken chain tails back to
        the last intact version (a broken version 0 quarantines the
        dataset).  Returns the
        :class:`repro.service.recovery.RecoveryReport` describing what
        was done; on a healthy store it is a cheap no-op with
        ``report.clean == True``.  ``deep`` re-checksums every tile
        payload instead of just headers and TOCs.
        """
        from repro.service.recovery import recover_store

        return recover_store(self, deep=deep)

    def close(self) -> None:
        """Close every open container reader and the read fan-out pool."""
        with self._fanout_lock:
            if self._fanout is not None:
                self._fanout.shutdown(wait=True)
                self._fanout = None
        with self._lock:
            for reader in self._readers.values():
                reader.close()
            self._readers.clear()
            self._tile_index.clear()

    def __enter__(self) -> "ArrayStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
