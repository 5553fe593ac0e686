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
share every decoded reference tile.  A read claims all of its tiles in
one pass and decodes its misses as one batch, the way
:class:`~repro.compressor.TiledCompressor` reads; concurrent misses on
the same tile are coalesced: one decode, many consumers.

Writes seed that cache.  An encode already holds what a decoder will
reconstruct, so every put asks its compressor to surface it and, once
the version is committed (file fsynced and renamed, manifest rewritten,
still under the store lock), inserts the decoded tiles under the keys a
read of that version computes: the read-after-write and the next delta
put's reference are hits.  A put whose snapshot is larger than the
whole cache budget seeds nothing, and reads decode as before.

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
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.compressor import (
    CompressionConfig,
    TemporalCompressor,
    TiledResult,
)
from repro.compressor.container import TiledReader, TileRecord
from repro.compressor.executor import get_executor
from repro.compressor.inspect import describe_container
from repro.compressor.tiled import combine, decode_records
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
#: chain versions a store holds open at once, each with its tile map;
#: opening one more drops the least recently read (a ledger run reads
#: at most six, so it never drops one)
OPEN_VERSIONS = 16


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
        Parallel width for tile encoding on every put and for the
        cache-miss decode of every read: a read's misses decode as
        stacks, one per worker (``None``/1 decodes them as one stack on
        the calling thread).  There is no read fan-out pool of the
        store's own; the executor is the one the codec uses.
    parallel_backend:
        Execution backend for the codec hot paths, one of
        :data:`repro.compressor.executor.BACKENDS`; an unknown name is
        refused here.  With the process backend, a read's miss stacks
        decode in executor worker processes (decoded samples return
        through shared memory), so the serving threads are never held
        hostage by a slow pure-Python decode.
    plan_cache:
        :class:`repro.compressor.PlannerCache` (or the path of a
        file-backed one) every put plans adaptive keyframes through:
        successive puts of the same dataset name reuse the previous
        plan while tile stats have not drifted.
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
        parallel_backend: str | None = None,
        plan_cache=None,
        keyframe_interval: int = DEFAULT_KEYFRAME_INTERVAL,
        faults: FaultInjector | None = None,
    ) -> None:
        if keyframe_interval < 1:
            raise ValueError("keyframe_interval must be at least 1")
        #: every put's compressor (refuses an unknown backend)
        self._compressor = TemporalCompressor(
            workers=workers, backend=parallel_backend, plan_cache=plan_cache
        )
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.cache = cache or TileLRUCache()
        self._workers = workers
        self._backend = parallel_backend
        self._keyframe_interval = int(keyframe_interval)
        # test seam: an armed FaultInjector turns the named crash
        # points in the write paths into simulated process kills
        self._faults = faults
        self._lock = threading.RLock()
        # per (name, version) read lately, least recent first: its
        # reader and its map of tile start -> TileRecord, for the chain
        # walk's reference-tile lookups (chains share a tile grid)
        self._open: OrderedDict[tuple[str, int], tuple[TiledReader, dict]] = (
            OrderedDict()
        )
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
                result = self._compressor.tiled.compress(
                    data,
                    snapshot_config,
                    out=tmp,
                    dataset=name,
                    reconstruct=seed_cache,
                )
            else:
                result = self._compressor.compress_snapshot(
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
                    "config": config.to_json(),
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
            self._drop_readers(name)
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

    def _drop_readers(self, name: str) -> None:
        """Forget every open reader of dataset *name*, closing none: an
        in-flight read_region may still hold one, finishes against the
        old (unlinked or replaced) file, and the handle closes when the
        last reference drops.  Closing here would turn a benign
        read-vs-delete race into a spurious corruption error."""
        with self._lock:
            for key in [k for k in self._open if k[0] == name]:
                del self._open[key]

    def _reader(
        self, name: str, version: int | None = None
    ) -> tuple[TiledReader, int, int, int]:
        """Long-lived reader for one chain version.

        Returns ``(reader, generation, resolved version, chain
        depth)``; the :data:`OPEN_VERSIONS` versions read last keep
        theirs (one dropped to make room is not closed, as on delete).
        """
        with self._lock:
            entry = self._entry(name)
            generation = int(entry.get("generation", 0))
            resolved = self._resolve_version(entry, version)
            snapshots = self._snapshots(entry)
            depth = self._chain_depth(snapshots, resolved)
            key = (name, resolved)
            if key not in self._open:
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
                index = {rec.start: rec for rec in reader.tiles}
                self._open[key] = (reader, index)
                if len(self._open) > OPEN_VERSIONS:
                    self._open.popitem(last=False)
            self._open.move_to_end(key)
            return self._open[key][0], generation, resolved, depth

    def _tiles_at(
        self, name: str, version: int, starts: Sequence[tuple]
    ) -> list[TileRecord]:
        """The tile records of *version* whose extents begin at *starts*."""
        with self._lock:
            self._reader(name, version)
            index = self._open[name, version][1]
        try:
            return [index[tuple(start)] for start in starts]
        except KeyError as exc:
            raise DatasetCorruptError(
                f"dataset {name!r} version {version} has no tile at "
                f"{exc.args[0]}: chain tile grids are misaligned"
            ) from None

    def _fetch_tiles(
        self,
        name: str,
        generation: int,
        version: int,
        records: Sequence[TileRecord],
        dtype: np.dtype,
    ) -> list[tuple[np.ndarray, bool]]:
        """``(tile, was_hit)`` per record of one chain version, from one
        :meth:`TileLRUCache.get_or_load_many` call: the tiles it leads
        load as one batch (:meth:`_load_tiles`), so a chain walk decodes
        each ancestor tile at most once and time-range reads share every
        reference.  A load waits only on older versions, so no two reads
        wait on each other in a cycle."""
        by_offset = {record.offset: record for record in records}
        return self.cache.get_or_load_many(
            [(name, generation, version, record.offset) for record in records],
            lambda keys: self._load_tiles(
                name,
                generation,
                version,
                [by_offset[key[3]] for key in keys],
                dtype,
            ),
        )

    def _load_tiles(
        self,
        name: str,
        generation: int,
        version: int,
        records: Sequence[TileRecord],
        dtype: np.dtype,
    ) -> list:
        """The tiles of *records* in *version*, each an array or its error.

        The tiles decode as stacks, one per worker of the store's
        executor, through :func:`~repro.compressor.tiled.decode_records`
        — the route :class:`TiledCompressor` reads with — and temporal
        residuals are combined with their reference tiles.  A batch that
        raises is loaded again one tile at a time, so each tile gets its
        own verdict: a tile that does not decode a
        :class:`DatasetCorruptError`, the good ones their samples.
        """
        try:
            reader, _, _, _ = self._reader(name, version)
            tiles: list[np.ndarray] = []
            decode_records(
                get_executor(self._backend, self._workers),
                records,
                dtype,
                reader.read_tile,
                # a copy: a pool hands over views of its batch buffer
                lambda _, tile: tiles.append(tile.copy()),
            )
            temporal = [i for i, rec in enumerate(records) if rec.temporal]
            if temporal:
                parents = self._tiles_at(
                    name, version - 1, [records[i].start for i in temporal]
                )
                references = self._fetch_tiles(
                    name, generation, version - 1, parents, dtype
                )
                for i, (reference, _) in zip(temporal, references):
                    tiles[i] = combine(tiles[i], reference)
            return tiles
        except Exception as exc:
            if len(records) > 1:
                return [
                    verdict
                    for record in records
                    for verdict in self._load_tiles(
                        name, generation, version, [record], dtype
                    )
                ]
            if isinstance(exc, (ValueError, OSError)):
                cause, exc = exc, DatasetCorruptError(
                    f"tile at offset {records[0].offset} of dataset "
                    f"{name!r} version {version} failed to decode: {exc}"
                )
                exc.__cause__ = cause
            return [exc]

    def read_region(
        self,
        name: str,
        region: Sequence[slice | int] | slice | int,
        version: int | None = None,
        allow_degraded: bool = False,
    ) -> RegionResult:
        """Decode the hyperslab *region* of dataset *name*.

        ``version`` picks a chain snapshot (default: the latest).
        Only intersecting tiles are touched, claimed from the
        decoded-tile cache in one pass; the misses decode as one batch
        of stacks (one per worker, on the configured executor backend),
        concurrent cold misses on one tile are coalesced into a single
        decode, and temporal tiles pull their reference tiles through
        the same cache, decoding at most ``chain_depth`` containers per
        tile.  A damaged tile fails only itself: the read raises the
        :class:`DatasetCorruptError` of the first bad tile it touches,
        and the good tiles it decoded are cached.

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
        needed = intersecting_tiles(reader.tiles, slices)
        fetched = self._fetch_tiles(
            name, generation, resolved, [record for record, _ in needed], dtype
        )
        hits = 0
        for (record, overlap), (tile, was_hit) in zip(needed, fetched):
            hits += was_hit
            copy_overlap(out, slices, tile, record.start, overlap)
        return RegionResult(
            data=out,
            tiles_touched=len(needed),
            cache_hits=hits,
            cache_misses=len(needed) - hits,
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
        """Close every open container reader."""
        with self._lock:
            for reader, _ in self._open.values():
                reader.close()
            self._open.clear()

    def __enter__(self) -> "ArrayStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
