"""An HDF5-like chunked container with lossy-compression filters.

The paper's data-management experiments run through parallel HDF5 with
the H5Z-SZ filter.  This module provides the equivalent storage layer:
a single-file container holding named datasets, each split into chunks
that pass through an optional compression filter (our SZ pipeline) on
write and are decompressed transparently on read — the same architecture
as an HDF5 dataset with a dynamically loaded filter.

Chunk geometry delegates to the tiled subsystem
(:func:`repro.compressor.tiled.iter_tiles` and friends), which also
powers :meth:`H5LikeFile.read_region` — a partial read that touches and
decompresses only the chunks intersecting a requested hyperslab, the
same access pattern :meth:`TiledCompressor.decompress_region` serves on
bare v4 containers.  When a dataset's filter config carries a
``tile_shape`` it becomes the default chunk grid.

File layout::

    b"RQH5" | version:u8 | chunk payloads ... | TOC JSON | toc_len:u64

The TOC records every dataset's shape/dtype/chunk grid, per-chunk
offsets/sizes, the filter config, and user attributes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compressor import CompressionConfig, SZCompressor
from repro.compressor.adaptive import AdaptivePlan, AdaptivePlanner
from repro.compressor.plan_cache import PlannerCache
from repro.compressor.tiled import decode_tile
from repro.compressor.tiled_geometry import (
    copy_overlap,
    extent_slices,
    intersect_extent,
    iter_tiles,
    normalize_region,
)

__all__ = ["H5LikeFile", "DatasetInfo"]

_MAGIC = b"RQH5"
_VERSION = 1


@dataclass(frozen=True)
class DatasetInfo:
    """Metadata of one stored dataset."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    chunk_shape: tuple[int, ...]
    compressed_bytes: int
    raw_bytes: int
    filter_config: dict | None
    attrs: dict

    @property
    def ratio(self) -> float:
        """Storage compression ratio of this dataset."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.compressed_bytes


class H5LikeFile:
    """Single-file chunked store with optional lossy filters.

    Usage::

        with H5LikeFile(path, "w") as f:
            f.create_dataset("pressure", data, config, attrs={"step": 3})
        with H5LikeFile(path, "r") as f:
            back = f.read_dataset("pressure")
    """

    def __init__(
        self,
        path: str,
        mode: str = "r",
        planner: AdaptivePlanner | None = None,
        plan_cache=None,
    ) -> None:
        if mode not in ("r", "w"):
            raise ValueError("mode must be 'r' or 'w'")
        self.path = path
        self.mode = mode
        self._sz = SZCompressor()
        # drives adaptive filter configs; injectable so callers can
        # align sampling settings with the rest of their pipeline
        self._planner = planner or AdaptivePlanner()
        # PlannerCache for cross-snapshot plan reuse: writing the same
        # dataset name to successive files (one per simulation step)
        # replays the previous step's plan when stats have not drifted
        self._plan_cache = (
            PlannerCache.at_path(plan_cache)
            if isinstance(plan_cache, (str, os.PathLike))
            else plan_cache
        )
        self._toc: dict = {"datasets": {}}
        if mode == "w":
            self._fh = open(path, "wb")
            self._fh.write(_MAGIC + bytes([_VERSION]))
            self._closed = False
        else:
            self._fh = open(path, "rb")
            self._load_toc()
            self._closed = False

    # -- context management ------------------------------------------------------

    def __enter__(self) -> "H5LikeFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Flush the TOC (write mode) and close the file."""
        if self._closed:
            return
        if self.mode == "w":
            toc = json.dumps(self._toc).encode()
            self._fh.write(toc)
            self._fh.write(len(toc).to_bytes(8, "little"))
        self._fh.close()
        self._closed = True

    # -- writing ------------------------------------------------------------

    def create_dataset(
        self,
        name: str,
        data: np.ndarray,
        config: CompressionConfig | None = None,
        chunk_shape: tuple[int, ...] | None = None,
        attrs: dict | None = None,
    ) -> DatasetInfo:
        """Store *data*, optionally through the lossy filter.

        ``chunk_shape`` defaults to the filter config's ``tile_shape``
        when set, else the full array (one chunk); pass a smaller grid
        for partial-read patterns (:meth:`read_region`).

        A filter config with ``adaptive`` set runs the model-driven
        planner over the chunk grid, so every chunk is stored under its
        own (predictor, bound, radius) — the chunk records carry the
        choices, and reads are transparent since each payload is
        self-describing.
        """
        if self.mode != "w":
            raise IOError("file is open read-only")
        if name in self._toc["datasets"]:
            raise ValueError(f"dataset {name!r} already exists")
        data = np.asarray(data)
        if chunk_shape is None:
            if config is not None and config.tile_shape is not None:
                chunk_shape = tuple(
                    min(t, n) for t, n in zip(config.tile_shape, data.shape)
                )
            else:
                chunk_shape = data.shape
        if len(chunk_shape) != data.ndim or any(
            c <= 0 for c in chunk_shape
        ):
            raise ValueError("invalid chunk shape")

        plan: AdaptivePlan | None = None
        if config is not None and config.adaptive and data.size > 0:
            # None = nothing to plan (constant field under REL): fall
            # back to the uniform filter, which stores it exactly
            plan = self._planner.plan(
                data,
                config,
                chunk_shape,
                cache=self._plan_cache,
                dataset=name,
            )

        chunk_records: list[dict] = []
        total = 0
        for index, (start, stop) in enumerate(
            iter_tiles(data.shape, chunk_shape)
        ):
            slc = extent_slices(start, stop)
            chunk = np.ascontiguousarray(data[slc])
            if config is not None:
                chunk_config = (
                    plan.config_for(config, index) if plan is not None else config
                )
                payload = self._sz.compress(chunk, chunk_config).blob
                kind = "sz"
            else:
                payload = chunk.tobytes()
                kind = "raw"
            offset = self._fh.tell()
            self._fh.write(payload)
            total += len(payload)
            record = {
                "offset": int(offset),
                "size": len(payload),
                "kind": kind,
                "start": [int(s.start) for s in slc],
                "stop": [int(s.stop) for s in slc],
            }
            if plan is not None:
                record["config"] = plan.choices[index].to_json()
            chunk_records.append(record)
        entry = {
            "shape": list(data.shape),
            "dtype": data.dtype.str,
            "chunk_shape": list(chunk_shape),
            "chunks": chunk_records,
            "raw_bytes": int(data.nbytes),
            "compressed_bytes": total,
            "filter": self._config_dict(config),
            "attrs": attrs or {},
        }
        self._toc["datasets"][name] = entry
        return self.info(name)

    @staticmethod
    def _config_dict(config: CompressionConfig | None) -> dict | None:
        if config is None:
            return None
        return {
            "predictor": config.predictor,
            "mode": config.mode.value,
            "error_bound": config.error_bound,
            "lossless": config.lossless,
            "tile_shape": (
                list(config.tile_shape)
                if config.tile_shape is not None
                else None
            ),
            "adaptive": config.adaptive,
        }

    # -- reading ------------------------------------------------------------

    def _load_toc(self) -> None:
        self._fh.seek(0)
        magic = self._fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not an RQH5 container")
        self._fh.seek(-8, os.SEEK_END)
        toc_len = int.from_bytes(self._fh.read(8), "little")
        self._fh.seek(-8 - toc_len, os.SEEK_END)
        self._toc = json.loads(self._fh.read(toc_len).decode())

    def dataset_names(self) -> list[str]:
        """Names of all stored datasets."""
        return sorted(self._toc["datasets"])

    def info(self, name: str) -> DatasetInfo:
        """Metadata of one dataset."""
        entry = self._entry(name)
        return DatasetInfo(
            name=name,
            shape=tuple(entry["shape"]),
            dtype=entry["dtype"],
            chunk_shape=tuple(entry["chunk_shape"]),
            compressed_bytes=entry["compressed_bytes"],
            raw_bytes=entry["raw_bytes"],
            filter_config=entry["filter"],
            attrs=entry["attrs"],
        )

    def attrs(self, name: str) -> dict:
        """User attributes of one dataset."""
        return dict(self._entry(name)["attrs"])

    def read_dataset(self, name: str) -> np.ndarray:
        """Read (and transparently decompress) a dataset."""
        return self.read_region(name, ())

    def read_region(
        self, name: str, region: Sequence[slice | int] | slice | int
    ) -> np.ndarray:
        """Read only the hyperslab *region* of a dataset.

        Seeks to, reads and decompresses exclusively the chunks
        intersecting the region — a partial read in the H5Z-SZ sense.
        *region* follows :func:`repro.compressor.tiled.normalize_region`
        semantics: step-1 slices with non-negative endpoints, plus
        width-1 integer indices (negative ints count from the end).
        """
        entry = self._entry(name)
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        slices = normalize_region(region, shape)
        out = np.zeros(
            tuple(r.stop - r.start for r in slices), dtype=dtype
        )
        for record in entry["chunks"]:
            overlap = intersect_extent(
                record["start"], record["stop"], slices
            )
            if overlap is None:
                continue
            self._fh.seek(record["offset"])
            payload = self._fh.read(record["size"])
            chunk_shape = tuple(
                b - a for a, b in zip(record["start"], record["stop"])
            )
            if record["kind"] == "sz":
                chunk = decode_tile(payload, chunk_shape, dtype, self._sz)
            else:
                chunk = np.frombuffer(payload, dtype=dtype).reshape(
                    chunk_shape
                )
            copy_overlap(out, slices, chunk, record["start"], overlap)
        return out

    def _entry(self, name: str) -> dict:
        try:
            return self._toc["datasets"][name]
        except KeyError:
            raise KeyError(f"no dataset named {name!r}") from None
