"""An HDF5-like container of named datasets behind a lossy filter.

The paper's data-management experiments run through parallel HDF5 with
the H5Z-SZ filter, which runs one compressor on every chunk.  Here the
filter is the one compressor front end,
:class:`~repro.compressor.tiled.TiledCompressor`: a filtered dataset
*is* the v7 container it writes with the chunks as tiles, so its bound
(``REL`` over the whole dataset), plan, tile checksums and partial
reads are the compressor's own.  :class:`H5LikeFile` keeps the index::

    b"RQH5" | 2 | dataset bytes ... | TOC JSON | toc_crc:u32 | toc_len:u64

A dataset's bytes are a v7 container, or its samples in C order when
unfiltered.  The TOC maps every name to where they lie (``offset``,
``compressed_bytes``), its shape, dtype, chunk grid, filter config and
user attributes; ``toc_crc`` is its CRC-32.  Version-1 files (a record
per chunk, no checksum) are read only, each dataset re-filed as that
container on its first read (:func:`repro.compressor.legacy.refile_rqh5`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.compressor import CompressionConfig, TiledCompressor
from repro.compressor.adaptive import AdaptivePlanner
from repro.compressor.container import ContainerFormatError, TiledReader
from repro.compressor.integrity import checksum_named
from repro.compressor.tiled_geometry import normalize_region

__all__ = ["H5LikeFile", "DatasetInfo"]

_MAGIC = b"RQH5"
_VERSION = 2
_CRC_BYTES = 4
_TOC_LEN_BYTES = 8


def _toc_crc(toc: bytes) -> bytes:
    return checksum_named("crc32", toc).to_bytes(_CRC_BYTES, "little")


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
    """Single-file store of named datasets with optional lossy filters.

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
        # the planner drives adaptive filter configs (injectable so
        # callers can align sampling settings with the rest of their
        # pipeline); the plan cache replays the plan of the same
        # dataset name in an earlier file (one per simulation step)
        self._codec = TiledCompressor(planner=planner, plan_cache=plan_cache)
        self._toc: dict = {"datasets": {}}
        # per dataset, what its reads go through: set on its first read
        self._sources: dict[str, np.ndarray | bytes | _Window] = {}
        self._fh = open(path, "wb" if mode == "w" else "rb")
        self._closed = False
        if mode == "w":
            self._fh.write(_MAGIC + bytes([_VERSION]))
            return
        try:
            self._load_toc()
        except BaseException:
            self._fh.close()
            raise

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
            self._fh.write(toc + _toc_crc(toc))
            self._fh.write(len(toc).to_bytes(_TOC_LEN_BYTES, "little"))
        self._fh.close()
        self._sources.clear()
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
        for partial-read patterns (:meth:`read_region`).  A filtered
        dataset is written by :meth:`TiledCompressor.compress` with the
        chunks as its tiles, byte for byte the container it writes on
        its own — under an ``adaptive`` config every chunk is stored
        under its own (predictor, bound, radius).
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
        offset = self._fh.tell()
        if config is None:
            self._fh.write(data.tobytes())
        else:
            self._codec.compress(
                data,
                replace(config, tile_shape=chunk_shape),
                out=self._fh,
                dataset=name,
            )
        self._toc["datasets"][name] = {
            "offset": offset,
            "compressed_bytes": self._fh.tell() - offset,
            "shape": list(data.shape),
            "dtype": data.dtype.str,
            "chunk_shape": [int(c) for c in chunk_shape],
            "filter": None if config is None else config.to_json(),
            "attrs": attrs or {},
        }
        return self.info(name)

    # -- reading ------------------------------------------------------------

    def _load_toc(self) -> None:
        """Read the index; a damaged one is a :class:`ContainerFormatError`.
        What a dataset's entry says is checked on its first read."""
        head = self._fh.read(len(_MAGIC) + 1)
        if head[: len(_MAGIC)] != _MAGIC:
            raise ContainerFormatError("not an RQH5 container")
        self._version = head[-1]
        if self._version not in (1, _VERSION):
            raise ContainerFormatError(
                f"unsupported RQH5 version {self._version}"
            )
        crc_bytes = _CRC_BYTES if self._version == _VERSION else 0
        total = self._fh.seek(0, os.SEEK_END)
        self._fh.seek(max(total - _TOC_LEN_BYTES, 0))
        toc_len = int.from_bytes(self._fh.read(_TOC_LEN_BYTES), "little")
        toc_start = total - _TOC_LEN_BYTES - crc_bytes - toc_len
        if toc_start < len(head):
            raise ContainerFormatError(
                f"truncated or corrupt RQH5 container: {total} bytes do "
                f"not hold a {toc_len}-byte TOC"
            )
        self._fh.seek(toc_start)
        toc = self._fh.read(toc_len)
        if crc_bytes and self._fh.read(crc_bytes) != _toc_crc(toc):
            raise ContainerFormatError("corrupt RQH5 TOC: checksum mismatch")
        try:
            self._toc = json.loads(toc.decode())
            if not isinstance(self._toc["datasets"], dict):
                raise TypeError("datasets is not an object")
        except (ValueError, TypeError, LookupError) as exc:
            raise ContainerFormatError(f"corrupt RQH5 TOC: {exc!r}") from exc
        #: dataset bytes lie after the magic and version, before the TOC
        self._payload = (len(head), toc_start)

    def _read_at(self, offset: int, size: int) -> bytes:
        """*size* bytes at *offset*, refused unless inside the payload
        region, so no read goes outside it whatever the TOC says."""
        lo, hi = self._payload
        if not lo <= offset <= offset + size <= hi:
            raise ContainerFormatError(
                f"corrupt RQH5 TOC: {size} bytes at {offset} lie outside "
                f"the payload region {lo}..{hi}"
            )
        self._fh.seek(offset)
        return self._fh.read(size)

    def _source(self, name: str) -> np.ndarray | bytes | _Window:
        """What dataset *name* is read from, settled on its first read:
        its samples, or its v7 container — a window of this file, or a
        version-1 dataset's chunks re-filed in memory.  A container of
        another shape or dtype than the TOC records is refused."""
        if name in self._sources:
            return self._sources[name]
        entry = self._entry(name)
        try:
            if self._version == 1:
                from repro.compressor import legacy

                source = legacy.refile_rqh5(entry, self._read_at)
            else:
                shape = [int(n) for n in entry["shape"]]
                dtype = np.dtype(entry["dtype"])
                source = _Window(
                    self._read_at, entry["offset"], entry["compressed_bytes"]
                )
                if entry["filter"] is None:
                    if source.size != math.prod(shape) * dtype.itemsize:
                        raise ValueError(
                            f"{source.size} bytes are not the raw samples "
                            f"of {dtype} {tuple(shape)}"
                        )
                    source = np.frombuffer(source.read(), dtype).reshape(shape)
                else:
                    with TiledReader(source) as reader:
                        held = [reader.header[k] for k in ("shape", "dtype")]
                    if held != [shape, dtype.str]:
                        raise ValueError(f"the container holds {held}")
        except ContainerFormatError:
            raise
        except (ValueError, TypeError, LookupError) as exc:
            raise ContainerFormatError(
                f"corrupt RQH5 TOC: dataset {name!r}: {exc!r}"
            ) from exc
        self._sources[name] = source
        return source

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
            raw_bytes=math.prod(entry["shape"])
            * np.dtype(entry["dtype"]).itemsize,
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

        Of a filtered dataset, only the chunks intersecting the region
        are read and decompressed — a partial read in the H5Z-SZ sense.
        *region* follows :func:`repro.compressor.tiled.normalize_region`
        semantics: step-1 slices with non-negative endpoints, plus
        width-1 integer indices (negative ints count from the end).
        """
        source = self._source(name)
        if isinstance(source, np.ndarray):
            return source[normalize_region(region, source.shape)].copy()
        return self._codec.decompress_region(source, region)

    def _entry(self, name: str) -> dict:
        try:
            return self._toc["datasets"][name]
        except KeyError:
            raise KeyError(f"no dataset named {name!r}") from None


class _Window:
    """The *size* bytes ``read_at`` reads at *offset*, as a binary file
    of their own: a dataset's container where it lies in the file."""

    def __init__(self, read_at, offset: int, size: int) -> None:
        self._read_at, self._offset, self.size = read_at, offset, size
        self._pos = 0

    def seek(self, pos: int, whence: int = os.SEEK_SET) -> int:
        self._pos = pos + (self.size if whence == os.SEEK_END else 0)
        return self._pos

    def tell(self) -> int:
        return self._pos

    def read(self, size: int = -1) -> bytes:
        left = max(self.size - self._pos, 0)
        size = left if size < 0 else min(size, left)
        data = self._read_at(self._offset + self._pos, size)
        self._pos += len(data)
        return data
