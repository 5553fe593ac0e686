"""Container formats for the RQSZ codec family.

Every byte-level read/write of the on-disk formats lives here, so the
rest of the pipeline (stages, compressors, CLI, storage) never touches
offsets or length prefixes directly and section accounting is *derived*
from the writer instead of hand-summed.

Flat containers (one array, decoded whole)::

    b"RQSZ" | version:u8 | header_len:u32 | header JSON | sections

where each section is ``length:u64 | bytes``.  Sections, in order:
Huffman/lossless code payload, outlier positions, outlier values,
predictor side payload, PW_REL sign payload.

* **v2** — the code stream is one Huffman(+lossless) payload.
* **v3** — the code stream is split into fixed-size blocks, each
  independently Huffman(+lossless) coded; the codes section becomes
  ``n_chunks:u32 | chunk_len:u64 ... | chunk payloads``.

Tiled containers (out-of-core streaming, region-of-interest decode)::

    b"RQSZ" | 7 | header_len:u32 | header JSON | tile payloads ...
           | TOC JSON | toc_crc:u32 (with checksums) | toc_len:u64

**v7** is the one frame written — uniform, adaptive and temporal alike
— and a flat array is a one-tile tiled container in it, byte for byte:
a **tile payload is stage bytes and nothing else**::

    meta_len:varint | meta JSON | five varint section lengths | sections

What a decoder needs beyond the sections (a flat header's fields,
:data:`TILE_KEYS`) is *resolved*, not repeated: the container header's
own codec fields, overridden by what the TOC's ``shared`` records once
per kind of tile (what the first tile of the kind added to the header —
in the TOC because a streaming writer has the header on disk before the
first tile is encoded; the kind is what the TOC says of a tile before
its payload is read: ``"temporal"`` for a residual, else its palette's
or the header's predictor), by the tile's palette entry, and last by
the tile's ``meta``, which therefore holds only what differs (a full
interior tile has ``meta_len == 0``: seven bytes of framing).  A payload
is thus read with its container's TOC, and moved to another one with
:meth:`TiledWriter.copy_tile`, not as raw bytes.  The
**TOC is arrays**: ``sizes`` and, with checksums, ``crcs`` +
``header_crc``; an adaptive container adds the ``configs`` palette of
``[predictor, absolute error bound, quantizer radius]`` triples and a
``tile_configs`` index per tile; a temporal one (header ``temporal``)
a ``tile_modes`` bit per tile (1 = residual against the reference
snapshot's decoded tile, see :mod:`repro.compressor.temporal`).
*Derived, never stored:* a tile's byte offset is the running sum of
``sizes`` from the end of the header, its index-space extent its place
in ``iter_tiles(shape, tile_shape)`` order; sizes that do not tile the
payload region exactly are refused.  The TOC trails the payloads so
writers stream tiles to disk with bounded memory.

Integrity: containers written with ``checksums`` enabled (the default)
declare a checksum algorithm in the header (``"checksums"`` field) and
carry a 32-bit checksum of every tile payload, of the header JSON and
of the TOC JSON itself (the 4-byte trailer).  Verification happens on
read: a mismatching TOC or header raises :class:`ContainerFormatError`
at open, a mismatching tile payload raises :class:`TileCorruptError`
naming the tile, and containers *without* checksums (all golden
fixtures) verify as **unknown** — never as failures.  With or without,
what the TOC says is checked at open: palette indices, mode bits, and
every tile extent inside the payload region.

**v4 / v5 / v6 are read-only** (``TiledWriter(version=...)`` forges
them for tests): the same frame, but each tile payload is a
self-describing flat v2/v3 container and the TOC a list of per-tile
``offset``/``size``/``start``/``stop`` dicts (+ ``tile_crcs``); v5
adds the palette, v6 the ``tile_modes``.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

import numpy as np

from repro.compressor.encoders.lz77 import read_varint, write_varint
from repro.compressor.integrity import (
    CHECKSUM_ALGORITHM,
    checksum,
    checksum_named,
)
from repro.compressor.tiled_geometry import iter_tiles, tile_grid

__all__ = [
    "MAGIC",
    "VERSION_SINGLE",
    "VERSION_CHUNKED",
    "VERSION_TILED",
    "VERSION_ADAPTIVE",
    "VERSION_TEMPORAL",
    "VERSION_FRAME",
    "TILED_VERSIONS",
    "SECTION_NAMES",
    "TILE_KEYS",
    "ContainerFormatError",
    "TileCorruptError",
    "flat_overhead",
    "write_flat",
    "read_flat",
    "container_version",
    "peek_version",
    "read_blob",
    "is_tiled_version",
    "write_chunked_codes",
    "read_chunked_codes",
    "check_tile_params",
    "pack_tile",
    "unpack_tile",
    "TileRecord",
    "TiledWriter",
    "TiledReader",
]


class ContainerFormatError(ValueError):
    """A container failed structural parsing or integrity verification.

    Subclasses :class:`ValueError`, so every pre-existing handler (CLI
    error mapping, the store's corruption wrapping, legacy ``except
    ValueError`` call sites) keeps working while new code can target
    container damage precisely.
    """


class TileCorruptError(ContainerFormatError):
    """One tile's payload failed checksum verification.

    Structured so callers can name exactly what was damaged:
    ``tile_index`` / ``offset`` locate the tile inside its container,
    ``version`` (when known) names the snapshot the container stores.
    """

    def __init__(
        self,
        message: str,
        tile_index: int | None = None,
        offset: int | None = None,
        version: int | None = None,
    ) -> None:
        super().__init__(message)
        self.tile_index = tile_index
        self.offset = offset
        self.version = version

MAGIC = b"RQSZ"
#: flat container, single-stream codes section
VERSION_SINGLE = 2
#: flat container, chunked codes section
VERSION_CHUNKED = 3
#: legacy (read-only) tiled frames: tiles are flat containers
VERSION_TILED = 4
#: ... whose TOC records per-tile codec configurations
VERSION_ADAPTIVE = 5
#: ... whose tiles may be temporal residuals vs a reference
VERSION_TEMPORAL = 6
#: the tiled frame: tiles are stage bytes, offsets and extents derived
VERSION_FRAME = 7

_FLAT_VERSIONS = (VERSION_SINGLE, VERSION_CHUNKED)
#: container versions that use the tiled payloads + trailing-TOC frame
TILED_VERSIONS = tuple(range(VERSION_TILED, VERSION_FRAME + 1))

# Writer layout constants -- every size computation below derives from
# these, so accounting cannot drift from the format.
_VERSION_BYTES = 1
_HEADER_LEN_BYTES = 4
_SECTION_LEN_BYTES = 8
_CHUNK_COUNT_BYTES = 4
_CHUNK_LEN_BYTES = 8
_TOC_LEN_BYTES = 8
_CRC_BYTES = 4

#: flat container sections, in on-disk order
SECTION_NAMES = (
    "codes",
    "outlier_positions",
    "outlier_values",
    "side",
    "signs",
)

_NUMBER = (int, float)
#: a v7 tile's parameters — a flat header's fields but ``shape`` and
#: ``dtype`` (the grid's) — and their JSON types
_PARAM_TYPES = {
    key: types
    for types, keys in [
        (str, "predictor mode outlier_kind"),
        (_NUMBER, "error_bound abs_eb constant"),
        (int, "quant_radius lorenzo_levels regression_block"),
        ((str, type(None)), "lossless"),
        ((int, type(None)), "chunk_size"),
        (dict, "predictor_meta transform"),
        (bool, "chunked"),
    ]
    for key in keys.split()
}
#: all a tile's ``meta`` may name ...
TILE_KEYS = frozenset(_PARAM_TYPES)
#: ... and what it may share with others: not what is the tile's alone
_SHARED_KEYS = TILE_KEYS - {"constant", "chunked"}


def container_version(blob: bytes) -> int:
    """Version byte of any RQSZ container (flat or tiled)."""
    if len(blob) <= len(MAGIC):
        raise ContainerFormatError(
            f"truncated container: {len(blob)} bytes is too short for "
            "the RQSZ magic and version"
        )
    if blob[: len(MAGIC)] != MAGIC:
        raise ContainerFormatError("not an RQSZ container")
    return blob[len(MAGIC)]


def is_tiled_version(version: int) -> bool:
    """Whether *version* uses the tiled payloads + trailing-TOC frame."""
    return version in TILED_VERSIONS


# -- flat (v2/v3) containers ---------------------------------------------------


def flat_overhead(
    header_len: int, n_sections: int = len(SECTION_NAMES)
) -> int:
    """Bytes the flat writer adds around the header and section payloads."""
    return (
        len(MAGIC)
        + _VERSION_BYTES
        + _HEADER_LEN_BYTES
        + header_len
        + n_sections * _SECTION_LEN_BYTES
    )


def write_flat(
    header: dict, sections: Sequence[bytes], version: int
) -> tuple[bytes, int]:
    """Serialize a flat container; returns ``(blob, header_bytes_len)``."""
    if version not in _FLAT_VERSIONS:
        raise ValueError(f"not a flat container version: {version}")
    header_bytes = json.dumps(header, sort_keys=True).encode()
    parts = [MAGIC, bytes([version])]
    parts.append(len(header_bytes).to_bytes(_HEADER_LEN_BYTES, "little"))
    parts.append(header_bytes)
    for section in sections:
        parts.append(len(section).to_bytes(_SECTION_LEN_BYTES, "little"))
        parts.append(section)
    return b"".join(parts), len(header_bytes)


def _read_header(blob: bytes) -> tuple[dict, int, int]:
    """Parse magic/version/header; returns ``(header, version, pos)``."""
    version = container_version(blob)
    pos = len(MAGIC) + _VERSION_BYTES
    if len(blob) < pos + _HEADER_LEN_BYTES:
        raise ContainerFormatError("truncated container header")
    header_len = int.from_bytes(
        blob[pos : pos + _HEADER_LEN_BYTES], "little"
    )
    pos += _HEADER_LEN_BYTES
    if len(blob) < pos + header_len:
        raise ContainerFormatError("truncated container header")
    try:
        header = json.loads(blob[pos : pos + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerFormatError("corrupt container header") from exc
    if not isinstance(header, dict):
        raise ContainerFormatError("corrupt container header")
    header["container_version"] = int(version)
    return header, version, pos + header_len


def read_flat(blob: bytes) -> tuple[dict, list[bytes]]:
    """Split a flat container into its parsed header and raw sections.

    The container version is reported as ``container_version`` in the
    returned header dict.
    """
    if container_version(blob) not in _FLAT_VERSIONS:
        raise ContainerFormatError(
            f"unsupported container version {container_version(blob)}"
        )
    header, _, pos = _read_header(blob)
    sections: list[bytes] = []
    for name in SECTION_NAMES:
        if len(blob) < pos + _SECTION_LEN_BYTES:
            raise ContainerFormatError(
                f"truncated container: section {name!r} has no "
                "length prefix"
            )
        size = int.from_bytes(
            blob[pos : pos + _SECTION_LEN_BYTES], "little"
        )
        pos += _SECTION_LEN_BYTES
        if len(blob) < pos + size:
            raise ContainerFormatError(
                f"truncated container: section {name!r} records "
                f"{size} bytes but only {len(blob) - pos} remain"
            )
        sections.append(blob[pos : pos + size])
        pos += size
    return header, sections


# -- chunked (v3) codes-section framing ----------------------------------------


def write_chunked_codes(payloads: Sequence[bytes]) -> bytes:
    """Frame independently coded blocks into one v3 codes section."""
    parts = [len(payloads).to_bytes(_CHUNK_COUNT_BYTES, "little")]
    parts.extend(
        len(p).to_bytes(_CHUNK_LEN_BYTES, "little") for p in payloads
    )
    parts.extend(payloads)
    return b"".join(parts)


def read_chunked_codes(payload: bytes) -> list[bytes]:
    """Split a v3 codes section back into its block payloads."""
    if len(payload) < _CHUNK_COUNT_BYTES:
        raise ContainerFormatError("corrupt chunked codes section")
    n_chunks = int.from_bytes(payload[:_CHUNK_COUNT_BYTES], "little")
    table_end = _CHUNK_COUNT_BYTES + _CHUNK_LEN_BYTES * n_chunks
    if n_chunks < 1 or len(payload) < table_end:
        raise ContainerFormatError("corrupt chunked codes section")
    lengths = [
        int.from_bytes(
            payload[
                _CHUNK_COUNT_BYTES
                + _CHUNK_LEN_BYTES * i : _CHUNK_COUNT_BYTES
                + _CHUNK_LEN_BYTES * (i + 1)
            ],
            "little",
        )
        for i in range(n_chunks)
    ]
    blobs: list[bytes] = []
    pos = table_end
    for length in lengths:
        blobs.append(payload[pos : pos + length])
        pos += length
    if pos != len(payload):
        raise ContainerFormatError("corrupt chunked codes section")
    return blobs


# -- v7 tile payloads ----------------------------------------------------------


def _compact_json(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def check_tile_params(params: object) -> None:
    """Refuse *params* unless a dict of :data:`TILE_KEYS`, each of its
    JSON type — a predictor's or transform's own entries numbers or
    lists of integers: no stage then meets a type no encoder wrote."""
    if not isinstance(params, dict):
        raise ContainerFormatError("corrupt tile parameters: not an object")
    for key, value in params.items():
        good = isinstance(value, _PARAM_TYPES.get(key, ()))
        if good and isinstance(value, dict):
            good = all(
                all(type(n) is int for n in v)
                if isinstance(v, list)
                else isinstance(v, _NUMBER)
                for v in value.values()
            )
        if not good:
            raise ContainerFormatError(
                f"corrupt tile parameters: {key!r} may not be {value!r} "
                f"(known: {sorted(TILE_KEYS)})"
            )


def pack_tile(meta: dict, sections: Sequence[bytes]) -> bytes:
    """A v7 tile payload: what *meta* overrides, then the stage bytes."""
    out = bytearray()
    meta_bytes = _compact_json(meta) if meta else b""
    write_varint(out, len(meta_bytes))
    out += meta_bytes
    for section in sections:
        write_varint(out, len(section))
    return bytes(out) + b"".join(sections)


def unpack_tile(payload: bytes) -> tuple[dict, list[bytes]]:
    """Split a v7 tile payload into its ``meta`` and stage sections.

    The recorded lengths must tile the payload exactly and ``meta`` may
    name :data:`TILE_KEYS` only — anything else is a
    :class:`ContainerFormatError`, before any length is believed.
    """
    try:
        meta_len, pos = read_varint(payload, 0)
        if meta_len > len(payload) - pos:
            raise ValueError("meta overruns the payload")
        meta = json.loads(payload[pos : pos + meta_len]) if meta_len else {}
        pos += meta_len
        sizes = []
        for _ in SECTION_NAMES:
            size, pos = read_varint(payload, pos)
            sizes.append(size)
    # bad varint, UTF-8 or JSON (nested past the parser's stack)
    except (ValueError, RecursionError) as exc:
        raise ContainerFormatError(f"corrupt tile payload: {exc}") from exc
    check_tile_params(meta)
    if pos + sum(sizes) != len(payload):
        raise ContainerFormatError(
            f"corrupt tile payload: sections record {sum(sizes)} bytes, "
            f"{len(payload) - pos} follow the lengths"
        )
    bounds = list(itertools.accumulate(sizes, initial=pos))
    return meta, [payload[a:b] for a, b in zip(bounds, bounds[1:])]


# -- tiled containers ----------------------------------------------------------

#: field order of the v5 TOC config-palette entries
_CONFIG_ENTRY_KEYS = ("predictor", "error_bound", "quant_radius")


def _config_to_entry(config: dict) -> list:
    """Compact ``[predictor, error_bound, quant_radius]`` palette form."""
    return [config.get(key) for key in _CONFIG_ENTRY_KEYS]


def _entry_to_config(entry: Sequence | dict) -> dict:
    """Inverse of :func:`_config_to_entry` (tolerates dict entries)."""
    if isinstance(entry, dict):
        return dict(entry)
    return dict(zip(_CONFIG_ENTRY_KEYS, entry))


def _tile_kind(header: dict, config: dict | None, temporal: bool) -> str:
    """The key of a v7 tile's ``shared`` record — what the TOC alone
    says of the tile: that it is a ``"temporal"`` residual, or else its
    palette's or the header's predictor (side data goes with it)."""
    return "temporal" if temporal else str((config or header).get("predictor"))


def _tile_base(header: dict, shared: dict, config: dict | None) -> dict:
    """What a v7 tile's parameters resolve to before its own ``meta``:
    the header's codec fields, under the *shared* record of the tile's
    kind, under its palette *config* — whose bound is absolute."""
    base = {k: v for k, v in header.items() if k in _SHARED_KEYS}
    base.update(shared)
    if config is not None:
        base.update(config, abs_eb=config.get("error_bound"))
    return base


def _added(params: dict, base: dict, keys: frozenset) -> dict:
    """The *keys* entries of *params* that *base* does not already say."""
    return {
        key: value
        for key, value in params.items()
        if key in keys and (key not in base or base[key] != value)
    }


@dataclass(frozen=True)
class TileRecord:
    """One tile's byte extent, index-space extent and codec parameters.

    ``config`` is ``None`` in uniform containers (every tile shares the
    global header's settings); an adaptive container's palette stores
    each tile's chosen codec parameters here so readers and tooling can
    reconstruct the per-tile choices without a global config.

    ``temporal`` marks a tile whose payload encodes a residual against
    the decoded matching tile of the reference snapshot rather than the
    tile's samples directly.

    ``crc`` is the payload's 32-bit checksum under the container's
    declared algorithm, or ``None`` for containers written without
    checksums (which verify as *unknown*, never as failures).

    ``params`` is what a v7 reader resolved for the tile, to be
    completed by its ``meta``; ``None``: a self-describing v4-v6 payload.
    """

    offset: int
    size: int
    start: tuple[int, ...]
    stop: tuple[int, ...]
    config: dict | None = None
    temporal: bool = False
    crc: int | None = None
    params: dict | None = field(default=None, compare=False, repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the tile in index space."""
        return tuple(b - a for a, b in zip(self.start, self.stop))

    def to_json(self) -> dict:
        """Legacy TOC form of the byte/index extents."""
        return {
            "offset": self.offset,
            "size": self.size,
            "start": list(self.start),
            "stop": list(self.stop),
        }

    @staticmethod
    def from_json(record: dict) -> "TileRecord":
        return TileRecord(
            offset=int(record["offset"]),
            size=int(record["size"]),
            start=tuple(int(x) for x in record["start"]),
            stop=tuple(int(x) for x in record["stop"]),
        )


class TiledWriter:
    """Streams a tiled container to a binary sink.

    Tiles are appended one at a time, in grid order (bounded memory);
    the TOC is written at close.  Use as a context manager or call
    :meth:`finish`.  :meth:`add_stages` is the encode loop's entry,
    :meth:`copy_tile` re-files another container's tile, and
    :meth:`add_tile` files a ready payload as it is (how tests forge
    frames, legacy ones through ``version``).

    ``checksums`` (default on) records the payload/header/TOC
    checksums described in the module docstring; readers of containers
    written with ``checksums=False`` treat integrity as unknown.
    """

    def __init__(
        self,
        sink: BinaryIO,
        header: dict,
        version: int = VERSION_FRAME,
        checksums: bool = True,
    ) -> None:
        if version not in TILED_VERSIONS:
            raise ValueError(f"not a tiled container version: {version}")
        self._fh = sink
        self._version = version
        self._tiles: list[TileRecord] = []
        self._finished = False
        self._checksums = bool(checksums)
        try:
            self._start = sink.tell()
        except (OSError, AttributeError):
            self._start = 0  # non-seekable sink: container starts it
        if self._checksums:
            header = dict(header, checksums=CHECKSUM_ALGORITHM)
        self._header = header
        self._modes = version == VERSION_TEMPORAL or (
            version == VERSION_FRAME and bool(header.get("temporal"))
        )
        # v7: where the next tile must lie, and per kind of tile what its
        # first tile added to the header's codec fields
        self._grid = version == VERSION_FRAME and iter_tiles(
            header["shape"], header["tile_shape"]
        )
        self._shared: dict[str, dict] = {}
        header_bytes = _compact_json(header)
        self._header_crc = checksum(header_bytes) if checksums else None
        prelude = (
            MAGIC
            + bytes([version])
            + len(header_bytes).to_bytes(_HEADER_LEN_BYTES, "little")
            + header_bytes
        )
        self._fh.write(prelude)
        # _pos tracks the sink's absolute position so TOC offsets stay
        # valid even when the container does not begin at byte 0
        self._pos = self._start + len(prelude)

    def add_stages(
        self,
        start: Sequence[int],
        stop: Sequence[int],
        params: dict,
        sections: Sequence[bytes],
        config: dict | None = None,
        temporal: bool = False,
    ) -> TileRecord:
        """Append one tile as a v7 payload of its *sections* and whatever
        of its *params* (:data:`TILE_KEYS`) is not resolved without it."""
        entry = config and _entry_to_config(_config_to_entry(config))
        kind = _tile_kind(self._header, entry, temporal)
        if kind not in self._shared:
            # the first tile of a kind speaks for the rest of it
            self._shared[kind] = _added(
                params, _tile_base(self._header, {}, entry), _SHARED_KEYS
            )
        meta = _added(
            params, _tile_base(self._header, self._shared[kind], entry), TILE_KEYS
        )
        return self.add_tile(
            start, stop, pack_tile(meta, sections), config, temporal
        )

    def copy_tile(self, reader: "TiledReader", record: TileRecord) -> TileRecord:
        """Re-file *record* of *reader* (extent, palette entry and mode
        kept): a legacy payload as it is, a v7 one through
        :meth:`add_stages` — what it left to *reader*'s header and TOC
        to say is resolved again against this writer's."""
        rest = (record.config, record.temporal)
        payload = reader.read_tile(record)
        if record.params is None:
            return self.add_tile(record.start, record.stop, payload, *rest)
        meta, sections = unpack_tile(payload)
        params = {**record.params, **meta}
        return self.add_stages(record.start, record.stop, params, sections, *rest)

    def add_tile(
        self,
        start: Sequence[int],
        stop: Sequence[int],
        payload: bytes,
        config: dict | None = None,
        temporal: bool = False,
    ) -> TileRecord:
        """Append one encoded tile as it is; returns its TOC record.

        Nothing but the TOC row is recorded for a v7 *payload*: its
        ``meta`` must complete header and palette *config* on its own.
        One lifted from another container may lean on that container's
        ``shared`` records — :meth:`copy_tile` re-files those.
        """
        if self._finished:
            raise ValueError("writer already finished")
        if temporal and not self._modes:
            raise ValueError(
                "temporal tiles need a v6, or v7 header 'temporal', container"
            )
        record = TileRecord(
            offset=self._pos,
            size=len(payload),
            start=tuple(int(x) for x in start),
            stop=tuple(int(x) for x in stop),
            config=config,
            temporal=temporal,
            crc=checksum(payload) if self._checksums else None,
        )
        extent = (record.start, record.stop)
        if self._grid and next(self._grid, None) != extent:
            raise ValueError(
                f"tile {extent} is not the next of the grid: v7 extents "
                "are derived from tile order"
            )
        self._fh.write(payload)
        self._pos += len(payload)
        self._tiles.append(record)
        return record

    @property
    def tiles(self) -> list[TileRecord]:
        """Records of the tiles appended so far."""
        return list(self._tiles)

    def finish(self) -> int:
        """Write the trailing TOC; returns the total container size."""
        if self._finished:
            return self._pos - self._start
        if self._grid and len(self._tiles) != math.prod(
            tile_grid(self._header["shape"], self._header["tile_shape"])
        ):
            raise ValueError(
                f"{len(self._tiles)} tiles do not fill the grid: v7 "
                "extents are derived from tile order"
            )
        palette: list[list] = []
        indices: dict[str, int] = {}
        tile_configs: list[int | None] = []
        for tile in self._tiles:
            if tile.config is None:
                tile_configs.append(None)
                continue
            entry = _config_to_entry(tile.config)
            key = json.dumps(entry)
            if key not in indices:
                indices[key] = len(palette)
                palette.append(entry)
            tile_configs.append(indices[key])
        if self._version == VERSION_FRAME:
            sizes = [t.size for t in self._tiles]
            body: dict = {"sizes": sizes, "shared": self._shared}
            crc_key = "crcs"
        else:
            body = {"tiles": [t.to_json() for t in self._tiles]}
            crc_key = "tile_crcs"
        if palette:
            body["configs"] = palette
            body["tile_configs"] = tile_configs
        if self._modes:
            body["tile_modes"] = [
                1 if t.temporal else 0 for t in self._tiles
            ]
        if self._checksums:
            body[crc_key] = [t.crc for t in self._tiles]
            body["header_crc"] = self._header_crc
        toc = _compact_json(body)
        self._fh.write(toc)
        if self._checksums:
            # the TOC's own checksum sits between the TOC JSON and the
            # length word; readers know it is there from the header's
            # ``checksums`` declaration (written before any tile)
            self._fh.write(
                checksum(toc).to_bytes(_CRC_BYTES, "little")
            )
            self._pos += _CRC_BYTES
        self._fh.write(len(toc).to_bytes(_TOC_LEN_BYTES, "little"))
        self._pos += len(toc) + _TOC_LEN_BYTES
        self._finished = True
        return self._pos - self._start

    def __enter__(self) -> "TiledWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.finish()


class _ByteSource:
    """Random-access reads over bytes, a path, or a binary file object.

    ``read_at`` is thread-safe: concurrent tile decodes share one
    underlying handle, so the seek+read pair must be atomic.
    """

    def __init__(self, source: bytes | str | os.PathLike | BinaryIO):
        self._owns = False
        self._lock = threading.Lock()
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._fh: BinaryIO = io.BytesIO(bytes(source))
            self._owns = True
        elif isinstance(source, (str, os.PathLike)):
            self._fh = open(source, "rb")
            self._owns = True
        else:
            self._fh = source

    def read_at(self, offset: int, size: int) -> bytes:
        with self._lock:
            self._fh.seek(offset)
            data = self._fh.read(size)
        if len(data) != size:
            raise ContainerFormatError("truncated container")
        return data

    def size(self) -> int:
        with self._lock:
            self._fh.seek(0, os.SEEK_END)
            return self._fh.tell()

    def close(self) -> None:
        if self._owns:
            self._fh.close()


def peek_version(source: bytes | str | os.PathLike | BinaryIO) -> int:
    """Version byte of the RQSZ container at *source*, flat or tiled.

    The one magic/version sniffer: readers dispatch on it before they
    parse anything else.  Reads five bytes, whatever the container's
    size; raises :class:`ContainerFormatError` when they are not an
    RQSZ magic and version.
    """
    src = _ByteSource(source)
    try:
        probe = min(src.size(), len(MAGIC) + _VERSION_BYTES)
        return container_version(src.read_at(0, probe))
    finally:
        src.close()


def read_blob(source: bytes | str | os.PathLike | BinaryIO) -> bytes:
    """Every byte of *source* — what the flat (v2/v3) readers parse."""
    src = _ByteSource(source)
    try:
        return src.read_at(0, src.size())
    finally:
        src.close()


class TiledReader:
    """Random-access reader over a tiled (v4-v7) container.

    Accepts a ``bytes`` blob, a filesystem path, or an open binary file;
    only the header, the TOC and explicitly requested tiles are ever
    read, so region decodes touch a fraction of the file.
    """

    def __init__(self, source: bytes | str | os.PathLike | BinaryIO):
        self._src = _ByteSource(source)
        #: size of the container in bytes
        self.nbytes = total = self._src.size()
        head_len = len(MAGIC) + _VERSION_BYTES + _HEADER_LEN_BYTES
        if total < head_len + _TOC_LEN_BYTES:
            raise ContainerFormatError("truncated container")
        head = self._src.read_at(0, head_len)
        if head[: len(MAGIC)] != MAGIC:
            raise ContainerFormatError("not an RQSZ container")
        if head[len(MAGIC)] not in TILED_VERSIONS:
            raise ContainerFormatError(
                f"not a tiled container (version {head[len(MAGIC)]})"
            )
        self.version = int(head[len(MAGIC)])
        header_len = int.from_bytes(head[-_HEADER_LEN_BYTES:], "little")
        if total < head_len + header_len + _TOC_LEN_BYTES:
            raise ContainerFormatError("truncated container header")
        header_bytes = self._src.read_at(head_len, header_len)
        try:
            self.header: dict = json.loads(header_bytes.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerFormatError("corrupt container header") from exc
        if not isinstance(self.header, dict) or not isinstance(
            self.header.get("checksums"), (str, type(None))
        ):
            raise ContainerFormatError("corrupt container header")
        self.header["container_version"] = self.version

        #: checksum algorithm the container declares (``None`` = none)
        self.checksum_algorithm: str | None = self.header.get("checksums")
        # whether this build can recompute the declared algorithm; a
        # declared-but-unsupported algorithm degrades to "unknown"
        self._verifiable = (
            self.checksum_algorithm is not None
            and checksum_named(self.checksum_algorithm, b"") is not None
        )
        #: ``"verified"`` (header+TOC checksums held), ``"unknown"``
        #: (no/unsupported checksums); a mismatch raises instead
        self.checksum_state = "unknown"

        toc_len = int.from_bytes(
            self._src.read_at(total - _TOC_LEN_BYTES, _TOC_LEN_BYTES),
            "little",
        )
        # containers that declare checksums carry a 4-byte TOC
        # checksum between the TOC JSON and the trailing length word
        crc_bytes = _CRC_BYTES if self.checksum_algorithm else 0
        toc_start = total - _TOC_LEN_BYTES - crc_bytes - toc_len
        if toc_len <= 0 or toc_start < head_len + header_len:
            raise ContainerFormatError("corrupt tile TOC")
        toc_bytes = self._src.read_at(toc_start, toc_len)
        if self._verifiable:
            stored = int.from_bytes(
                self._src.read_at(toc_start + toc_len, _CRC_BYTES),
                "little",
            )
            if checksum_named(self.checksum_algorithm, toc_bytes) != stored:
                raise ContainerFormatError(
                    "corrupt tile TOC: checksum mismatch "
                    f"({self.checksum_algorithm})"
                )
        bad_toc = (LookupError, TypeError, ValueError, AttributeError)
        try:
            toc = json.loads(toc_bytes.decode())
            header_crc = toc.get("header_crc")
        except bad_toc as exc:
            raise ContainerFormatError("corrupt tile TOC") from exc
        if self._verifiable:
            if header_crc is not None and (
                checksum_named(self.checksum_algorithm, header_bytes)
                != header_crc
            ):
                raise ContainerFormatError(
                    "corrupt container header: checksum mismatch "
                    f"({self.checksum_algorithm})"
                )
            self.checksum_state = "verified"
        #: whether the TOC maps tiles to temporal/spatial (``tile_modes``)
        self.temporal = "tile_modes" in toc
        try:
            self.tiles: list[TileRecord] = self._records(
                toc, head_len + header_len, toc_start
            )
        except bad_toc as exc:
            raise ContainerFormatError(f"corrupt tile TOC: {exc}") from exc

    def _records(self, toc: dict, lo: int, hi: int) -> list[TileRecord]:
        """The TOC as tile records; payloads must lie in ``[lo, hi)``.

        Both forms end up here: v7's arrays, whose offsets and extents
        are derived, and the legacy per-tile dicts, whose are checked —
        a checksum-free TOC is only as good as these checks.
        """
        if self.version == VERSION_FRAME:
            sizes = toc["sizes"]
            shape, tile_shape = self.header["shape"], self.header["tile_shape"]
            for ints in (sizes, shape, tile_shape):
                if not isinstance(ints, list) or not all(
                    type(n) is int and n >= 0 for n in ints
                ):
                    raise ValueError("sizes and shapes must be integer lists")
            if np.dtype(self.header["dtype"] or "").kind not in "fiu":
                raise ValueError("dtype is not a numeric type")
            if math.prod(tile_grid(shape, tile_shape)) != len(sizes):
                raise ValueError(f"{len(sizes)} sizes do not fill the grid")
            if sum(sizes) != hi - lo:
                raise ValueError("sizes do not tile the payload region")
            offsets = itertools.accumulate(sizes, initial=lo)
            grid = iter_tiles(shape, tile_shape)
            extents = [(o, s, *e) for o, s, e in zip(offsets, sizes, grid)]
            shared = toc.get("shared", {})
        else:
            tiles = map(TileRecord.from_json, toc["tiles"])
            extents = [(t.offset, t.size, t.start, t.stop) for t in tiles]
            shared = None

        def column(key: str, fill: object) -> list:
            values = toc.get(key, [fill] * len(extents))
            if not isinstance(values, list) or len(values) != len(extents):
                # zip() below would silently drop trailing tiles
                raise ValueError(f"{key} does not match the tile count")
            return values

        palette = [_entry_to_config(e) for e in toc.get("configs", ())]
        resolved: dict[tuple, dict] = {}

        def params(index: int | None, mode: int) -> dict | None:
            if shared is None:
                # legacy payloads describe themselves
                return None
            if (index, mode) not in resolved:
                config = None if index is None else palette[index]
                kind = _tile_kind(self.header, config, bool(mode))
                base = _tile_base(self.header, shared.get(kind, {}), config)
                check_tile_params(base)
                resolved[index, mode] = base
            return resolved[index, mode]

        records = []
        for extent, index, mode, crc in zip(
            extents,
            column("tile_configs", None),
            column("tile_modes", 0),
            column("tile_crcs" if shared is None else "crcs", None),
        ):
            if index is not None and (
                type(index) is not int or not 0 <= index < len(palette)
            ):
                raise ValueError(f"tile config {index!r} is not in the palette")
            if mode not in (0, 1) or not (crc is None or type(crc) is int):
                raise ValueError("tile mode or checksum is not a valid value")
            if not lo <= extent[0] <= extent[0] + extent[1] <= hi:
                raise ValueError(
                    f"tile at {extent[0]} (+{extent[1]}) lies outside "
                    f"the payload region {lo}..{hi}"
                )
            records.append(
                TileRecord(
                    *extent,
                    config=None if index is None else palette[index],
                    temporal=bool(mode),
                    crc=crc,
                    params=params(index, mode),
                )
            )
        return records

    def read_tile(
        self, record: TileRecord, verify: bool = True
    ) -> bytes:
        """Read one tile's payload (v7: :func:`unpack_tile` splits it).

        When the container carries checksums the payload is verified
        against the TOC's recorded value; a mismatch raises
        :class:`TileCorruptError` naming the tile.  ``verify=False``
        skips the check (diagnostics that want the raw damaged bytes).
        """
        payload = self._src.read_at(record.offset, record.size)
        if (
            verify
            and record.crc is not None
            and self._verifiable
            and checksum_named(self.checksum_algorithm, payload)
            != record.crc
        ):
            try:
                index = self.tiles.index(record)
            except ValueError:
                index = None
            raise TileCorruptError(
                f"corrupt tile payload: tile {index} of v{self.version} "
                f"container at offset {record.offset} ({record.size} "
                f"bytes, extent {record.start}..{record.stop}) failed "
                f"{self.checksum_algorithm} verification",
                tile_index=index,
                offset=record.offset,
                version=self.version,
            )
        return payload

    def read_sections(self, record: TileRecord) -> list[bytes]:
        """The stage sections of one tile, whichever frame wraps them."""
        payload = self.read_tile(record)
        if record.params is None:
            return read_flat(payload)[1]
        return unpack_tile(payload)[1]

    def verify_tiles(self) -> str:
        """Checksum every tile payload; returns the resulting state.

        ``"verified"`` when every payload matched, ``"unknown"`` when
        the container carries no (usable) checksums; the first
        mismatch raises :class:`TileCorruptError`.
        """
        if not self._verifiable:
            return "unknown"
        for record in self.tiles:
            self.read_tile(record)
        return "verified"

    def close(self) -> None:
        self._src.close()

    def __enter__(self) -> "TiledReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
