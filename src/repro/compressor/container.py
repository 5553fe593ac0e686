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

    b"RQSZ" | version:u8 | header_len:u32 | header JSON
           | tile payloads ... | TOC JSON | toc_len:u64

Each tile payload is itself a self-describing flat (v2/v3) container
covering one N-d tile of the array.  The trailing TOC records every
tile's byte extent (``offset``/``size``) and index-space extent
(``start``/``stop``), so a reader can seek straight to the tiles
intersecting a requested hyperslab without touching the rest of the
file.  The TOC trails the payloads so writers can stream tiles to disk
with bounded memory and fix the offsets up at close time.

Integrity: containers written with ``checksums`` enabled (the default)
declare a checksum algorithm in the header (``"checksums"`` field) and
carry a 32-bit checksum of every tile payload (``tile_crcs`` in the
TOC), of the header JSON (``header_crc`` in the TOC) and of the TOC
JSON itself (a 4-byte trailer between the TOC and its length word).
Verification happens on read: a mismatching TOC or header raises
:class:`ContainerFormatError` at open, a mismatching tile payload
raises :class:`TileCorruptError` naming the tile, and containers
*without* checksums (anything written before this scheme, including
all golden fixtures) verify as **unknown** — never as failures.

* **v4** — every tile was encoded under the global header's config.
* **v5** (adaptive) — the same frame, but the TOC additionally carries
  a ``configs`` palette of the distinct model-selected codec parameter
  sets (``[predictor, absolute error bound, quantizer radius]``
  triples) plus a ``tile_configs`` array mapping every tile to its
  palette entry, so heterogeneous per-tile choices survive in the
  format and readers reconstruct without a global config.  The palette
  + index encoding keeps the per-tile TOC cost to a couple of bytes —
  neighbouring tiles frequently land on the same choice, and the
  allocation grid bounds the number of distinct entries.
* **v6** (temporal) — the same frame again, for one snapshot of a
  versioned snapshot chain: each tile payload is either a *spatial*
  encoding of the tile's samples or a *temporal residual* against the
  decoded matching tile of a reference snapshot.  The TOC carries a
  ``tile_modes`` bit array (1 = temporal residual, 0 = spatial) and
  the header records the reference snapshot id (``ref_snapshot``) plus
  ``temporal_stats`` choice counters; decoding therefore needs the
  decoded reference snapshot (see
  :mod:`repro.compressor.temporal`).
"""

from __future__ import annotations

import io
import json
import os
import threading
from dataclasses import dataclass
from typing import BinaryIO, Sequence

from repro.compressor.integrity import (
    CHECKSUM_ALGORITHM,
    checksum,
    checksum_named,
)

__all__ = [
    "MAGIC",
    "VERSION_SINGLE",
    "VERSION_CHUNKED",
    "VERSION_TILED",
    "VERSION_ADAPTIVE",
    "VERSION_TEMPORAL",
    "TILED_VERSIONS",
    "SECTION_NAMES",
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
#: tiled container with a trailing TOC
VERSION_TILED = 4
#: tiled container whose TOC records per-tile codec configurations
VERSION_ADAPTIVE = 5
#: tiled container whose tiles may be temporal residuals vs a reference
VERSION_TEMPORAL = 6

_FLAT_VERSIONS = (VERSION_SINGLE, VERSION_CHUNKED)
#: container versions that use the tiled payloads + trailing-TOC frame
TILED_VERSIONS = (VERSION_TILED, VERSION_ADAPTIVE, VERSION_TEMPORAL)

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


# -- tiled (v4/v5) containers --------------------------------------------------

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


@dataclass(frozen=True)
class TileRecord:
    """One tile's byte extent, index-space extent and codec parameters.

    ``config`` is ``None`` in v4 containers (every tile shares the
    global header's settings); the adaptive v5 container stores each
    tile's chosen codec parameters here so readers and tooling can
    reconstruct the per-tile choices without a global config.

    ``temporal`` marks a v6 tile whose payload encodes a residual
    against the decoded matching tile of the reference snapshot rather
    than the tile's samples directly.

    ``crc`` is the payload's 32-bit checksum under the container's
    declared algorithm, or ``None`` for containers written without
    checksums (which verify as *unknown*, never as failures).
    """

    offset: int
    size: int
    start: tuple[int, ...]
    stop: tuple[int, ...]
    config: dict | None = None
    temporal: bool = False
    crc: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the tile in index space."""
        return tuple(b - a for a, b in zip(self.start, self.stop))

    def to_json(self) -> dict:
        """TOC form of the byte/index extents (config is palettized)."""
        return {
            "offset": self.offset,
            "size": self.size,
            "start": list(self.start),
            "stop": list(self.stop),
        }

    @staticmethod
    def from_json(
        record: dict,
        config: dict | None = None,
        temporal: bool = False,
        crc: int | None = None,
    ) -> "TileRecord":
        return TileRecord(
            offset=int(record["offset"]),
            size=int(record["size"]),
            start=tuple(int(x) for x in record["start"]),
            stop=tuple(int(x) for x in record["stop"]),
            config=config,
            temporal=temporal,
            crc=crc,
        )


class TiledWriter:
    """Streams a v4 tiled container to a binary sink.

    Tiles are appended one at a time (bounded memory); the TOC is
    written at close.  Use as a context manager or call :meth:`finish`.

    ``checksums`` (default on) records the payload/header/TOC
    checksums described in the module docstring; readers of containers
    written with ``checksums=False`` treat integrity as unknown.
    """

    def __init__(
        self,
        sink: BinaryIO,
        header: dict,
        version: int = VERSION_TILED,
        checksums: bool = True,
    ) -> None:
        if version not in TILED_VERSIONS:
            raise ValueError(f"not a tiled container version: {version}")
        self._fh = sink
        self._version = version
        self._tiles: list[TileRecord] = []
        self._finished = False
        self._checksums = bool(checksums)
        self._header_crc: int | None = None
        try:
            self._start = sink.tell()
        except (OSError, AttributeError):
            self._start = 0  # non-seekable sink: container starts it
        if self._checksums:
            header = dict(header, checksums=CHECKSUM_ALGORITHM)
        prelude, header_bytes = self._prelude(header, version)
        if self._checksums:
            self._header_crc = checksum(header_bytes)
        self._fh.write(prelude)
        # _pos tracks the sink's absolute position so TOC offsets stay
        # valid even when the container does not begin at byte 0
        self._pos = self._start + len(prelude)

    @staticmethod
    def _prelude(header: dict, version: int) -> tuple[bytes, bytes]:
        header_bytes = json.dumps(header, sort_keys=True).encode()
        return (
            MAGIC
            + bytes([version])
            + len(header_bytes).to_bytes(_HEADER_LEN_BYTES, "little")
            + header_bytes,
            header_bytes,
        )

    def add_tile(
        self,
        start: Sequence[int],
        stop: Sequence[int],
        payload: bytes,
        config: dict | None = None,
        temporal: bool = False,
    ) -> TileRecord:
        """Append one encoded tile; returns its TOC record."""
        if self._finished:
            raise ValueError("writer already finished")
        if temporal and self._version != VERSION_TEMPORAL:
            raise ValueError(
                "temporal tiles require a v6 (temporal) container"
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
        body: dict = {"tiles": [t.to_json() for t in self._tiles]}
        if palette:
            body["configs"] = palette
            body["tile_configs"] = tile_configs
        if self._version == VERSION_TEMPORAL:
            body["tile_modes"] = [
                1 if t.temporal else 0 for t in self._tiles
            ]
        if self._checksums:
            body["tile_crcs"] = [t.crc for t in self._tiles]
            body["header_crc"] = self._header_crc
        toc = json.dumps(body).encode()
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
    """Random-access reader over a v4 tiled container.

    Accepts a ``bytes`` blob, a filesystem path, or an open binary file;
    only the header, the TOC and explicitly requested tiles are ever
    read, so region decodes touch a fraction of the file.
    """

    def __init__(self, source: bytes | str | os.PathLike | BinaryIO):
        self._src = _ByteSource(source)
        total = self._src.size()
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
        if not isinstance(self.header, dict):
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
        try:
            toc = json.loads(toc_bytes.decode())
            n_tiles = len(toc["tiles"])
            palette = toc.get("configs", ())
            tile_configs = toc.get("tile_configs")
            if tile_configs is None:
                tile_configs = [None] * n_tiles
            if len(tile_configs) != n_tiles:
                # zip() below would silently drop trailing tiles
                raise ValueError("corrupt tile TOC")
            tile_modes = toc.get("tile_modes")
            if tile_modes is None:
                tile_modes = [0] * n_tiles
            if len(tile_modes) != n_tiles:
                raise ValueError("corrupt tile TOC")
            tile_crcs = toc.get("tile_crcs")
            if tile_crcs is None:
                tile_crcs = [None] * n_tiles
            if len(tile_crcs) != n_tiles:
                raise ValueError("corrupt tile TOC")
            self.tiles: list[TileRecord] = [
                TileRecord.from_json(
                    record,
                    _entry_to_config(palette[index])
                    if index is not None
                    else None,
                    temporal=bool(mode),
                    crc=None if crc is None else int(crc),
                )
                for record, index, mode, crc in zip(
                    toc["tiles"], tile_configs, tile_modes, tile_crcs
                )
            ]
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            IndexError,
            TypeError,
            ValueError,
        ) as exc:
            raise ContainerFormatError("corrupt tile TOC") from exc
        if self._verifiable:
            header_crc = toc.get("header_crc")
            if header_crc is not None and (
                checksum_named(self.checksum_algorithm, header_bytes)
                != int(header_crc)
            ):
                raise ContainerFormatError(
                    "corrupt container header: checksum mismatch "
                    f"({self.checksum_algorithm})"
                )
            self.checksum_state = "verified"

    def read_tile(
        self, record: TileRecord, verify: bool = True
    ) -> bytes:
        """Read one tile's payload (a flat v2/v3 container).

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
