"""The read-only container frames, v2 to v6, served as v7 tiles.

Nothing writes these frames any more, and this is the only module that
knows them: :class:`~repro.compressor.container.TiledReader` imports it
only on a version byte below 7, and gets back tile records and, per
tile, a v7 payload (:func:`reframe`) — the same stage sections, byte
for byte, with nothing decoded or re-encoded.

Flat containers (one array)::

    b"RQSZ" | version:u8 | header_len:u32 | header JSON | sections

where each section is ``length:u64 | bytes`` and the last one ends the
container.  Sections, in order: Huffman/lossless code payload, outlier
positions, outlier values, predictor side payload, PW_REL sign payload.

* **v2** — the code stream is one Huffman(+lossless) payload.
* **v3** — the code stream is split into fixed-size blocks, each
  independently Huffman(+lossless) coded; the codes section becomes
  ``n_chunks:u32 | chunk_len:u64 ... | chunk payloads``.  A tile whose
  parameters say ``chunked`` carries such a section too.

A flat container is read as one tile covering its array: the whole blob.

**v4 / v5 / v6** share v7's frame (header, tile payloads, trailing TOC,
its checksum and length), but each tile payload is a self-describing
flat v2/v3 container and the TOC a list of per-tile
``offset``/``size``/``start``/``stop`` dicts (+ ``tile_crcs``); v5
adds the palette, v6 the ``tile_modes``.  Offsets and extents are
stored, not derived, so tiles may lie in any order.

**RQH5 v1** files (:mod:`repro.storage.hdf5sim`) record a dataset as
chunk records (``offset``/``size``/``kind``/``start``/``stop``), no
checksum: :func:`refile_rqh5` turns them into what a v2 dataset is.
"""

from __future__ import annotations

import io
import itertools
import math

import numpy as np

from repro.compressor.container import (
    SECTION_NAMES,
    TILE_KEYS,
    ContainerFormatError,
    TiledWriter,
    TileRecord,
    pack_tile,
    read_header,
    unpack_tile,
)
from repro.compressor.tiled_geometry import extent_slices, iter_tiles, tile_grid

__all__ = [
    "read_flat", "read_chunked_codes", "reframe", "flat_tile", "read_toc",
    "refile_rqh5",
]

#: flat containers: v2 holds one code stream, v3 a chunked one
FLAT_VERSIONS = (2, 3)
#: every version read here; v4-v6 are tiled frames of flat tiles
VERSIONS = range(2, 7)

_SECTION_LEN_BYTES = 8
_CHUNK_COUNT_BYTES = 4
_CHUNK_LEN_BYTES = 8


# -- flat (v2/v3) containers ---------------------------------------------------


def read_flat(blob: bytes) -> tuple[dict, list[bytes]]:
    """Split a flat container into its parsed header and raw sections.

    The container version is reported as ``container_version`` in the
    returned header dict.
    """
    header, _, pos = read_header(lambda at, size: blob[at : at + size], len(blob))
    if header["container_version"] not in FLAT_VERSIONS:
        raise ContainerFormatError(
            f"unsupported container version {header['container_version']}"
        )
    sections: list[bytes] = []
    for name in SECTION_NAMES:
        size = int.from_bytes(blob[pos : pos + _SECTION_LEN_BYTES], "little")
        pos += _SECTION_LEN_BYTES
        # a cut length prefix leaves pos itself past the end
        if len(blob) < pos + size:
            raise ContainerFormatError(
                f"truncated container: section {name!r} ends past the "
                f"last of {len(blob)} bytes"
            )
        sections.append(blob[pos : pos + size])
        pos += size
    if pos != len(blob):
        raise ContainerFormatError(
            f"corrupt container: {len(blob) - pos} bytes follow the last "
            "section"
        )
    return header, sections


def read_chunked_codes(payload: bytes) -> list[bytes]:
    """Split a v3 codes section back into its block payloads."""
    if len(payload) < _CHUNK_COUNT_BYTES:
        raise ContainerFormatError("corrupt chunked codes section")
    n_chunks = int.from_bytes(payload[:_CHUNK_COUNT_BYTES], "little")
    table_end = _CHUNK_COUNT_BYTES + _CHUNK_LEN_BYTES * n_chunks
    if n_chunks < 1 or len(payload) < table_end:
        raise ContainerFormatError("corrupt chunked codes section")
    lengths = [
        int.from_bytes(payload[at : at + _CHUNK_LEN_BYTES], "little")
        for at in range(_CHUNK_COUNT_BYTES, table_end, _CHUNK_LEN_BYTES)
    ]
    bounds = list(itertools.accumulate(lengths, initial=table_end))
    if bounds[-1] != len(payload):
        raise ContainerFormatError("corrupt chunked codes section")
    return [payload[a:b] for a, b in zip(bounds, bounds[1:])]


def reframe(flat_payload: bytes, shape, dtype) -> bytes:
    """The v7 tile payload of a flat container filed under *shape* and
    *dtype*: its header's :data:`TILE_KEYS` (and ``chunked`` for v3) as
    the tile's ``meta``, around the same five sections.

    A flat header of another shape or dtype than the record it is filed
    under is refused: a v7 tile decodes at its record's extent, so it
    would otherwise be decoded as something it is not.
    """
    header, sections = read_flat(flat_payload)
    meta = {key: value for key, value in header.items() if key in TILE_KEYS}
    if header["container_version"] == 3:
        meta["chunked"] = True
    try:
        own = tuple(header["shape"]), np.dtype(header["dtype"])
    except (LookupError, TypeError) as exc:
        raise ContainerFormatError(f"corrupt container header: {exc!r}") from exc
    if own != (tuple(shape), np.dtype(dtype)):
        raise ContainerFormatError(
            f"corrupt tiled container: tile decodes to {own[1]} {own[0]}, "
            f"TOC records {np.dtype(dtype)} {tuple(shape)}"
        )
    return pack_tile(meta, sections)


def flat_tile(header: dict, nbytes: int) -> TileRecord:
    """The one tile of a flat container of *nbytes* whose header is
    *header*: the whole blob, covering the whole array."""
    shape = header.get("shape")
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ContainerFormatError("corrupt container header: shape")
    return TileRecord(0, nbytes, (0,) * len(shape), tuple(shape), params={})


# -- tiled (v4-v6) TOCs --------------------------------------------------------


def read_toc(toc: dict) -> tuple[list[tuple], list]:
    """A v4-v6 TOC's stored tile extents ``(offset, size, start, stop)``
    and its ``tile_crcs`` (``None`` each for a container without)."""
    extents = [
        (int(t["offset"]), int(t["size"]),
         tuple(map(int, t["start"])), tuple(map(int, t["stop"])))
        for t in toc["tiles"]
    ]
    return extents, toc.get("tile_crcs", [None] * len(extents))


# -- RQH5 v1 datasets ----------------------------------------------------------


def refile_rqh5(entry: dict, read_at) -> bytes | np.ndarray:
    """A v1 RQH5 dataset of TOC *entry*, its chunks read by
    ``read_at(offset, size)``: its samples if they are raw, else an
    in-memory v7 container of them, each a tile filed under its own
    ``meta`` (``"tile"``: a v7 payload; ``"sz"``: a flat container).

    Sorted by start, the records must tile ``shape`` once on the
    ``chunk_shape`` grid (an entry of an earlier file has none: its
    first record's extent is the grid); a raw one must hold its extent.
    """
    shape = [int(n) for n in entry["shape"]]
    dtype = np.dtype(entry["dtype"])
    chunks = sorted(entry["chunks"], key=lambda c: list(map(int, c["start"])))
    extents = [
        (tuple(map(int, c["start"])), tuple(map(int, c["stop"])))
        for c in chunks
    ]
    grid = entry.get("chunk_shape")
    if grid is None:
        start, stop = extents[0] if extents else ((0,) * len(shape),) * 2
        grid = [max(1, b - a) for a, b in zip(start, stop)]
    grid = [int(n) for n in grid]
    # counted before listed: a forged shape must not make the grid huge
    if (
        min(shape, default=0) < 0
        or math.prod(tile_grid(shape, grid)) != len(extents)
        or extents != list(iter_tiles(shape, grid))
    ):
        raise ContainerFormatError(
            f"corrupt RQH5 TOC: the chunks do not tile the shape "
            f"{tuple(shape)} once on the grid {tuple(grid)}"
        )
    if all(c["kind"] == "raw" for c in chunks):
        sizes = [
            math.prod(b - a for a, b in zip(*extent)) * dtype.itemsize
            for extent in extents
        ]
        if [int(c["size"]) for c in chunks] != sizes:
            raise ContainerFormatError(
                "corrupt RQH5 TOC: a raw chunk does not record its extent's bytes"
            )
        out = np.empty(shape, dtype)
        for record, extent, size in zip(chunks, extents, sizes):
            tile = out[extent_slices(*extent)]
            payload = read_at(int(record["offset"]), size)
            tile[...] = np.frombuffer(payload, dtype).reshape(tile.shape)
        return out
    sink = io.BytesIO()
    header = {"shape": shape, "dtype": dtype.str, "tile_shape": grid}
    with TiledWriter(sink, header) as writer:
        for record, (start, stop) in zip(chunks, extents):
            payload = read_at(int(record["offset"]), int(record["size"]))
            if record["kind"] == "sz":
                payload = reframe(
                    payload, [b - a for a, b in zip(start, stop)], dtype
                )
            elif record["kind"] != "tile":
                raise ContainerFormatError(f"corrupt RQH5 TOC: {record}")
            writer.add_stages(start, stop, *unpack_tile(payload))
    return sink.getvalue()
