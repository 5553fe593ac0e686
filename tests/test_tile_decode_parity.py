"""One verdict on a tile whose payload disagrees with its TOC record.

A tile payload that decodes to another shape than the TOC extent it is
filed under is intact as far as any checksum can tell, so the decoder
is the only line of defence: every reader, on every executor backend,
must refuse it with a :class:`ContainerFormatError` — never crop it
into place, never leak NumPy's broadcast error.  A v7 tile has no shape
of its own to disagree with, so the same verdict falls on what can: a
code stream of another length than the extent takes, section lengths
that do not add up, a ``meta`` that names what a tile may not say.
"""

import functools
import io
import json

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    SZCompressor,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.container import (
    ContainerFormatError,
    TiledReader,
    TiledWriter,
    pack_tile,
    unpack_tile,
)
from repro.compressor.tiled_geometry import extent_slices, iter_tiles
from repro.service.store import ArrayStore, DatasetCorruptError
from repro.storage.hdf5sim import H5LikeFile
from tests.conftest import (
    adopt_container,
    replace_tile,
    smooth_field,
    without_checksums,
)

SHAPE, TILE, BAD_TILE = (32, 32), (16, 16), (16, 16)
WRONG_SHAPE = {"larger": (24, 24), "smaller": (8, 8)}
#: touches all four tiles, so pooled backends take their executor path
REGION = (slice(8, 28), slice(8, 28))
FIELD = smooth_field(SHAPE).astype(np.float64)


@functools.lru_cache(maxsize=None)
def mismatched(kind: str, checksums: bool, version: int = 4) -> bytes:
    """A container whose tile at ``BAD_TILE`` decodes to the wrong shape.

    In the v6 variant the bad tile is filed as a temporal residual.
    """
    codec, config = SZCompressor(), CompressionConfig(error_bound=1e-3)
    header = {"shape": list(SHAPE), "dtype": "<f8", "tile_shape": list(TILE)}
    sink = io.BytesIO()
    with TiledWriter(
        sink, header, version=version, checksums=checksums
    ) as writer:  # legacy frames: each tile a flat container
        for start, stop in iter_tiles(SHAPE, TILE):
            bad = start == BAD_TILE
            tile = (
                smooth_field(WRONG_SHAPE[kind]).astype(np.float64)
                if bad
                else FIELD[extent_slices(start, stop)]
            )
            writer.add_tile(
                start,
                stop,
                codec.compress(tile, config).blob,
                temporal=bad and version == 6,
            )
    return sink.getvalue()


def _tiled_full(backend, blob, tmp_path):
    TiledCompressor(workers=2, backend=backend).decompress(blob)


def _tiled_region(backend, blob, tmp_path):
    TiledCompressor(workers=2, backend=backend).decompress_region(blob, REGION)


def _temporal_full(backend, blob, tmp_path):
    TemporalCompressor(workers=2, backend=backend).decompress(
        blob, reference=FIELD
    )


def _store_region(backend, blob, tmp_path):
    adopt_container(tmp_path, "field", blob)
    with ArrayStore(tmp_path, workers=2, parallel_backend=backend) as store:
        for _ in range(2):  # a refused tile is never served from the cache
            with pytest.raises(DatasetCorruptError) as caught:
                store.read_region("field", REGION)
            assert isinstance(caught.value.__cause__, ContainerFormatError)
            assert store.cache.stats().entries <= 3
    raise caught.value.__cause__


READERS = {
    "tiled.decompress": (_tiled_full, 4),
    "tiled.decompress_region": (_tiled_region, 4),
    "temporal.decompress": (_temporal_full, 6),
    "store.read_region": (_store_region, 4),
}


@pytest.mark.parametrize("kind", sorted(WRONG_SHAPE))
@pytest.mark.parametrize("checksums", [True, False], ids=["crc", "nocrc"])
@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_every_reader_refuses_a_tile_of_the_wrong_shape(
    backend, reader, checksums, kind, tmp_path
):
    read, version = READERS[reader]
    blob = mismatched(kind, checksums, version)
    with pytest.raises(ContainerFormatError, match="TOC records"):
        read(backend, blob, tmp_path)


def _other_tile(shape):
    return SZCompressor().encode_stages(
        smooth_field(shape).astype(np.float64),
        CompressionConfig(error_bound=1e-3),
    )[1]


#: what to file under the last tile's extent instead of its (meta, sections)
V7_DAMAGE = {
    "more-codes": lambda meta, sections: pack_tile(meta, _other_tile((24, 24))),
    "fewer-codes": lambda meta, sections: pack_tile(meta, _other_tile((8, 8))),
    # the first section length one too long: the five no longer add up
    "section-length": lambda meta, sections: (
        lambda p: p[:1] + bytes([p[1] + 1]) + p[2:]
    )(pack_tile({}, [s[:100] for s in sections])),
    "unknown-meta-key": lambda meta, sections: pack_tile(
        {"shape": [16, 16]}, sections
    ),
    "meta-of-the-wrong-type": lambda meta, sections: pack_tile(
        {"predictor_meta": 7, "quant_radius": "wide"}, sections
    ),
}


@functools.lru_cache(maxsize=None)
def damaged_v7(kind: str, checksums: bool, temporal: bool) -> bytes:
    """A v7 container whose last tile is damaged the *kind* way.

    Its checksums (when it has any) are those of the damaged payload:
    nothing but the decoder stands between it and the caller.
    """
    config = CompressionConfig(error_bound=1e-3, tile_shape=TILE)
    if temporal:
        blob = TemporalCompressor().compress_snapshot(
            FIELD + 1e-2, config, reference=FIELD, ref_id="v0"
        ).blob
    else:
        blob = TiledCompressor().compress(FIELD, config).blob
    if not checksums:
        blob = without_checksums(blob)
    with TiledReader(blob) as reader:
        assert reader.tiles[-1].start == BAD_TILE
        assert reader.tiles[-1].temporal == temporal
        meta, sections = unpack_tile(reader.read_tile(reader.tiles[-1]))
    return replace_tile(blob, 3, V7_DAMAGE[kind](meta, sections))


@pytest.mark.parametrize("kind", sorted(V7_DAMAGE))
@pytest.mark.parametrize("checksums", [True, False], ids=["crc", "nocrc"])
@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_every_reader_refuses_a_damaged_v7_tile(
    backend, reader, checksums, kind, tmp_path
):
    read, version = READERS[reader]
    blob = damaged_v7(kind, checksums, temporal=version == 6)
    with pytest.raises(ContainerFormatError, match="corrupt"):
        read(backend, blob, tmp_path)


@pytest.mark.parametrize("kind", sorted(WRONG_SHAPE))
def test_chunked_file_refuses_a_chunk_of_the_wrong_shape(kind, tmp_path):
    path = str(tmp_path / "field.rqh5")
    config = CompressionConfig(error_bound=1e-3, tile_shape=TILE)
    with H5LikeFile(path, "w") as fh:
        fh.create_dataset("field", FIELD, config)
    # refile the last chunk (16x16 samples) under an extent it is
    # larger / smaller than
    with open(path, "rb") as fh:
        raw = fh.read()
    toc_len = int.from_bytes(raw[-8:], "little")
    toc = json.loads(raw[-8 - toc_len : -8])
    record = toc["datasets"]["field"]["chunks"][-1]
    if kind == "larger":
        record["stop"] = [24, 24]
    else:
        record["start"] = [8, 8]
    patched = json.dumps(toc).encode()
    with open(path, "wb") as fh:
        fh.write(raw[: -8 - toc_len] + patched)
        fh.write(len(patched).to_bytes(8, "little"))
    with H5LikeFile(path, "r") as fh:
        with pytest.raises(ContainerFormatError, match="TOC records"):
            fh.read_region("field", REGION)
        with pytest.raises(ContainerFormatError, match="TOC records"):
            fh.read_dataset("field")
