"""One verdict on a tile whose payload disagrees with its TOC record.

A tile payload that decodes to another shape than the TOC extent it is
filed under is intact as far as any checksum can tell, so the decoder
is the only line of defence: every reader, on every executor backend
(:func:`tests.oracle.tile_routes`), must refuse it with a
:class:`ContainerFormatError` — never crop it into place, never leak
NumPy's broadcast error.  A v7 tile has no shape of its own to disagree
with, so the same verdict falls on what can: a code stream of another
length than the extent takes, section lengths that do not add up, a
``meta`` that names what a tile may not say, a lossless payload that
unwraps past what the tile can hold.
"""

import functools
import io
import math
import os
import shutil
import tracemalloc

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
    pack_tile,
    unpack_tile,
)
from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.encoders.lossless import LOSSLESS_BACKENDS
from repro.compressor.encoders.rle import ZeroRunLengthEncoder
from repro.compressor.stages import HuffmanEntropyStage
from repro.compressor.tiled_geometry import extent_slices, iter_tiles
from repro.storage.hdf5sim import H5LikeFile
from tests.compressor.test_lossless_stack import coded_tokens, lz77_tokens
from tests.conftest import (
    LegacyTiledWriter,
    forge_rqh5,
    forge_v2,
    replace_tile,
    smooth_field,
    without_checksums,
)
from tests.oracle import assert_same_verdict, encode_alone, tile_routes

SHAPE, TILE, BAD_TILE = (32, 32), (16, 16), (16, 16)
WRONG_SHAPE = {"larger": (24, 24), "smaller": (8, 8)}
#: touches all four tiles, so pooled backends take their executor path
REGION = (slice(8, 28), slice(8, 28))
FIELD = smooth_field(SHAPE).astype(np.float64)
RQH5_V1 = os.path.join(os.path.dirname(__file__), "data", "pr34_rqh5_v1.rqh5")


@functools.lru_cache(maxsize=None)
def mismatched(kind: str, checksums: bool, version: int = 4) -> bytes:
    """A container whose tile at ``BAD_TILE`` decodes to the wrong shape.

    In the v6 variant the bad tile is filed as a temporal residual.
    """
    config = CompressionConfig(error_bound=1e-3)
    header = {"shape": list(SHAPE), "dtype": "<f8", "tile_shape": list(TILE)}
    sink = io.BytesIO()
    with LegacyTiledWriter(
        sink, header, version, checksums
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
                forge_v2(tile, config),
                temporal=bad and version == 6,
            )
    return sink.getvalue()


#: reader -> the container version it is handed (a v6 frame files the
#: bad tile as a temporal residual) and the :func:`tests.oracle.tile_routes`
#: it takes
READERS = {
    "tiled.decompress": (4, ("decompress",)),
    "tiled.decompress_region": (4, ("decompress_region",)),
    "temporal.decompress": (
        6,
        ("temporal", "decompress", "decompress_region"),
    ),
    "store.read_region": (4, ("store", "h5")),
}


def refused_everywhere(blob, reader, backend, match, tmp) -> None:
    """*reader*'s routes to ``REGION`` of *blob* on *backend*, and the
    tile-by-tile decodes, all refuse it one way."""
    names = ("decode_alone", "decode_tiles", *READERS[reader][1])
    routes = tile_routes(blob, REGION, FIELD, tmp, [backend], names)
    assert len(routes) == len(names), list(routes)
    verdict = assert_same_verdict(routes, match=match)
    assert isinstance(verdict, ContainerFormatError), verdict


@pytest.mark.parametrize("kind", sorted(WRONG_SHAPE))
@pytest.mark.parametrize("checksums", [True, False], ids=["crc", "nocrc"])
@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_every_reader_refuses_a_tile_of_the_wrong_shape(
    backend, reader, checksums, kind, tmp_path
):
    blob = mismatched(kind, checksums, READERS[reader][0])
    refused_everywhere(blob, reader, backend, "TOC records", tmp_path)


def _other_tile(shape):
    return encode_alone(
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
    temporal = READERS[reader][0] == 6
    blob = damaged_v7(kind, checksums, temporal)
    refused_everywhere(blob, reader, backend, "corrupt", tmp_path)


#: the outlier positions *p* of a tile of *n* codes, damaged so that no
#: checksum-free reader can tell: order kept, but one lies outside the
#: code stream, or is filed twice, or has no value
POSITION_DAMAGE = {
    "negative": lambda p, n: np.concatenate([-p[-1:], p[1:]]),
    "past-the-end": lambda p, n: np.concatenate([p[:-1], [n]]),
    "repeated": lambda p, n: np.concatenate([p[:1], p[:-1]]),
    "unpaired": lambda p, n: p[:-1],
}


@pytest.mark.parametrize("kind", sorted(POSITION_DAMAGE))
@pytest.mark.parametrize("predictor", ["lorenzo", "interpolation", "regression"])
def test_every_reader_refuses_outlier_positions_off_the_codes(
    predictor, kind, tmp_path
):
    field = 1e-3 * np.cumsum(
        np.random.default_rng(0).standard_normal(SHAPE), axis=-1
    )
    field[19, 20] += 50.0  # a few outliers, in the last tile
    config = CompressionConfig(
        predictor=predictor,
        error_bound=1e-3,
        quant_radius=16,
        tile_shape=TILE,
    )
    blob = without_checksums(TiledCompressor().compress(field, config).blob)
    with TiledReader(blob) as reader:
        assert reader.tiles[-1].start == BAD_TILE
        meta, sections = unpack_tile(reader.read_tile(reader.tiles[-1]))
    positions = np.frombuffer(sections[1], dtype=np.int64)
    assert positions.size > 1
    # the one 16x16 tile of the grid's interpolation anchors: (0, 0)
    n_codes = 256 - (predictor == "interpolation")
    damaged = POSITION_DAMAGE[kind](positions, n_codes).astype(np.int64)
    sections[1] = damaged.tobytes()
    blob = replace_tile(blob, 3, pack_tile(meta, sections))
    routes = tile_routes(blob, REGION, tmp=tmp_path, backends=["serial"])
    verdict = assert_same_verdict(routes, match="corrupt outlier positions")
    assert isinstance(verdict, ContainerFormatError), verdict


#: predictor meta that no encoder writes, filed in the last tile's meta:
#: Lorenzo orders past the two that exist, and an interpolation anchor
#: grid other than the one its shape and levels make
META_DAMAGE = {
    "lorenzo-order-0": ("lorenzo", {"order": 0}),
    "lorenzo-order-3": ("lorenzo", {"order": 3}),
    "lorenzo-order-7": ("lorenzo", {"order": 7}),
    "anchor-grid": ("interpolation", {"levels": 5, "anchor_shape": [1]}),
}


@pytest.mark.parametrize("kind", sorted(META_DAMAGE))
def test_every_reader_refuses_predictor_meta_no_encoder_writes(
    kind, tmp_path
):
    predictor, forged = META_DAMAGE[kind]
    # 32x33 tiles: five levels, an anchor grid of [1, 2]
    shape, tile = (64, 66), (32, 33)
    field = 1e-2 * np.cumsum(
        np.random.default_rng(1).standard_normal(shape), axis=-1
    )
    config = CompressionConfig(
        predictor=predictor, error_bound=1e-2, tile_shape=tile
    )
    blob = without_checksums(TiledCompressor().compress(field, config).blob)
    with TiledReader(blob) as reader:
        record = reader.tiles[-1]
        meta, sections = unpack_tile(reader.read_tile(record))
    if "anchor_shape" in forged:
        # one anchor fewer and one code more: the code count still adds
        # up, and the one anchor would broadcast over the grid's two
        entropy = HuffmanEntropyStage()
        tile_config = SZCompressor._config_from_header(record.params)
        codes = entropy.decode_stack(
            [(sections[0], tile_config, False)], [math.prod(record.shape)]
        )[0]
        sections[0] = entropy.encode_stack(
            [np.append(codes, 0)], tile_config
        )[0].payload
        sections[3] = sections[3][:8]
    blob = replace_tile(
        blob, 3, pack_tile(dict(meta, predictor_meta=forged), sections)
    )
    region = (slice(16, 48), slice(16, 50))  # all four tiles
    routes = tile_routes(blob, region, tmp=tmp_path, backends=["serial"])
    verdict = assert_same_verdict(routes, match="corrupt predictor meta")
    assert isinstance(verdict, ContainerFormatError), verdict


def forged_expansion(kind: str, size: int) -> bytes:
    """A checksum-free container whose last tile's codes section is a
    method-1 lossless payload that unwraps to *size* bytes: an LZ77
    stream that declares them, or RLE runs of zeros that fill them."""
    lossless = "rle" if kind == "rle" else "zstd_like"
    config = CompressionConfig(
        error_bound=1e-3, tile_shape=TILE, lossless=lossless
    )
    blob = without_checksums(TiledCompressor().compress(FIELD, config).blob)
    max_run = ZeroRunLengthEncoder().max_run
    if kind == "rle":
        payload = coded_tokens([-1] + [-1, max_run] * (size // max_run))
    else:
        payload = coded_tokens(lz77_tokens(size))
    with TiledReader(blob) as reader:
        meta, sections = unpack_tile(reader.read_tile(reader.tiles[-1]))
    return replace_tile(blob, 3, pack_tile(meta, [payload, *sections[1:]]))


@pytest.mark.parametrize(
    "kind, size", [("lz77", 2**40), ("rle", 2**20)], ids=["lz77", "rle"]
)
def test_every_route_refuses_a_lossless_payload_past_its_tile(
    kind, size, tmp_path
):
    # 2**40 bytes are refused at once by malloc where nothing checks
    # them: no route may see that MemoryError, nor the RLE zeros
    blob = forged_expansion(kind, size)
    routes = tile_routes(blob, REGION, tmp=tmp_path)
    verdict = assert_same_verdict(routes, match="limit")
    assert isinstance(verdict, ContainerFormatError), verdict


@pytest.mark.parametrize(
    "kind, size", [("lz77", 2**26), ("rle", 2**20)], ids=["lz77", "rle"]
)
def test_a_refused_expansion_allocates_nothing_near_it(kind, size):
    blob = forged_expansion(kind, size)
    tracemalloc.start()
    try:
        with pytest.raises(ContainerFormatError, match="limit"):
            TiledCompressor(backend="serial").decompress_region(
                blob, extent_slices(BAD_TILE, SHAPE)
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def forged_header(claimed: bool, size: int = 1 << 16) -> bytes:
    """*size* bytes of ``0x07`` — what a forged LZ77 stream once unwrapped
    to — whose symbol count is as many 6-bit code lengths as its bits
    hold; the header length claimed past the blob, or its true one."""
    blob = bytearray(b"\x07" * size)
    if not claimed:
        blob[:4] = (size - 4).to_bytes(4, "big")
    blob[4:8] = (8 * (size - 4) // 6).to_bytes(4, "big")
    return bytes(blob)


@pytest.mark.parametrize("claimed", [True, False], ids=["claimed", "true"])
def test_a_forged_huffman_header_is_refused_unallocated(claimed):
    # the counts of a 32x32 tile: a parse that trusted the header walked
    # 87 376 gamma codes and peaked at 122x the blob before refusing it
    blob = forged_header(claimed)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="Huffman"):
            HuffmanEncoder().decode_stack([blob], [32 * 32])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(blob), peak


def with_last_codes(codes: bytes, lossless: str | None) -> bytes:
    """A checksum-free 64x64 container in 32x32 tiles, the codes section
    of its last tile *codes*."""
    config = CompressionConfig(
        error_bound=1e-3, tile_shape=(32, 32), lossless=lossless
    )
    field = smooth_field((64, 64)).astype(np.float64)
    blob = without_checksums(TiledCompressor().compress(field, config).blob)
    with TiledReader(blob) as reader:
        meta, sections = unpack_tile(reader.read_tile(reader.tiles[-1]))
    return replace_tile(blob, 3, pack_tile(meta, [codes, *sections[1:]]))


@pytest.mark.parametrize("claimed", [True, False], ids=["claimed", "true"])
@pytest.mark.parametrize("lossless", [None, "zstd_like"], ids=str)
def test_every_route_refuses_a_forged_huffman_header(
    lossless, claimed, tmp_path
):
    # the codes section of the last 32x32 tile, raw or in the lossless
    # stage's raw escape
    codes = b"\0" * bool(lossless) + forged_header(claimed)
    routes = tile_routes(with_last_codes(codes, lossless), tmp=tmp_path)
    verdict = assert_same_verdict(routes, match="Huffman")
    assert isinstance(verdict, ContainerFormatError), verdict


@pytest.mark.parametrize("lossless", LOSSLESS_BACKENDS)
def test_a_forged_token_alphabet_is_refused_unallocated(lossless, tmp_path):
    # a coded lossless payload whose token header has its true length
    # and counts 87 376 symbols: inside the token bound of a 32x32 tile
    # (112 872), past any alphabet a token stream holds.  A parse held to
    # the token bound alone walked the gamma codes to 369x the section
    section = b"\1" + forged_header(False)
    blob = with_last_codes(section, lossless)
    verdict = assert_same_verdict(
        tile_routes(blob, tmp=tmp_path), match="Huffman"
    )
    assert isinstance(verdict, ContainerFormatError), verdict
    tracemalloc.start()
    try:
        with pytest.raises(ContainerFormatError, match="symbols past"):
            TiledCompressor(backend="serial").decompress_region(
                blob, extent_slices((32, 32), (64, 64))
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(section), peak


def test_a_decode_of_another_shape_or_dtype_is_refused():
    # the last line of defence, whatever the frame: a codec that hands
    # back another shape or dtype than the record's is refused, never
    # cropped or cast into place
    class Drifting(SZCompressor):
        def decode_stack(self, tiles):
            return [drift(tile) for tile in super().decode_stack(tiles)]

    config = CompressionConfig(error_bound=1e-3, tile_shape=TILE)
    blob = TiledCompressor().compress(FIELD, config).blob
    for drift in (lambda t: t[:-1], lambda t: t.astype(np.float32)):
        with pytest.raises(ContainerFormatError, match="TOC records"):
            TiledCompressor(codec=Drifting()).decompress(blob)


@pytest.mark.parametrize("kind", sorted(WRONG_SHAPE))
def test_chunked_file_refuses_a_chunk_of_the_wrong_shape(kind, tmp_path):
    # a version-1 file records a chunk per chunk: refile the last one
    # of the 32x32 "rel" dataset (16x16 samples) under an extent it is
    # larger / smaller than
    path = str(tmp_path / "field.rqh5")
    shutil.copy(RQH5_V1, path)

    def edit(datasets):
        record = datasets["rel"]["chunks"][-1]
        if kind == "larger":
            record["stop"] = [24, 24]
        else:
            record["start"] = [8, 8]

    forge_rqh5(path, edit)
    # the records no longer tile the shape: the dataset is refused on
    # its first read, before any chunk whose code stream the extent
    # does not take is decoded
    with H5LikeFile(path, "r") as fh:
        with pytest.raises(ContainerFormatError, match="do not tile"):
            fh.read_dataset("rel")


@pytest.mark.parametrize("kind", sorted(WRONG_SHAPE))
def test_chunked_file_refuses_a_dataset_of_the_wrong_shape(kind, tmp_path):
    # a version-2 dataset is one container: its TOC entry records
    # another shape than the container holds
    path = str(tmp_path / "field.rqh5")
    config = CompressionConfig(error_bound=1e-3, tile_shape=TILE)
    with H5LikeFile(path, "w") as fh:
        fh.create_dataset("field", FIELD, config)
    forge_rqh5(
        path, lambda datasets: datasets["field"].update(shape=WRONG_SHAPE[kind])
    )
    with H5LikeFile(path, "r") as fh:
        with pytest.raises(ContainerFormatError, match="container holds"):
            fh.read_dataset("field")
