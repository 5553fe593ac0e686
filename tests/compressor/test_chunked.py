"""Chunked (v3) code streams: read-only, decoded as they were written.

Earlier revisions could split a code stream into independently coded
blocks (``chunk_size``): flat v3 containers, and v7 tiles whose
parameters say ``chunked``.  Nothing writes them any more; the
forging helpers in ``tests/conftest.py`` do, byte for byte as the
retired writer did (pinned against ``seed_v3_zstd`` below), so every
such file keeps decoding to what its unchunked twin decodes to.
"""

import os

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    SZCompressor,
    TiledCompressor,
)
from repro.compressor.container import (
    ContainerFormatError,
    TiledReader,
    pack_tile,
    unpack_tile,
)
from repro.compressor.legacy import read_chunked_codes, read_flat, reframe
from repro.compressor.stages import HuffmanEntropyStage
from tests.conftest import (
    assert_error_bounded,
    forge_chunked_v7,
    forge_v2,
    forge_v3,
    one_tile_params,
    smooth_field,
    write_chunked_codes,
)
from tests.oracle import assert_same_verdict, decode_alone, tile_routes

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")


@pytest.fixture(scope="module")
def sz():
    return TiledCompressor()


def _seed_field():
    return np.load(os.path.join(DATA_DIR, "seed_v2_field.npy"))


def _assert_twins(sz, data, config, chunk):
    """A forged v3 container decodes exactly as its unchunked twin — the
    one-tile container — does."""
    twin = sz.compress(data, config).blob
    v3 = forge_v3(data, config, chunk)
    assert v3[4] == 3 and len(read_chunked_codes(read_flat(v3)[1][0])) > 1
    recon = sz.decompress(v3)
    assert recon.dtype == data.dtype and recon.shape == data.shape
    np.testing.assert_array_equal(recon, sz.decompress(twin))
    np.testing.assert_array_equal(
        decode_alone(
            reframe(v3, data.shape, data.dtype), data.shape, data.dtype,
            params={},
        ),
        recon,
    )
    return recon


class TestForgedFlatV3:
    def test_forger_writes_the_released_fixture_byte_for_byte(self):
        with open(os.path.join(DATA_DIR, "seed_v3_zstd.rqsz"), "rb") as fh:
            released = fh.read()
        forged = forge_v3(_seed_field(), CompressionConfig(error_bound=1e-3), 512)
        assert forged == released

    @pytest.mark.parametrize("predictor", ["lorenzo", "interpolation", "regression"])
    def test_decodes_to_its_v2_twin(self, sz, predictor):
        data = smooth_field((40, 50))
        cfg = CompressionConfig(predictor=predictor, error_bound=1e-3)
        assert_error_bounded(data, _assert_twins(sz, data, cfg, 512), 1e-3)

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 4096, 6000])
    def test_block_boundaries(self, sz, n):
        # sizes straddling exact multiples of the block size
        data = smooth_field((n,))
        _assert_twins(sz, data, CompressionConfig(error_bound=1e-3), 1024)

    @pytest.mark.parametrize("mode", list(ErrorBoundMode))
    def test_all_modes(self, sz, mode):
        data = smooth_field((60, 60)) + 2.0  # positive for PW_REL
        cfg = CompressionConfig(mode=mode, error_bound=1e-3)
        _assert_twins(sz, data, cfg, 700)

    @pytest.mark.parametrize("lossless", ["zstd_like", "gzip_like", "rle", None])
    def test_all_lossless_backends(self, sz, lossless):
        data = smooth_field((5000,))
        cfg = CompressionConfig(error_bound=1e-3, lossless=lossless)
        _assert_twins(sz, data, cfg, 600)


def _chunked_v7():
    """A v7 container of chunked tiles, and its unchunked twin."""
    data = smooth_field((40, 50))
    config = CompressionConfig(error_bound=1e-3, tile_shape=(16, 25))
    forged = forge_chunked_v7(data, config, 100)
    twin = TiledCompressor().compress(data, config)
    return forged, twin.blob


class TestChunkedV7Tiles:
    def test_decode_to_their_unchunked_twin(self):
        # process workers rebuild the stock codec and get each tile's
        # parameters, ``chunked`` among them, with its work item
        blob, twin = _chunked_v7()
        with TiledReader(blob) as reader:
            metas = [unpack_tile(reader.read_tile(t))[0] for t in reader.tiles]
        assert any(meta.get("chunked") is True for meta in metas)
        three = TiledCompressor(workers=3, backend="process")
        for region in ((), (slice(5, 30), slice(12, 37))):
            routes = tile_routes(blob, region)
            routes["twin"] = lambda: TiledCompressor().decompress_region(
                twin, region
            )
            routes["process/3"] = lambda: three.decompress_region(blob, region)
            assert_same_verdict(routes)
        assert three.last_tiles_decoded == 4  # of 12, for the region

    @pytest.mark.parametrize("blocks", ["dropped", "repeated"])
    def test_blocks_of_the_wrong_total_are_refused(self, blocks):
        blob, _ = _chunked_v7()
        with TiledReader(blob) as reader:
            record = reader.tiles[0]
            meta, sections = unpack_tile(reader.read_tile(record))
            dtype = np.dtype(reader.header["dtype"])
        assert meta.get("chunked") or record.params.get("chunked")
        parts = read_chunked_codes(sections[0])
        parts = parts[:-1] if blocks == "dropped" else parts + parts[-1:]
        payload = pack_tile(meta, [write_chunked_codes(parts), *sections[1:]])
        with pytest.raises(ContainerFormatError, match="corrupt code stream"):
            decode_alone(payload, record.shape, dtype, params=record.params)


class TestRatioParity:
    def test_huffman_only_accounting(self, sz):
        data = smooth_field((96, 96))
        result = sz.compress(
            data, CompressionConfig(error_bound=1e-3, lossless=None)
        )
        assert 0 < result.huffman_only == result.section_bytes["codes"]
        assert result.compressed_bytes == len(result.blob)


class TestHeaderRoundtrip:
    def test_chunk_size_in_header(self, sz):
        # written as null, not dropped: the header bytes stay as they were
        data = smooth_field((40, 40))
        cfg = CompressionConfig(error_bound=1e-3)
        blob = sz.compress(data, cfg).blob
        assert TiledReader(blob).header["chunk_size"] is None
        assert SZCompressor._config_from_header(one_tile_params(blob)) == cfg
        # a released v3 header records its block size, which no
        # config holds any more
        header, _ = read_flat(forge_v3(data, cfg, 500))
        assert header["chunk_size"] == 500
        assert header["container_version"] == 3
        assert SZCompressor._config_from_header(header) == cfg


class TestBackwardCompat:
    """Blobs produced by the seed (v2-only) code must still decode.

    The fixtures under ``tests/data`` were generated by the seed revision
    of the compressor; see the paths for the configurations used.
    """

    @pytest.fixture(scope="class")
    def seed_field(self):
        return _seed_field()

    def test_seed_abs_zstd_blob(self, sz, seed_field):
        with open(os.path.join(DATA_DIR, "seed_v2_zstd.rqsz"), "rb") as fh:
            recon = sz.decompress(fh.read())
        assert recon.shape == seed_field.shape
        assert recon.dtype == seed_field.dtype
        assert_error_bounded(seed_field, recon, 1e-3)

    def test_seed_rel_uncompressed_blob(self, sz, seed_field):
        with open(os.path.join(DATA_DIR, "seed_v2_none.rqsz"), "rb") as fh:
            recon = sz.decompress(fh.read())
        vrange = float(seed_field.max()) - float(seed_field.min())
        assert_error_bounded(seed_field, recon, 1e-3 * vrange)

    def test_seed_pwrel_rle_blob(self, sz, seed_field):
        data = seed_field + 0.5
        with open(os.path.join(DATA_DIR, "seed_v2_rle.rqsz"), "rb") as fh:
            recon = sz.decompress(fh.read())
        rel = np.abs(recon.astype(np.float64) / data - 1.0)
        assert np.max(rel) <= 1e-2 * (1 + 1e-4)

    def test_seed_header_missing_chunk_size(self, sz):
        with open(os.path.join(DATA_DIR, "seed_v2_zstd.rqsz"), "rb") as fh:
            header, _ = read_flat(fh.read())
        assert "chunk_size" not in header
        assert SZCompressor._config_from_header(header) == CompressionConfig(
            error_bound=1e-3
        )

    @pytest.mark.parametrize("name", ["seed_v2_zstd", "seed_v2_none"])
    def test_one_tile_holds_the_seed_blobs_sections(self, sz, seed_field, name):
        """Framing moved, values did not: the seed field re-encoded under
        a released blob's config is a one-tile container whose five
        sections are that blob's, byte for byte (REL resolved to the
        same absolute bound), and which decodes to its expected array."""
        with open(os.path.join(DATA_DIR, f"{name}.rqsz"), "rb") as fh:
            header, sections = read_flat(fh.read())
        config = SZCompressor._config_from_header(header)
        blob = sz.compress(seed_field, config).blob
        with TiledReader(blob) as reader:
            (record,) = reader.tiles
            assert reader.read_sections(record) == sections
        assert one_tile_params(blob)["abs_eb"] == header["abs_eb"]
        expected = np.load(os.path.join(DATA_DIR, f"{name}_expected.npy"))
        np.testing.assert_array_equal(sz.decompress(blob), expected)


class TestCorruptedBlobs:
    def test_unsupported_version_rejected(self, sz):
        data = smooth_field((30, 30))
        blob = bytearray(forge_v2(data, CompressionConfig()))
        blob[4] = 9
        with pytest.raises(ValueError):
            sz.decompress(bytes(blob))

    def test_corrupt_chunk_table_rejected(self, sz):
        data = smooth_field((5000,))
        blob = forge_v3(data, CompressionConfig(error_bound=1e-3), 1000)
        header, sections = read_flat(blob)
        codes = bytearray(sections[0])
        # inflate the first chunk's recorded length
        codes[4:12] = (2**40).to_bytes(8, "little")
        with pytest.raises(ValueError):
            HuffmanEntropyStage().decode_stack(
                [(bytes(codes), SZCompressor._config_from_header(header), True)],
                [5000],
            )

    def test_truncated_container_rejected(self, sz):
        data = smooth_field((2000,))
        blob = forge_v2(data, CompressionConfig(error_bound=1e-3))
        with pytest.raises((ValueError, EOFError)):
            sz.decompress(blob[: len(blob) // 2])

    def test_every_codes_byte_corruption_raises_cleanly(self, sz):
        """Flipping any byte of the codes payload must never escape as a
        raw IndexError — decode either succeeds or raises ValueError."""
        data = smooth_field((4500,))
        cfg = CompressionConfig(error_bound=1e-2, lossless=None)
        blob = forge_v3(data, cfg, 2000)
        for pos in range(len(blob) - 40, len(blob)):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0xFF
            try:
                sz.decompress(bytes(corrupted))
            except ValueError:
                pass
