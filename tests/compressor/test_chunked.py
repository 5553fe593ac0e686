"""Chunked (v3) containers: roundtrips, parallelism, compatibility."""

import os

import numpy as np
import pytest

from repro.compressor import CompressionConfig, ErrorBoundMode, SZCompressor
from repro.compressor.container import read_flat
from repro.compressor.stages import HuffmanEntropyStage
from tests.conftest import assert_error_bounded, smooth_field

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")


@pytest.fixture(scope="module")
def sz():
    return SZCompressor()


class TestChunkedRoundtrip:
    @pytest.mark.parametrize("predictor", ["lorenzo", "interpolation", "regression"])
    def test_roundtrip_bound(self, sz, predictor):
        data = smooth_field((40, 50))
        cfg = CompressionConfig(
            predictor=predictor, error_bound=1e-3, chunk_size=512
        )
        result, recon = sz.roundtrip(data, cfg)
        assert recon.shape == data.shape
        assert_error_bounded(data, recon, 1e-3)
        assert result.blob[4] == 3  # container version

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 4096, 6000])
    def test_chunk_boundaries(self, sz, n):
        # sizes straddling exact multiples of the chunk size
        data = smooth_field((n,))
        cfg = CompressionConfig(error_bound=1e-3, chunk_size=1024)
        _, recon = sz.roundtrip(data, cfg)
        assert_error_bounded(data, recon, 1e-3)

    def test_small_stream_falls_back_to_v2(self, sz):
        data = smooth_field((30,))
        cfg = CompressionConfig(error_bound=1e-3, chunk_size=1024)
        result = sz.compress(data, cfg)
        assert result.blob[4] == 2
        assert_error_bounded(data, sz.decompress(result.blob), 1e-3)

    @pytest.mark.parametrize("mode", list(ErrorBoundMode))
    def test_all_modes(self, sz, mode):
        data = smooth_field((60, 60)) + 2.0  # positive for PW_REL
        cfg = CompressionConfig(
            mode=mode, error_bound=1e-3, chunk_size=700
        )
        _, recon = sz.roundtrip(data, cfg)
        if mode is ErrorBoundMode.ABS:
            assert_error_bounded(data, recon, 1e-3)
        elif mode is ErrorBoundMode.REL:
            vrange = float(data.max()) - float(data.min())
            assert_error_bounded(data, recon, 1e-3 * vrange)
        else:
            rel = np.abs(recon.astype(np.float64) / data - 1.0)
            assert np.max(rel) <= 1e-3 * (1 + 1e-4)

    @pytest.mark.parametrize("lossless", ["zstd_like", "gzip_like", "rle", None])
    def test_all_lossless_backends(self, sz, lossless):
        data = smooth_field((5000,))
        cfg = CompressionConfig(
            error_bound=1e-3, lossless=lossless, chunk_size=600
        )
        _, recon = sz.roundtrip(data, cfg)
        assert_error_bounded(data, recon, 1e-3)


class TestWorkers:
    def test_parallel_encode_is_deterministic(self):
        data = smooth_field((50, 60))
        cfg = CompressionConfig(error_bound=1e-3, chunk_size=400)
        serial = SZCompressor().compress(data, cfg)
        parallel = SZCompressor(workers=4).compress(data, cfg)
        assert serial.blob == parallel.blob

    def test_parallel_decode_matches_serial(self, sz):
        data = smooth_field((50, 60))
        cfg = CompressionConfig(error_bound=1e-3, chunk_size=400)
        blob = sz.compress(data, cfg).blob
        a = sz.decompress(blob)
        b = sz.decompress(blob, workers=3)
        c = SZCompressor(workers=2).decompress(blob)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            SZCompressor(workers=0)


class TestRatioParity:
    def test_chunked_ratio_close_to_single_stream(self, sz):
        # chunks must be large enough to amortize the per-chunk Huffman
        # table, as in production use (the default is >= 2^20 symbols)
        data = smooth_field((256, 256))
        v2 = sz.compress(data, CompressionConfig(error_bound=1e-3))
        v3 = sz.compress(
            data, CompressionConfig(error_bound=1e-3, chunk_size=16384)
        )
        assert v3.ratio >= 0.95 * v2.ratio

    def test_huffman_only_accounting(self, sz):
        data = smooth_field((96, 96))
        result = sz.compress(
            data, CompressionConfig(error_bound=1e-3, chunk_size=2048)
        )
        assert 0 < result.sizes.huffman_only
        assert result.sizes.total == len(result.blob)


class TestHeaderRoundtrip:
    def test_chunk_size_in_header(self, sz):
        data = smooth_field((40, 40))
        cfg = CompressionConfig(error_bound=1e-3, chunk_size=500)
        result = sz.compress(data, cfg)
        header, _ = read_flat(result.blob)
        assert header["chunk_size"] == 500
        assert header["container_version"] == 3
        assert sz._config_from_header(header) == cfg


class TestBackwardCompat:
    """Blobs produced by the seed (v2-only) code must still decode.

    The fixtures under ``tests/data`` were generated by the seed revision
    of the compressor; see the paths for the configurations used.
    """

    @pytest.fixture(scope="class")
    def seed_field(self):
        return np.load(os.path.join(DATA_DIR, "seed_v2_field.npy"))

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
        assert sz._config_from_header(header).chunk_size is None


class TestCorruptedBlobs:
    def test_unsupported_version_rejected(self, sz):
        data = smooth_field((30, 30))
        blob = bytearray(sz.compress(data, CompressionConfig()).blob)
        blob[4] = 9
        with pytest.raises(ValueError):
            sz.decompress(bytes(blob))

    def test_corrupt_chunk_table_rejected(self, sz):
        data = smooth_field((5000,))
        cfg = CompressionConfig(error_bound=1e-3, chunk_size=1000)
        blob = sz.compress(data, cfg).blob
        header, sections = read_flat(blob)
        codes = bytearray(sections[0])
        # inflate the first chunk's recorded length
        codes[4:12] = (2**40).to_bytes(8, "little")
        with pytest.raises(ValueError):
            HuffmanEntropyStage().decode(
                bytes(codes), sz._config_from_header(header), chunked=True
            )

    def test_truncated_container_rejected(self, sz):
        data = smooth_field((2000,))
        blob = sz.compress(data, CompressionConfig(error_bound=1e-3)).blob
        with pytest.raises((ValueError, EOFError)):
            sz.decompress(blob[: len(blob) // 2])

    def test_every_codes_byte_corruption_raises_cleanly(self, sz):
        """Flipping any byte of the codes payload must never escape as a
        raw IndexError — decode either succeeds or raises ValueError."""
        data = smooth_field((4500,))
        cfg = CompressionConfig(
            error_bound=1e-2, lossless=None, chunk_size=2000
        )
        blob = sz.compress(data, cfg).blob
        for pos in range(len(blob) - 40, len(blob)):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0xFF
            try:
                sz.decompress(bytes(corrupted))
            except ValueError:
                pass
