"""End-to-end tests of the pipeline: a flat array is a one-tile container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import obs
from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    SZCompressor,
    TiledCompressor,
)
from repro.compressor.container import TiledReader
from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.encoders.lossless import get_lossless_backend
from tests.conftest import assert_error_bounded, roundtrip, smooth_field

PREDICTORS = ["lorenzo", "interpolation", "regression"]


@pytest.fixture(scope="module")
def sz():
    return TiledCompressor()


class TestAbsMode:
    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize("shape", [(2000,), (40, 50), (16, 18, 20)])
    def test_roundtrip_bound(self, sz, predictor, shape):
        data = smooth_field(shape)
        eb = 1e-3
        cfg = CompressionConfig(predictor=predictor, error_bound=eb)
        result, recon = roundtrip(data, cfg)
        assert recon.shape == data.shape
        assert recon.dtype == data.dtype
        assert_error_bounded(data, recon, eb)
        assert result.ratio > 1.0

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_float64_input(self, sz, predictor):
        data = smooth_field((30, 30)).astype(np.float64)
        cfg = CompressionConfig(predictor=predictor, error_bound=1e-6)
        _, recon = roundtrip(data, cfg)
        assert recon.dtype == np.float64
        assert np.max(np.abs(recon - data)) <= 1e-6 * (1 + 1e-9)

    def test_larger_bound_never_smaller_ratio(self, sz):
        data = smooth_field((48, 48))
        cfg_small = CompressionConfig(error_bound=1e-4)
        cfg_large = CompressionConfig(error_bound=1e-2)
        r_small = sz.compress(data, cfg_small)
        r_large = sz.compress(data, cfg_large)
        assert r_large.ratio >= r_small.ratio


class TestRelMode:
    def test_bound_scales_with_range(self, sz):
        data = smooth_field((40, 40)) * 1000
        cfg = CompressionConfig(
            mode=ErrorBoundMode.REL, error_bound=1e-4
        )
        _, recon = roundtrip(data, cfg)
        abs_eb = 1e-4 * (float(data.max()) - float(data.min()))
        assert_error_bounded(data, recon, abs_eb)


class TestPwRelMode:
    def test_pointwise_relative_bound(self, sz):
        rng = np.random.default_rng(0)
        data = np.exp(rng.normal(0, 1, size=(30, 30))).astype(np.float32)
        cfg = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=1e-2
        )
        _, recon = roundtrip(data, cfg)
        rel = np.abs(recon.astype(np.float64) / data - 1.0)
        assert np.max(rel) <= 1e-2 * (1 + 1e-4)

    def test_zeros_reconstruct_exactly(self, sz):
        data = smooth_field((20, 20))
        data[::3, ::4] = 0.0
        cfg = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=1e-2
        )
        _, recon = roundtrip(data, cfg)
        assert np.all(recon[data == 0] == 0.0)

    def test_negative_values_keep_sign(self, sz):
        data = smooth_field((20, 20)) - 0.5
        data[data == 0] = 0.1
        cfg = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=1e-2
        )
        _, recon = roundtrip(data, cfg)
        assert np.all(np.sign(recon) == np.sign(data))


class TestLosslessStages:
    @pytest.mark.parametrize("lossless", ["zstd_like", "gzip_like", "rle", None])
    def test_roundtrip_all_backends(self, sz, lossless):
        data = smooth_field((32, 32))
        cfg = CompressionConfig(error_bound=1e-2, lossless=lossless)
        _, recon = roundtrip(data, cfg)
        assert_error_bounded(data, recon, 1e-2)

    def test_lossless_helps_at_high_bound(self, sz):
        # Compare the codes sections: at a high bound the Huffman output
        # is zero-run dominated and the dictionary stage must shrink it.
        data = smooth_field((128, 128))
        eb = float(data.max() - data.min()) * 0.8
        with_ll = sz.compress(
            data, CompressionConfig(error_bound=eb, lossless="zstd_like")
        )
        without = sz.compress(
            data, CompressionConfig(error_bound=eb, lossless=None)
        )
        assert with_ll.section_bytes["codes"] < without.section_bytes["codes"]


class TestResultAccounting:
    def test_sizes_are_consistent(self, sz):
        data = smooth_field((40, 40))
        result = sz.compress(data, CompressionConfig(error_bound=1e-3))
        assert result.compressed_bytes == len(result.blob)
        assert sum(result.section_bytes.values()) < len(result.blob)
        assert result.bit_rate == pytest.approx(
            8 * len(result.blob) / data.size
        )
        assert 0 <= result.p0 <= 1

    @pytest.mark.parametrize("tile_shape", [None, (16, 16)])
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_measures_are_read_back_from_the_tiles(self, sz, predictor, tile_shape):
        """``p0``, outliers and Huffman-only bytes are what the tiles
        store, totalled (``p0`` weighted by code count); on one tile,
        what the retired flat compress reported of the same sections."""
        data = smooth_field((40, 40))
        data[::7, ::5] *= 1e4  # outliers
        cfg = CompressionConfig(
            predictor=predictor, error_bound=1e-3, quant_radius=64,
            tile_shape=tile_shape,
        )
        result = sz.compress(data, cfg)
        codes, huffman = [], []
        with TiledReader(result.blob) as reader:
            sections = [reader.read_sections(t) for t in reader.tiles]
        for tile in sections:
            huffman.append(get_lossless_backend(cfg.lossless).decompress(tile[0]))
            codes.append(HuffmanEncoder().decode(huffman[-1]))
        codes = np.concatenate(codes)
        assert result.n_codes == codes.size
        assert result.p0 == np.count_nonzero(codes == 0) / codes.size
        assert result.n_outliers == sum(len(t[1]) for t in sections) // 8 > 0
        assert result.huffman_only == sum(map(len, huffman))
        assert result.huffman_bit_rate == 8 * result.huffman_only / data.size

    def test_times_recorded(self, sz):
        data = smooth_field((40, 40))
        with obs.record() as times:
            sz.compress(data, CompressionConfig(error_bound=1e-3))
        # disjoint stages only: nothing encloses the per-tile ones
        assert set(times) == {
            "scan", "transform", "predict_quantize", "huffman", "lossless", "io"
        }

    def test_huffman_bitrate_below_total(self, sz):
        data = smooth_field((40, 40))
        result = sz.compress(
            data, CompressionConfig(error_bound=1e-3, lossless=None)
        )
        assert result.huffman_bit_rate <= result.bit_rate


class TestContainerFormat:
    def test_bad_magic_rejected(self, sz):
        with pytest.raises(ValueError):
            sz.decompress(b"XXXX" + b"\x00" * 64)

    def test_decompress_is_pure_function_of_blob(self, sz):
        data = smooth_field((24, 24))
        result = sz.compress(data, CompressionConfig(error_bound=1e-3))
        a = sz.decompress(result.blob)
        b = sz.decompress(result.blob)
        np.testing.assert_array_equal(a, b)

    def test_header_round_trips_config(self, sz):
        data = smooth_field((24, 24))
        cfg = CompressionConfig(
            predictor="interpolation",
            mode=ErrorBoundMode.REL,
            error_bound=1e-3,
            lossless="rle",
        )
        with TiledReader(sz.compress(data, cfg).blob) as reader:
            # the header keeps the config's own bound, the tile the
            # absolute bound REL resolved to
            own = {k: reader.header[k] for k in ("mode", "error_bound")}
            restored = SZCompressor._config_from_header(
                {**reader.tiles[0].params, **own}
            )
        assert restored == cfg


class TestPropertyBased:
    @given(
        arrays(
            np.float32,
            array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=10),
            elements=st.floats(-1e4, 1e4, allow_nan=False, width=32),
        ),
        st.sampled_from(PREDICTORS),
        st.floats(1e-3, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_error_bound_invariant(self, data, predictor, eb):
        cfg = CompressionConfig(
            predictor=predictor, error_bound=eb, lossless=None
        )
        _, recon = roundtrip(data, cfg)
        assert_error_bounded(data, recon, eb)
