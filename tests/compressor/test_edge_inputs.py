"""Degenerate-input roundtrips: constant, empty, scalar, singleton.

Every array goes through the one front end: with no ``tile_shape`` it
is a one-tile container, a 0-d array included.
"""

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    TiledCompressor,
)
from repro.compressor.container import TiledReader
from tests.conftest import assert_error_bounded, roundtrip


class TestConstantFields:
    @pytest.mark.parametrize("predictor", ["lorenzo", "interpolation", "regression"])
    @pytest.mark.parametrize("shape", [(100,), (12, 13), (6, 7, 8)])
    def test_rel_mode_reconstructs_exactly(self, predictor, shape):
        # Regression: REL on a constant field used to raise
        # "error_bound must be positive" (absolute bound collapses to 0).
        data = np.full(shape, 3.25)
        cfg = CompressionConfig(
            predictor=predictor, mode=ErrorBoundMode.REL, error_bound=1e-3
        )
        result, recon = roundtrip(data, cfg)
        np.testing.assert_array_equal(recon, data)
        assert recon.dtype == data.dtype
        assert result.ratio > 1.0

    def test_rel_mode_constant_float32(self):
        data = np.full((50, 50), -7.125, dtype=np.float32)
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-4)
        _, recon = roundtrip(data, cfg)
        np.testing.assert_array_equal(recon, data)
        assert recon.dtype == np.float32

    def test_abs_mode_constant_bounded(self):
        data = np.full((40, 40), 11.5)
        cfg = CompressionConfig(error_bound=1e-3)
        _, recon = roundtrip(data, cfg)
        assert_error_bounded(data, recon, 1e-3)

    def test_pw_rel_mode_constant_bounded(self):
        data = np.full((40, 40), 2.5)
        cfg = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=1e-3
        )
        _, recon = roundtrip(data, cfg)
        rel = np.abs(recon / data - 1.0)
        assert np.max(rel) <= 1e-3 * (1 + 1e-9)

    def test_constant_zeros_rel(self):
        data = np.zeros((30, 30))
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-2)
        _, recon = roundtrip(data, cfg)
        np.testing.assert_array_equal(recon, data)


class TestEmptyInputs:
    @pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0, 4)])
    @pytest.mark.parametrize("mode", list(ErrorBoundMode))
    def test_empty_roundtrip(self, shape, mode):
        # Regression: empty arrays used to raise "cannot compress an
        # empty array"; in-situ pipelines hit empty partitions.
        data = np.zeros(shape, dtype=np.float64)
        cfg = CompressionConfig(mode=mode, error_bound=1e-3)
        result, recon = roundtrip(data, cfg)
        assert recon.shape == shape
        assert recon.dtype == data.dtype
        assert result.n_points == 0
        assert result.bit_rate == 0.0

    def test_empty_float32_dtype_preserved(self):
        data = np.zeros((0, 7), dtype=np.float32)
        _, recon = roundtrip(data, CompressionConfig())
        assert recon.shape == (0, 7)
        assert recon.dtype == np.float32


class TestScalarAndSingleton:
    def test_zero_dim_array(self):
        data = np.array(1.75)
        _, recon = roundtrip(data, CompressionConfig(error_bound=1e-3))
        assert recon.shape == ()
        assert_error_bounded(data, recon, 1e-3)

    @pytest.mark.parametrize("dtype", ["f8", "f4", "i2"])
    def test_zero_dim_is_one_tile(self, dtype):
        data = np.array(7, dtype=dtype)
        result, recon = roundtrip(data, CompressionConfig(error_bound=1e-3))
        with TiledReader(result.blob) as reader:
            assert reader.header["shape"] == reader.header["tile_shape"] == []
            assert len(reader.tiles) == 1
        assert recon.shape == () and recon.dtype == data.dtype
        assert recon == data

    def test_zero_dim_rel_mode(self):
        # a single value has zero range: the REL constant path applies
        data = np.array(42.0)
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-3)
        _, recon = roundtrip(data, cfg)
        assert recon.shape == ()
        assert float(recon) == 42.0

    @pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 1, 1)])
    def test_singleton_arrays(self, shape):
        data = np.full(shape, -3.5)
        _, recon = roundtrip(data, CompressionConfig(error_bound=1e-4))
        assert recon.shape == shape
        assert_error_bounded(data, recon, 1e-4)

    def test_singleton_rel_mode(self):
        data = np.full((1,), 9.75)
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-3)
        _, recon = roundtrip(data, cfg)
        np.testing.assert_array_equal(recon, data)


class TestDtypePreservation:
    @pytest.mark.parametrize("tile_shape", [None, (16, 16)])
    def test_float32_roundtrip(self, tile_shape):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 40)).astype(np.float32)
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=tile_shape)
        codec = TiledCompressor()
        recon = codec.decompress(codec.compress(data, cfg).blob)
        assert recon.dtype == np.float32
        assert_error_bounded(data, recon, 1e-3)


class TestIntegerArrays:
    @pytest.mark.parametrize("dtype", ["i1", "i2", "i4", "u1", "u2"])
    @pytest.mark.parametrize("tile_shape", [None, (5, 4)])
    def test_integer_roundtrip(self, dtype, tile_shape):
        data = (np.arange(120).reshape(12, 10) % 97).astype(dtype)
        cfg = CompressionConfig(error_bound=0.25, tile_shape=tile_shape)
        result, recon = roundtrip(data, cfg)
        assert recon.dtype == data.dtype and recon.shape == data.shape
        np.testing.assert_array_equal(recon, data)
        assert result.n_codes == data.size


FLAT_TILED = ["flat", "tiled"]


class TestRelOnUnscalableData:
    """A valid REL bound on data whose value range is not a finite
    number names the data as the cause, never the bound."""

    @pytest.mark.parametrize("tile_shape", [None, (4, 4)], ids=FLAT_TILED)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_data_is_named(self, tile_shape, bad):
        data = np.arange(64, dtype=np.float64).reshape(8, 8)
        data[5, 6] = bad
        cfg = CompressionConfig(
            mode=ErrorBoundMode.REL, error_bound=0.01, tile_shape=tile_shape
        )
        with pytest.raises(ValueError, match="data must be finite"):
            TiledCompressor().compress(data, cfg)

    @pytest.mark.parametrize("tile_shape", [None, (2,)], ids=FLAT_TILED)
    def test_a_range_past_float64_is_named(self, tile_shape):
        data = np.array([-1e308, 0.0, 1e308, 5.0])
        cfg = CompressionConfig(
            mode=ErrorBoundMode.REL, error_bound=0.01, tile_shape=tile_shape
        )
        named = r"value range \[-1e\+308, 1e\+308\]"
        with pytest.raises(ValueError, match=named):
            TiledCompressor().compress(data, cfg)
