"""Degenerate-input roundtrips: constant, empty, scalar, singleton."""

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    SZCompressor,
    TiledCompressor,
)
from tests.conftest import assert_error_bounded


@pytest.fixture(scope="module")
def sz():
    return SZCompressor()


class TestConstantFields:
    @pytest.mark.parametrize("predictor", ["lorenzo", "interpolation", "regression"])
    @pytest.mark.parametrize("shape", [(100,), (12, 13), (6, 7, 8)])
    def test_rel_mode_reconstructs_exactly(self, sz, predictor, shape):
        # Regression: REL on a constant field used to raise
        # "error_bound must be positive" (absolute bound collapses to 0).
        data = np.full(shape, 3.25)
        cfg = CompressionConfig(
            predictor=predictor, mode=ErrorBoundMode.REL, error_bound=1e-3
        )
        result, recon = sz.roundtrip(data, cfg)
        np.testing.assert_array_equal(recon, data)
        assert recon.dtype == data.dtype
        assert result.ratio > 1.0

    def test_rel_mode_constant_float32(self, sz):
        data = np.full((50, 50), -7.125, dtype=np.float32)
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-4)
        _, recon = sz.roundtrip(data, cfg)
        np.testing.assert_array_equal(recon, data)
        assert recon.dtype == np.float32

    def test_abs_mode_constant_bounded(self, sz):
        data = np.full((40, 40), 11.5)
        cfg = CompressionConfig(error_bound=1e-3)
        _, recon = sz.roundtrip(data, cfg)
        assert_error_bounded(data, recon, 1e-3)

    def test_pw_rel_mode_constant_bounded(self, sz):
        data = np.full((40, 40), 2.5)
        cfg = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=1e-3
        )
        _, recon = sz.roundtrip(data, cfg)
        rel = np.abs(recon / data - 1.0)
        assert np.max(rel) <= 1e-3 * (1 + 1e-9)

    def test_constant_zeros_rel(self, sz):
        data = np.zeros((30, 30))
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-2)
        _, recon = sz.roundtrip(data, cfg)
        np.testing.assert_array_equal(recon, data)


class TestEmptyInputs:
    @pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0, 4)])
    @pytest.mark.parametrize("mode", list(ErrorBoundMode))
    def test_empty_roundtrip(self, sz, shape, mode):
        # Regression: empty arrays used to raise "cannot compress an
        # empty array"; in-situ pipelines hit empty partitions.
        data = np.zeros(shape, dtype=np.float64)
        cfg = CompressionConfig(mode=mode, error_bound=1e-3)
        result, recon = sz.roundtrip(data, cfg)
        assert recon.shape == shape
        assert recon.dtype == data.dtype
        assert result.n_points == 0
        assert result.bit_rate == 0.0

    def test_empty_float32_dtype_preserved(self, sz):
        data = np.zeros((0, 7), dtype=np.float32)
        _, recon = sz.roundtrip(data, CompressionConfig())
        assert recon.shape == (0, 7)
        assert recon.dtype == np.float32


class TestScalarAndSingleton:
    def test_zero_dim_array(self, sz):
        data = np.array(1.75)
        _, recon = sz.roundtrip(data, CompressionConfig(error_bound=1e-3))
        assert recon.shape == ()
        assert_error_bounded(data, recon, 1e-3)

    def test_zero_dim_rel_mode(self, sz):
        # a single value has zero range: the REL constant path applies
        data = np.array(42.0)
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-3)
        _, recon = sz.roundtrip(data, cfg)
        assert recon.shape == ()
        assert float(recon) == 42.0

    @pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 1, 1)])
    def test_singleton_arrays(self, sz, shape):
        data = np.full(shape, -3.5)
        _, recon = sz.roundtrip(data, CompressionConfig(error_bound=1e-4))
        assert recon.shape == shape
        assert_error_bounded(data, recon, 1e-4)

    def test_singleton_rel_mode(self, sz):
        data = np.full((1,), 9.75)
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-3)
        _, recon = sz.roundtrip(data, cfg)
        np.testing.assert_array_equal(recon, data)


class TestDtypePreservation:
    @pytest.mark.parametrize("tile_shape", [None, (16, 16)])
    def test_float32_roundtrip(self, sz, tile_shape):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 40)).astype(np.float32)
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=tile_shape)
        codec = sz if tile_shape is None else TiledCompressor()
        recon = codec.decompress(codec.compress(data, cfg).blob)
        assert recon.dtype == np.float32
        assert_error_bounded(data, recon, 1e-3)
