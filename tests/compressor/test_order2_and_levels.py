"""Pipeline coverage for order-2 Lorenzo and 4-D inputs."""

import numpy as np
import pytest

from repro.compressor import CompressionConfig, SZCompressor
from repro.compressor.container import read_flat
from tests.conftest import assert_error_bounded, smooth_field


@pytest.fixture(scope="module")
def sz():
    return SZCompressor()


class TestOrder2Lorenzo:
    def test_roundtrip_bound(self, sz):
        data = smooth_field((40, 40))
        cfg = CompressionConfig(
            predictor="lorenzo", lorenzo_levels=2, error_bound=1e-3
        )
        _, recon = sz.roundtrip(data, cfg)
        assert_error_bounded(data, recon, 1e-3)

    def test_order2_helps_on_linear_trends(self, sz):
        # In 1-D, order-1 Lorenzo turns a linear ramp into a constant
        # nonzero slope code; order-2 annihilates it.
        data = np.linspace(0, 1000, 8192).astype(np.float32)
        r1 = sz.compress(
            data,
            CompressionConfig(predictor="lorenzo", error_bound=1e-3),
        )
        r2 = sz.compress(
            data,
            CompressionConfig(
                predictor="lorenzo", lorenzo_levels=2, error_bound=1e-3
            ),
        )
        assert r2.p0 > r1.p0

    def test_header_records_order(self, sz):
        data = smooth_field((20, 20))
        cfg = CompressionConfig(
            predictor="lorenzo", lorenzo_levels=2, error_bound=1e-2
        )
        result = sz.compress(data, cfg)
        header, _ = read_flat(result.blob)
        assert header["lorenzo_levels"] == 2
        assert header["predictor_meta"]["order"] == 2


class TestFourDimensional:
    @pytest.mark.parametrize("predictor", ["lorenzo", "interpolation"])
    def test_roundtrip_4d(self, sz, predictor):
        data = smooth_field((6, 7, 8, 9))
        cfg = CompressionConfig(predictor=predictor, error_bound=1e-3)
        _, recon = sz.roundtrip(data, cfg)
        assert_error_bounded(data, recon, 1e-3)

    def test_exafel_like_roundtrip(self, sz):
        from repro.datasets import photon_events_4d

        data = photon_events_4d((2, 3, 24, 24), seed=0)
        eb = float(data.max() - data.min()) * 1e-3
        _, recon = sz.roundtrip(
            data, CompressionConfig(error_bound=eb)
        )
        assert_error_bounded(data, recon, eb)
