"""Tests for REL / PW_REL error-bound modes of the model."""

import numpy as np
import pytest

from repro.compressor import CompressionConfig, ErrorBoundMode, TiledCompressor
from repro.core.accuracy import estimation_accuracy
from repro.core.model import RatioQualityModel
from tests.conftest import smooth_field


@pytest.fixture(scope="module")
def sz():
    return TiledCompressor()


@pytest.fixture(scope="module")
def data():
    return smooth_field((40, 40, 12), seed=23) * 100.0


@pytest.fixture(scope="module")
def positive_data():
    rng = np.random.default_rng(7)
    return np.exp(rng.normal(0, 1, (36, 36, 10))).astype(np.float32)


class TestRelMode:
    def test_bitrate_accuracy(self, sz, data):
        model = RatioQualityModel(mode=ErrorBoundMode.REL).fit(data)
        est, meas = [], []
        for rel in (1e-4, 1e-3, 1e-2):
            est.append(model.estimate(rel).bitrate)
            cfg = CompressionConfig(
                mode=ErrorBoundMode.REL, error_bound=rel
            )
            meas.append(sz.compress(data, cfg).bit_rate)
        assert estimation_accuracy(meas, est) > 0.9

    def test_matches_abs_model_at_scaled_bound(self, data):
        rel_model = RatioQualityModel(mode=ErrorBoundMode.REL).fit(data)
        abs_model = RatioQualityModel(mode=ErrorBoundMode.ABS).fit(data)
        vrange = float(data.max() - data.min())
        rel_est = rel_model.estimate(1e-3)
        abs_est = abs_model.estimate(1e-3 * vrange)
        assert rel_est.bitrate == pytest.approx(abs_est.bitrate, rel=1e-6)
        assert rel_est.psnr == pytest.approx(abs_est.psnr, rel=1e-6)

    def test_inverse_queries_in_rel_domain(self, data):
        model = RatioQualityModel(mode=ErrorBoundMode.REL).fit(data)
        eb = model.error_bound_for_bitrate(4.0)
        assert 0 < eb < 1  # relative bounds are small fractions
        assert model.estimate(eb).bitrate == pytest.approx(4.0, rel=0.2)


class TestPwRelMode:
    def test_bitrate_accuracy(self, sz, positive_data):
        model = RatioQualityModel(mode=ErrorBoundMode.PW_REL).fit(
            positive_data
        )
        est, meas = [], []
        for rel in (1e-3, 1e-2, 5e-2):
            est.append(model.estimate(rel).bitrate)
            cfg = CompressionConfig(
                mode=ErrorBoundMode.PW_REL, error_bound=rel
            )
            meas.append(sz.compress(positive_data, cfg).bit_rate)
        assert estimation_accuracy(meas, est) > 0.9

    def test_sign_payload_counted(self, positive_data):
        model = RatioQualityModel(mode=ErrorBoundMode.PW_REL).fit(
            positive_data
        )
        # even an enormous relative bound cannot go below the 2 bits/pt
        # sign/zero side payload
        assert model.estimate(0.5).bitrate > 2.0

    def test_psnr_estimate_is_log_domain(self, positive_data):
        # the PW_REL quality numbers describe the log-transformed field
        model = RatioQualityModel(mode=ErrorBoundMode.PW_REL).fit(
            positive_data
        )
        est = model.estimate(1e-2)
        assert np.isfinite(est.psnr)
        assert est.error_variance >= 0

    def test_invalid_bound(self, positive_data):
        model = RatioQualityModel(mode=ErrorBoundMode.PW_REL).fit(
            positive_data
        )
        with pytest.raises(ValueError):
            model.estimate(0.0)


class TestModeConversions:
    def test_abs_mode_identity(self, data):
        model = RatioQualityModel().fit(data)
        assert model._to_abs(0.5) == 0.5
        assert model._from_abs(0.5) == 0.5

    def test_rel_roundtrip(self, data):
        model = RatioQualityModel(mode=ErrorBoundMode.REL).fit(data)
        assert model._from_abs(model._to_abs(1e-3)) == pytest.approx(1e-3)

    def test_pw_rel_roundtrip(self, positive_data):
        model = RatioQualityModel(mode=ErrorBoundMode.PW_REL).fit(
            positive_data
        )
        assert model._from_abs(model._to_abs(0.05)) == pytest.approx(0.05)
