"""Tests for CompressionConfig and error-bound modes."""

import numpy as np
import pytest

from repro.compressor.config import CompressionConfig, ErrorBoundMode


class TestValidation:
    def test_defaults_valid(self):
        cfg = CompressionConfig()
        assert cfg.predictor == "lorenzo"
        assert cfg.mode is ErrorBoundMode.ABS

    def test_unknown_predictor(self):
        with pytest.raises(ValueError):
            CompressionConfig(predictor="spline")

    def test_unknown_lossless(self):
        with pytest.raises(ValueError):
            CompressionConfig(lossless="zstd")

    def test_nonpositive_bound(self):
        with pytest.raises(ValueError):
            CompressionConfig(error_bound=0.0)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_bound(self, bound):
        # inf quantizes everything to one bin and decodes to all NaN
        with pytest.raises(ValueError, match="error_bound"):
            CompressionConfig(error_bound=bound)

    def test_mode_type_checked(self):
        with pytest.raises(TypeError):
            CompressionConfig(mode="abs")

    def test_invalid_lorenzo_levels(self):
        with pytest.raises(ValueError):
            CompressionConfig(lorenzo_levels=3)

    def test_invalid_regression_block(self):
        with pytest.raises(ValueError):
            CompressionConfig(regression_block=1)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            CompressionConfig(quant_radius=1)


class TestAbsoluteBound:
    def test_abs_mode_passthrough(self):
        cfg = CompressionConfig(mode=ErrorBoundMode.ABS, error_bound=0.5)
        assert cfg.absolute_bound(np.array([0.0, 100.0])) == 0.5

    def test_rel_mode_scales_by_range(self):
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-2)
        data = np.array([-5.0, 15.0])
        assert cfg.absolute_bound(data) == pytest.approx(0.2)

    def test_pw_rel_log_bound(self):
        cfg = CompressionConfig(mode=ErrorBoundMode.PW_REL, error_bound=0.1)
        bound = cfg.absolute_bound(np.array([1.0, 2.0]))
        assert bound == pytest.approx(np.log1p(0.1))


class TestCopies:
    def test_with_error_bound(self):
        cfg = CompressionConfig(error_bound=1.0)
        new = cfg.with_error_bound(2.0)
        assert new.error_bound == 2.0
        assert cfg.error_bound == 1.0
        assert new.predictor == cfg.predictor

    def test_with_predictor(self):
        cfg = CompressionConfig()
        new = cfg.with_predictor("interpolation")
        assert new.predictor == "interpolation"
        assert cfg.predictor == "lorenzo"

    def test_frozen(self):
        cfg = CompressionConfig()
        with pytest.raises(Exception):
            cfg.error_bound = 5.0  # type: ignore[misc]
