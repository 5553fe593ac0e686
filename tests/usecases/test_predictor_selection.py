"""Tests for use-case 1: adaptive predictor selection."""

import numpy as np
import pytest

from repro.compressor import CompressionConfig, TiledCompressor
from repro.usecases.predictor_selection import PredictorSelector
from tests.conftest import smooth_field


@pytest.fixture(scope="module")
def data():
    return smooth_field((40, 40, 10), seed=9)


@pytest.fixture(scope="module")
def selector(data):
    return PredictorSelector(("lorenzo", "interpolation")).fit(data)


class TestLifecycle:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PredictorSelector().select_for_error_bound(1e-3)

    def test_empty_candidates_raises(self):
        with pytest.raises(ValueError):
            PredictorSelector(())

    def test_fit_builds_all_models(self, selector):
        assert set(selector.models) == {"lorenzo", "interpolation"}


class TestSelection:
    def test_select_for_error_bound_returns_min_bitrate(self, selector):
        decision = selector.select_for_error_bound(1e-3)
        best = decision.estimate.bitrate
        for est in decision.alternatives.values():
            assert best <= est.bitrate + 1e-12

    def test_select_for_bitrate_returns_max_psnr(self, selector):
        decision = selector.select_for_bitrate(3.0)
        best = decision.estimate.psnr
        for est in decision.alternatives.values():
            assert best >= est.psnr - 1e-12

    def test_selection_matches_measured_winner(self, data, selector):
        # The model's choice at a fixed bound must agree with actually
        # compressing under both predictors.
        eb = float(data.max() - data.min()) * 1e-3
        decision = selector.select_for_error_bound(eb)
        sz = TiledCompressor()
        measured = {
            name: sz.compress(
                data, CompressionConfig(predictor=name, error_bound=eb)
            ).bit_rate
            for name in selector.models
        }
        assert decision.predictor == min(measured, key=measured.get)


class TestCurvesAndCrossover:
    def test_rd_curves_shape(self, data, selector):
        ebs = np.geomspace(1e-4, 1e-1, 6) * float(data.max() - data.min())
        curves = selector.rate_distortion_curves(ebs)
        assert set(curves) == set(selector.models)
        for curve in curves.values():
            assert len(curve) == 6

    def test_crossover_unknown_predictor_raises(self, selector):
        with pytest.raises(KeyError):
            selector.crossover_bitrate("lorenzo", "regression")

    def test_crossover_or_dominance(self, selector):
        # Either a crossover exists in range, or one predictor dominates;
        # both are legitimate outcomes — the API must report them sanely.
        cross = selector.crossover_bitrate("lorenzo", "interpolation")
        if cross is not None:
            assert 0.5 <= cross <= 16.0
