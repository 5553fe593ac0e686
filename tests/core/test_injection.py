"""Tests for hypothetical error injection (§III-D4)."""

import numpy as np
import pytest

from repro import CompressionConfig
from repro.analysis import (
    find_halos,
    halo_match_f1,
    psnr,
    spectrum_relative_error,
)
from repro.core.error_distribution import ErrorDistributionModel
from repro.core.injection import inject_errors, predict_analysis_impact
from repro.core.model import RatioQualityModel
from repro.datasets import load_field
from tests.conftest import roundtrip, smooth_field


class TestInjectErrors:
    def test_shape_preserved(self):
        data = smooth_field((16, 16)).astype(np.float64)
        dist = ErrorDistributionModel(0.1, p0=0.0, central_var=0.0)
        out = inject_errors(data, dist, np.random.default_rng(0))
        assert out.shape == data.shape
        assert not np.array_equal(out, data)

    def test_errors_bounded_for_uniform(self):
        data = smooth_field((16, 16)).astype(np.float64)
        dist = ErrorDistributionModel(0.05, p0=0.0, central_var=0.0)
        out = inject_errors(
            data, dist, np.random.default_rng(1), refined=False
        )
        assert np.max(np.abs(out - data)) <= 0.05

    def test_original_untouched(self):
        data = smooth_field((8, 8)).astype(np.float64)
        copy = data.copy()
        dist = ErrorDistributionModel(0.1, p0=0.5, central_var=0.001)
        inject_errors(data, dist, np.random.default_rng(2))
        np.testing.assert_array_equal(data, copy)


class TestPredictAnalysisImpact:
    def test_psnr_analysis_matches_real_compression(self):
        # Sanity check the machinery on an analysis with a known answer:
        # PSNR predicted by injection must track real compression.
        data = load_field("Hurricane", "U", size_scale=0.3)
        model = RatioQualityModel().fit(data)
        vrange = float(data.max() - data.min())
        eb = vrange * 1e-2
        predicted = predict_analysis_impact(
            data,
            model,
            eb,
            analysis=lambda d: d,
            compare=lambda ref, pert: psnr(ref, pert),
            n_trials=2,
        )
        _, recon = roundtrip(
            data, CompressionConfig(error_bound=eb)
        )
        assert predicted == pytest.approx(psnr(data, recon), abs=1.5)

    def test_halo_impact_prediction(self):
        density = load_field(
            "Nyx", "dark_matter_density", size_scale=0.3
        ).astype(np.float64)
        model = RatioQualityModel().fit(density)
        threshold = float(np.percentile(density, 99.0))

        def analysis(d):
            return find_halos(d, threshold)

        vrange = float(density.max() - density.min())
        tight = predict_analysis_impact(
            density, model, vrange * 1e-4, analysis, halo_match_f1,
            n_trials=1,
        )
        loose = predict_analysis_impact(
            density, model, vrange * 0.2, analysis, halo_match_f1,
            n_trials=1,
        )
        assert tight > 0.9
        assert loose <= tight

    def test_spectrum_impact_tracks_real(self):
        data = load_field("Nyx", "temperature", size_scale=0.3).astype(
            np.float64
        )
        model = RatioQualityModel().fit(data)
        vrange = float(data.max() - data.min())
        eb = vrange * 0.02

        predicted = predict_analysis_impact(
            data,
            model,
            eb,
            analysis=lambda d: d,
            compare=spectrum_relative_error,
            n_trials=2,
        )
        _, recon = roundtrip(
            data.astype(np.float32), CompressionConfig(error_bound=eb)
        )
        measured = spectrum_relative_error(
            data, recon.astype(np.float64)
        )
        assert predicted == pytest.approx(measured, rel=1.0)

    def test_invalid_trials(self):
        data = smooth_field((8, 8))
        model = RatioQualityModel().fit(data)
        with pytest.raises(ValueError):
            predict_analysis_impact(
                data, model, 0.01, lambda d: d, lambda a, b: 0.0,
                n_trials=0,
            )
