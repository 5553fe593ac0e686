"""Tests for the exact dual-quant stencil/row replay machinery."""

import numpy as np
import pytest

from repro.compressor.encoders.rle import zero_run_lengths
from repro.compressor.predictors.lorenzo import LorenzoPredictor
from repro.core.histogram import histogram_from_codes
from repro.core.model import RatioQualityModel
from repro.core.sampling import sample_prediction_errors
from tests.conftest import smooth_field


class TestSampleStencils:
    def test_shapes_and_signs(self):
        data = smooth_field((16, 20)).astype(np.float64)
        pred = LorenzoPredictor()
        signs, values = pred.sample_stencils(
            data, 0.5, np.random.default_rng(0)
        )
        assert signs.shape == (4,)
        assert values.shape[1] == 4
        # inclusion-exclusion signs: +,-,-,+ in mask order
        np.testing.assert_array_equal(signs, [1, -1, -1, 1])

    def test_full_rate_replays_exact_codes(self):
        # At rate 1.0 the replayed codes must be a permutation of the
        # compressor's real code stream.
        data = smooth_field((12, 14)).astype(np.float64)
        pred = LorenzoPredictor()
        eb = 1e-2
        signs, values = pred.sample_stencils(
            data, 1.0, np.random.default_rng(1)
        )
        replayed = (
            np.rint(values / (2 * eb)) @ signs
        ).astype(np.int64)
        real = pred.decompose(data, eb, 32768).codes
        np.testing.assert_array_equal(
            np.sort(replayed), np.sort(real)
        )

    def test_order2_rejected(self):
        data = smooth_field((10, 10)).astype(np.float64)
        with pytest.raises(ValueError):
            LorenzoPredictor(order=2).sample_stencils(
                data, 0.1, np.random.default_rng(0)
            )


class TestRowStencils:
    def test_segment_shapes(self):
        data = smooth_field((12, 16, 20)).astype(np.float64)
        pred = LorenzoPredictor()
        signs, values = pred.sample_row_stencils(
            data, 12, np.random.default_rng(0), n_segments=3
        )
        assert signs.shape == (8,)
        assert values.ndim == 3
        assert values.shape[0] == 3  # segments
        assert values.shape[2] == 8

    def test_full_coverage_run_statistics_match(self):
        # Replaying every row must reproduce the exact zero-run profile
        # of the real flattened code stream.
        data = smooth_field((10, 12)).astype(np.float64)
        pred = LorenzoPredictor()
        eb = float(data.max() - data.min()) * 0.05
        signs, values = pred.sample_row_stencils(
            data, 10, np.random.default_rng(0), n_segments=1
        )
        assert values.shape[0] == 1 and values.shape[1] == data.size
        replayed = (
            np.rint(values[0] / (2 * eb)) @ signs
        ).astype(np.int64)
        real = pred.decompose(data, eb, 32768).codes
        np.testing.assert_array_equal(replayed, real)
        np.testing.assert_array_equal(
            zero_run_lengths(replayed), zero_run_lengths(real)
        )

    def test_1d_input(self):
        data = smooth_field((256,)).astype(np.float64)
        pred = LorenzoPredictor()
        signs, values = pred.sample_row_stencils(
            data, 4, np.random.default_rng(0)
        )
        assert values.shape == (1, 256, 2)


class TestHistogramFromCodes:
    def test_basic(self):
        codes = np.array([0, 0, 0, 1, -1, 0])
        hist = histogram_from_codes(codes, 0.5)
        assert hist.p0 == pytest.approx(4 / 6)
        assert hist.probs.sum() == pytest.approx(1.0)
        assert hist.n_samples == 6

    def test_overflow_folds_to_zero(self):
        codes = np.array([0, 100_000, 0])
        hist = histogram_from_codes(codes, 0.5, radius=1000)
        assert hist.outlier_fraction == pytest.approx(1 / 3)
        assert hist.p0 == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            histogram_from_codes(np.array([], dtype=np.int64), 0.5)

    def test_invalid_bound_raises(self):
        with pytest.raises(ValueError):
            histogram_from_codes(np.array([0]), 0.0)


class TestModelUsesReplay:
    def test_sample_carries_stencils_for_lorenzo(self):
        data = smooth_field((24, 24))
        sample = sample_prediction_errors(data, "lorenzo")
        assert sample.stencil_values is not None
        assert sample.row_stencils is not None

    def test_no_stencils_for_other_predictors(self):
        data = smooth_field((24, 24))
        sample = sample_prediction_errors(data, "interpolation")
        assert sample.stencil_values is None
        assert sample.row_stencils is None

    def test_p0_matches_real_compressor_at_coarse_bins(self):
        # The scenario the replay was built for: smooth data, coarse
        # bins — boundary-crossing codes, not rint(err/2eb).
        data = smooth_field((48, 48), noise=0.0)
        model = RatioQualityModel().fit(data)
        eb = float(data.max() - data.min()) * 0.05
        pred = LorenzoPredictor()
        real_p0 = float(
            np.mean(
                pred.decompose(data.astype(np.float64), eb, 32768).codes
                == 0
            )
        )
        assert model.histogram(eb).p0 == pytest.approx(real_p0, abs=0.05)

    def test_mean_zero_run_monotone_in_bound(self):
        data = smooth_field((32, 32))
        model = RatioQualityModel().fit(data)
        vrange = float(data.max() - data.min())
        small, large = model._mean_zero_runs([vrange * 1e-3, vrange * 0.2])
        assert small is not None and large is not None
        assert large >= small
