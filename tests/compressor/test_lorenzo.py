"""Tests for the Lorenzo predictors (dual-quant and classic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.compressor.predictors.lorenzo import (
    ClassicLorenzoPredictor,
    LorenzoPredictor,
    lorenzo_predicted,
)
from tests.conftest import smooth_field


def roundtrip(predictor, data, eb, radius=32768):
    out = predictor.decompose(data, eb, radius)
    return predictor.reconstruct(out, data.shape, eb), out


class TestDualQuantRoundtrip:
    @pytest.mark.parametrize("shape", [(512,), (32, 40), (12, 14, 16)])
    def test_bound_holds(self, shape):
        data = smooth_field(shape).astype(np.float64)
        eb = 1e-3
        recon, _ = roundtrip(LorenzoPredictor(), data, eb)
        assert np.max(np.abs(recon - data)) <= eb

    def test_order2_roundtrip(self):
        data = smooth_field((40, 40)).astype(np.float64)
        eb = 1e-3
        recon, _ = roundtrip(LorenzoPredictor(order=2), data, eb)
        assert np.max(np.abs(recon - data)) <= eb

    def test_outliers_roundtrip_exactly(self):
        # Tiny radius forces outliers; reconstruction must still honour
        # the bound everywhere.
        data = smooth_field((30, 30)).astype(np.float64) * 100
        eb = 1e-4
        recon, out = roundtrip(LorenzoPredictor(), data, eb, radius=8)
        assert out.n_outliers > 0
        assert np.max(np.abs(recon - data)) <= eb

    def test_constant_data_all_zero_codes(self):
        # The virtual zero boundary makes the corner point carry the
        # lattice value; all interior predictions are exact.
        data = np.full((20, 20), 3.7)
        out = LorenzoPredictor().decompose(data, 1e-2, 32768)
        assert np.count_nonzero(out.codes[1:]) == 0
        assert out.codes[0] == round(3.7 / 0.02)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            LorenzoPredictor(order=3)

    def test_eb_too_small_raises(self):
        data = np.array([1e30, 2e30])
        with pytest.raises(ValueError):
            LorenzoPredictor().decompose(data, 1e-10, 32768)

    def test_nan_rejected(self):
        data = np.array([1.0, np.nan])
        with pytest.raises(ValueError):
            LorenzoPredictor().decompose(data, 1e-3, 32768)

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=12),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        st.floats(1e-4, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_property(self, data, eb):
        recon, _ = roundtrip(LorenzoPredictor(), data, eb)
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-12)


class TestInPlaceInverse:
    """``reconstruct`` works in one int64 array; the chain of fresh
    ``np.cumsum`` arrays and the ``float64`` product it replaced is the
    oracle, bit for bit."""

    @staticmethod
    def reference_reconstruct(output, shape, eb):
        codes = output.codes.astype(np.int64).copy()
        codes[output.outlier_positions] = output.outlier_values
        lattice = codes.reshape(shape)
        for _ in range(output.meta_int("order", 1)):
            for axis in range(len(shape) - 1, -1, -1):
                lattice = np.cumsum(lattice, axis=axis)
        return lattice.astype(np.float64) * (2.0 * eb)

    # slices on both sides of the add-by-slice threshold, and more
    # points than one scaling block
    @pytest.mark.parametrize(
        "shape",
        [(9000,), (3, 700), (700, 3), (4, 8, 300), (16, 32, 256), (2, 3, 4)],
    )
    @pytest.mark.parametrize("order", [1, 2])
    def test_equals_the_cumsum_chain(self, shape, order):
        rng = np.random.default_rng(len(shape) * 1000 + order)
        data = np.cumsum(rng.standard_normal(shape), axis=-1)
        predictor = LorenzoPredictor(order=order)
        out = predictor.decompose(data, 1e-3, 64)  # outliers included
        assert out.outlier_positions.size
        codes = out.codes.copy()
        recon = predictor.reconstruct(out, shape, 1e-3)
        expected = self.reference_reconstruct(out, shape, 1e-3)
        assert recon.dtype == np.float64 and recon.shape == shape
        assert recon.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(out.codes, codes)  # input untouched


class TestClassicLorenzo:
    @pytest.mark.parametrize("shape", [(64,), (12, 12), (6, 6, 6)])
    def test_bound_holds(self, shape):
        data = smooth_field(shape).astype(np.float64)
        eb = 1e-2
        recon, _ = roundtrip(ClassicLorenzoPredictor(), data, eb)
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9)

    def test_agrees_with_dualquant_on_smooth_data(self):
        # The two formulations differ in detail but should produce very
        # similar code statistics on well-predicted data.
        data = smooth_field((24, 24)).astype(np.float64)
        eb = 1e-2
        classic = ClassicLorenzoPredictor().decompose(data, eb, 32768)
        dual = LorenzoPredictor().decompose(data, eb, 32768)
        p0_classic = np.mean(classic.codes == 0)
        p0_dual = np.mean(dual.codes == 0)
        assert abs(p0_classic - p0_dual) < 0.1

    def test_outlier_handling(self):
        data = smooth_field((10, 10)).astype(np.float64) * 1000
        recon, out = roundtrip(
            ClassicLorenzoPredictor(), data, 1e-3, radius=4
        )
        assert out.n_outliers > 0
        assert np.max(np.abs(recon - data)) <= 1e-3 * (1 + 1e-9)


class TestPredictionErrors:
    def test_first_point_error_is_value(self):
        data = np.array([5.0, 5.5, 6.0])
        errors = LorenzoPredictor().prediction_errors(data)
        assert errors[0] == 5.0  # virtual zero neighbour
        assert errors[1] == pytest.approx(0.5)

    def test_2d_errors_are_second_difference(self):
        data = smooth_field((16, 16)).astype(np.float64)
        errors = LorenzoPredictor().prediction_errors(data)
        manual = (
            data[1:, 1:]
            - data[:-1, 1:]
            - data[1:, :-1]
            + data[:-1, :-1]
        )
        np.testing.assert_allclose(errors[1:, 1:], manual, atol=1e-12)

    def test_predicted_plus_error_is_identity(self):
        data = smooth_field((20, 20)).astype(np.float64)
        pred = lorenzo_predicted(data)
        err = LorenzoPredictor().prediction_errors(data)
        np.testing.assert_allclose(pred + err, data, atol=1e-12)


class TestSampling:
    def test_sampled_errors_match_full_statistics(self):
        data = smooth_field((64, 64)).astype(np.float64)
        pred = LorenzoPredictor()
        full = pred.prediction_errors(data)
        sampled = pred.sample_errors(data, 0.25, np.random.default_rng(0))
        assert sampled.size == pytest.approx(data.size * 0.25, rel=0.05)
        assert np.std(sampled) == pytest.approx(np.std(full), rel=0.25)

    def test_sample_values_come_from_full_error_set(self):
        data = smooth_field((32, 32)).astype(np.float64)
        pred = LorenzoPredictor()
        full = np.sort(pred.prediction_errors(data).ravel())
        sampled = pred.sample_errors(data, 0.1, np.random.default_rng(1))
        # every sampled error appears in the full error set
        idx = np.searchsorted(full, sampled)
        idx = np.clip(idx, 0, full.size - 1)
        assert np.allclose(full[idx], sampled, atol=1e-9)

    def test_full_rate_returns_everything(self):
        data = smooth_field((16, 16)).astype(np.float64)
        pred = LorenzoPredictor()
        sampled = pred.sample_errors(data, 1.0, np.random.default_rng(2))
        assert sampled.size == data.size
