"""End-to-end tests of the RatioQualityModel against the real compressor."""

import numpy as np
import pytest

from repro.analysis.metrics import psnr, ssim_global
from repro.compressor import CompressionConfig, ErrorBoundMode, SZCompressor
from repro.core.accuracy import estimation_accuracy
from repro.core.model import RatioQualityModel
from tests.conftest import smooth_field

PREDICTORS = ["lorenzo", "interpolation", "regression"]


@pytest.fixture(scope="module")
def data():
    return smooth_field((56, 56, 14), seed=5)


@pytest.fixture(scope="module")
def sz():
    return SZCompressor()


def relative_ebs(data, fractions):
    vrange = float(data.max() - data.min())
    return [vrange * f for f in fractions]


class TestLifecycle:
    def test_unfitted_raises(self):
        model = RatioQualityModel()
        with pytest.raises(RuntimeError):
            model.estimate(1e-3)

    def test_fit_returns_self(self, data):
        model = RatioQualityModel()
        assert model.fit(data) is model
        assert model.sample is not None

    def test_estimate_fields(self, data):
        model = RatioQualityModel().fit(data)
        est = model.estimate(1e-3)
        assert est.error_bound == 1e-3
        assert est.bitrate > 0
        assert est.ratio == pytest.approx(32.0 / est.bitrate)
        assert 0 <= est.p0 <= 1
        assert est.error_variance >= 0
        assert est.psnr > 0
        assert 0 < est.ssim <= 1

    def test_estimate_curve_ordering(self, data):
        model = RatioQualityModel().fit(data)
        ebs = relative_ebs(data, [1e-4, 1e-3, 1e-2])
        curve = model.estimate_curve(ebs)
        bitrates = [e.bitrate for e in curve]
        psnrs = [e.psnr for e in curve]
        assert bitrates == sorted(bitrates, reverse=True)
        assert psnrs == sorted(psnrs, reverse=True)


class TestAccuracyAgainstCompressor:
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_bitrate_accuracy(self, data, sz, predictor):
        model = RatioQualityModel(predictor=predictor).fit(data)
        ebs = relative_ebs(data, [3e-4, 1e-3, 3e-3, 1e-2, 3e-2])
        estimated = [model.estimate(eb).bitrate for eb in ebs]
        measured = [
            sz.compress(
                data, CompressionConfig(predictor=predictor, error_bound=eb)
            ).bit_rate
            for eb in ebs
        ]
        acc = estimation_accuracy(measured, estimated)
        assert acc > 0.85  # paper: ~93% average

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_psnr_accuracy(self, data, sz, predictor):
        model = RatioQualityModel(predictor=predictor).fit(data)
        ebs = relative_ebs(data, [1e-3, 1e-2, 5e-2])
        estimated, measured = [], []
        for eb in ebs:
            estimated.append(model.estimate(eb).psnr)
            cfg = CompressionConfig(predictor=predictor, error_bound=eb)
            _, recon = sz.roundtrip(data, cfg)
            measured.append(psnr(data, recon))
        acc = estimation_accuracy(measured, estimated)
        assert acc > 0.95  # paper: 97.3% average

    def test_ssim_accuracy(self, data, sz):
        model = RatioQualityModel().fit(data)
        ebs = relative_ebs(data, [1e-3, 1e-2, 5e-2])
        estimated, measured = [], []
        for eb in ebs:
            estimated.append(model.estimate(eb).ssim)
            _, recon = sz.roundtrip(
                data, CompressionConfig(error_bound=eb)
            )
            measured.append(ssim_global(data, recon))
        acc = estimation_accuracy(measured, estimated)
        assert acc > 0.9  # paper: 94.4% average

    def test_refined_distribution_beats_uniform_at_high_eb(self, data, sz):
        # Fig. 6's message: Eq. 11 fixes the PSNR estimate at high eb.
        model = RatioQualityModel().fit(data)
        vrange = float(data.max() - data.min())
        eb = vrange * 0.3
        _, recon = sz.roundtrip(data, CompressionConfig(error_bound=eb))
        measured = psnr(data, recon)
        refined = model.estimate(eb, refined_distribution=True).psnr
        uniform = model.estimate(eb, refined_distribution=False).psnr
        assert abs(refined - measured) <= abs(uniform - measured)


class TestInverseQueries:
    def test_error_bound_for_bitrate_round_trips(self, data):
        model = RatioQualityModel().fit(data)
        for target in (6.0, 3.0, 1.5):
            eb = model.error_bound_for_bitrate(target)
            assert model.estimate(eb).bitrate == pytest.approx(
                target, rel=0.15
            )

    def test_error_bound_for_bitrate_measured(self, data, sz):
        model = RatioQualityModel().fit(data)
        target = 4.0
        eb = model.error_bound_for_bitrate(target)
        result = sz.compress(data, CompressionConfig(error_bound=eb))
        assert result.bit_rate == pytest.approx(target, rel=0.2)

    def test_error_bound_for_ratio(self, data):
        model = RatioQualityModel().fit(data)
        eb = model.error_bound_for_ratio(10.0)
        assert model.estimate(eb).ratio == pytest.approx(10.0, rel=0.2)

    def test_error_bound_for_psnr(self, data, sz):
        model = RatioQualityModel().fit(data)
        target = 60.0
        eb = model.error_bound_for_psnr(target)
        _, recon = sz.roundtrip(data, CompressionConfig(error_bound=eb))
        assert psnr(data, recon) == pytest.approx(target, abs=2.0)

    def test_invalid_targets(self, data):
        model = RatioQualityModel().fit(data)
        with pytest.raises(ValueError):
            model.error_bound_for_ratio(0.0)


class TestOverheadAccounting:
    def test_interpolation_overhead_positive(self, data):
        model = RatioQualityModel(predictor="interpolation").fit(data)
        assert model._overhead_bits > 0

    def test_regression_overhead_formula(self):
        data = smooth_field((36, 36))
        model = RatioQualityModel(predictor="regression").fit(data)
        blocks = 6 * 6
        expected = 32.0 * 3 * blocks / data.size
        assert model._overhead_bits == pytest.approx(expected)

    def test_lorenzo_no_overhead(self, data):
        model = RatioQualityModel(predictor="lorenzo").fit(data)
        assert model._overhead_bits == 0.0


class TestFitStack:
    """``fit_stack`` members answer like their own single fits, with ==."""

    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize("mode", list(ErrorBoundMode))
    def test_member_estimates_equal_single_fits(self, predictor, mode):
        base = smooth_field((20, 20, 12), seed=8).astype(np.float64) + 3.0
        stack = np.stack([base, base[::-1] * 1.5, base**2]).astype("f4")
        parameters = dict(
            predictor=predictor, mode=mode, sample_rate=0.05, seed=2
        )
        models = RatioQualityModel.fit_stack(stack, **parameters)
        bounds = [1e-3, 1e-2]
        for member, model in zip(stack, models):
            single = RatioQualityModel(**parameters).fit(member)
            for eb in bounds:
                assert model.bitrate(eb) == single.bitrate(eb)
                assert model.estimate(eb) == single.estimate(eb)
            np.testing.assert_array_equal(
                model.bitrate_curve(bounds), single.bitrate_curve(bounds)
            )

    def test_empty_stack(self):
        assert RatioQualityModel.fit_stack(np.zeros((0, 8, 8))) == []
