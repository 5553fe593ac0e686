"""Tests for the trial-and-error baselines."""

import numpy as np
import pytest

from repro.compressor import CompressionConfig
from repro.usecases.baselines import (
    offline_worst_case_error_bound,
    tae_select_error_bound,
    trial_and_error_sweep,
)
from tests.conftest import smooth_field


@pytest.fixture(scope="module")
def data():
    return smooth_field((32, 32, 8), seed=21)


@pytest.fixture(scope="module")
def candidates(data):
    vrange = float(data.max() - data.min())
    return [vrange * f for f in (1e-4, 1e-3, 1e-2, 5e-2)]


class TestSweep:
    def test_point_per_candidate(self, data, candidates):
        result = trial_and_error_sweep(
            data, CompressionConfig(), candidates
        )
        assert len(result.points) == len(candidates)

    def test_rate_monotone_in_bound(self, data, candidates):
        result = trial_and_error_sweep(
            data, CompressionConfig(), candidates
        )
        rates = [p.bit_rate for p in result.points]
        assert rates == sorted(rates, reverse=True)

    def test_psnr_monotone_in_bound(self, data, candidates):
        result = trial_and_error_sweep(
            data, CompressionConfig(), candidates
        )
        psnrs = [p.psnr for p in result.points]
        assert psnrs == sorted(psnrs, reverse=True)

    def test_skips_quality_when_disabled(self, data, candidates):
        result = trial_and_error_sweep(
            data, CompressionConfig(), candidates, measure_quality=False
        )
        assert all(np.isnan(p.psnr) for p in result.points)
        assert "decompress_analyze" not in result.times

    def test_stage_times_accumulated(self, data, candidates):
        result = trial_and_error_sweep(
            data, CompressionConfig(), candidates
        )
        assert result.times["predict_quantize"] > 0
        assert result.times["huffman"] > 0
        # the paper's trial decodes what it compressed (Fig. 9 times it)
        assert result.times["decompress_analyze"] > 0


class TestTaeSelection:
    def test_picks_largest_qualifying_bound(self, data, candidates):
        result = tae_select_error_bound(
            data, CompressionConfig(), candidates, target_psnr=60.0
        )
        chosen = result.chosen_error_bound
        for point in result.points:
            if point.error_bound > chosen:
                assert point.psnr < 60.0
        chosen_point = next(
            p for p in result.points if p.error_bound == chosen
        )
        assert chosen_point.psnr >= 60.0

    def test_falls_back_to_smallest_when_none_qualify(self, data, candidates):
        result = tae_select_error_bound(
            data, CompressionConfig(), candidates, target_psnr=1e6
        )
        assert result.chosen_error_bound == min(candidates)


class TestOfflineWorstCase:
    def test_single_bound_fits_all_snapshots(self, candidates):
        snapshots = [smooth_field((24, 24, 8), seed=s, noise=n)
                     for s, n in ((1, 0.01), (2, 0.2), (3, 0.5))]
        result = offline_worst_case_error_bound(
            snapshots, CompressionConfig(), candidates, target_psnr=55.0
        )
        chosen = result.chosen_error_bound
        # every snapshot must meet the target at the chosen bound
        for point in result.points:
            if point.error_bound == chosen:
                assert point.psnr >= 55.0

    def test_liebigs_barrel(self, candidates):
        # The chosen bound is constrained by the *worst* snapshot: adding
        # a noisy snapshot can only shrink (or keep) the chosen bound.
        easy = [smooth_field((24, 24, 8), seed=1, noise=0.01)]
        hard = easy + [smooth_field((24, 24, 8), seed=2, noise=0.8)]
        cfg = CompressionConfig()
        eb_easy = offline_worst_case_error_bound(
            easy, cfg, candidates, 55.0
        ).chosen_error_bound
        eb_hard = offline_worst_case_error_bound(
            hard, cfg, candidates, 55.0
        ).chosen_error_bound
        assert eb_hard <= eb_easy

    def test_empty_snapshots_raise(self, candidates):
        with pytest.raises(ValueError):
            offline_worst_case_error_bound(
                [], CompressionConfig(), candidates, 60.0
            )
