"""Tests for use-case 2: memory compression with a target ratio."""

import numpy as np
import pytest

from repro.compressor import SZCompressor
from repro.datasets import wave_snapshots
from repro.usecases.memory_target import BudgetReport, MemoryBudgetCompressor
from tests.conftest import assert_error_bounded, smooth_field


@pytest.fixture(scope="module")
def data():
    return smooth_field((48, 48, 12), seed=11)


class TestValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            MemoryBudgetCompressor(target_fraction=0.0)

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            MemoryBudgetCompressor(max_rounds=0)

    def test_bad_budget(self, data):
        with pytest.raises(ValueError):
            MemoryBudgetCompressor().compress(data, 0)


class TestSoftPolicy:
    def test_fits_typical_budget(self, data):
        budget = data.nbytes // 8
        report = MemoryBudgetCompressor().compress(data, budget)
        assert report.fits
        assert report.rounds == 1

    def test_targets_eighty_percent(self, data):
        budget = data.nbytes // 8
        report = MemoryBudgetCompressor().compress(data, budget)
        # paper's headroom: utilization clusters below ~1.0, near 0.8
        assert 0.4 <= report.utilization <= 1.05

    def test_report_fields(self, data):
        budget = data.nbytes // 10
        report = MemoryBudgetCompressor().compress(data, budget)
        assert isinstance(report, BudgetReport)
        assert report.budget_bytes == budget
        assert report.target_bytes == int(budget * 0.8)
        assert report.error_bound > 0


class TestQuietField:
    def test_generous_budget_on_a_mostly_zero_field_decodes_in_bound(self):
        # a wave just after its source fired: the rate target sits above
        # what the field can spend, the anchor extrapolation seeds the
        # bound search at e^700, and its lo * hi overflowed to a bound of
        # inf — a container that "fit" and decoded to all NaN
        snap = wave_snapshots(
            (24, 24, 24), n_snapshots=1, steps_between=15, seed=19
        )[0]
        report = MemoryBudgetCompressor().compress(snap, snap.nbytes // 6)
        assert report.fits
        assert 0 < report.error_bound < np.ptp(snap)
        assert_error_bounded(
            snap,
            SZCompressor().decompress(report.result.blob),
            report.error_bound,
        )


class TestStrictPolicy:
    def test_never_overflows(self, data):
        for divisor in (4, 8, 16, 32):
            budget = data.nbytes // divisor
            report = MemoryBudgetCompressor(strict=True).compress(
                data, budget
            )
            assert report.fits, f"overflow at budget 1/{divisor}"

    def test_rounds_bounded(self, data):
        report = MemoryBudgetCompressor(strict=True, max_rounds=2).compress(
            data, data.nbytes // 16
        )
        assert report.rounds <= 2


class TestGroupBudget:
    def test_shares_budget_proportionally(self, data):
        arrays = [data, smooth_field((24, 24, 12), seed=12)]
        total = sum(a.nbytes for a in arrays) // 10
        reports = MemoryBudgetCompressor().compress_group(arrays, total)
        assert len(reports) == 2
        budgets = [r.budget_bytes for r in reports]
        assert budgets[0] > budgets[1]  # proportional to raw size
        assert sum(budgets) <= total

    def test_empty_group(self):
        assert MemoryBudgetCompressor().compress_group([], 100) == []

    def test_group_mostly_fits(self, data):
        arrays = [smooth_field((24, 24, 8), seed=s) for s in range(4)]
        total = sum(a.nbytes for a in arrays) // 8
        reports = MemoryBudgetCompressor().compress_group(arrays, total)
        fits = sum(r.fits for r in reports)
        assert fits >= 3  # paper: ~95% of groups stay within space
