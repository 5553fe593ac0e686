"""Tests for the rate-distortion study harness."""

import csv

import numpy as np
import pytest

from repro.compressor import CompressionConfig
from repro.harness import RateDistortionStudy, StudyCell
from tests.conftest import smooth_field


@pytest.fixture(scope="module")
def study():
    return RateDistortionStudy(
        fields={
            "smooth": smooth_field((28, 28), seed=1),
            "noisy": smooth_field((28, 28), seed=2, noise=0.3),
        },
        predictors=("lorenzo", "interpolation"),
        relative_bounds=(1e-3, 1e-2),
    )


@pytest.fixture(scope="module")
def cells(study):
    return study.run()


class TestTiledStudies:
    def test_tiled_factory_routes_through_tiled_compressor(self):
        from repro.factory import CodecFactory

        study = RateDistortionStudy(
            fields={"f": smooth_field((24, 24), seed=3)},
            predictors=("lorenzo",),
            relative_bounds=(1e-2,),
            factory=CodecFactory(base=CompressionConfig(tile_shape=(12, 12))),
        )
        cells = study.run()
        assert len(cells) == 1
        assert np.isfinite(cells[0].meas_psnr)
        assert cells[0].meas_bitrate > 0

    def test_adaptive_factory_study(self):
        from repro.factory import CodecFactory

        rng = np.random.default_rng(0)
        field = smooth_field((32, 32), seed=4).astype(np.float64)
        field[:16, :16] += 10.0 * rng.standard_normal((16, 16))
        study = RateDistortionStudy(
            fields={"hetero": field},
            predictors=("lorenzo",),
            relative_bounds=(1e-2,),
            factory=CodecFactory(
                base=CompressionConfig(tile_shape=(16, 16), adaptive=True)
            ),
        )
        cells = study.run()
        assert len(cells) == 1
        assert np.isfinite(cells[0].meas_psnr)


class TestConstruction:
    def test_empty_fields_raise(self):
        with pytest.raises(ValueError):
            RateDistortionStudy(fields={})

    def test_empty_bounds_raise(self):
        with pytest.raises(ValueError):
            RateDistortionStudy(
                fields={"x": np.ones((4, 4))}, relative_bounds=()
            )


class TestRun:
    def test_cell_count(self, cells):
        assert len(cells) == 2 * 2 * 2  # fields x predictors x bounds

    def test_cells_populated(self, cells):
        for cell in cells:
            assert isinstance(cell, StudyCell)
            assert cell.meas_bitrate > 0
            assert cell.est_bitrate > 0
            assert np.isfinite(cell.meas_psnr)
            assert cell.compress_seconds >= 0

    def test_model_estimates_track_measurements(self, study, cells):
        acc = study.accuracy(cells)
        assert acc["bitrate"] > 0.8
        assert acc["psnr"] > 0.95

    def test_quality_skipped_when_disabled(self):
        quick = RateDistortionStudy(
            fields={"x": smooth_field((16, 16))},
            relative_bounds=(1e-2,),
            measure_quality=False,
        )
        cells = quick.run()
        assert np.isnan(cells[0].meas_psnr)


class TestReporting:
    def test_summary_contains_accuracy_footer(self, study, cells):
        text = study.summary(cells)
        assert "bitrate acc" in text
        assert "smooth" in text and "noisy" in text

    def test_csv_roundtrip(self, study, cells, tmp_path):
        path = str(tmp_path / "study.csv")
        study.to_csv(cells, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(cells)
        assert float(rows[0]["meas_bitrate"]) > 0

    def test_empty_cells_raise(self, study):
        with pytest.raises(ValueError):
            study.accuracy([])
        with pytest.raises(ValueError):
            study.to_csv([], "nope.csv")
