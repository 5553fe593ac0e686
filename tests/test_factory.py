"""Tests for the shared CodecFactory plumbing."""

from dataclasses import fields, replace

import numpy as np

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    TiledCompressor,
)
from repro.core.model import RatioQualityModel
from repro.factory import CodecFactory
from tests.conftest import smooth_field


class TestConfigs:
    def test_config_carries_factory_settings(self):
        factory = CodecFactory(
            base=CompressionConfig(
                predictor="interpolation",
                mode=ErrorBoundMode.REL,
                lossless="rle",
                tile_shape=(8, 8),
            )
        )
        config = factory.config(1e-3)
        assert config == CompressionConfig(
            predictor="interpolation",
            mode=ErrorBoundMode.REL,
            error_bound=1e-3,
            lossless="rle",
            tile_shape=(8, 8),
        )

    def test_config_overrides(self):
        factory = CodecFactory()
        config = factory.config(1e-2, predictor="regression")
        assert config.predictor == "regression"
        assert config.error_bound == 1e-2

    def test_adaptive_carried_and_overridable(self):
        factory = CodecFactory(
            base=CompressionConfig(tile_shape=(8, 8), adaptive=True)
        )
        assert factory.config(1e-3).adaptive is True
        assert factory.config(1e-3, adaptive=False).adaptive is False
        assert CodecFactory().config(1e-3).adaptive is False

    def test_with_predictor_variant(self):
        factory = CodecFactory(sample_rate=0.05, seed=7)
        variant = factory.with_predictor("regression")
        assert variant.base.predictor == "regression"
        assert variant.sample_rate == 0.05
        assert variant.seed == 7
        assert factory.base.predictor == "lorenzo"  # original untouched

    def test_one_home_for_the_config(self):
        # the codec settings live on ``base`` only; the other fields
        # are how compressors run and models sample
        assert [f.name for f in fields(CodecFactory)] == [
            "base",
            "workers",
            "parallel_backend",
            "sample_rate",
            "seed",
            "fit_clusters",
            "plan_cache",
            "keyframe_interval",
        ]
        base = CompressionConfig(predictor="regression", temporal=True)
        factory = CodecFactory(base=base)
        assert factory.config(1e-2) == replace(base, error_bound=1e-2)
        assert CodecFactory().base == CompressionConfig()


class TestConstruction:
    def test_compressors(self):
        factory = CodecFactory(workers=2)
        assert isinstance(factory.tiled_compressor(), TiledCompressor)

    def test_runtime_settings_reach_the_compressor_not_the_config(self):
        factory = CodecFactory(
            sample_rate=0.5, seed=3, fit_clusters=2, parallel_backend="serial"
        )
        planner = factory.tiled_compressor()._planner
        assert (planner.sample_rate, planner.seed) == (0.5, 3)
        assert planner.fit_clusters == 2
        assert factory.config(1e-3) == CompressionConfig(error_bound=1e-3)

    def test_model_settings(self):
        factory = CodecFactory(
            base=CompressionConfig(
                predictor="interpolation", mode=ErrorBoundMode.REL
            ),
            sample_rate=0.02,
            seed=11,
        )
        model = factory.model()
        assert isinstance(model, RatioQualityModel)
        assert model.predictor == "interpolation"
        assert model.mode is ErrorBoundMode.REL
        assert model.sample_rate == 0.02
        assert model.seed == 11

    def test_model_overrides(self):
        model = CodecFactory().model(use_lossless=False)
        assert model.use_lossless is False

    def test_fit_model(self):
        data = smooth_field((32, 32))
        model = CodecFactory().fit_model(data)
        est = model.estimate(1e-3)
        assert np.isfinite(est.bitrate) and est.bitrate > 0


class TestEndToEnd:
    def test_factory_roundtrip_matches_direct_construction(self):
        data = smooth_field((24, 24))
        factory = CodecFactory(
            base=CompressionConfig(lossless="rle"), workers=2
        )
        via_factory = factory.tiled_compressor().compress(
            data, factory.config(1e-3)
        )
        direct = TiledCompressor().compress(
            data,
            CompressionConfig(error_bound=1e-3, lossless="rle"),
        )
        assert via_factory.blob == direct.blob

    def test_usecases_share_the_factory(self):
        from repro.usecases import (
            MemoryBudgetCompressor,
            PredictorSelector,
            SnapshotPipeline,
        )

        factory = CodecFactory(sample_rate=0.03, seed=5)
        assert (
            MemoryBudgetCompressor(factory=factory).factory is factory
        )
        assert PredictorSelector(factory=factory).factory is factory
        pipeline = SnapshotPipeline(target_psnr=60.0, factory=factory)
        assert pipeline.factory is factory
        assert pipeline.factory.sample_rate == 0.03

    def test_harness_uses_factory(self):
        from repro.harness import RateDistortionStudy

        factory = CodecFactory(base=CompressionConfig(lossless=None))
        study = RateDistortionStudy(
            fields={"f": smooth_field((16, 16))},
            relative_bounds=(1e-2,),
            measure_quality=False,
            factory=factory,
        )
        assert study.factory is factory
        cells = study.run()
        assert len(cells) == 1
        assert np.isfinite(cells[0].meas_bitrate)

