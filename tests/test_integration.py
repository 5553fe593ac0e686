"""Cross-module integration scenarios.

Each test exercises a realistic end-to-end workflow spanning several
subsystems, the way the examples (and the paper's use-cases) combine
them.
"""

import numpy as np
import pytest

from repro import CompressionConfig, ErrorBoundMode, TiledCompressor
from repro.analysis import (
    find_halos,
    halo_match_f1,
    psnr,
    spectrum_relative_error,
    ssim_global,
)
from repro.core import RatioQualityModel, estimation_accuracy
from repro.datasets import load_field, wave_snapshots
from repro.storage import (
    ClusterSimulator,
    ClusterSpec,
    H5LikeFile,
    ThroughputProfile,
)
from repro.usecases import (
    MemoryBudgetCompressor,
    PredictorSelector,
    SnapshotPipeline,
)
from tests.conftest import roundtrip


class TestModelGuidedCompression:
    """Fit -> inverse query -> compress -> verify, across datasets."""

    @pytest.mark.parametrize(
        "dataset,field,scale",
        [
            ("CESM", "TS", 0.25),
            ("Nyx", "velocity_z", 0.35),
            ("Miranda", "vx", 0.35),
        ],
    )
    def test_psnr_contract(self, dataset, field, scale):
        data = load_field(dataset, field, size_scale=scale)
        model = RatioQualityModel().fit(data)
        target = 65.0
        eb = model.error_bound_for_psnr(target)
        _, recon = roundtrip(
            data, CompressionConfig(error_bound=eb)
        )
        assert psnr(data, recon) >= target - 2.5

    def test_ratio_contract(self):
        data = load_field("Hurricane", "TC", size_scale=0.4)
        model = RatioQualityModel().fit(data)
        eb = model.error_bound_for_ratio(8.0)
        result = TiledCompressor().compress(
            data, CompressionConfig(error_bound=eb)
        )
        assert result.ratio == pytest.approx(8.0, rel=0.25)

    def test_model_accuracy_across_predictors_and_fields(self):
        fields = [
            load_field("SCALE", "PRES", size_scale=0.4),
            load_field("QMCPACK", "einspine", size_scale=0.4),
        ]
        for data in fields:
            vrange = float(data.max() - data.min())
            for predictor in ("lorenzo", "interpolation"):
                model = RatioQualityModel(predictor=predictor).fit(data)
                est, meas = [], []
                for rel in (1e-3, 1e-2):
                    est.append(model.estimate(vrange * rel).bitrate)
                    cfg = CompressionConfig(
                        predictor=predictor, error_bound=vrange * rel
                    )
                    meas.append(
                        TiledCompressor().compress(data, cfg).bit_rate
                    )
                assert estimation_accuracy(meas, est) > 0.8


class TestInSituStorageWorkflow:
    """The rtm_insitu_pipeline example as a test."""

    def test_pipeline_into_container(self, tmp_path):
        snaps = wave_snapshots(
            (32, 32, 32), n_snapshots=3, steps_between=15, seed=11
        )
        target = 55.0
        pipeline = SnapshotPipeline(target_psnr=target)
        path = str(tmp_path / "rtm.rqh5")
        with H5LikeFile(path, "w") as store:
            for i, snap in enumerate(snaps):
                record = pipeline.process(snap)
                store.create_dataset(
                    f"s{i}",
                    snap,
                    CompressionConfig(error_bound=record.error_bound),
                    attrs={"step": i},
                )
        with H5LikeFile(path, "r") as store:
            assert store.dataset_names() == ["s0", "s1", "s2"]
            for i, snap in enumerate(snaps):
                back = store.read_dataset(f"s{i}")
                assert psnr(snap, back) >= target - 3.0
                assert store.attrs(f"s{i}") == {"step": i}


class TestSelectorAgainstGroundTruth:
    def test_selected_predictor_is_measured_competitive(self):
        data = load_field("CESM", "TROP_Z", size_scale=0.35)
        vrange = float(data.max() - data.min())
        eb = vrange * 1e-3
        selector = PredictorSelector(
            ("lorenzo", "interpolation", "regression")
        ).fit(data)
        decision = selector.select_for_error_bound(eb)
        sz = TiledCompressor()
        measured = {
            name: sz.compress(
                data, CompressionConfig(predictor=name, error_bound=eb)
            ).bit_rate
            for name in selector.models
        }
        best = min(measured.values())
        assert measured[decision.predictor] <= best * 1.1


class TestDomainAnalysisContracts:
    def test_spectrum_preserved_at_model_chosen_bound(self):
        data = load_field("Nyx", "temperature", size_scale=0.35)
        model = RatioQualityModel().fit(data)
        eb = model.error_bound_for_psnr(70.0)
        _, recon = roundtrip(
            data, CompressionConfig(error_bound=eb)
        )
        err = spectrum_relative_error(
            data.astype(np.float64), recon.astype(np.float64)
        )
        assert err < 0.05

    def test_halo_catalogue_preserved(self):
        density = load_field("Nyx", "dark_matter_density", size_scale=0.35)
        model = RatioQualityModel().fit(density)
        eb = model.error_bound_for_psnr(80.0)
        _, recon = roundtrip(
            density, CompressionConfig(error_bound=eb)
        )
        threshold = float(np.percentile(density, 99.5))
        ref = find_halos(density.astype(np.float64), threshold)
        new = find_halos(recon.astype(np.float64), threshold)
        assert halo_match_f1(ref, new) > 0.8

    def test_ssim_contract(self):
        data = load_field("Hurricane", "U", size_scale=0.35)
        model = RatioQualityModel().fit(data)
        vrange = float(data.max() - data.min())
        est = model.estimate(vrange * 1e-2)
        _, recon = roundtrip(
            data, CompressionConfig(error_bound=vrange * 1e-2)
        )
        assert ssim_global(data, recon) == pytest.approx(
            est.ssim, abs=0.01
        )


class TestBudgetedClusterDump:
    def test_memory_budget_then_simulated_dump(self):
        snaps = wave_snapshots(
            (24, 24, 24), n_snapshots=3, steps_between=15, seed=19
        )
        compressor = MemoryBudgetCompressor(strict=True)
        for snap in snaps:
            report = compressor.compress(snap, snap.nbytes // 6)
            assert report.fits

        config = CompressionConfig(error_bound=1e-3)
        profile = ThroughputProfile.measure(snaps[0], config)
        # I/O-bound spec: latency far below the write time, so the
        # compression benefit is visible at this snapshot size
        spec = ClusterSpec(
            aggregate_write_bandwidth=2e6, write_latency=0.001
        )
        sim = ClusterSimulator(spec, profile, config)
        reports = [
            sim.dump_model(s, i, target_psnr=55.0)
            for i, s in enumerate(snaps)
        ]
        assert all(r.total_time > 0 for r in reports)
        assert all(
            r.total_time < sim.baseline_raw_dump_time(s)
            for r, s in zip(reports, snaps)
        )


class TestPwRelEndToEnd:
    def test_model_guided_pw_rel_compression(self):
        rng = np.random.default_rng(3)
        data = np.exp(rng.normal(0, 1.5, (30, 30, 8))).astype(np.float32)
        model = RatioQualityModel(mode=ErrorBoundMode.PW_REL).fit(data)
        rel_eb = model.error_bound_for_bitrate(8.0)
        cfg = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=rel_eb
        )
        result, recon = roundtrip(data, cfg)
        assert result.bit_rate == pytest.approx(8.0, rel=0.25)
        rel_err = np.abs(recon.astype(np.float64) / data - 1.0)
        assert np.max(rel_err) <= rel_eb * (1 + 1e-4)
