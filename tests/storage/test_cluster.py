"""Tests for the calibrated cluster dump simulator."""

import numpy as np
import pytest

from repro.compressor import CompressionConfig
from repro.storage.cluster import (
    ClusterSimulator,
    ClusterSpec,
    ThroughputProfile,
)
from tests.conftest import smooth_field


@pytest.fixture(scope="module")
def snapshot():
    return smooth_field((32, 32, 16), seed=31)


@pytest.fixture(scope="module")
def profile_snapshot():
    # Large enough that one sampling-based model fit is measurably
    # cheaper than a full compress+decompress trial; on the 16k-point
    # snapshot above that margin sits below timer noise.
    return smooth_field((96, 96, 48), seed=31)


@pytest.fixture(scope="module")
def sim(snapshot):
    cfg = CompressionConfig(error_bound=1e-4)
    profile = ThroughputProfile.measure(snapshot, cfg, repeats=3)
    spec = ClusterSpec(
        n_nodes=8,
        ranks_per_node=16,
        aggregate_write_bandwidth=5e7,
        write_latency=0.01,
    )
    return ClusterSimulator(spec, profile, cfg)


class TestClusterSpec:
    def test_rank_count(self):
        assert ClusterSpec(n_nodes=8, ranks_per_node=16).n_ranks == 128

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)

    def test_invalid_ranks_per_node(self):
        with pytest.raises(ValueError):
            ClusterSpec(ranks_per_node=0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            ClusterSpec(aggregate_write_bandwidth=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(write_latency=-0.1)

    def test_zero_latency_allowed(self):
        assert ClusterSpec(write_latency=0.0).write_latency == 0.0


class TestProfile:
    def test_throughputs_positive(self, snapshot):
        profile = ThroughputProfile.measure(
            snapshot, CompressionConfig(error_bound=1e-4)
        )
        assert profile.compress > 0
        assert profile.model_optimize > 0
        assert profile.tae_trial > 0

    def test_model_optimization_faster_than_tae_trial(
        self, profile_snapshot
    ):
        # One sampling pass must beat one full compress+decompress trial.
        # Best of five, since it is a timer on a shared box: the margin
        # is ~5x now that a PSNR search computes 3 of the 48 quality
        # table entries (it was ~1.4x with the whole table).
        profile = ThroughputProfile.measure(
            profile_snapshot,
            CompressionConfig(error_bound=1e-4),
            repeats=5,
        )
        assert profile.model_optimize > profile.tae_trial


class TestStrategies:
    def test_traditional_breakdown(self, sim, snapshot):
        report = sim.dump_traditional(snapshot, 0, 1e-5)
        assert report.strategy == "traditional"
        assert report.times.get("optimize") == 0.0
        assert report.times.get("compress") > 0
        assert report.times.get("io") > 0

    def test_tae_pays_optimization(self, sim, snapshot):
        candidates = [1e-3, 1e-4, 1e-5]
        report = sim.dump_tae(snapshot, 0, candidates, target_psnr=60.0)
        assert report.times.get("optimize") > 0
        trad = sim.dump_traditional(snapshot, 0, report.error_bound)
        assert report.times.get("optimize") > trad.times.get("optimize")

    def test_model_cheaper_optimization_than_tae(self, sim, snapshot):
        candidates = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
        tae = sim.dump_tae(snapshot, 0, candidates, target_psnr=60.0)
        model = sim.dump_model(snapshot, 0, target_psnr=60.0)
        assert model.times.get("optimize") < tae.times.get("optimize")

    def test_model_writes_no_more_than_traditional_worst_case(
        self, sim, snapshot
    ):
        # Traditional uses a conservative (small) bound; the model's
        # quality-targeted bound writes at most as many bytes.
        trad = sim.dump_traditional(snapshot, 0, 1e-7)
        model = sim.dump_model(snapshot, 0, target_psnr=60.0)
        assert model.compressed_bytes <= trad.compressed_bytes

    def test_compressed_dump_beats_raw(self, sim, snapshot):
        report = sim.dump_model(snapshot, 0, target_psnr=60.0)
        assert report.total_time < sim.baseline_raw_dump_time(snapshot)

    def test_report_total(self, sim, snapshot):
        report = sim.dump_traditional(snapshot, 0, 1e-4)
        assert report.total_time == pytest.approx(
            sum(report.times.seconds.values())
        )


class TestReportMetadata:
    def test_traditional_report_fields(self, sim, snapshot):
        report = sim.dump_traditional(snapshot, 3, 1e-4)
        assert report.snapshot_index == 3
        assert report.error_bound == 1e-4
        assert 0 < report.compressed_bytes < snapshot.nbytes

    def test_tae_chooses_a_candidate(self, sim, snapshot):
        candidates = [1e-3, 1e-4, 1e-5]
        report = sim.dump_tae(snapshot, 1, candidates, target_psnr=60.0)
        assert report.strategy == "tae"
        assert report.error_bound in candidates

    def test_model_report_fields(self, sim, snapshot):
        report = sim.dump_model(snapshot, 2, target_psnr=60.0)
        assert report.strategy == "model"
        assert report.snapshot_index == 2
        assert report.error_bound > 0
        assert report.compressed_bytes > 0


class TestIOModel:
    def test_raw_dump_time_is_bandwidth_plus_latency(self, snapshot):
        from repro.storage.cluster import ClusterSimulator

        spec = ClusterSpec(
            n_nodes=2,
            ranks_per_node=4,
            aggregate_write_bandwidth=1e6,
            write_latency=0.25,
        )
        profile = ThroughputProfile(
            compress=1e9, model_optimize=1e9, tae_trial=1e9
        )
        sim = ClusterSimulator(
            spec, profile, CompressionConfig(error_bound=1e-4)
        )
        expected = snapshot.nbytes / 1e6 + 0.25
        assert sim.baseline_raw_dump_time(snapshot) == pytest.approx(
            expected
        )

    def test_compress_time_uses_slowest_rank(self, snapshot):
        from repro.storage.cluster import ClusterSimulator

        spec = ClusterSpec(
            n_nodes=1,
            ranks_per_node=8,
            aggregate_write_bandwidth=1e9,
            write_latency=0.0,
        )
        profile = ThroughputProfile(
            compress=2e6, model_optimize=1e9, tae_trial=1e9
        )
        sim = ClusterSimulator(
            spec, profile, CompressionConfig(error_bound=1e-4)
        )
        report = sim.dump_traditional(snapshot, 0, 1e-4)
        expected = (snapshot.nbytes / 8) / 2e6
        assert report.times.get("compress") == pytest.approx(expected)
