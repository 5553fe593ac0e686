"""Tests for use-case 3: in-situ compression optimization."""

import numpy as np
import pytest

from repro.datasets import wave_snapshots
from repro.factory import CodecFactory
from repro.usecases.insitu import PartitionTuner, SnapshotPipeline


@pytest.fixture(scope="module")
def snapshots():
    return wave_snapshots((32, 32, 32), n_snapshots=4, steps_between=10, seed=17)


@pytest.fixture(scope="module")
def tuner(snapshots):
    return PartitionTuner(grid_points=25).fit(list(snapshots))


class TestPartitionTuner:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PartitionTuner().compress_for_psnr(60.0)

    def test_empty_partitions_raise(self):
        with pytest.raises(ValueError):
            PartitionTuner().fit([])

    def test_quality_target_met(self, tuner):
        tuned = tuner.compress_for_psnr(65.0)
        assert tuned.measured_psnr >= 65.0 - 1.0

    def test_competitive_with_uniform_on_bits_at_same_quality(self, tuner):
        # Fig. 12's claim: per-timestep bounds buy extra ratio at equal
        # aggregate quality.  At this miniature scale (4 snapshots, 32^3)
        # the gain is within grid resolution, so assert the tuned plan is
        # at least competitive; the benchmark regenerates the full-size
        # comparison.
        target = 65.0
        tuned = tuner.compress_for_psnr(target)
        # find a uniform bound achieving the same measured quality
        for eb in sorted(tuner.optimizer.grid, reverse=True):
            uniform = tuner.compress_uniform(float(eb))
            if uniform.measured_psnr >= target - 1.0:
                break
        assert tuned.measured_psnr >= target - 1.0
        assert tuned.measured_bitrate <= uniform.measured_bitrate * 1.3

    def test_bit_budget_respected(self, tuner):
        tuned = tuner.compress_for_bitrate(1.0)
        assert tuned.measured_bitrate <= 1.0 * 1.25

    def test_per_partition_bounds_vary(self, tuner):
        # At lenient targets the whole grid qualifies and uniform-at-max
        # is optimal; a demanding target forces differentiation between
        # the sparse early snapshots and the energetic late ones.
        tuned = tuner.compress_for_psnr(85.0)
        assert len(set(tuned.plan.error_bounds)) > 1

    def test_results_per_partition(self, tuner, snapshots):
        tuned = tuner.compress_for_psnr(65.0)
        assert len(tuned.results) == len(snapshots)


class TestSnapshotPipeline:
    def test_streaming_records(self, snapshots):
        pipe = SnapshotPipeline(target_psnr=60.0)
        for snap in snapshots[:3]:
            pipe.process(snap)
        assert len(pipe.records) == 3
        assert [r.index for r in pipe.records] == [0, 1, 2]

    def test_quality_target_met_per_snapshot(self, snapshots):
        pipe = SnapshotPipeline(target_psnr=60.0)
        for snap in snapshots:
            record = pipe.process(snap)
            assert record.psnr >= 60.0 - 2.0

    def test_temporal_stream_meets_target_with_deltas(self, snapshots):
        pipe = SnapshotPipeline(
            target_psnr=60.0,
            factory=CodecFactory(
                tile_shape=(16, 16, 16), temporal=True, keyframe_interval=2
            ),
        )
        records = [pipe.process(snap) for snap in snapshots]
        assert all(r.psnr >= 60.0 - 2.0 for r in records)
        assert [r.keyframe for r in records] == [True, False, True, False]
        assert sum(r.temporal_tiles for r in records) > 0

    def test_adapts_error_bound_across_snapshots(self, snapshots):
        # Wavefields grow in amplitude; the in-situ bound must adapt
        # instead of staying at a worst-case value.
        pipe = SnapshotPipeline(target_psnr=60.0)
        bounds = [pipe.process(s).error_bound for s in snapshots]
        assert len(set(np.round(np.log10(bounds), 3))) > 1

    def test_timing_recorded(self, snapshots):
        pipe = SnapshotPipeline(target_psnr=60.0)
        record = pipe.process(snapshots[0])
        assert "optimize" in record.times.seconds
        assert record.times.total > 0
