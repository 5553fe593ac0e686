"""Schema tests for the throughput-bench JSON recorded per PR.

``BENCH_throughput.json`` is the cross-PR performance trajectory, so
the shape of each mode's entry is a contract: a key rename or a
non-finite float sneaking in would silently corrupt the history.
These tests run the two planner-centric measurements at bench scale
(they are cheap — one 256x256 snapshot each) and pin their schemas.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    "benchmarks",
)
sys.path.insert(0, BENCH_DIR)

import bench_throughput  # noqa: E402


@pytest.fixture(scope="module")
def planner_perf():
    return bench_throughput._measure_planner_perf()


@pytest.fixture(scope="module")
def v5_adaptive():
    return bench_throughput._measure_adaptive()


@pytest.fixture(scope="module")
def snapshot_stream(tmp_path_factory):
    return bench_throughput._measure_snapshot_stream(
        tmp_path_factory.mktemp("stream")
    )


@pytest.fixture(scope="module")
def chaos(tmp_path_factory):
    return bench_throughput._measure_chaos(
        tmp_path_factory.mktemp("chaos")
    )


PLANNER_COUNTER_KEYS = {
    "tiles_planned",
    "tiles_modeled",
    "clusters",
    "fits_performed",
    "refits",
    "cache",
}


def test_planner_perf_shape(planner_perf):
    assert set(planner_perf) == {
        "field",
        "planner",
        "fit_ratio",
        "plan_s",
        "clustered_bytes",
        "per_tile_bytes",
        "reuse_byte_overhead",
        "clustered_psnr",
        "per_tile_psnr",
        "cache_status",
        "cached_plan_s",
        "plan_cache_speedup",
        "uniform_compress_s",
        "cached_compress_s",
        "cached_vs_uniform",
    }
    assert set(planner_perf["planner"]) == PLANNER_COUNTER_KEYS
    # strict JSON: the trajectory file must never carry NaN/Infinity
    json.loads(json.dumps(planner_perf, allow_nan=False))


def test_planner_perf_counters_consistent(planner_perf):
    stats = planner_perf["planner"]
    assert stats["tiles_planned"] == 64
    assert stats["fits_performed"] == stats["clusters"] + stats["refits"]
    assert planner_perf["fit_ratio"] == pytest.approx(
        stats["tiles_planned"] / stats["fits_performed"], abs=0.01
    )
    assert planner_perf["cache_status"] in {"hit", "drift", "miss"}


def test_v5_adaptive_shape(v5_adaptive):
    assert set(v5_adaptive) == {
        "field",
        "compress_s",
        "decompress_s",
        "compress_mb_s",
        "decompress_mb_s",
        "bytes",
        "stage_bytes",
        "ratio",
        "psnr",
        "predictor_counts",
        "planner",
        "plan_s",
        "cached_plan_s",
        "cached_compress_s",
        "plan_cache_speedup",
        "uniform_equal_psnr",
        "equal_psnr_gain",
        "equal_psnr_stage_gain",
    }
    assert set(v5_adaptive["planner"]) == PLANNER_COUNTER_KEYS
    for entry in v5_adaptive["uniform_equal_psnr"].values():
        assert set(entry) == {
            "bytes", "stage_bytes", "ratio", "psnr", "error_bound"
        }
    json.loads(json.dumps(v5_adaptive, allow_nan=False))


def test_v5_adaptive_counters(v5_adaptive):
    stats = v5_adaptive["planner"]
    assert stats["tiles_planned"] == 64
    assert 0 < stats["fits_performed"] <= stats["tiles_planned"]
    assert v5_adaptive["plan_cache_speedup"] >= 1.0
    assert v5_adaptive["equal_psnr_stage_gain"] > 1.0


@pytest.mark.xfail(
    strict=True,
    reason="PR 23 (container v7): without per-tile wrappers a 64-tile "
    "plan's own records outweigh the stage bytes it saves — 0.94; see "
    "the bench docstring and ROADMAP item 1(c)",
)
def test_v5_adaptive_beats_the_best_uniform_file(v5_adaptive):
    assert v5_adaptive["equal_psnr_gain"] > 1.0


def test_snapshot_stream_shape(snapshot_stream):
    assert set(snapshot_stream) == {
        "field",
        "trad",
        "stream",
        "delta_vs_scratch",
        "chain",
        "backends_byte_identical",
    }
    assert set(snapshot_stream["field"]) == {
        "shape",
        "tile_shape",
        "snapshots",
        "steps_between",
        "target_psnr",
        "keyframe_interval",
    }
    assert set(snapshot_stream["trad"]) == {
        "error_bound",
        "bytes",
        "worst_psnr",
    }
    assert set(snapshot_stream["stream"]) == {
        "bytes",
        "worst_psnr",
        "error_bounds",
        "keyframes",
        "temporal_tiles",
        "spatial_tiles",
    }
    assert set(snapshot_stream["chain"]) == {
        "depths",
        "max_chain_depth",
        "cold_read_ms",
        "warm_read_ms",
        "cold_keyframe_ms",
    }
    json.loads(json.dumps(snapshot_stream, allow_nan=False))


def test_chaos_shape(chaos):
    assert set(chaos) == {
        "field",
        "faults",
        "requests",
        "served",
        "failed",
        "availability",
        "wrong_bytes_responses",
        "retry",
        "elapsed_s",
        "checksum_overhead",
    }
    assert set(chaos["faults"]) == {
        "seed",
        "http_failure_rate",
        "injected",
    }
    assert set(chaos["retry"]) == {
        "mean_attempts",
        "total_backoff_s",
    }
    json.loads(json.dumps(chaos, allow_nan=False))


def test_chaos_counters(chaos):
    assert chaos["served"] + chaos["failed"] == chaos["requests"]
    # the headline guarantee: under the fault storm, every byte the
    # client accepted was correct
    assert chaos["wrong_bytes_responses"] == 0
    assert chaos["faults"]["injected"] > 0
    assert chaos["retry"]["mean_attempts"] >= 1.0
    assert 0 <= chaos["checksum_overhead"] <= 0.01


def test_snapshot_stream_counters(snapshot_stream):
    stream = snapshot_stream["stream"]
    chain = snapshot_stream["chain"]
    n = snapshot_stream["field"]["snapshots"]
    interval = snapshot_stream["field"]["keyframe_interval"]
    assert len(stream["error_bounds"]) == n
    assert len(chain["depths"]) == n
    # the chain walks keyframe -> delta -> ... within each group
    assert chain["depths"] == [v % interval + 1 for v in range(n)]
    assert chain["max_chain_depth"] <= interval
    assert stream["keyframes"] == -(-n // interval)
    assert stream["temporal_tiles"] + stream["spatial_tiles"] > 0
    assert snapshot_stream["delta_vs_scratch"] > 0
    assert snapshot_stream["backends_byte_identical"] is True
