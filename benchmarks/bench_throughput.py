"""Codec throughput benchmark, tracked across PRs.

Measures end-to-end compress/decompress MB/s on a 4M-point 3-D field
(abs 1e-2, lorenzo + zstd_like) for the single-stream (v2), chunked
(v3) and tiled (v4) container layouts, prints the table through the
``report`` fixture and appends the numbers to ``BENCH_throughput.json``
at the repo root so the performance trajectory is visible across PRs.

The tiled-streaming mode additionally records **peak RSS**, measured in
a subprocess (``ru_maxrss``) so the number is untainted by the rest of
the benchmark run: the tiled path memmaps the input and streams tiles
to disk, so its peak resident set stays at a few tiles, versus the
whole-array (plus intermediates) footprint of the flat pipeline.  It
also records a 1%-hyperslab region decode with the tile-decode counter,
demonstrating that partial reads touch only the intersecting tiles.

The **serve_latency** mode measures the serving subsystem
(:mod:`repro.service`): a threaded HTTP server over a 16-tile halo
dataset answers hyperslab reads while the benchmark records QPS and
p50/p99 latency with a cold versus warm decoded-tile cache.  The
acceptance criterion is a >= 3x median speedup from the cache.

The **parallel_scaling** mode sweeps the execution backends (serial /
thread / shared-memory process pool) over workers={1,2,4} on a
1M-point tiled field, asserting that every combination produces
byte-identical containers and — on machines with >= 4 cores — that the
process backend compresses at least 1.5x faster than serial at 4
workers.  The CI ``perf-smoke`` job runs exactly this mode.

The **v5_adaptive** mode runs the model-driven per-tile planner on a
heterogeneous field (smooth background + an injected halo-dense
lognormal region) and compares the adaptive container against the
*best uniform config at equal PSNR* — each uniform predictor's bound
is bisected until its measured PSNR matches the adaptive run's.  The
recorded ``equal_psnr_gain`` is the acceptance metric: adaptive must
spend at least 5% fewer bytes than the best uniform baseline.  **Not
met since container v7 (PR 23): 0.94.**  The 12-step bisection below
measured 1.078 under v5, of which ~0.07 was wrapper size (an
interpolation tile's flat JSON header is ~45 B longer than a Lorenzo
tile's and the plan mixes Lorenzo tiles in); v7 has no wrappers, and a
64-tile plan's own records (palette, index per tile, planner header
fields: ~750 B) outweigh the 4 % of stage bytes it saves
(``equal_psnr_stage_gain``, recorded beside it: 1.041).  The threshold
stands; ``test_throughput`` checks it last and reports the miss as an
expected failure until the planner prices its records (ROADMAP item
1(c)).  (The measured gain is sensitive to the bisection resolution
because the uniform byte/PSNR curve has a knee near the adaptive
operating point.)
The mode also records the planner's fit/cluster counters and a
cross-snapshot plan-cache replay timing.

The **snapshot_stream** mode measures the temporal snapshot-stream
subsystem (v6 containers + :class:`repro.service.ArrayStore` chains) on
a ``wave_snapshots`` stream: the traditional baseline compresses every
snapshot from scratch under the offline worst-case bound for the PSNR
target, while the stream arm picks a per-snapshot model bound and
encodes non-keyframe snapshots as temporal deltas against the decoded
previous snapshot (keyframe every 4).  Recorded: the delta-vs-scratch
total byte ratio (acceptance: >= 1.25x at the same per-snapshot PSNR
target), per-tile temporal/spatial choice counts, chain-read latency
(cold vs warm decoded-tile cache at the deepest chain position), and
the per-version chain depth, which must stay bounded by the keyframe
interval.  Chain decodes are asserted byte-identical across the
serial / thread / process executor backends.  The CI
``snapshot-stream`` job runs exactly this mode.

The **chaos** mode exercises the fault-tolerance subsystem end to end:
a deterministic :class:`FaultInjector` (seeded, so every run injects
the same schedule) drops, truncates or delays ~35% of HTTP responses
while a :class:`RetryPolicy`-armed client replays the serving
workload.  Recorded: availability (fraction of requests that
ultimately succeeded), mean attempts per served request, total backoff
time, and the container checksum overhead.  The acceptance criteria
are the detected-or-correct guarantee — **zero** responses whose bytes
differ from ground truth — availability >= 90% despite the fault
storm, and checksum overhead <= 1% of container bytes.  The CI
``chaos-smoke`` job runs exactly this mode plus the fault-injection
test suite.

The **planner_perf** mode exercises the vectorized planner's fit-reuse
machinery on a population-structured snapshot (distinct quiet / mild /
turbulent / oscillatory regions — the regime tile clustering is built
for): it asserts the planned-tiles/fits ratio stays >= 4x, that
cluster-level fit reuse is quality-neutral against per-tile fits
(bytes within 2%, PSNR within 0.15 dB), and that replanning a second
statistically matching snapshot hits the :class:`PlannerCache` with a
>= 5x planning speedup, keeping cached adaptive compression within 3x
of a uniform v4 compress end to end.  The CI ``planner-perf`` job runs
exactly this mode.

Reference points on this workload: the seed implementation ran at
14.4 s compress / 3.5 s decompress (~2.3 MB/s); the chunked vectorized
pipeline targets >= 5x both ways with the ratio within 5%.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.compressor import CompressionConfig, SZCompressor, TiledCompressor
from repro.utils.tables import format_table

SHAPE = (128, 128, 256)  # 4M points
ERROR_BOUND = 1e-2
TILE_SHAPE = (32, 32, 256)  # 16 tiles, ~2 MB each
#: ~1% of the points, straddling 4 of the 16 tiles
ROI = "48:80,40:72,100:141"
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_throughput.json",
)

MODES = {
    "v2_single": dict(chunk_size=None, workers=None),
    "v3_chunked": dict(chunk_size=1 << 20, workers=None),
    "v3_chunked_w4": dict(chunk_size=1 << 20, workers=4),
}

# Runs in a fresh interpreter so the peak-RSS reading reflects exactly
# one compression strategy.  VmHWM (reset on exec) rather than
# ru_maxrss, which would inherit the parent's footprint through the
# fork-to-exec window.  argv: field.npy out.rqsz tiled|flat
_RSS_CHILD = r"""
import json, resource, sys, time
import numpy as np
from repro.compressor import CompressionConfig, SZCompressor, TiledCompressor


def peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


field_path, out_path, strategy = sys.argv[1:4]
shape = {shape}
config = CompressionConfig(
    predictor="lorenzo",
    error_bound={eb},
    lossless="zstd_like",
    chunk_size={chunk},
    tile_shape={tile} if strategy == "tiled" else None,
)
start = time.perf_counter()
if strategy == "tiled":
    data = np.load(field_path, mmap_mode="r")
    result = TiledCompressor(workers=4).compress(data, config, out=out_path)
    compressed = result.compressed_bytes
else:
    data = np.load(field_path)
    result = SZCompressor(workers=4).compress(data, config)
    with open(out_path, "wb") as fh:
        fh.write(result.blob)
    compressed = result.compressed_bytes
elapsed = time.perf_counter() - start
print(json.dumps({{
    "compress_s": elapsed,
    "compressed_bytes": compressed,
    "peak_rss_mb": peak_rss_mb(),
}}))
"""


def _run_rss_child(field_path: str, out_path: str, strategy: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    script = _RSS_CHILD.format(
        shape=SHAPE,
        eb=ERROR_BOUND,
        chunk=1 << 20,
        tile=TILE_SHAPE,
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, field_path, out_path, strategy],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def _field() -> np.ndarray:
    """Smooth random-walk field: representative quantization statistics."""
    rng = np.random.default_rng(0)
    data = np.cumsum(rng.standard_normal(SHAPE), axis=-1)
    return data + np.cumsum(rng.standard_normal(SHAPE), axis=0)


# -- adaptive (v5) workload ----------------------------------------------------

#: heterogeneous field: smooth background + injected halo region
ADAPTIVE_SHAPE = (256, 256)
ADAPTIVE_TILE = (32, 32)
#: nominal bound ~= background std: just below background-tile
#: saturation, where per-tile bound allocation has bits to harvest
ADAPTIVE_EB = 1.0
#: required byte advantage over the best uniform config at equal PSNR
ADAPTIVE_MIN_GAIN = 1.05


def _hetero_field() -> np.ndarray:
    """Smooth background with a compact halo-dense (lognormal) region."""
    from repro.datasets.generators import (
        gaussian_random_field,
        lognormal_field,
    )

    shape = ADAPTIVE_SHAPE
    bg = gaussian_random_field(shape, slope=4.0, seed=7).astype(np.float64)
    hs = tuple(n // 4 for n in shape)
    halos = lognormal_field(hs, slope=2.0, seed=8, contrast=3.0)
    pad = tuple((n // 8, n - h - n // 8) for n, h in zip(shape, hs))
    return (bg + np.pad(0.5 * halos.astype(np.float64), pad)).astype(
        np.float32
    )


def _measure_adaptive() -> dict:
    """Adaptive vs best uniform container at equal measured PSNR."""
    from repro.analysis.metrics import psnr
    from repro.compressor import PlannerCache
    from repro.compressor.inspect import describe_container

    def stage_bytes(blob: bytes) -> int:
        return describe_container(blob, verify=True)["tile_map"]["stage_bytes"]

    field = _hetero_field()
    mb = field.nbytes / 1e6
    tc = TiledCompressor()

    start = time.perf_counter()
    adaptive = tc.compress(
        field,
        CompressionConfig(
            error_bound=ADAPTIVE_EB,
            tile_shape=ADAPTIVE_TILE,
            adaptive=True,
        ),
    )
    compress_s = time.perf_counter() - start

    # cross-snapshot plan replay: same field statistics -> cache hit
    cache = PlannerCache()
    tcc = TiledCompressor(plan_cache=cache)
    cfg = CompressionConfig(
        error_bound=ADAPTIVE_EB, tile_shape=ADAPTIVE_TILE, adaptive=True
    )
    fresh = tcc.compress(field, cfg, dataset="halo")
    start = time.perf_counter()
    cached = tcc.compress(field, cfg, dataset="halo")
    cached_compress_s = time.perf_counter() - start
    assert cached.plan.stats.cache == "hit"
    start = time.perf_counter()
    recon = tc.decompress(adaptive.blob)
    decompress_s = time.perf_counter() - start
    ada_psnr = psnr(field, recon)

    uniform: dict = {}
    for predictor in ("lorenzo", "interpolation"):
        lo, hi = ADAPTIVE_EB / 16, ADAPTIVE_EB * 16
        best = None
        for _ in range(12):
            mid = float(np.sqrt(lo * hi))
            result = tc.compress(
                field,
                CompressionConfig(
                    predictor=predictor,
                    error_bound=mid,
                    tile_shape=ADAPTIVE_TILE,
                ),
            )
            measured = psnr(field, tc.decompress(result.blob))
            if measured >= ada_psnr:
                best = (
                    result.compressed_bytes,
                    measured,
                    mid,
                    stage_bytes(result.blob),
                )
                lo = mid
            else:
                hi = mid
        if best is not None:
            uniform[predictor] = {
                "bytes": best[0],
                "stage_bytes": best[3],
                "ratio": round(field.nbytes / best[0], 4),
                "psnr": round(best[1], 3),
                "error_bound": round(best[2], 6),
            }
    assert uniform, (
        "no uniform config reached the adaptive run's PSNR "
        f"({ada_psnr:.2f} dB) within the bisection span"
    )
    best_uniform = min(m["bytes"] for m in uniform.values())
    best_uniform_stage = min(m["stage_bytes"] for m in uniform.values())

    return {
        "field": {
            "shape": list(ADAPTIVE_SHAPE),
            "tile_shape": list(ADAPTIVE_TILE),
            "nominal_eb": ADAPTIVE_EB,
        },
        "compress_s": round(compress_s, 4),
        "decompress_s": round(decompress_s, 4),
        "compress_mb_s": round(mb / compress_s, 2),
        "decompress_mb_s": round(mb / decompress_s, 2),
        "bytes": adaptive.compressed_bytes,
        "stage_bytes": stage_bytes(adaptive.blob),
        "ratio": round(field.nbytes / adaptive.compressed_bytes, 4),
        "psnr": round(ada_psnr, 3),
        "predictor_counts": adaptive.plan.predictor_counts(),
        "planner": adaptive.plan.stats.to_json(),
        "plan_s": round(adaptive.plan.stats.plan_seconds, 4),
        "cached_plan_s": round(cached.plan.stats.plan_seconds, 5),
        "cached_compress_s": round(cached_compress_s, 4),
        "plan_cache_speedup": round(
            fresh.plan.stats.plan_seconds
            / max(cached.plan.stats.plan_seconds, 1e-9),
            1,
        ),
        "uniform_equal_psnr": uniform,
        "equal_psnr_gain": round(
            best_uniform / adaptive.compressed_bytes, 4
        ),
        "equal_psnr_stage_gain": round(
            best_uniform_stage / stage_bytes(adaptive.blob), 4
        ),
    }


# -- planner fit-reuse / plan-cache workload -----------------------------------

#: population-structured snapshot: 64 tiles in four homogeneous
#: regions, the regime the stat-signature clustering targets
PLANNER_SHAPE = (256, 256)
PLANNER_TILE = (32, 32)
PLANNER_EB = 0.5
#: acceptance: planned-tiles / fits ratio from cluster-level reuse
PLANNER_MIN_FIT_RATIO = 4.0
#: acceptance: plan-cache hit speedup on a matching second snapshot
PLANNER_MIN_CACHE_SPEEDUP = 5.0
#: acceptance: cached adaptive compress vs a uniform v4 compress
PLANNER_MAX_VS_UNIFORM = 3.0


def _population_field(seed: int = 7, jitter: float = 0.0) -> np.ndarray:
    """Quiet / mild / turbulent / oscillatory quadrant populations.

    ``jitter`` adds small extra noise so consecutive "snapshots" are
    statistically close but not identical (the plan-cache use case).
    """
    from repro.datasets.generators import gaussian_random_field

    shape = PLANNER_SHAPE
    rng = np.random.default_rng(seed)
    f = gaussian_random_field(shape, slope=4.0, seed=7).astype(
        np.float64
    ) * 10.0
    h, w = shape[0] // 2, shape[1] // 2
    f[:h, :w] += rng.normal(0, 0.2, (h, w))
    f[:h, w:] += rng.normal(0, 1.5, (h, w))
    f[h:, :w] += rng.normal(0, 6.0, (h, w))
    f[h:, w:] += (
        4.0
        * np.sin(np.arange(w) * 0.9)[None, :]
        * np.cos(np.arange(h) * 0.7)[:, None]
    )
    if jitter:
        f += rng.normal(0, jitter, shape)
    return f.astype(np.float32)


def _measure_planner_perf() -> dict:
    """Fit-reuse ratio, reuse quality parity, and plan-cache replay."""
    from dataclasses import replace

    from repro.analysis.metrics import psnr
    from repro.compressor import PlannerCache

    snap0 = _population_field(seed=7)
    config = CompressionConfig(
        error_bound=PLANNER_EB, tile_shape=PLANNER_TILE, adaptive=True
    )
    tc = TiledCompressor()

    # uniform v4 reference for the end-to-end throughput bound
    ucfg = CompressionConfig(
        predictor="lorenzo",
        error_bound=PLANNER_EB,
        tile_shape=PLANNER_TILE,
    )
    tc.compress(snap0, ucfg)  # page-in / warm-up
    start = time.perf_counter()
    tc.compress(snap0, ucfg)
    uniform_compress_s = time.perf_counter() - start

    # clustered (default) vs per-tile fits: reuse must be ~free
    clustered = tc.compress(snap0, config)
    per_tile = tc.compress(snap0, replace(config, fit_clusters=0))
    cl_psnr = psnr(snap0, tc.decompress(clustered.blob))
    pt_psnr = psnr(snap0, tc.decompress(per_tile.blob))
    stats = clustered.plan.stats
    fit_ratio = stats.tiles_planned / stats.fits_performed

    # cross-snapshot plan cache: snapshot 1 is statistically close
    cache = PlannerCache()
    tcc = TiledCompressor(plan_cache=cache)
    first = tcc.compress(snap0, config, dataset="pop")
    snap1 = _population_field(seed=9, jitter=0.05)
    start = time.perf_counter()
    second = tcc.compress(snap1, config, dataset="pop")
    cached_compress_s = time.perf_counter() - start
    cache_speedup = first.plan.stats.plan_seconds / max(
        second.plan.stats.plan_seconds, 1e-9
    )
    # reuse never touches correctness: the per-tile bound holds on the
    # replayed plan exactly as on a fresh one
    recon1 = tcc.decompress(second.blob)
    max_err = float(np.max(np.abs(recon1.astype(np.float64) - snap1)))
    bound = max(c.error_bound for c in second.plan.choices)
    assert max_err <= bound * (1 + 1e-6)

    return {
        "field": {
            "shape": list(PLANNER_SHAPE),
            "tile_shape": list(PLANNER_TILE),
            "error_bound": PLANNER_EB,
        },
        "planner": stats.to_json(),
        "fit_ratio": round(fit_ratio, 2),
        "plan_s": round(stats.plan_seconds, 4),
        "clustered_bytes": clustered.compressed_bytes,
        "per_tile_bytes": per_tile.compressed_bytes,
        "reuse_byte_overhead": round(
            clustered.compressed_bytes / per_tile.compressed_bytes, 4
        ),
        "clustered_psnr": round(cl_psnr, 3),
        "per_tile_psnr": round(pt_psnr, 3),
        "cache_status": second.plan.stats.cache,
        "cached_plan_s": round(second.plan.stats.plan_seconds, 5),
        "plan_cache_speedup": round(cache_speedup, 1),
        "uniform_compress_s": round(uniform_compress_s, 4),
        "cached_compress_s": round(cached_compress_s, 4),
        "cached_vs_uniform": round(
            cached_compress_s / uniform_compress_s, 3
        ),
    }


def test_planner_perf(report):
    """Planner fit-reuse and plan-cache guardrails (CI planner-perf)."""
    perf = _measure_planner_perf()
    report(
        "planner_perf (population-structured 64-tile snapshot): "
        f"{perf['planner']['fits_performed']} fits for "
        f"{perf['planner']['tiles_planned']} tiles "
        f"(ratio {perf['fit_ratio']}x, "
        f"{perf['planner']['clusters']} clusters, "
        f"{perf['planner']['refits']} refits); "
        f"reuse byte overhead {perf['reuse_byte_overhead']}x; "
        f"plan cache {perf['cache_status']} -> "
        f"{perf['plan_cache_speedup']}x planning speedup, "
        f"cached adaptive compress {perf['cached_vs_uniform']}x a "
        "uniform v4 compress"
    )
    _append_trajectory(
        {
            "date": time.strftime("%Y-%m-%d %H:%M:%S"),
            "modes": {"planner_perf": perf},
        }
    )
    assert perf["fit_ratio"] >= PLANNER_MIN_FIT_RATIO
    # cluster-level reuse must be quality-neutral on clustered data
    assert perf["reuse_byte_overhead"] <= 1.02
    assert abs(perf["clustered_psnr"] - perf["per_tile_psnr"]) <= 0.15
    # a matching second snapshot replays the cached plan
    assert perf["cache_status"] == "hit"
    assert perf["plan_cache_speedup"] >= PLANNER_MIN_CACHE_SPEEDUP
    assert perf["cached_vs_uniform"] <= PLANNER_MAX_VS_UNIFORM


# -- temporal snapshot-stream workload -----------------------------------------

#: wavefield stream (fig13 cadence): 8 snapshots of a 64k-point volume
STREAM_SHAPE = (32, 32, 64)
STREAM_TILE = (16, 16, 32)
STREAM_SNAPSHOTS = 8
STREAM_STEPS_BETWEEN = 8
STREAM_SEED = 11
STREAM_TARGET_PSNR = 60.0
STREAM_KEYFRAME_INTERVAL = 4
#: half-decade candidate grid for the offline worst-case baseline
STREAM_EB_GRID = tuple(10.0**-e for e in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0))
#: acceptance: total bytes, from-scratch baseline vs the delta stream
STREAM_MIN_DELTA_GAIN = 1.25
#: PSNR slack on the worst snapshot (model bounds aim at the target)
STREAM_PSNR_SLACK = 2.0


def _stream_snapshots() -> list:
    from repro.datasets.generators import wave_snapshots

    return wave_snapshots(
        STREAM_SHAPE,
        n_snapshots=STREAM_SNAPSHOTS,
        steps_between=STREAM_STEPS_BETWEEN,
        seed=STREAM_SEED,
    )


def _measure_snapshot_stream(tmp_path) -> dict:
    """Delta stream vs from-scratch baseline at one PSNR target."""
    from repro.analysis.metrics import psnr
    from repro.compressor import TemporalCompressor
    from repro.factory import CodecFactory
    from repro.service import ArrayStore, TileLRUCache
    from repro.usecases.baselines import offline_worst_case_error_bound
    from repro.usecases.insitu import SnapshotPipeline

    snaps = _stream_snapshots()
    factory = CodecFactory(tile_shape=STREAM_TILE)

    # traditional baseline: one conservative bound that holds the PSNR
    # target on the worst snapshot, every snapshot re-encoded from
    # scratch (what an in-situ dump does without the stream subsystem)
    trad_eb = offline_worst_case_error_bound(
        snaps,
        factory.config(STREAM_EB_GRID[0]),
        STREAM_EB_GRID,
        STREAM_TARGET_PSNR,
    ).chosen_error_bound
    tiled = factory.tiled_compressor()
    trad_config = factory.config(trad_eb)
    trad_bytes = 0
    trad_worst = float("inf")
    for snap in snaps:
        result = tiled.compress(snap, trad_config)
        trad_bytes += result.compressed_bytes
        trad_worst = min(
            trad_worst, psnr(snap, tiled.decompress(result.blob))
        )

    # stream arm: per-snapshot model bound + temporal deltas, replayed
    # once through the pipeline (quality accounting) and once through an
    # ArrayStore chain (byte accounting + chain reads)
    stream = SnapshotPipeline(
        target_psnr=STREAM_TARGET_PSNR,
        factory=CodecFactory(
            tile_shape=STREAM_TILE,
            temporal=True,
            keyframe_interval=STREAM_KEYFRAME_INTERVAL,
        ),
    )
    for snap in snaps:
        stream.process(snap)
    stream_worst = min(r.psnr for r in stream.records)

    store = ArrayStore(
        str(tmp_path / "stream_store"),
        cache=TileLRUCache(byte_budget=32 << 20),
    )
    try:
        for snap, record in zip(snaps, stream.records):
            store.put_snapshot(
                "wave",
                snap,
                factory.config(record.error_bound),
                keyframe_interval=STREAM_KEYFRAME_INTERVAL,
            )
        chain_bytes = store.info("wave")["total_compressed_bytes"]
        versions = store.versions("wave")

        # every version must hold its own absolute bound, and decode
        # through a chain no deeper than the keyframe interval
        full = tuple(slice(0, n) for n in STREAM_SHAPE)
        depths = []
        for version, (snap, record) in enumerate(
            zip(snaps, stream.records)
        ):
            region = store.read_region("wave", full, version=version)
            max_err = float(
                np.max(
                    np.abs(
                        region.data.astype(np.float64)
                        - snap.astype(np.float64)
                    )
                )
            )
            assert max_err <= record.error_bound * (1 + 1e-9), (
                f"version {version} exceeds its bound: "
                f"{max_err} > {record.error_bound}"
            )
            depths.append(region.chain_depth)

        # chain-read latency: deepest chain position, cold vs warm
        deepest = max(range(len(depths)), key=lambda v: (depths[v], v))
        store.cache.clear()
        start = time.perf_counter()
        store.read_region("wave", full, version=deepest)
        cold_chain_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        store.read_region("wave", full, version=deepest)
        warm_chain_ms = (time.perf_counter() - start) * 1e3
        store.cache.clear()
        start = time.perf_counter()
        store.read_region("wave", full, version=0)
        cold_keyframe_ms = (time.perf_counter() - start) * 1e3

        # chain decodes are an execution detail: every backend must
        # reproduce the store's bytes exactly, reference by reference
        expected = [
            store.read_full("wave", version=v).tobytes()
            for v in range(len(snaps))
        ]
        files = [
            os.path.join(store.root, record["file"])
            for record in versions
        ]
    finally:
        store.close()

    for backend in ("serial", "thread", "process"):
        codec = TemporalCompressor(workers=2, backend=backend)
        reference = None
        for version, path in enumerate(files):
            keyframe = versions[version]["keyframe"]
            reference = codec.decompress(
                path, reference=None if keyframe else reference
            )
            assert reference.tobytes() == expected[version], (
                f"{backend} decode of version {version} differs"
            )

    return {
        "field": {
            "shape": list(STREAM_SHAPE),
            "tile_shape": list(STREAM_TILE),
            "snapshots": STREAM_SNAPSHOTS,
            "steps_between": STREAM_STEPS_BETWEEN,
            "target_psnr": STREAM_TARGET_PSNR,
            "keyframe_interval": STREAM_KEYFRAME_INTERVAL,
        },
        "trad": {
            "error_bound": trad_eb,
            "bytes": int(trad_bytes),
            "worst_psnr": round(trad_worst, 3),
        },
        "stream": {
            "bytes": int(chain_bytes),
            "worst_psnr": round(stream_worst, 3),
            "error_bounds": [
                round(r.error_bound, 8) for r in stream.records
            ],
            "keyframes": sum(1 for r in stream.records if r.keyframe),
            "temporal_tiles": sum(
                r.temporal_tiles for r in stream.records
            ),
            "spatial_tiles": sum(
                r.spatial_tiles for r in stream.records
            ),
        },
        "delta_vs_scratch": round(trad_bytes / chain_bytes, 4),
        "chain": {
            "depths": depths,
            "max_chain_depth": max(depths),
            "cold_read_ms": round(cold_chain_ms, 3),
            "warm_read_ms": round(warm_chain_ms, 3),
            "cold_keyframe_ms": round(cold_keyframe_ms, 3),
        },
        "backends_byte_identical": True,
    }


def test_snapshot_stream(report, tmp_path):
    """Temporal stream guardrails (CI snapshot-stream)."""
    perf = _measure_snapshot_stream(tmp_path)
    stream, trad, chain = perf["stream"], perf["trad"], perf["chain"]
    report(
        "snapshot_stream (8-snapshot wavefield, PSNR target "
        f"{STREAM_TARGET_PSNR} dB): from-scratch worst-case bound "
        f"{trad['error_bound']:.1e} -> {trad['bytes']} B, delta chain "
        f"{stream['bytes']} B -> gain {perf['delta_vs_scratch']}x; "
        f"{stream['temporal_tiles']} temporal / "
        f"{stream['spatial_tiles']} spatial tiles, "
        f"{stream['keyframes']} keyframes; chain depth "
        f"<= {chain['max_chain_depth']}, deepest read cold "
        f"{chain['cold_read_ms']} ms / warm {chain['warm_read_ms']} ms "
        f"(keyframe cold {chain['cold_keyframe_ms']} ms)"
    )
    _append_trajectory(
        {
            "date": time.strftime("%Y-%m-%d %H:%M:%S"),
            "modes": {"snapshot_stream": perf},
        }
    )
    # acceptance: the delta stream must spend >= 1.25x fewer total
    # bytes than per-snapshot-from-scratch at the same PSNR target...
    assert perf["delta_vs_scratch"] >= STREAM_MIN_DELTA_GAIN
    # ...with both arms actually meeting the target on every snapshot
    assert trad["worst_psnr"] >= STREAM_TARGET_PSNR - 1.0
    assert stream["worst_psnr"] >= STREAM_TARGET_PSNR - STREAM_PSNR_SLACK
    # deltas must really be in play, and random access must stay
    # bounded by the keyframe interval
    assert stream["temporal_tiles"] > 0
    assert stream["keyframes"] < STREAM_SNAPSHOTS
    assert chain["max_chain_depth"] <= STREAM_KEYFRAME_INTERVAL
    assert perf["backends_byte_identical"] is True


# -- serving (region-read latency) workload ------------------------------------

#: 16-tile halo field served over HTTP (512x512 f4, 128x128 tiles)
SERVE_SHAPE = (512, 512)
SERVE_TILE = (128, 128)
SERVE_EB = 0.25
SERVE_WINDOW = 160  # probe hyperslab edge (touches 2-4 tiles)
#: acceptance: warm-cache p50 must be >= 3x faster than cold-cache p50
SERVE_MIN_WARM_SPEEDUP = 3.0
SERVE_THREADS = 8


def _serve_field() -> np.ndarray:
    """16-tile variant of the heterogeneous halo field."""
    from repro.datasets.generators import (
        gaussian_random_field,
        lognormal_field,
    )

    shape = SERVE_SHAPE
    bg = gaussian_random_field(shape, slope=4.0, seed=17).astype(
        np.float64
    )
    hs = tuple(n // 4 for n in shape)
    halos = lognormal_field(hs, slope=2.0, seed=18, contrast=3.0)
    pad = tuple((n // 8, n - h - n // 8) for n, h in zip(shape, hs))
    return (bg + np.pad(0.5 * halos.astype(np.float64), pad)).astype(
        np.float32
    )


def _serve_slabs() -> list:
    """Deterministic probe windows over the halo field."""
    slabs = []
    for i in range(16):
        x0 = (i * 96) % (SERVE_SHAPE[0] - SERVE_WINDOW)
        y0 = (i * 53) % (SERVE_SHAPE[1] - SERVE_WINDOW)
        slabs.append(
            f"{x0}:{x0 + SERVE_WINDOW},{y0}:{y0 + SERVE_WINDOW}"
        )
    return slabs


def _measure_serving(tmp_path) -> dict:
    """QPS + p50/p99 region-read latency, cold vs warm tile cache."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import (
        ArrayClient,
        ArrayServer,
        ArrayStore,
        TileLRUCache,
    )

    field = _serve_field()
    store = ArrayStore(
        str(tmp_path / "serve_store"),
        cache=TileLRUCache(byte_budget=64 << 20),
    )
    server = ArrayServer(store)
    server.serve_in_background()
    try:
        client = ArrayClient(server.url)
        client.put("halo", field, eb=SERVE_EB, tile=SERVE_TILE)
        slabs = _serve_slabs()

        def timed_read(c: ArrayClient, slab: str) -> float:
            start = time.perf_counter()
            c.read_region("halo", slab)
            return (time.perf_counter() - start) * 1e3

        # cold: every request decodes its tiles (cache cleared first)
        cold_ms = []
        for _ in range(3):
            for slab in slabs:
                store.cache.clear()
                cold_ms.append(timed_read(client, slab))

        # warm: the working set is fully cached
        for slab in slabs:
            client.read_region("halo", slab)
        warm_ms = [
            timed_read(client, slab)
            for _ in range(6)
            for slab in slabs
        ]

        # sustained concurrent throughput on the warm cache
        per_thread = 32

        def worker(seed: int) -> int:
            local = ArrayClient(server.url)
            order = np.random.default_rng(seed).permutation(len(slabs))
            done = 0
            for i in range(per_thread):
                local.read_region("halo", slabs[order[i % len(order)]])
                done += 1
            return done

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=SERVE_THREADS) as pool:
            total = sum(pool.map(worker, range(SERVE_THREADS)))
        qps = total / (time.perf_counter() - start)
        stats = store.cache.stats()
    finally:
        server.shutdown()
        server.server_close()
        store.close()

    cold_p50 = float(np.percentile(cold_ms, 50))
    warm_p50 = float(np.percentile(warm_ms, 50))
    return {
        "field": {
            "shape": list(SERVE_SHAPE),
            "tile_shape": list(SERVE_TILE),
            "error_bound": SERVE_EB,
            "window": SERVE_WINDOW,
            "n_tiles": 16,
        },
        "requests": {
            "cold": len(cold_ms),
            "warm": len(warm_ms),
            "concurrent": int(total),
            "threads": SERVE_THREADS,
        },
        "cold_p50_ms": round(cold_p50, 3),
        "cold_p99_ms": round(float(np.percentile(cold_ms, 99)), 3),
        "warm_p50_ms": round(warm_p50, 3),
        "warm_p99_ms": round(float(np.percentile(warm_ms, 99)), 3),
        "warm_speedup_p50": round(cold_p50 / warm_p50, 3),
        "qps": round(qps, 1),
        "cache": stats.to_json(),
    }


# -- chaos workload ------------------------------------------------------------

CHAOS_SEED = 42
CHAOS_FAILURE_RATE = 0.35
CHAOS_REQUESTS = 60
#: acceptance: fraction of requests that must ultimately succeed
CHAOS_MIN_AVAILABILITY = 0.9
#: acceptance: integrity bytes per container payload byte
CHAOS_MAX_CHECKSUM_OVERHEAD = 0.01


def _checksum_overhead(data: np.ndarray, config) -> float:
    """Fractional container growth from the integrity checksums."""
    import io

    from repro.compressor.container import TiledReader, TiledWriter

    blob = TiledCompressor().compress(data, config).blob
    reader = TiledReader(blob)
    assert reader.checksum_state == "verified"
    plain = io.BytesIO()
    with TiledWriter(
        plain,
        {
            k: v
            for k, v in reader.header.items()
            if k not in ("checksums", "container_version")
        },
        version=reader.version,
        checksums=False,
    ) as writer:
        for t in reader.tiles:
            writer.copy_tile(reader, t)
    without = len(plain.getvalue())
    return (len(blob) - without) / without


def _measure_chaos(tmp_path) -> dict:
    """Availability + retry overhead under an injected fault storm.

    The serving workload replayed against a server whose responses are
    dropped / truncated / delayed at ``CHAOS_FAILURE_RATE`` by a
    seeded :class:`FaultInjector`; the client retries with capped
    exponential backoff.  Every response the client accepts is
    compared byte-for-byte against ground truth read straight from the
    store — the recorded ``wrong_bytes_responses`` must be zero.
    """
    from repro.compressor.tiled_geometry import parse_region_text
    from repro.service import (
        ArrayClient,
        ArrayServer,
        ArrayStore,
        TileLRUCache,
    )
    from repro.service.client import RetryPolicy
    from repro.service.faults import FaultInjector

    field = _serve_field()
    config = CompressionConfig(
        error_bound=SERVE_EB, tile_shape=SERVE_TILE
    )
    store = ArrayStore(
        str(tmp_path / "chaos_store"),
        cache=TileLRUCache(byte_budget=64 << 20),
    )
    injector = FaultInjector(
        seed=CHAOS_SEED,
        http_failure_rate=CHAOS_FAILURE_RATE,
        delay_seconds=0.002,
    )
    server = ArrayServer(store, faults=injector)
    server.serve_in_background()
    try:
        # setup bypasses HTTP: the injector is armed from the start
        store.create("halo", field, config)
        slabs = _serve_slabs()
        truths = {
            slab: store.read_region(
                "halo", parse_region_text(slab)
            ).data
            for slab in slabs
        }
        client = ArrayClient(
            server.url,
            retry=RetryPolicy(
                max_attempts=8,
                base_delay=0.003,
                max_delay=0.05,
                seed=1,
            ),
        )
        served = failed = wrong = attempts = 0
        backoff_s = 0.0
        start = time.perf_counter()
        for i in range(CHAOS_REQUESTS):
            slab = slabs[i % len(slabs)]
            try:
                roi = client.read_region("halo", slab)
            except Exception:
                failed += 1
                continue
            served += 1
            attempts += client.last_retry_stats["attempts"]
            backoff_s += client.last_retry_stats["slept"]
            if not np.array_equal(roi, truths[slab]):
                wrong += 1
        elapsed = time.perf_counter() - start
        injected = injector.fired("http")
    finally:
        server.shutdown()
        server.server_close()
        store.close()

    return {
        "field": {
            "shape": list(SERVE_SHAPE),
            "tile_shape": list(SERVE_TILE),
            "error_bound": SERVE_EB,
        },
        "faults": {
            "seed": CHAOS_SEED,
            "http_failure_rate": CHAOS_FAILURE_RATE,
            "injected": int(injected),
        },
        "requests": CHAOS_REQUESTS,
        "served": served,
        "failed": failed,
        "availability": round(served / CHAOS_REQUESTS, 4),
        "wrong_bytes_responses": wrong,
        "retry": {
            "mean_attempts": round(attempts / max(1, served), 3),
            "total_backoff_s": round(backoff_s, 3),
        },
        "elapsed_s": round(elapsed, 3),
        "checksum_overhead": round(
            _checksum_overhead(field, config), 6
        ),
    }


def test_chaos(report, tmp_path):
    chaos = _measure_chaos(tmp_path)
    report(
        "Chaos serving (seeded fault storm, "
        f"{int(100 * chaos['faults']['http_failure_rate'])}% of "
        f"responses faulted, {chaos['faults']['injected']} injected): "
        f"availability {chaos['availability']}, "
        f"{chaos['wrong_bytes_responses']} wrong-bytes responses, "
        f"mean {chaos['retry']['mean_attempts']} attempts/request, "
        f"{chaos['retry']['total_backoff_s']} s backoff, "
        f"checksum overhead {chaos['checksum_overhead']}"
    )
    _append_trajectory(
        {
            "date": time.strftime("%Y-%m-%d %H:%M:%S"),
            "modes": {"chaos": chaos},
        }
    )
    # the detected-or-correct guarantee at the wire: a faulted
    # response may fail the request, never falsify it
    assert chaos["wrong_bytes_responses"] == 0
    assert chaos["availability"] >= CHAOS_MIN_AVAILABILITY, (
        "retries must keep availability above "
        f"{CHAOS_MIN_AVAILABILITY} under the fault storm "
        f"(got {chaos['availability']})"
    )
    assert chaos["faults"]["injected"] > 0  # the storm actually blew
    assert (
        chaos["checksum_overhead"] <= CHAOS_MAX_CHECKSUM_OVERHEAD
    ), (
        "integrity checksums must cost <= "
        f"{CHAOS_MAX_CHECKSUM_OVERHEAD:.0%} of container bytes "
        f"(got {chaos['checksum_overhead']:.4%})"
    )


# -- parallel-scaling workload -------------------------------------------------

#: 1M-point field for the backend-scaling sweep (small enough for CI,
#: large enough that per-batch transport overhead is amortized)
PAR_SHAPE = (64, 128, 128)
PAR_TILE = (8, 128, 128)  # 8 tiles of ~1 MB: clean 4-way fan-out
PAR_WORKERS = (1, 2, 4)
#: acceptance: process-backend compress at 4 workers vs serial
PAR_MIN_SPEEDUP = 1.5
#: cores needed for the speedup assertion to be physically meaningful
PAR_MIN_CORES = 4


def _par_field() -> np.ndarray:
    rng = np.random.default_rng(2)
    return np.cumsum(rng.standard_normal(PAR_SHAPE), axis=-1)


def _measure_parallel_scaling() -> dict:
    """Compress/decompress MB/s per backend at workers={1,2,4}.

    Every (backend, workers) run must produce the *same bytes* as the
    serial baseline — the backends are an execution detail, not a
    format knob — and the process backend's pool is warmed up before
    timing so the persistent-pool steady state is what gets recorded.
    """
    from repro.compressor import TiledCompressor
    from repro.compressor.executor import usable_cores

    data = _par_field()
    mb = data.nbytes / 1e6
    config = CompressionConfig(
        predictor="lorenzo",
        error_bound=ERROR_BOUND,
        lossless="zstd_like",
        tile_shape=PAR_TILE,
    )
    # warm-up slab spanning 4 tiles: a (backend, workers) warm-up pass
    # must put a task on *every* pool worker, or the cold-start (numpy
    # + repro imports in each worker process) lands inside the timing
    warmup = data[: 4 * PAR_TILE[0]]
    # one full-size serial pass first: page in the field and JIT-warm
    # the NumPy kernels so the first timed combination is not penalized
    TiledCompressor().compress(data, config)

    serial_blob = None
    backends: dict = {}
    for backend in ("serial", "thread", "process"):
        backends[backend] = {}
        for workers in PAR_WORKERS:
            tc = TiledCompressor(workers=workers, backend=backend)
            tc.compress(warmup, config)  # spin up pools outside timing
            start = time.perf_counter()
            result = tc.compress(data, config)
            compress_s = time.perf_counter() - start
            if serial_blob is None:
                serial_blob = result.blob
            assert result.blob == serial_blob, (
                f"{backend} w{workers} produced different bytes"
            )
            start = time.perf_counter()
            recon = tc.decompress(result.blob)
            decompress_s = time.perf_counter() - start
            assert np.max(np.abs(recon - data)) <= ERROR_BOUND * (1 + 1e-9)
            backends[backend][f"w{workers}"] = {
                "compress_s": round(compress_s, 4),
                "compress_mb_s": round(mb / compress_s, 2),
                "decompress_s": round(decompress_s, 4),
                "decompress_mb_s": round(mb / decompress_s, 2),
            }

    serial_rate = backends["serial"]["w1"]["compress_mb_s"]
    process_rate = backends["process"]["w4"]["compress_mb_s"]
    return {
        "field": {
            "shape": list(PAR_SHAPE),
            "tile_shape": list(PAR_TILE),
            "error_bound": ERROR_BOUND,
        },
        "cores": usable_cores(),
        "byte_identical": True,
        "backends": backends,
        "process_w4_speedup_vs_serial": round(
            process_rate / serial_rate, 3
        ),
    }


def test_parallel_scaling(report):
    """Backend-scaling sweep; asserts process speedup on >= 4 cores."""
    scaling = _measure_parallel_scaling()
    rows = [
        (
            f"{backend} w{workers}",
            m["compress_s"],
            m["compress_mb_s"],
            m["decompress_s"],
            m["decompress_mb_s"],
        )
        for backend, per_w in scaling["backends"].items()
        for workers in PAR_WORKERS
        for m in [per_w[f"w{workers}"]]
    ]
    report(
        format_table(
            ["backend", "comp s", "comp MB/s", "decomp s", "decomp MB/s"],
            rows,
            float_spec=".2f",
            title=(
                "Parallel scaling (1M-point field, 8 tiles, "
                f"{scaling['cores']} core(s) available): process w4 "
                f"speedup {scaling['process_w4_speedup_vs_serial']}x "
                "vs serial"
            ),
        )
    )
    _append_trajectory(
        {
            "date": time.strftime("%Y-%m-%d %H:%M:%S"),
            "modes": {"parallel_scaling": scaling},
        }
    )
    if scaling["cores"] >= PAR_MIN_CORES:
        assert (
            scaling["process_w4_speedup_vs_serial"] >= PAR_MIN_SPEEDUP
        ), (
            "process backend at 4 workers must compress at least "
            f"{PAR_MIN_SPEEDUP}x faster than serial "
            f"(got {scaling['process_w4_speedup_vs_serial']}x on "
            f"{scaling['cores']} cores)"
        )
    else:
        # fewer cores than workers: 4 process workers oversubscribed
        # onto 1-3 cores pay IPC overhead the acceptance criterion
        # never targeted, so only record (CI perf-smoke asserts on a
        # >= 4-core runner)
        report(
            f"parallel_scaling: {scaling['cores']} core(s) available "
            "- recorded throughput without asserting the "
            f"{PAR_MIN_CORES}-worker speedup (CI perf-smoke runs the "
            f"assertion on >= {PAR_MIN_CORES} cores)"
        )


def _measure(data: np.ndarray, chunk_size, workers) -> dict:
    config = CompressionConfig(
        predictor="lorenzo",
        error_bound=ERROR_BOUND,
        lossless="zstd_like",
        chunk_size=chunk_size,
    )
    sz = SZCompressor(workers=workers)
    start = time.perf_counter()
    result = sz.compress(data, config)
    compress_s = time.perf_counter() - start
    start = time.perf_counter()
    recon = sz.decompress(result.blob)
    decompress_s = time.perf_counter() - start
    assert np.max(np.abs(recon - data)) <= ERROR_BOUND * (1 + 1e-9)
    mb = data.nbytes / 1e6
    return {
        "compress_s": round(compress_s, 4),
        "decompress_s": round(decompress_s, 4),
        "compress_mb_s": round(mb / compress_s, 2),
        "decompress_mb_s": round(mb / decompress_s, 2),
        "ratio": round(result.ratio, 4),
    }


def _append_trajectory(entry: dict) -> None:
    trajectory = {"workload": {}, "runs": []}
    if os.path.exists(TRAJECTORY_PATH):
        with open(TRAJECTORY_PATH, "r", encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory["workload"] = {
        "shape": list(SHAPE),
        "error_bound": ERROR_BOUND,
        "predictor": "lorenzo",
        "lossless": "zstd_like",
    }
    trajectory.setdefault("runs", []).append(entry)
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _measure_tiled(data: np.ndarray, tmp_path) -> dict:
    """Tiled streaming: MB/s + subprocess peak RSS + 1% region decode."""
    from repro.cli import parse_region

    field_path = str(tmp_path / "field.npy")
    np.save(field_path, data)
    tiled_out = str(tmp_path / "tiled.rqsz")
    flat_out = str(tmp_path / "flat.rqsz")

    tiled = _run_rss_child(field_path, tiled_out, "tiled")
    flat = _run_rss_child(field_path, flat_out, "flat")

    mb = data.nbytes / 1e6
    tc = TiledCompressor(workers=4)
    start = time.perf_counter()
    recon = tc.decompress(tiled_out)
    decompress_s = time.perf_counter() - start
    assert np.max(np.abs(recon - data)) <= ERROR_BOUND * (1 + 1e-9)
    del recon

    start = time.perf_counter()
    roi = tc.decompress_region(tiled_out, parse_region(ROI))
    region_s = time.perf_counter() - start
    n_tiles = 1
    for n, t in zip(SHAPE, TILE_SHAPE):
        n_tiles *= (n + t - 1) // t

    return {
        "compress_s": round(tiled["compress_s"], 4),
        "decompress_s": round(decompress_s, 4),
        "compress_mb_s": round(mb / tiled["compress_s"], 2),
        "decompress_mb_s": round(mb / decompress_s, 2),
        "ratio": round(data.nbytes / tiled["compressed_bytes"], 4),
        "peak_rss_mb": round(tiled["peak_rss_mb"], 1),
        "flat_peak_rss_mb": round(flat["peak_rss_mb"], 1),
        "region": {
            "slab": ROI,
            "points": int(roi.size),
            "point_fraction": round(roi.size / data.size, 4),
            "decode_s": round(region_s, 4),
            "tiles_decoded": tc.last_tiles_decoded,
            "n_tiles": n_tiles,
        },
    }


def test_throughput(report, tmp_path):
    data = _field()
    measurements = {
        label: _measure(data, **params) for label, params in MODES.items()
    }
    measurements["v4_tiled_w4"] = tiled = _measure_tiled(data, tmp_path)
    measurements["v5_adaptive"] = adaptive = _measure_adaptive()
    rows = [
        (
            label,
            m["compress_s"],
            m["compress_mb_s"],
            m["decompress_s"],
            m["decompress_mb_s"],
            m["ratio"],
        )
        for label, m in measurements.items()
    ]
    measurements["serve_latency"] = serving = _measure_serving(tmp_path)
    report(
        format_table(
            [
                "mode",
                "comp s",
                "comp MB/s",
                "decomp s",
                "decomp MB/s",
                "ratio",
            ],
            rows,
            float_spec=".2f",
            title=(
                "Codec throughput (4M-point 3-D field, abs 1e-2, "
                "lorenzo + zstd_like).\nSeed baseline: 14.4 s compress / "
                "3.5 s decompress (~2.3 MB/s)."
            ),
        )
    )
    _append_trajectory(
        {
            "date": time.strftime("%Y-%m-%d %H:%M:%S"),
            "modes": measurements,
        }
    )

    # ratio parity between layouts, and both directions clearly faster
    # than the seed baseline (generous margins for noisy CI machines)
    v2, v3 = measurements["v2_single"], measurements["v3_chunked"]
    assert v3["ratio"] >= 0.95 * v2["ratio"]
    assert v3["compress_mb_s"] >= 5 * 2.3
    assert v3["decompress_mb_s"] >= 5 * 9.6  # seed: 33.5 MB / 3.5 s

    # tiled streaming: near ratio parity (per-tile headers cost a
    # little), bounded memory, and ROI decode touching few tiles
    assert tiled["ratio"] >= 0.90 * v2["ratio"]
    region = tiled["region"]
    assert region["tiles_decoded"] < region["n_tiles"] / 2
    assert region["point_fraction"] <= 0.011
    # the streamed path must stay well under the materialize-everything
    # footprint (whole array + codes + payloads in the flat pipeline)
    assert tiled["peak_rss_mb"] < 0.75 * tiled["flat_peak_rss_mb"]

    report(
        "v5_adaptive equal-PSNR comparison "
        f"(PSNR {adaptive['psnr']} dB): adaptive {adaptive['bytes']} B "
        f"vs best uniform "
        f"{min(m['bytes'] for m in adaptive['uniform_equal_psnr'].values())}"
        f" B -> gain {adaptive['equal_psnr_gain']}x whole file, "
        f"{adaptive['equal_psnr_stage_gain']}x stage bytes "
        f"(predictors {adaptive['predictor_counts']})"
    )

    # serving (acceptance criterion): on the 16-tile halo workload the
    # decoded-tile cache must make warm region reads >= 3x faster at
    # the median than cold ones, with real cache traffic behind it
    report(
        "serve_latency (16-tile halo field over HTTP): "
        f"cold p50 {serving['cold_p50_ms']} ms / "
        f"p99 {serving['cold_p99_ms']} ms, "
        f"warm p50 {serving['warm_p50_ms']} ms / "
        f"p99 {serving['warm_p99_ms']} ms "
        f"(speedup {serving['warm_speedup_p50']}x), "
        f"{serving['qps']} QPS with {SERVE_THREADS} threads, "
        f"cache hit rate {serving['cache']['hit_rate']}"
    )
    assert serving["warm_speedup_p50"] >= SERVE_MIN_WARM_SPEEDUP
    assert serving["cache"]["hits"] > 0
    assert serving["qps"] > 0

    # adaptive per-tile configuration (acceptance criterion): on the
    # heterogeneous halo field the adaptive container must spend >= 5%
    # fewer bytes than the best uniform config at equal measured PSNR.
    # Checked last and, while it is known not to hold (module
    # docstring), reported as an expected failure: everything above ran
    if adaptive["equal_psnr_gain"] < ADAPTIVE_MIN_GAIN:
        import pytest

        pytest.xfail(
            f"equal_psnr_gain {adaptive['equal_psnr_gain']} < "
            f"{ADAPTIVE_MIN_GAIN}: the plan's records outweigh its "
            f"{adaptive['equal_psnr_stage_gain']}x of stage bytes"
        )
