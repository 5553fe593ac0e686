"""The ledger's metric names: units, directions, regression bounds.

``BENCHMARK.json`` at the repository root lists exactly these names
(``test_ledger.py`` holds the two together).  Every workload reports
every metric: end-to-end ones from the untraced run, per-layer ones
from the traced run.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "unit_of", "better_of"]

#: Bounds: how much worse a later change may make a metric.  Each is
#: about three times the spread (IQR / median) that ten runs of
#: unchanged code on ten seeds showed on this shared 2-vCPU box, for
#: the workload where the metric is least steady — and 0.25 is the most
#: the benchmark contract allows.
_TIMING = 0.25

#: (name, unit, better, bound) — what a user of the system sees
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("compress_mb_s", "MB/s", "higher", _TIMING),
    ("decompress_mb_s", "MB/s", "higher", _TIMING),
    ("region_decode_ms", "ms", "lower", _TIMING),
    # exact for one seed: what is left is how much seeded inputs differ
    ("compression_ratio", "x", "higher", 0.08),
    ("psnr_db", "dB", "higher", 0.04),
    ("model_ratio_accuracy", "fraction", "higher", 0.10),
    ("put_p50_ms", "ms", "lower", _TIMING),
    ("ingest_mb_s", "MB/s", "higher", _TIMING),
    ("read_p50_ms", "ms", "lower", _TIMING),
    ("peak_rss_mb", "MB", "lower", 0.08),
]

#: (name, unit, better) — one layer each; layers are module names
PER_LAYER = [
    # compressor.tiled: the parent spans and their normalisations
    ("compressor.tiled.compress_s", "s", "lower"),
    ("compressor.tiled.decompress_s", "s", "lower"),
    ("compressor.tiled.decompress_region_s", "s", "lower"),
    ("compressor.tiled.tiles_encoded", "count", "lower"),
    ("compressor.tiled.tiles_decoded", "count", "lower"),
    ("compressor.tiled.region_tiles_decoded", "count", "lower"),
    ("compressor.tiled.encode_ms_per_tile", "ms", "lower"),
    ("compressor.tiled.decode_ms_per_tile", "ms", "lower"),
    ("compressor.tiled.encode_s_per_mb", "s/MB", "lower"),
    ("compressor.tiled.decode_s_per_mb", "s/MB", "lower"),
    ("compressor.tiled.unaccounted_frac", "fraction", "lower"),
    # self times of the stages under the codec operations, per round
    ("compressor.predictors.decompose_s", "s", "lower"),
    ("compressor.predictors.reconstruct_s", "s", "lower"),
    ("compressor.encoders.huffman.plan_s", "s", "lower"),
    ("compressor.encoders.huffman.code_lengths_s", "s", "lower"),
    ("compressor.encoders.huffman.encode_s", "s", "lower"),
    ("compressor.encoders.huffman.decode_s", "s", "lower"),
    ("compressor.encoders.huffman.plans_per_tile", "count", "lower"),
    ("compressor.encoders.lossless.compress_s", "s", "lower"),
    ("compressor.encoders.lossless.decompress_s", "s", "lower"),
    ("compressor.encoders.lossless.bytes_in", "bytes", "lower"),
    ("compressor.encoders.lossless.bytes_out", "bytes", "lower"),
    ("compressor.integrity.checksum_s", "s", "lower"),
    ("compressor.container.write_s", "s", "lower"),
    ("compressor.container.open_s", "s", "lower"),
    ("compressor.container.read_tile_s", "s", "lower"),
    ("compressor.container.container_bytes", "bytes", "lower"),
    # the ratio-quality model the paper is about
    ("core.model.fit_s", "s", "lower"),
    ("core.model.estimate_s", "s", "lower"),
    ("core.model.fits", "count", "lower"),
    ("core.model.cost_vs_compress", "fraction", "lower"),
    # adaptive planning of this workload's field (a probe unless the
    # workload itself compresses adaptively)
    ("core.sampling.batch_tile_stats_s", "s", "lower"),
    ("core.optimizer.allocate_s", "s", "lower"),
    ("compressor.adaptive.plan_s", "s", "lower"),
    ("compressor.adaptive.clusters", "count", "lower"),
    ("compressor.adaptive.fits_performed", "count", "lower"),
    ("compressor.plan_cache.replay_plan_s", "s", "lower"),
    ("compressor.plan_cache.hits", "count", "higher"),
    ("compressor.plan_cache.cached_compress_mb_s", "MB/s", "higher"),
    # temporal delta of this workload's next time step (a probe)
    ("compressor.temporal.compress_snapshot_s", "s", "lower"),
    ("compressor.temporal.temporal_tiles", "count", "higher"),
    ("compressor.temporal.spatial_tiles", "count", "lower"),
    # the service, replayed in-process against a copy of the store
    ("service.store.read_region_ms", "ms", "lower"),
    ("service.store.read_range_ms", "ms", "lower"),
    ("service.store.put_ms", "ms", "lower"),
    ("service.store.put_overhead_ms", "ms", "lower"),
    ("service.store.manifest_bytes", "bytes", "lower"),
    ("service.cache.hit_rate", "fraction", "higher"),
    ("service.cache.hits", "count", "higher"),
    ("service.cache.misses", "count", "lower"),
    ("service.cache.evictions", "count", "lower"),
    ("service.cache.coalesced", "count", "lower"),
    ("service.cache.get_or_load_hit_us", "us", "lower"),
    # client + server, by subtraction from the in-process replay
    ("service.http.read_self_ms", "ms", "lower"),
    ("service.http.put_self_ms", "ms", "lower"),
    # reads / summed read time of a round: a mean, so one stalled read
    # in twenty moves it — it did not repeat well enough to carry a bound
    ("service.client.read_qps", "1/s", "higher"),
    ("service.client.read_tail_ms", "ms", "lower"),
    ("service.client.read_tail_pct", "%", "higher"),
    ("service.client.read_range_ms", "ms", "lower"),
    ("service.server.tiles_touched_per_read", "count", "lower"),
    ("service.server.bytes_per_read", "bytes", "lower"),
    ("trace_overhead_frac", "fraction", "lower"),
]

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
_BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}


def unit_of(name: str) -> str:
    return _UNITS[name]


def better_of(name: str) -> str:
    return _BETTER[name]
