"""The traced run: which calls become spans, and what they add up to.

Per-layer numbers are *self times* unless named a parent span: a
stage's span minus what its child spans cover, so the stages under one
operation sum to it and ``unaccounted_frac`` is what no child claimed.

Three sources feed the metrics of one workload:

* the workload's own rounds, alternately untraced and traced (the
  difference is ``trace_overhead_frac``);
* a replay of every round's requests, in-process, against an
  ``ArrayStore`` on a copy of the served directory — same sequence,
  same cache budget — which gives the service's layers without HTTP
  and, by subtraction, HTTP without the service;
* probes of the layers this workload's operations never enter
  (adaptive planning, plan-cache replay, temporal delta), run on the
  workload's own field, so every layer is costed on every input.

Count-type metrics come from one fixed round (or a fixed number of
rounds), never from however many rounds fitted in the time budget, so
they repeat exactly for one seed.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from calibrate import SpeedMeter
from spans import Span, instrument, roots, self_times, tail_percentile
from workloads import Scenario

from repro.compressor import TemporalCompressor, TiledCompressor
from repro.compressor import adaptive, container
from repro.compressor.adaptive import AdaptivePlanner
from repro.compressor.container import TiledReader, TiledWriter
from repro.compressor.encoders import huffman
from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.encoders.lossless import LosslessBackend
from repro.compressor.stages import PredictorStage
from repro.core.model import RatioQualityModel
from repro.core.optimizer import PartitionOptimizer
from repro.service.cache import TileLRUCache
from repro.service.store import ArrayStore

__all__ = ["TARGETS", "traced_run", "layer_metrics"]

#: the round whose counts are reported: the first traced one
COUNT_ROUND = 1
#: rounds of cache traffic behind the reported cache counters
CACHE_ROUNDS = 2

_CODEC_ROOTS = {
    "ledger.compress",
    "ledger.decompress",
    "ledger.decompress_region",
    "ledger.model",
}


def _bytes_in_out(args: tuple, result: bytes) -> tuple[int, int]:
    return len(args[1]), len(result)


#: (owner, attribute, span name[, work]) — every layer boundary the
#: ledger can reach through a public name
TARGETS = [
    (TiledCompressor, "compress", "compressor.tiled.compress"),
    (TiledCompressor, "decompress", "compressor.tiled.decompress"),
    (TiledCompressor, "decompress_region", "compressor.tiled.decompress_region"),
    (PredictorStage, "decompose", "compressor.predictors.decompose"),
    (PredictorStage, "reconstruct", "compressor.predictors.reconstruct"),
    (HuffmanEncoder, "plan", "compressor.encoders.huffman.plan"),
    (huffman, "huffman_code_lengths", "compressor.encoders.huffman.code_lengths"),
    (HuffmanEncoder, "encode", "compressor.encoders.huffman.encode"),
    (HuffmanEncoder, "decode", "compressor.encoders.huffman.decode"),
    (LosslessBackend, "compress", "compressor.encoders.lossless.compress", _bytes_in_out),
    (LosslessBackend, "decompress", "compressor.encoders.lossless.decompress"),
    # container.py binds these two by name at import
    (container, "checksum", "compressor.integrity.checksum"),
    (container, "checksum_named", "compressor.integrity.checksum"),
    (TiledWriter, "add_tile", "compressor.container.add_tile"),
    (TiledWriter, "finish", "compressor.container.finish"),
    (TiledReader, "__init__", "compressor.container.open"),
    (TiledReader, "read_tile", "compressor.container.read_tile"),
    (AdaptivePlanner, "plan", "compressor.adaptive.plan"),
    (adaptive, "batch_tile_stats", "core.sampling.batch_tile_stats"),
    (RatioQualityModel, "fit", "core.model.fit"),
    (RatioQualityModel, "estimate", "core.model.estimate"),
    (PartitionOptimizer, "from_tables", "core.optimizer.allocate"),
    (PartitionOptimizer, "uniform_plan", "core.optimizer.allocate"),
    (PartitionOptimizer, "minimize_bits_for_psnr", "core.optimizer.allocate"),
    (TemporalCompressor, "compress_snapshot", "compressor.temporal.compress_snapshot"),
    (ArrayStore, "create", "service.store.create"),
    (ArrayStore, "put_snapshot", "service.store.put_snapshot"),
    (ArrayStore, "read_region", "service.store.read_region"),
    (ArrayStore, "read_range", "service.store.read_range"),
    (TileLRUCache, "get_or_load", "service.cache.get_or_load"),
]


def traced_run(scenario: Scenario, seconds: float, min_rounds: int) -> dict:
    """Rounds, replay and probes of one workload; returns the raw facts.

    The scenario must carry a tracer.  Rounds alternate untraced and
    traced, starting untraced, for *seconds* (at least *min_rounds*).
    """
    tracer = scenario.tracer
    scenario.start()
    scenario.load_reference()
    store_copy = os.path.join(scenario.scratch, "replay-store")
    shutil.copytree(scenario.store_dir, store_copy)

    rounds: list[dict | None] = []
    cache_stats = None
    deadline = perf_counter() + seconds
    while len(rounds) < min_rounds or perf_counter() < deadline:
        index = len(rounds)
        scenario.tracing = index % 2 == 1
        with (
            instrument(tracer, TARGETS)
            if scenario.tracing
            else contextlib.nullcontext()
        ):
            rounds.append(scenario.round(index))
        if len(rounds) == CACHE_ROUNDS:
            cache_stats = scenario.client.cache_stats()
    manifest_bytes = os.path.getsize(
        os.path.join(scenario.store_dir, "store.json")
    )

    scenario.tracing = True
    with instrument(tracer, TARGETS):
        local = scenario.local_service(store_copy)
        replays = [
            scenario.round(index, service=local, codec=False)
            for index in range(len(rounds))
        ]
        local.store.close()
        meter = SpeedMeter()
        meter.sample()
        probes = scenario.probe_adaptive()
        meter.sample()
        probes.update(scenario.probe_temporal())
        meter.sample()
    scenario.tracing = False
    shutil.rmtree(store_copy, ignore_errors=True)
    cache_hit_us = _cache_hit_us(scenario)
    meter.sample()
    return {
        "rounds": rounds,
        "replays": replays,
        "cache_stats": cache_stats,
        "manifest_bytes": manifest_bytes,
        "probes": probes,
        "probe_slowdown": meter.client,
        "cache_hit_us": cache_hit_us / meter.client,
    }


def _cache_hit_us(scenario: Scenario, calls: int = 2000) -> float:
    """Median cost of a ``get_or_load`` that hits, untraced."""
    cache = TileLRUCache(byte_budget=int(scenario.spec.cache_mb * (1 << 20)))
    tile = np.zeros(
        tuple(min(t, 8) for t in scenario.spec.tile), dtype=np.float32
    )
    key = ("main", 1, 0, 0)
    cache.put(key, tile)
    samples = []
    for _ in range(calls):
        started = perf_counter()
        cache.get_or_load(key, lambda: tile)
        samples.append(perf_counter() - started)
    return statistics.median(samples) * 1e6


def layer_metrics(scenario: Scenario, facts: dict, spans: list[Span]) -> dict:
    """Every per-layer metric of one traced run, by name.

    Timings are at reference speed, like the end-to-end ones: every
    span is divided by the slowdown of the round (or replayed round, or
    probe block) it belongs to.
    """
    rounds = facts["rounds"]
    complete = [(i, v) for i, v in enumerate(rounds) if v is not None]
    traced = [i for i, _ in complete if i % 2 == 1]
    if not traced or len(traced) == len(complete):
        raise RuntimeError("need one untraced and one traced complete round")
    count_values = rounds[COUNT_ROUND]
    if count_values is None or None in facts["replays"]:
        raise RuntimeError("a counted or replayed round did not complete")

    slow = {"probe": facts["probe_slowdown"]}
    slow.update({f"round{i}": v["slowdown"] for i, v in complete})
    slow.update(
        {f"replay{i}": v["slowdown"] for i, v in enumerate(facts["replays"])}
    )
    spans = [
        span._replace(
            start=span.start / slow.get(span.op_id, 1.0),
            end=span.end / slow.get(span.op_id, 1.0),
        )
        for span in spans
    ]
    own = self_times(spans)
    root = roots(spans)

    # self time and call count per (round, stage) under the codec roots
    stage_s: dict = defaultdict(lambda: defaultdict(float))
    stage_n: dict = defaultdict(lambda: defaultdict(int))
    lossless_bytes = [0, 0]
    for index, span in enumerate(spans):
        if spans[root[index]].name not in _CODEC_ROOTS:
            continue
        stage_s[span.op_id][span.name] += own[index]
        stage_n[span.op_id][span.name] += 1
        if span.work is not None and span.op_id == f"round{COUNT_ROUND}":
            lossless_bytes[0] += span.work[0]
            lossless_bytes[1] += span.work[1]

    def per_round(*names: str) -> float:
        """Median over traced rounds of the summed self time."""
        return statistics.median(
            sum(stage_s[f"round{i}"][name] for name in names) for i in traced
        )

    def durations(name: str, under: str) -> list[float]:
        """Durations of *name* spans whose outermost span is *under*."""
        return [
            span.duration
            for index, span in enumerate(spans)
            if span.name == name and spans[root[index]].name == under
        ]

    counts = stage_n[f"round{COUNT_ROUND}"]
    compress_s = statistics.median(
        durations("compressor.tiled.compress", "ledger.compress")
    )
    decompress_s = statistics.median(
        durations("compressor.tiled.decompress", "ledger.decompress")
    )
    region_s = statistics.median(
        durations("compressor.tiled.decompress_region", "ledger.decompress_region")
    )
    unaccounted = statistics.median(
        own[index] / span.duration
        for index, span in enumerate(spans)
        if span.name == "compressor.tiled.compress"
        and spans[root[index]].name == "ledger.compress"
    )
    tiles_encoded = counts["compressor.container.add_tile"]
    tiles_decoded = count_values["tiles_decoded"]
    model_s = statistics.median(durations("ledger.model", "ledger.model"))

    # the service: in-process replay against HTTP, same requests
    def replayed(name: str, client_op: str) -> list[int]:
        """Replay spans *name* called directly by the *client_op* root."""
        return [
            index
            for index, span in enumerate(spans)
            if span.name == name
            and (span.op_id or "").startswith("replay")
            and span.parent >= 0
            and spans[span.parent].name == client_op
        ]

    store_reads = replayed("service.store.read_region", "service.client.read_region")
    store_ranges = replayed("service.store.read_range", "service.client.read_range")
    store_puts = replayed(
        "service.store.create", "service.client.put"
    ) + replayed("service.store.put_snapshot", "service.client.put_snapshot")
    put_names = {"service.store.create", "service.store.put_snapshot"}
    overhead = defaultdict(float)
    for index, span in enumerate(spans):
        if span.name in put_names and (span.op_id or "").startswith("replay"):
            overhead[root[index]] += own[index]

    def ms(indices: list[int]) -> float:
        return statistics.median(spans[i].duration for i in indices) * 1e3

    http_reads = [x * 1e3 for _, v in complete for x in v["reads_s"]]
    http_puts = [x * 1e3 for _, v in complete for x in v["puts_s"]]
    tail_pct, tail_ms = tail_percentile(http_reads)
    cache = facts["cache_stats"]
    probes = facts["probes"]
    untraced_s = statistics.median(
        v["round_s"] for i, v in complete if i % 2 == 0
    )
    traced_s = statistics.median(
        v["round_s"] for i, v in complete if i % 2 == 1
    )
    raw_mb = scenario.raw_mb

    def probe_span(name: str, under: str) -> float:
        (duration,) = durations(name, under)  # a probe runs once
        return duration

    def probe_self(name: str, under: str) -> float:
        return sum(
            own[index]
            for index, span in enumerate(spans)
            if span.name == name and spans[root[index]].name == under
        )

    return {
        "compressor.tiled.compress_s": compress_s,
        "compressor.tiled.decompress_s": decompress_s,
        "compressor.tiled.decompress_region_s": region_s,
        "compressor.tiled.tiles_encoded": tiles_encoded,
        "compressor.tiled.tiles_decoded": tiles_decoded,
        "compressor.tiled.region_tiles_decoded": count_values["region_tiles_decoded"],
        "compressor.tiled.encode_ms_per_tile": compress_s / tiles_encoded * 1e3,
        "compressor.tiled.decode_ms_per_tile": decompress_s / tiles_decoded * 1e3,
        "compressor.tiled.encode_s_per_mb": compress_s / raw_mb,
        "compressor.tiled.decode_s_per_mb": decompress_s / raw_mb,
        "compressor.tiled.unaccounted_frac": unaccounted,
        "compressor.predictors.decompose_s": per_round("compressor.predictors.decompose"),
        "compressor.predictors.reconstruct_s": per_round("compressor.predictors.reconstruct"),
        "compressor.encoders.huffman.plan_s": per_round("compressor.encoders.huffman.plan"),
        "compressor.encoders.huffman.code_lengths_s": per_round("compressor.encoders.huffman.code_lengths"),
        "compressor.encoders.huffman.encode_s": per_round("compressor.encoders.huffman.encode"),
        "compressor.encoders.huffman.decode_s": per_round("compressor.encoders.huffman.decode"),
        "compressor.encoders.huffman.plans_per_tile": counts["compressor.encoders.huffman.plan"] / tiles_encoded,
        "compressor.encoders.lossless.compress_s": per_round("compressor.encoders.lossless.compress"),
        "compressor.encoders.lossless.decompress_s": per_round("compressor.encoders.lossless.decompress"),
        "compressor.encoders.lossless.bytes_in": lossless_bytes[0],
        "compressor.encoders.lossless.bytes_out": lossless_bytes[1],
        "compressor.integrity.checksum_s": per_round("compressor.integrity.checksum"),
        "compressor.container.write_s": per_round(
            "compressor.container.add_tile", "compressor.container.finish"
        ),
        "compressor.container.open_s": per_round("compressor.container.open"),
        "compressor.container.read_tile_s": per_round("compressor.container.read_tile"),
        "compressor.container.container_bytes": count_values["container_bytes"],
        "core.model.fit_s": per_round("core.model.fit"),
        "core.model.estimate_s": per_round("core.model.estimate"),
        "core.model.fits": counts["core.model.fit"],
        "core.model.cost_vs_compress": model_s / compress_s,
        "core.sampling.batch_tile_stats_s": probe_self(
            "core.sampling.batch_tile_stats", "probe.adaptive_fresh"
        ),
        "core.optimizer.allocate_s": probe_self(
            "core.optimizer.allocate", "probe.adaptive_fresh"
        ),
        "compressor.adaptive.plan_s": probe_span(
            "compressor.adaptive.plan", "probe.adaptive_fresh"
        ),
        "compressor.adaptive.clusters": probes["clusters"],
        "compressor.adaptive.fits_performed": probes["fits_performed"],
        "compressor.plan_cache.replay_plan_s": probe_span(
            "compressor.adaptive.plan", "probe.adaptive_cached"
        ),
        "compressor.plan_cache.hits": probes["hits"],
        "compressor.plan_cache.cached_compress_mb_s": (
            probes["cached_compress_mb_s"] * facts["probe_slowdown"]
        ),
        "compressor.temporal.compress_snapshot_s": probe_span(
            "compressor.temporal.compress_snapshot", "probe.temporal"
        ),
        "compressor.temporal.temporal_tiles": probes["temporal_tiles"],
        "compressor.temporal.spatial_tiles": probes["spatial_tiles"],
        "service.store.read_region_ms": ms(store_reads),
        "service.store.read_range_ms": ms(store_ranges),
        "service.store.put_ms": ms(store_puts),
        "service.store.put_overhead_ms": statistics.median(overhead.values()) * 1e3,
        "service.store.manifest_bytes": facts["manifest_bytes"],
        "service.cache.hit_rate": cache["hit_rate"],
        "service.cache.hits": cache["hits"],
        "service.cache.misses": cache["misses"],
        "service.cache.evictions": cache["evictions"],
        "service.cache.coalesced": cache["coalesced"],
        "service.cache.get_or_load_hit_us": facts["cache_hit_us"],
        "service.http.read_self_ms": statistics.median(http_reads) - ms(store_reads),
        "service.http.put_self_ms": statistics.median(http_puts) - ms(store_puts),
        "service.client.read_qps": statistics.median(
            len(v["reads_s"]) / sum(v["reads_s"]) for _, v in complete
        ),
        "service.client.read_tail_ms": tail_ms,
        "service.client.read_tail_pct": tail_pct,
        "service.client.read_range_ms": statistics.median(
            v["read_range_s"] * 1e3 for _, v in complete
        ),
        "service.server.tiles_touched_per_read": statistics.mean(
            count_values["tiles_touched"]
        ),
        "service.server.bytes_per_read": count_values["bytes_per_read"],
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
    }
