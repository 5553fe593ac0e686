"""Adaptive planner fit reuse + cross-snapshot plan cache.

Covers the vectorized planning pipeline around the codec itself: plan
determinism across execution backends, cluster/fit accounting, the
drift-refit guard, and every :class:`PlannerCache` path — hit, miss,
drift fallback, corrupt files and structurally invalid entries.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.metrics import psnr
from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    PlannerCache,
    TiledCompressor,
)
from repro.compressor.adaptive import AdaptivePlan, AdaptivePlanner
from repro.compressor.inspect import describe_container
from repro.compressor.plan_cache import (
    fingerprint_drift,
    planner_config_hash,
    stats_fingerprint,
)
from repro.compressor.tiled_geometry import iter_tiles
from repro.core.sampling import batch_tile_stats
from repro.datasets.generators import gaussian_random_field


def halo_field(shape=(128, 128), noise=2.0, seed=0):
    """Clustered test field: smooth halo + oscillation + noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    cy, cx = shape[0] / 2, shape[1] / 2
    return (
        40.0 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 20.0**2))
        + 8.0 * np.sin(xx / 9.0) * np.cos(yy / 13.0)
        + rng.normal(0.0, noise, shape)
    )


CONFIG = CompressionConfig(
    error_bound=1.0, tile_shape=(32, 32), adaptive=True
)


def strip_stats(plan: AdaptivePlan) -> AdaptivePlan:
    return replace(plan, stats=None)


class TestPlanDeterminism:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_same_plan_on_every_backend(self, backend):
        data = halo_field()
        serial = TiledCompressor(backend="serial").compress(data, CONFIG)
        other = TiledCompressor(workers=3, backend=backend).compress(
            data, CONFIG
        )
        # identical choices AND identical deterministic counters;
        # plan_seconds is excluded from PlanStats equality
        assert strip_stats(serial.plan) == strip_stats(other.plan)
        assert serial.plan.stats == other.plan.stats
        assert serial.blob == other.blob

    def test_repeat_plan_is_identical(self):
        data = halo_field()
        planner = AdaptivePlanner()
        p1 = planner.plan(data, CONFIG, (32, 32))
        p2 = planner.plan(data, CONFIG, (32, 32))
        assert p1 == p2


class TestClustering:
    def test_clustering_shares_fits(self):
        plan = AdaptivePlanner().plan(halo_field(), CONFIG, (32, 32))
        stats = plan.stats
        assert stats.tiles_planned == 16
        assert stats.fits_performed < stats.tiles_planned
        assert 0 < stats.clusters <= stats.fits_performed

    def test_fit_clusters_zero_fits_every_tile(self):
        config = replace(CONFIG, fit_clusters=0)
        plan = AdaptivePlanner().plan(halo_field(), config, (32, 32))
        assert plan.stats.fits_performed == plan.stats.tiles_modeled
        assert plan.stats.clusters == plan.stats.tiles_modeled

    def test_clustered_plan_matches_per_tile_plan(self):
        """Sharing fits must not change the planned choices here."""
        data = halo_field()
        planner = AdaptivePlanner()
        clustered = planner.plan(data, CONFIG, (32, 32))
        per_tile = planner.plan(
            data, replace(CONFIG, fit_clusters=0), (32, 32)
        )
        assert [c.to_json() for c in clustered.choices] == [
            c.to_json() for c in per_tile.choices
        ]

    def test_population_structured_field_shares_fits_four_to_one(self):
        """64 tiles in four homogeneous quadrants (quiet, mild,
        turbulent, oscillatory) — the regime clustering is for: at
        least four tiles a fit, at <= 2 % of the bytes and 0.15 dB of
        what a fit per tile reaches."""
        rng = np.random.default_rng(7)
        data = 10.0 * gaussian_random_field((256, 256), slope=4.0, seed=7)
        data[:128, :128] += rng.normal(0, 0.2, (128, 128))
        data[:128, 128:] += rng.normal(0, 1.5, (128, 128))
        data[128:, :128] += rng.normal(0, 6.0, (128, 128))
        data[128:, 128:] += 4.0 * np.outer(
            np.cos(np.arange(128) * 0.7), np.sin(np.arange(128) * 0.9)
        )
        data = data.astype(np.float32)
        config = replace(CONFIG, error_bound=0.5)
        tc = TiledCompressor()
        clustered = tc.compress(data, config)
        per_tile = tc.compress(data, replace(config, fit_clusters=0))
        stats = clustered.plan.stats
        assert stats.tiles_planned >= 4 * stats.fits_performed
        assert clustered.compressed_bytes <= 1.02 * per_tile.compressed_bytes
        assert psnr(data, tc.decompress(clustered.blob)) == pytest.approx(
            psnr(data, tc.decompress(per_tile.blob)), abs=0.15
        )

    def test_refit_guard_triggers_on_forced_single_cluster(self):
        """Tiles whose quantization behaviour deviates get own fits."""
        rng = np.random.default_rng(1)
        data = np.zeros((128, 128))
        # left half lands exactly on the 2*eb lattice (zero residual),
        # right half is continuous (saturating residual): no shared fit
        # can represent both
        data[:, :64] = 2.0 * np.round(rng.normal(0, 5, (128, 64)))
        data[:, 64:] = rng.uniform(-10.0, 10.0, (128, 64))
        config = replace(CONFIG, fit_clusters=1)
        plan = AdaptivePlanner().plan(data, config, (32, 32))
        assert plan.stats.refits > 0
        assert (
            plan.stats.fits_performed
            == plan.stats.clusters + plan.stats.refits
        )

    def test_planner_validates_parameters(self):
        with pytest.raises(ValueError):
            AdaptivePlanner(fit_clusters=-1)
        with pytest.raises(ValueError):
            AdaptivePlanner(refit_tolerance=-0.1)


class TestPlanPayload:
    def test_payload_round_trip(self):
        plan = AdaptivePlanner().plan(halo_field(), CONFIG, (32, 32))
        back = AdaptivePlan.from_payload(
            json.loads(json.dumps(plan.to_payload()))
        )
        assert back == strip_stats(plan)

    def test_payload_maps_non_finite_to_null(self):
        """Fallback tiles carry NaN estimates; JSON must stay strict."""
        data = np.arange(6.0).reshape(2, 3)  # tiles below MIN_PLAN_POINTS
        plan = AdaptivePlanner().plan(
            data, replace(CONFIG, tile_shape=(2, 2)), (2, 2)
        )
        blob = json.dumps(plan.to_payload())
        json.loads(blob)  # strict RFC-8259, no NaN/Infinity tokens
        assert "NaN" not in blob and "Infinity" not in blob


class TestPlannerCache:
    def test_hit_miss_drift_accounting(self):
        data = halo_field()
        cache = PlannerCache()
        planner = AdaptivePlanner(cache=cache)
        p1 = planner.plan(data, CONFIG, (32, 32), dataset="halo")
        assert p1.stats.cache == "miss"
        p2 = planner.plan(data, CONFIG, (32, 32), dataset="halo")
        assert p2.stats.cache == "hit"
        assert p2.stats.fits_performed == 0
        assert [c.to_json() for c in p2.choices] == [
            c.to_json() for c in p1.choices
        ]
        # a near snapshot (in-tolerance noise) still hits
        near = data + np.random.default_rng(7).normal(0, 0.2, data.shape)
        p3 = planner.plan(near, CONFIG, (32, 32), dataset="halo")
        assert p3.stats.cache == "hit"
        # a drifted snapshot falls back to a fresh plan
        far = data * 3.0 + 50.0
        p4 = planner.plan(far, CONFIG, (32, 32), dataset="halo")
        assert p4.stats.cache == "drift"
        assert p4.stats.fits_performed > 0
        assert cache.counters == {
            "hits": 2,
            "misses": 1,
            "drifts": 1,
            "rejected": 0,
        }

    def test_drift_replan_refreshes_entry(self):
        data = halo_field()
        cache = PlannerCache()
        planner = AdaptivePlanner(cache=cache)
        planner.plan(data, CONFIG, (32, 32), dataset="halo")
        far = data * 3.0 + 50.0
        planner.plan(far, CONFIG, (32, 32), dataset="halo")
        # the refreshed entry serves the *new* snapshot statistics
        p = planner.plan(far, CONFIG, (32, 32), dataset="halo")
        assert p.stats.cache == "hit"

    def test_config_change_misses(self):
        data = halo_field()
        cache = PlannerCache()
        planner = AdaptivePlanner(cache=cache)
        planner.plan(data, CONFIG, (32, 32), dataset="halo")
        other = replace(CONFIG, error_bound=0.5)
        p = planner.plan(data, other, (32, 32), dataset="halo")
        assert p.stats.cache == "miss"

    def test_separate_datasets_do_not_collide(self):
        data = halo_field()
        cache = PlannerCache()
        planner = AdaptivePlanner(cache=cache)
        planner.plan(data, CONFIG, (32, 32), dataset="a")
        p = planner.plan(data, CONFIG, (32, 32), dataset="b")
        assert p.stats.cache == "miss"
        assert len(cache) == 2

    def test_file_backed_round_trip(self, tmp_path):
        path = tmp_path / "plans.json"
        data = halo_field()
        c1 = PlannerCache(path=path)
        AdaptivePlanner(cache=c1).plan(
            data, CONFIG, (32, 32), dataset="halo"
        )
        assert path.exists()
        c2 = PlannerCache(path=path)
        p = AdaptivePlanner(cache=c2).plan(
            data, CONFIG, (32, 32), dataset="halo"
        )
        assert p.stats.cache == "hit"

    def test_at_path_shares_one_instance(self, tmp_path):
        path = tmp_path / "plans.json"
        assert PlannerCache.at_path(path) is PlannerCache.at_path(path)

    def test_corrupt_cache_file_starts_empty(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{ not json !!")
        cache = PlannerCache(path=path)
        assert len(cache) == 0
        assert cache.counters["rejected"] == 1
        # and the cache still works end to end
        data = halo_field()
        planner = AdaptivePlanner(cache=cache)
        planner.plan(data, CONFIG, (32, 32), dataset="halo")
        p = planner.plan(data, CONFIG, (32, 32), dataset="halo")
        assert p.stats.cache == "hit"

    def test_structurally_invalid_entry_is_dropped(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-plan-cache-v1",
                    "entries": {"halo": {"config_hash": "x"}},
                }
            )
        )
        cache = PlannerCache(path=path)
        assert len(cache) == 0
        assert cache.counters["rejected"] == 1

    def test_corrupt_plan_payload_falls_back_to_fresh(self):
        """An entry whose plan cannot be rebuilt is rejected, not fatal."""
        data = halo_field()
        cache = PlannerCache()
        planner = AdaptivePlanner(cache=cache)
        planner.plan(data, CONFIG, (32, 32), dataset="halo")
        with cache._lock:
            cache._entries["halo"]["plan"]["choices"][0]["error_bound"] = -1
        p = planner.plan(data, CONFIG, (32, 32), dataset="halo")
        assert p.stats.cache == "miss"
        assert p.stats.fits_performed > 0
        assert cache.counters["rejected"] == 1

    def test_fingerprint_drift_metric(self):
        data = halo_field()
        extents = list(iter_tiles(data.shape, (32, 32)))
        fp = stats_fingerprint(batch_tile_stats(data, extents))
        assert fingerprint_drift(fp, fp) == 0.0
        shifted = stats_fingerprint(
            batch_tile_stats(data + 0.5, extents)
        )
        assert 0.0 < fingerprint_drift(fp, shifted) < 0.1
        assert fingerprint_drift(fp, {"version": 99}) == float("inf")

    def test_config_hash_covers_planner_knobs(self):
        planner = AdaptivePlanner()
        base = planner_config_hash(CONFIG, planner)
        assert planner_config_hash(CONFIG, planner) == base
        assert (
            planner_config_hash(
                replace(CONFIG, error_bound=2.0), planner
            )
            != base
        )
        assert (
            planner_config_hash(
                replace(CONFIG, fit_clusters=2), planner
            )
            != base
        )
        assert (
            planner_config_hash(CONFIG, AdaptivePlanner(seed=9)) != base
        )


class TestCompressorIntegration:
    def test_header_records_planner_stats(self):
        result = TiledCompressor().compress(halo_field(), CONFIG)
        header = describe_container(result.blob)
        stats = header["planner_stats"]
        assert set(stats) == {
            "tiles_planned",
            "tiles_modeled",
            "clusters",
            "fits_performed",
            "refits",
            "cache",
        }
        assert stats["cache"] == "disabled"
        # strict JSON all the way through
        json.loads(json.dumps(header, allow_nan=False))

    def test_cached_compress_decodes_identically(self, tmp_path):
        data = halo_field()
        tc = TiledCompressor(plan_cache=str(tmp_path / "plans.json"))
        first = tc.compress(data, CONFIG, dataset="halo")
        second = tc.compress(data, CONFIG, dataset="halo")
        assert second.plan.stats.cache == "hit"
        np.testing.assert_array_equal(
            TiledCompressor().decompress(first.blob),
            TiledCompressor().decompress(second.blob),
        )

    def test_config_plan_cache_path_is_used(self, tmp_path):
        path = tmp_path / "plans.json"
        config = replace(CONFIG, plan_cache=str(path))
        tc = TiledCompressor()
        tc.compress(halo_field(), config, dataset="halo")
        assert path.exists()
        result = tc.compress(halo_field(), config, dataset="halo")
        assert result.plan.stats.cache == "hit"

    def test_rel_mode_plans_through_cache(self):
        data = halo_field()
        cache = PlannerCache()
        tc = TiledCompressor(plan_cache=cache)
        config = replace(
            CONFIG, mode=ErrorBoundMode.REL, error_bound=1e-3
        )
        first = tc.compress(data, config, dataset="halo")
        second = tc.compress(data, config, dataset="halo")
        assert second.plan.stats.cache == "hit"
        recon = TiledCompressor().decompress(second.blob)
        span = float(data.max() - data.min())
        for choice in second.plan.choices:
            slc = tuple(
                slice(a, b) for a, b in zip(choice.start, choice.stop)
            )
            err = float(np.max(np.abs(data[slc] - recon[slc])))
            assert err <= choice.error_bound * (1 + 1e-9)
        assert first.plan.nominal_bound == pytest.approx(1e-3 * span)
