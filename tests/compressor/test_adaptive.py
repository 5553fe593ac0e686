"""Per-tile adaptive configuration: planner, v5 container, round-trips."""

import json

import numpy as np
import pytest

from repro.compressor import (
    AdaptivePlanner,
    CompressionConfig,
    ErrorBoundMode,
    TiledCompressor,
)
from repro.compressor import container
from repro.compressor.adaptive import MIN_QUANT_RADIUS
from repro.compressor.container import TiledReader
from repro.datasets.generators import gaussian_random_field, lognormal_field
from tests.conftest import smooth_field


def heterogeneous_field(shape=(128, 128), seed=7, halo_frac=0.5, contrast=2.5):
    """Smooth background with a halo-dense (lognormal) subregion."""
    bg = gaussian_random_field(shape, slope=4.0, seed=seed).astype(np.float64)
    hs = tuple(max(1, int(n * halo_frac)) for n in shape)
    halos = lognormal_field(hs, slope=2.0, seed=seed + 1, contrast=contrast)
    pad = tuple((n // 8, n - h - n // 8) for n, h in zip(shape, hs))
    return (bg + np.pad(0.5 * halos.astype(np.float64), pad)).astype(
        np.float32
    )


class TestPlanner:
    def test_plan_structure_and_bound_spread(self):
        field = heterogeneous_field()
        eb = 1e-3 * float(field.max() - field.min())
        plan = AdaptivePlanner().plan(
            field, CompressionConfig(error_bound=eb), (32, 32)
        )
        assert plan.n_tiles == 16
        assert plan.nominal_bound == pytest.approx(eb)
        assert np.isfinite(plan.target_psnr)
        # heterogeneous tiles must receive heterogeneous bounds, all
        # within the planner's span of the nominal bound
        bounds = [c.error_bound for c in plan.choices]
        assert max(bounds) > min(bounds)
        planner = AdaptivePlanner()
        for b in bounds:
            assert eb / planner.span <= b <= eb * planner.span * (1 + 1e-9)
        # choices cover the array exactly once
        seen = np.zeros(field.shape, dtype=int)
        for c in plan.choices:
            seen[tuple(slice(a, b) for a, b in zip(c.start, c.stop))] += 1
        assert np.all(seen == 1)

    def test_rel_mode_resolves_global_range(self):
        field = heterogeneous_field()
        vrange = float(field.max() - field.min())
        plan = AdaptivePlanner().plan(
            field,
            CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-3),
            (32, 32),
        )
        assert plan.nominal_bound == pytest.approx(1e-3 * vrange)
        assert plan.value_range == pytest.approx(vrange)

    def test_pw_rel_rejected(self):
        field = smooth_field((16, 16))
        config = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=1e-3
        )
        with pytest.raises(ValueError):
            AdaptivePlanner().plan(field, config, (8, 8))

    def test_adaptive_pw_rel_config_rejected(self):
        with pytest.raises(ValueError):
            CompressionConfig(
                mode=ErrorBoundMode.PW_REL, error_bound=1e-3, adaptive=True
            )

    def test_constant_rel_field_yields_no_plan(self):
        # nothing to allocate when the bound collapses to zero: the
        # planner punts to the uniform path, which stores it exactly
        config = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-3)
        assert AdaptivePlanner().plan(np.ones((8, 8)), config, (4, 4)) is None

    def test_constant_rel_adaptive_falls_back_to_exact_v4(self):
        data = np.full((16, 12), 3.75)
        config = CompressionConfig(
            mode=ErrorBoundMode.REL,
            error_bound=1e-3,
            tile_shape=(8, 8),
            adaptive=True,
        )
        result = TiledCompressor().compress(data, config)
        assert result.plan is None
        assert result.blob[4] == container.VERSION_FRAME
        np.testing.assert_array_equal(
            TiledCompressor().decompress(result.blob), data
        )

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePlanner().plan(
                np.zeros((0, 4)), CompressionConfig(), (2, 2)
            )

    def test_tiny_tiles_fall_back_to_nominal(self):
        field = smooth_field((12, 12))
        config = CompressionConfig(error_bound=1e-3)
        plan = AdaptivePlanner().plan(field, config, (4, 4))
        # 16-point tiles are below the modelling floor
        assert all(c.error_bound == pytest.approx(1e-3) for c in plan.choices)
        assert all(c.predictor == "lorenzo" for c in plan.choices)

    def test_config_predictor_always_a_candidate(self):
        # the user's predictor must never be silently dropped: it joins
        # the candidate set and is the small-tile fallback
        field = smooth_field((24, 24))
        config = CompressionConfig(predictor="regression", error_bound=1e-3)
        planner = AdaptivePlanner(predictors=("interpolation",))
        plan = planner.plan(field, config, (6, 6))
        assert all(c.predictor == "regression" for c in plan.choices)
        # and with modelled tiles, distinct configs can select distinctly
        big = heterogeneous_field()
        plan = AdaptivePlanner(predictors=("interpolation",)).plan(
            big,
            CompressionConfig(predictor="lorenzo", error_bound=1.0),
            (32, 32),
        )
        assert set(c.predictor for c in plan.choices) <= {
            "lorenzo",
            "interpolation",
        }
        assert any(c.predictor == "lorenzo" for c in plan.choices)

    def test_radius_is_power_of_two_within_cap(self):
        field = heterogeneous_field()
        eb = 1e-3 * float(field.max() - field.min())
        plan = AdaptivePlanner().plan(
            field, CompressionConfig(error_bound=eb), (32, 32)
        )
        for c in plan.choices:
            assert MIN_QUANT_RADIUS <= c.quant_radius <= 32768
            assert c.quant_radius & (c.quant_radius - 1) == 0

    def test_invalid_planner_params(self):
        with pytest.raises(ValueError):
            AdaptivePlanner(predictors=())
        with pytest.raises(ValueError):
            AdaptivePlanner(span=0.5)
        with pytest.raises(ValueError):
            AdaptivePlanner(grid_points=2)


class TestV5Container:
    def test_roundtrip_within_per_tile_bounds(self):
        field = heterogeneous_field()
        eb = 1e-3 * float(field.max() - field.min())
        config = CompressionConfig(
            error_bound=eb, tile_shape=(32, 32), adaptive=True
        )
        tc = TiledCompressor()
        result = tc.compress(field, config)
        assert result.blob[4] == container.VERSION_FRAME
        assert result.plan is not None
        recon = tc.decompress(result.blob)
        assert recon.dtype == field.dtype
        # every tile honours its own recorded bound
        for choice in result.plan.choices:
            slc = tuple(
                slice(a, b) for a, b in zip(choice.start, choice.stop)
            )
            err = np.max(
                np.abs(
                    recon[slc].astype(np.float64)
                    - field[slc].astype(np.float64)
                )
            )
            ulp = float(np.abs(field[slc]).max()) * float(
                np.finfo(np.float32).eps
            )
            assert err <= choice.error_bound * (1 + 1e-9) + ulp

    def test_toc_records_match_plan(self):
        field = heterogeneous_field()
        eb = 1e-3 * float(field.max() - field.min())
        config = CompressionConfig(
            error_bound=eb, tile_shape=(32, 32), adaptive=True
        )
        result = TiledCompressor().compress(field, config)
        with TiledReader(result.blob) as reader:
            assert reader.version == container.VERSION_FRAME
            assert reader.header["adaptive"] is True
            assert reader.header["nominal_abs_eb"] == pytest.approx(eb)
            assert len(reader.tiles) == result.plan.n_tiles
            for record, choice in zip(reader.tiles, result.plan.choices):
                assert record.config == choice.to_json()
                # what the tile decodes under (palette entry + its own
                # meta) is the same choice, so decode needs no global
                # config
                meta, _ = container.unpack_tile(reader.read_tile(record))
                header = {**record.params, **meta}
                assert header["predictor"] == choice.predictor
                assert header["error_bound"] == pytest.approx(
                    choice.error_bound
                )
                assert header["quant_radius"] == choice.quant_radius

    def test_region_decode_matches_full(self):
        field = heterogeneous_field()
        eb = 1e-3 * float(field.max() - field.min())
        config = CompressionConfig(
            error_bound=eb, tile_shape=(32, 32), adaptive=True
        )
        tc = TiledCompressor()
        result = tc.compress(field, config)
        full = tc.decompress(result.blob)
        roi = tc.decompress_region(result.blob, (slice(10, 70), slice(40, 90)))
        np.testing.assert_array_equal(roi, full[10:70, 40:90])
        assert tc.last_tiles_decoded == 6

    def test_streamed_matches_in_memory(self, tmp_path):
        field = heterogeneous_field()
        eb = 1e-3 * float(field.max() - field.min())
        config = CompressionConfig(
            error_bound=eb, tile_shape=(32, 32), adaptive=True
        )
        in_memory = TiledCompressor().compress(field, config)
        out = str(tmp_path / "adaptive.rqsz")
        streamed = TiledCompressor().compress(field, config, out=out)
        assert streamed.blob is None
        with open(out, "rb") as fh:
            assert fh.read() == in_memory.blob

    def test_parallel_encode_is_deterministic(self):
        field = heterogeneous_field()
        eb = 1e-3 * float(field.max() - field.min())
        config = CompressionConfig(
            error_bound=eb, tile_shape=(32, 32), adaptive=True
        )
        serial = TiledCompressor().compress(field, config)
        parallel = TiledCompressor(workers=4).compress(field, config)
        assert serial.blob == parallel.blob

    def test_rel_adaptive_roundtrip(self):
        field = heterogeneous_field()
        config = CompressionConfig(
            mode=ErrorBoundMode.REL,
            error_bound=1e-3,
            tile_shape=(32, 32),
            adaptive=True,
        )
        tc = TiledCompressor()
        result = tc.compress(field, config)
        recon = tc.decompress(result.blob)
        vrange = float(field.max() - field.min())
        planner_span = AdaptivePlanner().span
        err = np.max(np.abs(recon.astype(np.float64) - field))
        assert err <= 1e-3 * vrange * planner_span * (1 + 1e-6)

    def test_constant_abs_adaptive_header_is_strict_json(self):
        # a constant field has zero aggregate MSE -> infinite PSNR
        # target; the on-disk header must stay RFC-8259 JSON (null),
        # not the Python-only 'Infinity' token
        data = np.full((32, 32), 3.0, dtype=np.float32)
        config = CompressionConfig(
            error_bound=0.1, tile_shape=(16, 16), adaptive=True
        )
        result = TiledCompressor().compress(data, config)
        assert b"Infinity" not in result.blob
        with TiledReader(result.blob) as reader:
            assert reader.header["adaptive"] is True
            assert reader.header["target_psnr"] is None
        np.testing.assert_allclose(
            TiledCompressor().decompress(result.blob), data, atol=0.1
        )

    def test_empty_array_falls_back_to_v4(self):
        data = np.zeros((0, 4), dtype=np.float32)
        config = CompressionConfig(tile_shape=(2, 2), adaptive=True)
        result = TiledCompressor().compress(data, config)
        assert result.plan is None
        assert result.blob[4] == container.VERSION_FRAME
        out = TiledCompressor().decompress(result.blob)
        assert out.shape == (0, 4)


class TestAdaptiveBeatsUniformOnHeterogeneousData:
    @pytest.fixture(scope="class")
    def contest(self):
        """The adaptive container and, per uniform predictor, the
        smallest container of equal (or better) measured PSNR."""
        from repro.analysis.metrics import psnr

        field = heterogeneous_field((256, 256), halo_frac=0.25, contrast=3.0)
        eb = 1.0  # just below background-tile saturation, where the
        # allocation has bits to harvest
        tc = TiledCompressor()
        adaptive = tc.compress(
            field,
            CompressionConfig(
                error_bound=eb, tile_shape=(32, 32), adaptive=True
            ),
        )
        ada_psnr = psnr(field, tc.decompress(adaptive.blob))

        uniforms = []
        for predictor in ("lorenzo", "interpolation"):
            lo, hi, best = eb / 16, eb * 16, None
            for _ in range(8):
                mid = float(np.sqrt(lo * hi))
                uniform = tc.compress(
                    field,
                    CompressionConfig(
                        predictor=predictor,
                        error_bound=mid,
                        tile_shape=(32, 32),
                    ),
                )
                if psnr(field, tc.decompress(uniform.blob)) >= ada_psnr:
                    best = uniform
                    lo = mid
                else:
                    hi = mid
            if best is not None:
                uniforms.append(best)
        assert uniforms
        return adaptive, uniforms

    @pytest.mark.xfail(
        strict=True,
        reason="PR 23: of the 1.08x this read under v5, 0.07 was the flat "
        "wrappers (an interpolation tile's JSON header is ~45 B longer "
        "than a Lorenzo tile's and the plan mixes Lorenzo tiles in); "
        "without wrappers the plan's 4 % of stage bytes (261 B) is less "
        "than what the plan costs to record (~750 B at 64 tiles): "
        "8 498 B against 8 013 B.  ROADMAP item 1(c): a planner that "
        "prices its own records.",
    )
    def test_equal_psnr_ratio_gain(self, contest):
        """The acceptance-criterion property at test scale: on a
        heterogeneous field, the adaptive container spends fewer
        bytes than the best uniform config at equal (or better)
        measured PSNR.  The acceptance target is >= 5% (ROADMAP item
        1(c)); with this 8-step bisection the margin asserted here is
        2%."""
        adaptive, uniforms = contest
        best_uniform = min(u.compressed_bytes for u in uniforms)
        assert adaptive.compressed_bytes < best_uniform / 1.02

    def test_equal_psnr_stage_gain_and_what_the_plan_costs(self, contest):
        """Where the whole-file comparison above stands under v7, in
        its two parts: the plan does encode to fewer stage bytes than
        the best uniform config, and what it costs to record — palette,
        an index per tile, the ``shared`` record of a second predictor,
        the planner's header fields — is bounded per palette entry and
        per tile.  The second part outweighs the first at 64 tiles."""
        from repro.compressor.inspect import describe_container

        def split(result):
            tile_map = describe_container(result.blob, verify=True)["tile_map"]
            return tile_map["stage_bytes"], tile_map["framing_bytes"]

        adaptive, uniforms = contest
        best_stage, best_framing = min(map(split, uniforms))
        stage, framing = split(adaptive)
        assert stage < best_stage / 1.02
        entries = len({json.dumps(t.config) for t in adaptive.tiles})
        assert framing - best_framing <= (
            300 + 40 * entries + 3 * adaptive.n_tiles
        )
