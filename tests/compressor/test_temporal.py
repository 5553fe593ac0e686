"""Unit tests for the temporal snapshot stream compressor (v6)."""

from __future__ import annotations

import hashlib
import io
import os

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.container import TiledReader
from repro.compressor.inspect import describe_container
from repro.compressor.temporal import TemporalStats
from repro.compressor.tiled_geometry import iter_tiles
from repro.core.model import RatioQualityModel
from tests.conftest import assert_error_bounded, smooth_field

EB = 1e-3


def chain(n=4, shape=(40, 40), seed=5, drift=0.02):
    """A deterministic stream of smoothly drifting snapshots."""
    snaps = [smooth_field(shape, seed=seed).astype(np.float64)]
    for i in range(1, n):
        bump = smooth_field(shape, seed=seed + i, noise=0.0)
        snaps.append(snaps[-1] + drift * bump.astype(np.float64))
    return snaps


def config(**overrides):
    base = dict(error_bound=EB, tile_shape=(16, 16))
    base.update(overrides)
    return CompressionConfig(**base)


def test_keyframe_is_plain_tiled_container():
    tc = TemporalCompressor()
    result = tc.compress_snapshot(chain(1)[0], config())
    assert result.keyframe
    assert result.blob[4] == 7 and not TiledReader(result.blob).temporal
    assert result.stats is None
    # standalone decode, also through the plain tiled front-end
    np.testing.assert_array_equal(
        tc.decompress(result.blob),
        TiledCompressor().decompress(result.blob),
    )


def test_delta_roundtrip_holds_bound_on_every_snapshot():
    snaps = chain(4)
    tc = TemporalCompressor()
    reference = None
    for i, snap in enumerate(snaps):
        result = tc.compress_snapshot(
            snap,
            config(),
            reference=reference,
            ref_id=f"s{i - 1}" if reference is not None else None,
            snapshot_index=i,
        )
        recon = tc.decompress(result.blob, reference=reference)
        assert_error_bounded(snap, recon, EB)
        assert result.keyframe == (i == 0)
        reference = recon


def test_delta_container_is_v6_with_stats_and_modes():
    snaps = chain(2)
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snaps[0], config()).blob)
    result = tc.compress_snapshot(
        snaps[1], config(), reference=ref, ref_id="v0", snapshot_index=1
    )
    assert not result.keyframe
    assert result.blob[4] == 7 and TiledReader(result.blob).temporal
    stats = result.stats
    assert stats.tiles == result.n_tiles == 9
    assert stats.temporal_tiles + stats.spatial_tiles == stats.tiles
    assert stats.temporal_tiles > 0  # drifting field: deltas win
    with TiledReader(result.blob) as reader:
        assert reader.header["temporal"] is True
        assert reader.header["ref_snapshot"] == "v0"
        assert reader.header["snapshot_index"] == 1
        assert reader.header["temporal_stats"] == stats.to_json()
        modes = [record.temporal for record in reader.tiles]
        assert sum(modes) == stats.temporal_tiles


def test_region_decode_matches_full_decode():
    snaps = chain(2)
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snaps[0], config()).blob)
    result = tc.compress_snapshot(snaps[1], config(), reference=ref)
    full = tc.decompress(result.blob, reference=ref)
    region = (slice(7, 31), slice(10, 38))
    roi = tc.decompress_region(result.blob, region, reference=ref)
    np.testing.assert_array_equal(roi, full[region])


def test_rel_bound_resolves_against_current_snapshot():
    snaps = chain(2, drift=0.05)
    tc = TemporalCompressor()
    cfg = config(error_bound=1e-4, mode=ErrorBoundMode.REL)
    ref = tc.decompress(tc.compress_snapshot(snaps[0], cfg).blob)
    result = tc.compress_snapshot(snaps[1], cfg, reference=ref)
    recon = tc.decompress(result.blob, reference=ref)
    abs_eb = 1e-4 * float(np.ptp(snaps[1]))
    assert_error_bounded(snaps[1], recon, abs_eb)
    with TiledReader(result.blob) as reader:
        assert reader.header["abs_eb"] == pytest.approx(abs_eb)


def test_pw_rel_is_rejected():
    tc = TemporalCompressor()
    with pytest.raises(ValueError, match="ABS and REL"):
        tc.compress_snapshot(
            chain(1)[0], config(mode=ErrorBoundMode.PW_REL)
        )


def test_mismatched_reference_shape_is_rejected():
    tc = TemporalCompressor()
    snap = chain(1)[0]
    with pytest.raises(ValueError, match="reference shape"):
        tc.compress_snapshot(snap, config(), reference=snap[:-1])


def test_decode_without_reference_is_rejected():
    snaps = chain(2)
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snaps[0], config()).blob)
    result = tc.compress_snapshot(snaps[1], config(), reference=ref)
    with pytest.raises(ValueError, match="reference"):
        tc.decompress(result.blob)
    with pytest.raises(ValueError, match="reference shape"):
        tc.decompress(result.blob, reference=ref[:-1])


def test_tiled_front_end_refuses_v6():
    snaps = chain(2)
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snaps[0], config()).blob)
    result = tc.compress_snapshot(snaps[1], config(), reference=ref)
    tiled = TiledCompressor()
    with pytest.raises(ValueError, match="TemporalCompressor"):
        tiled.decompress(result.blob)
    with pytest.raises(ValueError, match="TemporalCompressor"):
        tiled.decompress_region(result.blob, (slice(0, 4), slice(0, 4)))


def test_identical_snapshot_yields_trivial_tiles():
    snap = chain(1)[0]
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snap, config()).blob)
    result = tc.compress_snapshot(snap, config(), reference=ref)
    assert result.stats.trivial_tiles == result.stats.tiles
    assert result.stats.temporal_tiles == result.stats.tiles
    recon = tc.decompress(result.blob, reference=ref)
    assert_error_bounded(snap, recon, EB)
    # trivial residuals make the delta cheaper than a fresh keyframe
    keyframe_bytes = tc.compress_snapshot(snap, config()).compressed_bytes
    assert result.compressed_bytes < keyframe_bytes


def test_integer_snapshots_fall_back_to_spatial():
    rng = np.random.default_rng(9)
    snap0 = rng.integers(-1000, 1000, size=(32, 32), dtype=np.int32)
    snap1 = snap0 + rng.integers(-3, 4, size=(32, 32), dtype=np.int32)
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snap0, config()).blob)
    result = tc.compress_snapshot(snap1, config(), reference=ref)
    assert result.stats.spatial_tiles == result.stats.tiles
    assert result.stats.temporal_tiles == 0
    recon = tc.decompress(result.blob, reference=ref)
    assert_error_bounded(snap1, recon, EB)


def test_uncorrelated_tiles_choose_spatial():
    snaps = chain(2)
    snap1 = snaps[1].copy()
    # replace one tile with an uncorrelated field: the temporal
    # residual there is more complex than the tile itself
    snap1[:16, :16] = 10.0 * smooth_field(
        (16, 16), seed=321, noise=0.5
    ).astype(np.float64)
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snaps[0], config()).blob)
    result = tc.compress_snapshot(snap1, config(), reference=ref)
    assert result.stats.spatial_tiles >= 1
    assert result.stats.temporal_tiles >= 1
    recon = tc.decompress(result.blob, reference=ref)
    assert_error_bounded(snap1, recon, EB)


def test_tiny_tiles_use_measured_decisions():
    snaps = chain(2, shape=(12, 12))
    tc = TemporalCompressor()
    cfg = config(tile_shape=(4, 4), error_bound=1e-6)
    ref = tc.decompress(tc.compress_snapshot(snaps[0], cfg).blob)
    result = tc.compress_snapshot(snaps[1], cfg, reference=ref)
    assert result.stats.model_decisions == 0
    assert (
        result.stats.measured_decisions + result.stats.trivial_tiles
        == result.stats.tiles
    )
    recon = tc.decompress(result.blob, reference=ref)
    assert_error_bounded(snaps[1], recon, 1e-6)


def test_empty_reference_falls_back_to_keyframe():
    tc = TemporalCompressor()
    empty = np.zeros((0, 8))
    result = tc.compress_snapshot(empty, config(), reference=empty)
    assert result.keyframe


def test_file_sink_roundtrip(tmp_path):
    snaps = chain(2)
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snaps[0], config()).blob)
    path = tmp_path / "delta.rqsz"
    result = tc.compress_snapshot(
        snaps[1], config(), reference=ref, out=str(path)
    )
    assert result.blob is None
    assert path.stat().st_size == result.compressed_bytes
    recon = tc.decompress(str(path), reference=ref)
    np.testing.assert_array_equal(
        recon,
        tc.decompress(
            io.BytesIO(path.read_bytes()).getvalue(), reference=ref
        ),
    )
    assert_error_bounded(snaps[1], recon, EB)


def test_inspect_reports_temporal_rollup():
    snaps = chain(2)
    tc = TemporalCompressor()
    ref = tc.decompress(tc.compress_snapshot(snaps[0], config()).blob)
    result = tc.compress_snapshot(
        snaps[1], config(), reference=ref, ref_id="v0"
    )
    info = describe_container(result.blob)
    assert info["temporal"] is True
    assert info["ref_snapshot"] == "v0"
    rollup = info["tile_map"]["temporal"]
    assert rollup["temporal_tiles"] == result.stats.temporal_tiles
    assert rollup["spatial_tiles"] == result.stats.spatial_tiles
    assert info["temporal_stats"] == result.stats.to_json()
    assert all("temporal" in t for t in info["tile_map"]["tiles"])


def test_temporal_config_validation():
    with pytest.raises(ValueError, match="ABS and REL"):
        CompressionConfig(temporal=True, mode=ErrorBoundMode.PW_REL)
    with pytest.raises(ValueError, match="mutually exclusive"):
        CompressionConfig(
            temporal=True, adaptive=True, tile_shape=(8, 8)
        )


def test_scratch_vs_delta_byte_advantage():
    """Correlated streams: deltas beat from-scratch re-encoding."""
    snaps = chain(6, shape=(48, 48), drift=0.01)
    tc = TemporalCompressor()
    cfg = config(tile_shape=(24, 24))
    scratch = sum(
        tc.compress_snapshot(s, cfg).compressed_bytes for s in snaps
    )
    total = 0
    reference = None
    for i, snap in enumerate(snaps):
        result = tc.compress_snapshot(
            snap, cfg, reference=reference, snapshot_index=i
        )
        total += result.compressed_bytes
        reference = tc.decompress(result.blob, reference=reference)
    assert scratch >= 1.25 * total


# -- the batched temporal/spatial choice ----------------------------------------

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")

#: sha256 of ``compress_snapshot(expected, config, reference=ref)`` over
#: the stored ``pr9_v6_temporal`` arrays, taken with the per-tile choice
#: (two single-array fits per tile) that the batched one replaced —
#: re-taken in PR 23 for the v7 frame: tile for tile the same
#: ``tile_modes`` and the same stage sections as the v6 containers the
#: previous values pinned, other framing around them
PER_TILE_CHOICE_SHA256 = {
    # the fixture's own config: 40 / 16 leaves edge tiles (3 groups)
    "fixture_config": (
        dict(tile_shape=(16, 16)),
        "e5152758464a4e9fbd3f7031dc996222621a39abd027962d00efffbf801721eb",
    ),
    # non-divisible both ways: four shape groups, two below the
    # model's minimum tile size (8 measured decisions among 20 tiles)
    "odd_grid": (
        dict(tile_shape=(12, 9)),
        "cd0a51c8ac21aa86ffa417153d20031dee0b459079a66ce8f11f96ca10e60e3c",
    ),
    # non-Lorenzo spatial candidates: two sampling passes per group
    "interpolation": (
        dict(tile_shape=(16, 16), predictor="interpolation"),
        "3254865245ee71674c1c4c285a97c716b4e08c4b5cd1cd1efdedd8481e266b88",
    ),
    "regression_f4": (
        dict(tile_shape=(16, 16), predictor="regression"),
        "8c7b52e2248107542ba4a8ce44b4a9045e0d2400746418415aff0f4ee56fb9ff",
    ),
}


@pytest.mark.parametrize("name", sorted(PER_TILE_CHOICE_SHA256))
def test_batched_choice_writes_the_per_tile_choice_bytes(name):
    overrides, pinned = PER_TILE_CHOICE_SHA256[name]
    dtype = "f4" if name.endswith("f4") else "f8"
    ref = np.load(os.path.join(DATA_DIR, "pr9_v6_temporal_ref.npy"))
    snap = np.load(os.path.join(DATA_DIR, "pr9_v6_temporal_expected.npy"))
    result = TemporalCompressor().compress_snapshot(
        snap.astype(dtype),
        config(**overrides),
        reference=ref.astype(dtype),
        ref_id="pr9@v0",
        snapshot_index=1,
    )
    assert hashlib.sha256(result.blob).hexdigest() == pinned


def _per_tile_verdict(tc, tile, residual, tile_cfg, abs_eb):
    """The choice as two single-array fits make it (the old loop)."""
    rates = []
    for predictor, array in (("lorenzo", residual), (tile_cfg.predictor, tile)):
        try:
            rates.append(
                RatioQualityModel(
                    predictor=predictor,
                    sample_rate=tc._sample_rate,
                    radius=tile_cfg.quant_radius,
                    use_lossless=tile_cfg.lossless is not None,
                    seed=tc._seed,
                )
                .fit(array)
                .bitrate(abs_eb)
            )
        except (ValueError, ZeroDivisionError, FloatingPointError):
            return None, rates
    if not all(np.isfinite(rate) for rate in rates):
        return None, rates
    return bool(rates[0] <= rates[1]), rates


@pytest.mark.parametrize("predictor", ["lorenzo", "interpolation"])
def test_batched_rates_equal_per_tile_rates(predictor):
    rng = np.random.default_rng(31)
    tiles = np.stack(
        [smooth_field((16, 24), seed=s).astype(np.float64) for s in range(6)]
    )
    tiles[2] *= rng.random((16, 24)) < 0.3  # zero-containing tile
    residuals = 0.01 * rng.standard_normal(tiles.shape)
    residuals[4, :3] = 0.0  # zero-containing residual
    tiles, residuals = tiles.astype("f4"), residuals.astype("f4")
    tc = TemporalCompressor()
    tile_cfg = config(tile_shape=None, predictor=predictor)

    batched = tc._model_rates(residuals, "lorenzo", tile_cfg, EB)
    batched_spatial = tc._model_rates(tiles, predictor, tile_cfg, EB)
    verdicts = tc._choose(tiles, residuals, tile_cfg, EB, TemporalStats())
    for k in range(len(tiles)):
        verdict, (temporal_rate, spatial_rate) = _per_tile_verdict(
            tc, tiles[k], residuals[k], tile_cfg, EB
        )
        assert batched[k] == temporal_rate
        assert batched_spatial[k] == spatial_rate
        assert verdicts[k] is verdict


def test_a_failed_fit_falls_back_for_that_tile_only(monkeypatch):
    """One degenerate member costs only itself the model's verdict."""
    snaps = chain(2, shape=(32, 48))
    poisoned = 123.456  # marks the tile whose fit must fail
    snaps[1][0, 0] = poisoned
    real = RatioQualityModel._fit_stack

    def failing(models, stack):
        if np.any(stack == np.float64(poisoned)):
            raise ValueError("degenerate sample")
        return real(models, stack)

    monkeypatch.setattr(
        RatioQualityModel, "_fit_stack", staticmethod(failing)
    )
    tc = TemporalCompressor()
    cfg = config(error_bound=1e-4)
    ref = tc.decompress(tc.compress_snapshot(snaps[0], cfg).blob)
    result = tc.compress_snapshot(snaps[1], cfg, reference=ref)
    assert result.stats.tiles == 6
    assert result.stats.measured_decisions == 1
    assert result.stats.model_decisions == 5
    assert_error_bounded(
        snaps[1], tc.decompress(result.blob, reference=ref), 1e-4
    )


def test_small_edge_groups_measure_while_full_tiles_model():
    """< _MIN_MODEL_TILE is decided per shape group, not per snapshot."""
    snaps = chain(2, shape=(35, 37))
    tc = TemporalCompressor()
    cfg = config(tile_shape=(16, 16), error_bound=1e-5)
    ref = tc.decompress(tc.compress_snapshot(snaps[0], cfg).blob)
    result = tc.compress_snapshot(snaps[1], cfg, reference=ref)
    stats = result.stats
    # 16x16 (4 tiles), 16x5 / 3x16 (2 each, 80 / 48 points), 3x5 (1)
    assert stats.tiles == 9
    assert stats.trivial_tiles == 0
    assert stats.measured_decisions == 3  # the 3x16 pair and the 3x5
    assert stats.model_decisions == 6
    assert_error_bounded(
        snaps[1], tc.decompress(result.blob, reference=ref), 1e-5
    )
    # shape groups are modelled out of order; the TOC keeps iter_tiles'
    assert [(t.start, t.stop) for t in result.tiles] == list(
        iter_tiles((35, 37), (16, 16))
    )


class _SizedCodec:
    """A per-tile codec whose stage-byte counts the test dictates."""

    def __init__(self, residual_bytes, spatial_bytes, residual_params=()):
        self.sizes = {"lorenzo": residual_bytes, "interpolation": spatial_bytes}
        self.params = {"lorenzo": dict(residual_params), "interpolation": {}}

    def encode_stack(self, tiles, cfg, reconstruct=False):
        # a stream configured with another predictor encodes only its
        # residuals with Lorenzo
        codes = cfg.predictor[:1].encode() * self.sizes[cfg.predictor]
        params = {"predictor": cfg.predictor, **self.params[cfg.predictor]}
        return [(params, [codes, b"", b"", b"", b""], None, {}) for _ in tiles]


@pytest.mark.parametrize(
    "residual_bytes, spatial_bytes, kept",
    [(7, 9, b"l" * 7), (9, 7, b"i" * 7), (8, 8, b"l" * 8)],
    ids=["residual-smaller", "samples-smaller", "tie-keeps-residual"],
)
@pytest.mark.parametrize("measured_because", ["tiny-tile", "failed-fit"])
def test_a_measured_decision_keeps_the_smaller_payload(
    monkeypatch, measured_because, residual_bytes, spatial_bytes, kept
):
    if measured_because == "tiny-tile":
        tile_shape = (4, 4)  # 16 points < _MIN_MODEL_TILE
    else:
        tile_shape = (16, 16)

        def failing(models, stack):
            raise ValueError("degenerate sample")

        monkeypatch.setattr(
            RatioQualityModel, "_fit_stack", staticmethod(failing)
        )
    snaps = chain(2, shape=(16, 16), drift=0.5)  # no trivial residuals
    tc = TemporalCompressor(codec=_SizedCodec(residual_bytes, spatial_bytes))
    result = tc.compress_snapshot(
        snaps[1],
        config(tile_shape=tile_shape, predictor="interpolation"),
        reference=snaps[0],
    )
    assert result.stats.measured_decisions == result.stats.tiles
    with TiledReader(result.blob) as reader:
        for record in reader.tiles:
            assert reader.read_sections(record)[0] == kept
            assert record.temporal is kept.startswith(b"l")


def test_a_measured_decision_counts_sections_not_parameters():
    """What is compared is stage bytes, the five sections.  A
    candidate's parameters are not counted, however long: the writer
    records them once for the kind (the TOC's ``shared``), and only the
    writer knows whether a tile then needs a ``meta`` at all."""
    side_data = {"predictor_meta": {"weights": list(range(40))}}
    snaps = chain(2, shape=(16, 16), drift=0.5)
    tc = TemporalCompressor(codec=_SizedCodec(7, 9, side_data))
    result = tc.compress_snapshot(
        snaps[1],
        config(tile_shape=(4, 4), predictor="interpolation"),
        reference=snaps[0],
    )
    with TiledReader(result.blob) as reader:
        assert all(record.temporal for record in reader.tiles)
        assert all(record.size == 6 + 7 for record in reader.tiles)
        assert reader.tiles[0].params["predictor_meta"] == side_data[
            "predictor_meta"
        ]


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_delta_decodes_fan_out_and_are_counted(backend):
    """v6 decodes run on the tiled reader: workers apply, tiles count."""
    snaps = chain(2)
    serial = TemporalCompressor()
    ref = serial.decompress(serial.compress_snapshot(snaps[0], config()).blob)
    blob = serial.compress_snapshot(snaps[1], config(), reference=ref).blob
    expected = serial.decompress(blob, reference=ref)
    assert serial.tiled.last_tiles_decoded == 9
    tc = TemporalCompressor(workers=2, backend=backend)
    np.testing.assert_array_equal(tc.decompress(blob, reference=ref), expected)
    region = (slice(7, 31), slice(10, 38))
    np.testing.assert_array_equal(
        tc.decompress_region(blob, region, reference=ref),
        expected[region],
    )
    assert tc.tiled.last_tiles_decoded == 6
    assert tc.tiled.tiles_decoded == 9 + 6
