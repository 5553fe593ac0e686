"""The model got cheaper, not different: identity pins and cost guards.

The planner and the temporal mode choice now evaluate the rate model in
batches and skip its quality side where only a bit-rate is read.  Plans
and container bytes for ledger-shaped inputs are pinned from the
revision before that change, and the cost is guarded by counts, not
timers.
"""

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

from repro.compressor import (
    AdaptivePlanner,
    CompressionConfig,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.tiled_geometry import iter_tiles
from repro.core.model import RatioQualityModel
from tests.compressor.test_adaptive import heterogeneous_field

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _ledger_fields():
    """The ledger's own field builders (``benchmarks/ledger/fields.py``)."""
    spec = importlib.util.spec_from_file_location(
        "ledger_fields",
        os.path.join(REPO, "benchmarks", "ledger", "fields.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def halo_field() -> np.ndarray:
    """The ``codec_adaptive`` field: 36 tiles of 32x32."""
    return _ledger_fields().halo((192, 192), seed=5)[0]


def wave_pair() -> list[np.ndarray]:
    """Two steps of the ``snapshot_ingest`` stream."""
    return _ledger_fields().wave_stream((32, 32, 64), seed=5, steps=2)


HALO_CONFIG = CompressionConfig(
    error_bound=0.2, tile_shape=(32, 32), adaptive=True
)
HETERO_CONFIG = CompressionConfig(
    error_bound=1.0, tile_shape=(32, 32), adaptive=True, fit_clusters=4
)
WAVE_CONFIG = CompressionConfig(error_bound=2e-3, tile_shape=(16, 16, 32))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _skip_unless_input_matches(arrays, expected: str) -> None:
    # the generators lean on FFT/libm: another NumPy build may synthesise
    # a last-bit-different input, which pins nothing
    joined = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    if _sha256(joined) != expected:
        pytest.skip("fixture input differs on this NumPy build")


def _delta(pair):
    temporal = TemporalCompressor()
    keyframe = temporal.compress_snapshot(pair[0], WAVE_CONFIG)
    reference = temporal.decompress(keyframe.blob)
    return temporal.compress_snapshot(
        pair[1], WAVE_CONFIG, reference=reference, ref_id="w@v0",
        snapshot_index=1,
    )


# -- identity: pinned before the change, unchanged after ------------------------
#
# The container hashes below were re-taken in PR 23 (v7 framing): for
# each of them the v4/v5/v6 container the previous value pinned and the
# v7 one hold, tile for tile, the same stage sections, palette entries
# and ``tile_modes`` — only the bytes around them changed.

#: name -> (sha256 of the input, of ``AdaptivePlan.to_payload()`` as
#: sorted JSON, of the v5 container), taken at the revision before the
#: model's evaluation was batched.
PLAN_SHA256 = {
    "halo": (
        "0540d2b3436d8f48ab299173a0ade3a2ac48f6a0d124a82fff234c4b99ab504c",
        "9663b932e5a1eca71f0a59abb4e7dc041de0f6182aceade8277b044d19ec4fb0",
        "0dfbab0e6dea30065cc6f035dd010e42cf3fc727a6e547f75189e317047ebc43",
    ),
    "hetero": (
        "3ddb4e5940d7ef981a42cd0ee737e5f2ec9f1435c849f4c9fd2ac0832ea4f5dc",
        "565e3c3ba8d27c2b6cda30b6576f595f4f9256eb60653b3953a4cf859399f907",
        "77154af39378a753b653fca6fe56f481230d41cb631f510a2aad2d17ff850f33",
    ),
}
PLAN_STATS = {
    "halo": {"clusters": 11, "fits_performed": 30, "refits": 19},
    "hetero": {"clusters": 4, "fits_performed": 14, "refits": 10},
}

#: (sha256 of both wave steps, of the v6 delta container)
DELTA_SHA256 = (
    "2dde5c648442ce311af8fa52a444731e5e1c53d7618d118d0c1dcbe509c5e5bc",
    "7dcd125eac4e7310d4a755fdd6a7bf9a652a41f99c0fd9ed6cc79fdc275affe9",
)


#: name -> (ledger builder, shape, config of the workload, sha256 of
#: the input, of the container): the two workloads whose bytes
#: ``pack_codes`` writes most of, taken at the revision before it went
#: from one byte per bit to 64-bit words.
ENCODE_SHA256 = {
    "codec_bulk": (
        "random_walk",
        (32, 32, 256),
        CompressionConfig(error_bound=1e-2, tile_shape=(16, 32, 256)),
        "06870226a871ee3201c42678acb70a1894b0918d1a4c3c66b4f40fa5ae7b44fe",
        "77c385a51201bea78f268d1c068ac04ee8c87948474fd97dc8e1558ac9178b5f",
    ),
    "serve_hot": (
        "halo",
        (512, 512),
        CompressionConfig(error_bound=0.05, tile_shape=(128, 128)),
        "237de095c0005286b7603982f501d8c0c83db793ae2b307cad61d2ea426a2df2",
        "956abefb4346fd659f12fa4a6afeed37015eb90ab3188fb8060279d7c4440e04",
    ),
}


def _plan_case(name):
    if name == "halo":
        return halo_field(), HALO_CONFIG
    return heterogeneous_field(seed=11), HETERO_CONFIG


@pytest.mark.parametrize("name", sorted(PLAN_SHA256))
def test_adaptive_plan_and_v5_bytes_are_pinned(name):
    field, config = _plan_case(name)
    input_sha, plan_sha, blob_sha = PLAN_SHA256[name]
    _skip_unless_input_matches([field], input_sha)
    plan = AdaptivePlanner().plan(field, config, config.tile_shape)
    payload = json.dumps(plan.to_payload(), sort_keys=True).encode()
    assert _sha256(payload) == plan_sha
    stats = plan.stats.to_json()
    assert {key: stats[key] for key in PLAN_STATS[name]} == PLAN_STATS[name]
    blob = TiledCompressor(backend="serial").compress(field, config).blob
    assert _sha256(blob) == blob_sha


def test_v6_delta_bytes_are_pinned():
    pair = wave_pair()
    _skip_unless_input_matches(pair, DELTA_SHA256[0])
    delta = _delta(pair)
    assert _sha256(delta.blob) == DELTA_SHA256[1]
    assert delta.stats.temporal_tiles == 8 and delta.stats.model_decisions == 8


@pytest.mark.parametrize("name", sorted(ENCODE_SHA256))
def test_bulk_encode_bytes_are_pinned(name):
    kind, shape, config, input_sha, blob_sha = ENCODE_SHA256[name]
    field = _ledger_fields().build(kind, shape, seed=5)[0]
    _skip_unless_input_matches([field], input_sha)
    blob = TiledCompressor(backend="serial").compress(field, config).blob
    assert _sha256(blob) == blob_sha


# -- cost: rate-only paths never pay for quality --------------------------------


@pytest.fixture
def no_quality_table(monkeypatch):
    def refuse(self, data):
        raise AssertionError("a rate-only path built the quality table")

    monkeypatch.setattr(RatioQualityModel, "_fit_residual_curve", refuse)


def test_plan_bitrate_rows_never_build_the_quality_table(no_quality_table):
    field = halo_field()
    planner = AdaptivePlanner()
    extents = list(iter_tiles(field.shape, (32, 32)))[14:17]
    fitted = planner._fit_extent_models(
        field, extents, ("lorenzo", "interpolation")
    )
    grid = np.geomspace(0.2 / planner.span, 0.2 * planner.span, 17)
    for models in fitted:
        row = models["lorenzo"].bitrate_curve(grid)
        assert row.shape == (17,) and np.all(np.isfinite(row))
    with pytest.raises(AssertionError):
        fitted[0]["lorenzo"].estimate(0.2)


def test_delta_snapshot_never_builds_the_quality_table(no_quality_table):
    delta = _delta(wave_pair())
    assert delta.stats.model_decisions == 8


def test_planning_evaluates_the_model_in_batches(monkeypatch):
    """A count, not a timer: one curve per fit, one scalar query per
    candidate per selection (555 scalar ``estimate`` calls before)."""
    calls = {"scalar": 0, "curve": 0}
    rates = RatioQualityModel._rates

    def counted(self, abs_bounds, central_var=False):
        calls["scalar" if len(abs_bounds) == 1 else "curve"] += 1
        return rates(self, abs_bounds, central_var)

    monkeypatch.setattr(RatioQualityModel, "_rates", counted)
    planner = AdaptivePlanner()
    plan = planner.plan(halo_field(), HALO_CONFIG, (32, 32))
    selections = len(
        {(c.error_bound, c.est_bitrate, c.est_mse) for c in plan.choices}
    )
    assert 0 < calls["scalar"] <= 2 * len(planner.predictors) * selections
    assert calls["curve"] == plan.stats.fits_performed
