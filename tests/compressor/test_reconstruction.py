"""The reconstruction an encode surfaces is the decode of what it wrote.

``compress(..., reconstruct=True)`` hands back the values the
predict-quantize stage already holds instead of making the caller
decode the blob it just received; the store seeds its tile cache with
them.  That is only sound if they are *exactly* what a decoder returns
— same dtype, same shape, same bytes (so also the same zero signs) —
and if asking for them changes no container byte.
"""

import itertools

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.predictors import make_predictor
from tests.oracle import assert_same_verdict, tile_routes

PREDICTORS = ["lorenzo", "interpolation", "regression"]
#: 1-D..3-D, prime dims included
SHAPES = [(257,), (23, 19), (7, 11, 13), (16, 16, 8)]
KINDS = ["smooth", "outliers", "trivial", "constant", "sparse"]


def _field(kind: str, shape, rng: np.random.Generator) -> np.ndarray:
    smooth = np.ones(shape)
    for axis, dim in enumerate(shape):
        wave = np.sin(np.linspace(0.3, 5.0, dim) + axis)
        smooth = smooth * wave.reshape(
            [dim if a == axis else 1 for a in range(len(shape))]
        )
    smooth = smooth + 2.0 + 0.01 * rng.standard_normal(shape)
    if kind == "outliers":
        # a third of the points escape the quantizer's code range
        spikes = rng.random(shape) < 0.3
        return np.where(spikes, smooth * 1e5, smooth)
    if kind == "trivial":
        # every value within the bound of zero: all-zero codes
        return 1e-6 * rng.standard_normal(shape)
    if kind == "constant":
        return np.full(shape, 3.25)
    if kind == "sparse":
        return smooth * (rng.random(shape) < 0.15)
    return smooth


def assert_same_array(surfaced: np.ndarray, decoded: np.ndarray) -> None:
    assert surfaced is not None
    assert surfaced.dtype == decoded.dtype
    assert surfaced.shape == decoded.shape
    assert np.array_equal(surfaced, decoded)
    # stricter than array_equal: -0.0 and 0.0 compare equal, their
    # bytes — what a cached tile hands a client — do not
    assert surfaced.tobytes() == decoded.tobytes()


@pytest.mark.parametrize(
    "seed, case",
    list(
        enumerate(
            itertools.product(
                PREDICTORS, ["f4", "f8"], list(ErrorBoundMode), SHAPES
            )
        )
    ),
)
def test_flat_reconstruction_equals_decode(seed, case):
    predictor, dtype, mode, shape = case
    rng = np.random.default_rng(seed)
    sz = TiledCompressor()  # no tile_shape: one whole-array tile
    for kind in KINDS:
        data = _field(kind, shape, rng).astype(dtype)
        bound = 1e-3 if mode is not ErrorBoundMode.ABS else 1e-3 * max(
            float(np.ptp(data)), 1.0
        )
        config = CompressionConfig(
            predictor=predictor, mode=mode, error_bound=bound
        )
        result = sz.compress(data, config, reconstruct=True)
        assert result.reconstruction is not None, kind
        # one tile decodes on one thread, whatever the backend
        routes = tile_routes(
            result.blob, backends=["serial"], names=("decompress",)
        )
        routes[f"{kind} reconstruction"] = lambda: result.reconstruction
        assert_same_verdict(routes)
        # asking changes nothing that is written, and not asking
        # computes nothing
        plain = sz.compress(data, config)
        assert plain.blob == result.blob, kind
        assert plain.reconstruction is None


@pytest.mark.parametrize(
    "predictor, order",
    [
        ("lorenzo", 1),
        ("lorenzo", 2),
        ("lorenzo_classic", None),
        ("interpolation", None),
        ("regression", None),
    ],
)
@pytest.mark.parametrize("shape", SHAPES)
def test_predictor_output_carries_its_own_reconstruct(predictor, order, shape):
    """Below the pipeline: every predictor, the config-less ones too."""
    rng = np.random.default_rng(5)
    pred = make_predictor(predictor, **({"order": order} if order else {}))
    for kind in KINDS:
        data = _field(kind, shape, rng)
        output = pred.decompose(data, 1e-3, 512, reconstruct=True)
        assert_same_array(
            output.reconstruction, pred.reconstruct(output, shape, 1e-3)
        )
        plain = pred.decompose(data, 1e-3, 512)
        assert plain.reconstruction is None
        np.testing.assert_array_equal(plain.codes, output.codes)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_tiled_reconstruction_equals_decode(backend, adaptive):
    rng = np.random.default_rng(12)
    data = _field("smooth", (37, 29), rng).astype("f4")
    data[:8, :8] = _field("outliers", (8, 8), rng)
    config = CompressionConfig(
        error_bound=1e-3, tile_shape=(16, 12), adaptive=adaptive
    )
    tc = TiledCompressor(workers=2, backend=backend)
    result = tc.compress(data, config, reconstruct=True)
    assert_same_array(result.reconstruction, tc.decompress(result.blob))
    assert tc.compress(data, config).blob == result.blob


@pytest.mark.parametrize("predictor", ["lorenzo", "interpolation"])
@pytest.mark.parametrize("dtype", ["f4", "f8", "i4"])
def test_delta_reconstruction_equals_decode(predictor, dtype):
    """Residual tiles pass through the reader's own ``combine``."""
    rng = np.random.default_rng(21)
    first = _field("smooth", (40, 28), rng) * 50
    second = first + 0.05 * _field("smooth", (40, 28), rng)
    # one corner noise that turns smooth (its residual is the noise:
    # spatial wins), one corner unchanged (trivial residual)
    first[:16, :12] = 50 * rng.standard_normal((16, 12))
    second[-8:, -4:] = first[-8:, -4:]
    first, second = first.astype(dtype), second.astype(dtype)
    config = CompressionConfig(
        error_bound=1e-2, tile_shape=(16, 12), predictor=predictor
    )
    tc = TemporalCompressor()
    keyframe = tc.compress_snapshot(first, config, reconstruct=True)
    assert_same_array(keyframe.reconstruction, tc.decompress(keyframe.blob))
    delta = tc.compress_snapshot(
        second,
        config,
        reference=keyframe.reconstruction,
        ref_id="v0",
        snapshot_index=1,
        reconstruct=True,
    )
    assert_same_array(
        delta.reconstruction,
        tc.decompress(delta.blob, reference=keyframe.reconstruction),
    )
    if dtype != "i4":
        assert 0 < delta.stats.temporal_tiles < delta.stats.tiles
    plain = tc.compress_snapshot(
        second,
        config,
        reference=keyframe.reconstruction,
        ref_id="v0",
        snapshot_index=1,
    )
    assert plain.blob == delta.blob and plain.reconstruction is None
