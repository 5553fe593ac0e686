"""The stacked decode gives every tile the array it gets alone.

``SZCompressor.decode_stack`` entropy-decodes a stack of tiles at once
and reconstructs the tiles of one shape and predictor in one
``Predictor.reconstruct_stack`` pass; each tile must decode bit for bit
to what ``decode_stack([tile])`` (the one-tile stack) returns for it,
and each predictor's ``reconstruct_stack`` output to what its one-output
``reconstruct`` gives (``tests/oracle.py::assert_stack_as_alone``).
"""

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    TiledCompressor,
    tiled,
)
from repro.compressor.predictors import make_predictor
from repro.compressor.predictors.lorenzo import ClassicLorenzoPredictor
from repro.compressor.stages import PredictorStage
from repro.compressor.sz import SZCompressor
from tests.compressor.test_encode_stack import PREDICTORS, RAGGED, _walk
from tests.oracle import assert_stack_as_alone, encode_alone

SHAPES = [(14, 12), *RAGGED]


def encoded(tiles, configs) -> list:
    """The ``(header, sections)`` of each tile under its config."""
    codec = SZCompressor()
    return [
        encode_alone(tile, config, codec=codec)[:2]
        for tile, config in zip(tiles, configs)
    ]


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("mode", [ErrorBoundMode.ABS, ErrorBoundMode.REL])
def test_each_member_under_its_own_bound(predictor, shape, mode):
    walks = _walk((3, *shape), 7)
    tiles = [walk * scale for walk, scale in zip(walks, (2.0, 1.0, 0.5))]
    # distinct bounds per member: by the config under ABS, by each
    # tile's own value range under REL
    bounds = [1e-2, 5e-3, 2e-2] if mode is ErrorBoundMode.ABS else [1e-2] * 3
    configs = [
        CompressionConfig(predictor=predictor, mode=mode, error_bound=eb)
        for eb in bounds
    ]
    coded = encoded(tiles, configs)
    assert len({header["abs_eb"] for header, _ in coded}) == 3
    assert_stack_as_alone(SZCompressor().decode_stack, coded)


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_outliers_in_some_members_only(predictor, shape):
    tiles = list(_walk((6, *shape), 1) * 1e-3)
    # odd coordinates: never an interpolation anchor
    tiles[1][(1,) * len(shape)] += 50.0
    tiles[4][(-2,) * len(shape)] -= 80.0
    config = CompressionConfig(
        predictor=predictor, error_bound=1e-3, quant_radius=16
    )
    coded = encoded(tiles, [config] * len(tiles))
    outliers = [len(sections[1]) for _, sections in coded]
    assert outliers[1] and outliers[4] and not outliers[0]
    assert_stack_as_alone(SZCompressor().decode_stack, coded)


def test_order_two_lorenzo_and_pw_rel():
    tiles = list(_walk((4, 12, 9), 2))
    tiles[2][3:5, 1] = 0.0
    configs = [
        CompressionConfig(error_bound=1e-2, lorenzo_levels=2),
        CompressionConfig(mode=ErrorBoundMode.PW_REL, error_bound=1e-2),
    ]
    coded = encoded(tiles, configs * 2)
    assert_stack_as_alone(SZCompressor().decode_stack, coded)


def test_a_mixed_stack_of_two_shapes_and_two_predictors():
    tiles, configs = [], []
    for k, (shape, predictor) in enumerate(
        [(s, p) for s in [(14, 12), (9, 13)] for p in PREDICTORS[:2]] * 2
    ):
        tiles.append(_walk(shape, 20 + k) * (1 + k % 3))
        configs.append(
            CompressionConfig(predictor=predictor, error_bound=1e-2 * (1 + k))
        )
    coded = encoded(tiles, configs)
    order = np.random.default_rng(3).permutation(len(coded))
    coded = [coded[i] for i in order]
    assert_stack_as_alone(SZCompressor().decode_stack, coded)


@pytest.mark.parametrize("predictor", [*PREDICTORS, "lorenzo_classic"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_reconstruct_stack_is_each_output_alone(predictor, shape):
    if predictor == "lorenzo_classic":
        model = ClassicLorenzoPredictor()
    else:
        model = make_predictor(predictor)
    stack = _walk((3, *shape), 9) * 1e-3
    stack[1][(1,) * len(shape)] += 40.0  # outliers in one member only
    bounds = [1e-3, 5e-4, 2e-3]
    outputs = model.decompose_stack(stack, bounds, 16)
    assert [output.n_outliers > 0 for output in outputs] == [
        False,
        True,
        False,
    ]
    got = assert_stack_as_alone(
        lambda members: model.reconstruct_stack(
            [output for output, _ in members], shape, [b for _, b in members]
        ),
        zip(outputs, bounds),
        lambda member: model.reconstruct(member[0], shape, member[1]),
    )
    assert np.shape(got) == (3, *shape) and got[0].dtype == np.float64


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_a_36_tile_decode_reconstructs_once_per_stack(monkeypatch, predictor):
    config = CompressionConfig(
        predictor=predictor, error_bound=1e-2, tile_shape=(32, 32)
    )
    owner = type(PredictorStage.make_predictor(config))
    original = owner.reconstruct_stack
    calls = []

    def counting(self, outputs, shape, error_bounds):
        calls.append(len(outputs))
        return original(self, outputs, shape, error_bounds)

    monkeypatch.setattr(owner, "reconstruct_stack", counting)
    codec = TiledCompressor(backend="serial")
    blob = codec.compress(_walk((192, 192), 11), config).blob
    calls.clear()
    codec.decompress(blob)
    per_stack = tiled._STACK_POINTS // (32 * 32)
    assert sum(calls) == 36
    assert len(calls) == -(-36 // per_stack) < 36
