"""The stacked encode gives every tile the bytes it gets alone.

``SZCompressor.encode_stack`` predicts, quantizes and Huffman-codes a
stack of same-shape tiles together; each tile's params, sections,
measures and reconstruction must be bit for bit what the one-tile stack
returns for it (``tests/oracle.py::assert_stack_as_alone``).
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    TemporalCompressor,
    TiledCompressor,
    tiled,
)
from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.quantizer import Quantizer
from repro.compressor.stages import PredictorStage
from repro.compressor.sz import SZCompressor
from repro.compressor.tiled_geometry import extent_slices, iter_tiles
from tests.oracle import assert_stack_as_alone
from tests.proptest import draw_case, resolved_config


def encodes(config, reconstruct):
    """A tile stack's ``encode_stack`` under *config*: each tile must get
    what it gets alone (:func:`tests.oracle.assert_stack_as_alone`)."""
    codec = SZCompressor()
    return lambda tiles: codec.encode_stack(tiles, config, reconstruct)


def grid_stacks(data, tile_shape):
    """The tiles of *data* on *tile_shape*, one list per tile shape."""
    if data.ndim == 0 or data.size == 0:
        return [[data]]
    stacks = defaultdict(list)
    for start, stop in iter_tiles(data.shape, tile_shape):
        tile = data[extent_slices(start, stop)]
        stacks[tile.shape].append(tile)
    return list(stacks.values())


#: the predictors, Lorenzo first
PREDICTORS = ["lorenzo", "interpolation", "regression"]

#: tiles of 1-D to 4-D whose sizes are neither multiples of the
#: regression block (6) nor powers of two
RAGGED = [(53,), (14, 13), (7, 11, 9), (5, 13, 3, 7)]


def _walk(shape, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(shape), axis=-1).astype(dtype)


@pytest.mark.parametrize("seed", range(72))
def test_every_proptest_case_stacks_as_alone(seed):
    case = draw_case(seed)
    config = resolved_config(case).per_tile()
    tile_shape = case.config.tile_shape or tuple(
        max(1, n // 2) for n in case.data.shape
    )
    for stack in grid_stacks(case.data, tile_shape):
        assert_stack_as_alone(encodes(config, seed % 2 == 0), stack)


@pytest.mark.parametrize(
    "reconstruct", [False, True], ids=["plain", "surfaced"]
)
class TestStackCases:
    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize("shape", [(16, 16), *RAGGED], ids=str)
    def test_outliers_in_some_tiles_only(self, reconstruct, predictor, shape):
        tiles = list(_walk((6, *shape), 1) * 1e-3)
        # odd coordinates: never an interpolation anchor
        tiles[1][(1,) * len(shape)] += 50.0
        tiles[4][(-2,) * len(shape)] -= 80.0
        config = CompressionConfig(
            predictor=predictor, error_bound=1e-3, quant_radius=16
        )
        stacked = assert_stack_as_alone(encodes(config, reconstruct), tiles)
        outliers = [measures["n_outliers"] for *_, measures in stacked]
        assert outliers[1] and outliers[4] and not outliers[0]

    def test_order_two_lorenzo(self, reconstruct):
        config = CompressionConfig(error_bound=1e-2, lorenzo_levels=2)
        tiles = list(_walk((5, 12, 9), 2))
        assert_stack_as_alone(encodes(config, reconstruct), tiles)

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int16, np.int32, np.uint8]
    )
    def test_dtypes(self, reconstruct, dtype):
        data = _walk((4, 10, 11), 3) * 20
        if np.issubdtype(dtype, np.integer):
            data = np.abs(data)
        config = CompressionConfig(error_bound=0.5)
        tiles = list(data.astype(dtype))
        assert_stack_as_alone(encodes(config, reconstruct), tiles)

    @pytest.mark.parametrize("mode", [ErrorBoundMode.ABS, ErrorBoundMode.REL])
    def test_constant_tiles_among_varying_ones(self, reconstruct, mode):
        tiles = list(_walk((5, 8, 8), 4))
        tiles[0][...] = 2.5
        tiles[3][...] = -1.0
        config = CompressionConfig(mode=mode, error_bound=1e-2)
        stacked = assert_stack_as_alone(encodes(config, reconstruct), tiles)
        if mode is ErrorBoundMode.REL:  # a tile's own range: zero here
            assert "constant" in stacked[0][0] and "constant" in stacked[3][0]

    def test_edge_tiles_of_a_non_divisible_grid(self, reconstruct):
        data = _walk((35, 37), 5)
        config = CompressionConfig(error_bound=1e-2)
        stacks = grid_stacks(data, (16, 16))
        assert len(stacks) == 4
        for stack in stacks:
            assert_stack_as_alone(encodes(config, reconstruct), stack)

    def test_pw_rel(self, reconstruct):
        data = _walk((4, 9, 13), 6)
        data[1, 2:4, 5] = 0.0
        config = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=1e-2
        )
        assert_stack_as_alone(encodes(config, reconstruct), list(data))

    @pytest.mark.parametrize("predictor", PREDICTORS[1:])
    @pytest.mark.parametrize("shape", [(14, 12), *RAGGED], ids=str)
    @pytest.mark.parametrize("mode", [ErrorBoundMode.ABS, ErrorBoundMode.REL])
    def test_other_predictors(self, reconstruct, predictor, shape, mode):
        config = CompressionConfig(
            predictor=predictor, mode=mode, error_bound=1e-2
        )
        walks = _walk((3, *shape), 7)
        tiles = [walk * scale for walk, scale in zip(walks, (2.0, 1.0, 0.5))]
        stacked = assert_stack_as_alone(encodes(config, reconstruct), tiles)
        bounds = {params["abs_eb"] for params, *_ in stacked}
        assert len(bounds) == (3 if mode is ErrorBoundMode.REL else 1)

    def test_a_temporal_deltas_candidates(self, reconstruct, monkeypatch):
        seen = []
        original = SZCompressor.encode_stack

        def recording(self, tiles, config, reconstruct=False):
            seen.append(([np.array(t) for t in tiles], config, reconstruct))
            return original(self, tiles, config, reconstruct)

        monkeypatch.setattr(SZCompressor, "encode_stack", recording)
        first = _walk((48, 40), 8)
        second = first + 1e-3 * _walk((48, 40), 9)
        second[:16, :16] = _walk((16, 16), 10)  # some tiles change wholly
        config = CompressionConfig(error_bound=1e-3, tile_shape=(16, 16))
        temporal = TemporalCompressor(backend="serial")
        keyframe = temporal.compress_snapshot(first, config).blob
        reference = temporal.decompress(keyframe)
        seen.clear()
        delta = temporal.compress_snapshot(
            second, config, reference, "v0", reconstruct=reconstruct
        )
        assert not delta.keyframe and delta.stats.temporal_tiles
        assert max(len(tiles) for tiles, _, _ in seen) > 1
        monkeypatch.setattr(SZCompressor, "encode_stack", original)
        for tiles, config, surfaced in seen:
            assert_stack_as_alone(encodes(config, surfaced), tiles)


def test_a_36_tile_compress_predicts_once_per_stack(monkeypatch):
    calls = defaultdict(int)
    targets = [(PredictorStage, "decompose"), (HuffmanEncoder, "plan")]
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    data = _walk((192, 192), 11)
    config = CompressionConfig(error_bound=1e-2, tile_shape=(32, 32))
    result = TiledCompressor(backend="serial").compress(data, config)
    assert result.n_tiles == 36
    per_stack = tiled._STACK_POINTS // (32 * 32)
    assert calls["decompose"] == -(-36 // per_stack) < 36
    # one plan for the code stream, one for the lossless stage's tokens
    assert calls["plan"] == 2 * 36


@pytest.mark.parametrize("predictor", PREDICTORS[1:])
def test_a_36_tile_compress_quantizes_once_per_stack(monkeypatch, predictor):
    built = []
    original = Quantizer.__init__

    def counting(self, error_bounds, radius):
        built.append(len(error_bounds))
        original(self, error_bounds, radius)

    monkeypatch.setattr(Quantizer, "__init__", counting)
    data = _walk((192, 192), 11)
    config = CompressionConfig(
        predictor=predictor, error_bound=1e-2, tile_shape=(32, 32)
    )
    result = TiledCompressor(backend="serial").compress(data, config)
    assert result.n_tiles == 36 == sum(built)
    per_stack = tiled._STACK_POINTS // (32 * 32)
    assert len(built) == -(-36 // per_stack) < 36


def test_a_stack_that_raises_names_its_first_bad_tile():
    tiles = list(_walk((4, 8, 8), 12))
    tiles[1] *= 1e15  # past the lattice's exact-integer range
    tiles[3][0, 0] = np.inf  # the stack's own check meets this one first
    arena = np.concatenate([t.ravel() for t in tiles]).view(np.uint8)
    item = ([i * 8 * 64 for i in range(4)], (8, 8), "<f8", CONFIG, None)
    with pytest.raises(ValueError, match="data must be finite"):
        SZCompressor().encode_stack(tiles, CONFIG)
    with pytest.raises(ValueError, match="error bound too small"):
        tiled._compress_tile_task(item, arena, None)
    encodes, _ = tiled._compress_tile_task(
        ([0, 2 * 512], (8, 8), "<f8", CONFIG, None), arena, None
    )
    expected = SZCompressor().encode_stack([tiles[0], tiles[2]], CONFIG)
    assert [e[1] for e in encodes] == [e[1] for e in expected]


CONFIG = CompressionConfig(error_bound=1e-2)
