"""The oracle is not vacuous: every planted disagreement fails it."""

import numpy as np
import pytest
from hypothesis import settings

from repro.compressor import CompressionConfig, TiledCompressor
from repro.compressor.container import ContainerFormatError
from repro.compressor.tiled_geometry import extent_slices, iter_tiles
from tests.conftest import forge_v2, smooth_field
from tests.oracle import assert_same_verdict, tile_routes
from tests.test_tile_decode_parity import (
    BAD_TILE,
    FIELD,
    REGION,
    SHAPE,
    TILE,
    WRONG_SHAPE,
    mismatched,
)

ARRAY = np.linspace(-1.0, 1.0, 12).reshape(3, 4)


def refusal(error: type = ValueError, message: str = "refused"):
    def route():
        raise error(message)

    return route


def test_agreeing_routes_give_their_verdict():
    same = assert_same_verdict({"a": lambda: ARRAY, "b": ARRAY.copy})
    assert same.tobytes() == ARRAY.tobytes()
    refused = refusal(ContainerFormatError)
    verdict = assert_same_verdict(
        {"a": refused, "b": refused},
        messages=("a", "b"),
        match="refused",
    )
    assert isinstance(verdict, ContainerFormatError)


def test_every_planted_disagreement_fails():
    off = ARRAY.copy()
    off.reshape(-1).view(np.uint8)[5] ^= 1
    plants = {
        "one byte off": {"a": lambda: ARRAY, "b": lambda: off},
        # the same values, not the same bytes
        "-0.0": {"a": lambda: np.zeros(3), "b": lambda: -np.zeros(3)},
        "another shape": {"a": lambda: ARRAY, "b": lambda: ARRAY.T.copy()},
        "another dtype": {"a": lambda: ARRAY, "b": lambda: ARRAY.view("i8")},
        "another error": {"a": refusal(ContainerFormatError), "b": refusal()},
        "a return": {"a": refusal(), "b": refusal(), "c": lambda: ARRAY},
        "a refusal": {"a": lambda: ARRAY, "b": refusal()},
    }
    for name, routes in plants.items():
        try:
            assert_same_verdict(routes)
        except AssertionError:
            continue
        pytest.fail(f"the oracle passed a planted disagreement: {name}")
    with pytest.raises(AssertionError):
        assert_same_verdict(
            {"a": refusal(message="one"), "b": refusal(message="two")},
            messages=("a", "b"),
        )
    with pytest.raises(AssertionError):
        assert_same_verdict({"a": refusal(), "b": refusal()}, match="other")
    with pytest.raises(AssertionError):
        assert_same_verdict({"a": ARRAY.copy, "b": ARRAY.copy}, match="x")


def test_anything_but_a_refusal_escapes():
    with pytest.raises(RuntimeError):
        assert_same_verdict({"a": refusal(RuntimeError), "b": refusal()})


def test_fewer_than_two_routes_are_refused():
    with pytest.raises(AssertionError, match="two routes"):
        assert_same_verdict({"only": lambda: ARRAY})
    with pytest.raises(AssertionError, match="two routes"):
        assert_same_verdict({})


def test_a_route_that_crops_a_wrong_shaped_tile_into_place_fails(tmp_path):
    """Every reader refuses a tile whose payload decodes to 24x24 under
    a 16x16 extent; a reader that crops it into place is caught."""
    blob = mismatched("larger", checksums=True)
    config = CompressionConfig(error_bound=1e-3)

    def cropping():
        out = np.zeros(SHAPE)
        for start, stop in iter_tiles(SHAPE, TILE):
            extent = extent_slices(start, stop)
            if start == BAD_TILE:
                tile = smooth_field(WRONG_SHAPE["larger"]).astype(np.float64)
            else:
                tile = FIELD[extent]
            decoded = TiledCompressor().decompress(forge_v2(tile, config))
            out[extent] = decoded[tuple(slice(0, 16) for _ in SHAPE)]
        return out[REGION]

    routes = tile_routes(blob, REGION, tmp=tmp_path)
    assert isinstance(assert_same_verdict(routes), ContainerFormatError)
    with pytest.raises(AssertionError, match="cropping"):
        assert_same_verdict({**routes, "cropping": cropping})


def test_every_property_test_draws_the_same_examples():
    assert settings().derandomize and settings().deadline is None
