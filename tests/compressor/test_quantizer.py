"""The one linear quantizer of the interpolation and regression
predictors, over stacks of members with a bound each: unit + property
tests, and a sha256 pin over the stage sections of tiles whose points
escape it."""

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import CompressionConfig, SZCompressor
from repro.compressor.quantizer import Dequantizer, Quantizer
from tests.oracle import encode_alone


def quantize(true, pred, eb, radius=32768):
    """``(values, codes, positions, outlier values)`` of one stretch of
    a one-member stack."""
    quantizer = Quantizer([eb], radius)
    values = quantizer.quantize(np.asarray(true)[None], np.asarray(pred)[None])
    return (values[0], *quantizer.streams()[0])


class TestQuantize:
    def test_nonpositive_bound_raises(self):
        with pytest.raises(ValueError):
            Quantizer([0.1, 0.0], 8)

    def test_no_stretch_gives_empty_streams(self):
        streams = Quantizer([0.1, 0.2], 8).streams()
        assert len(streams) == 2
        for codes, positions, values in streams:
            assert (codes.dtype, positions.dtype, values.dtype) == (
                np.int64,
                np.int64,
                np.float64,
            )
            assert codes.size == positions.size == values.size == 0

    def test_positions_count_through_every_stretch(self):
        quantizer = Quantizer([0.5, 0.5], 2)
        quantizer.quantize(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))
        true = np.array([[[0.0, 9.0]], [[-9.0, 0.0]]])
        quantizer.quantize(true, np.zeros((2, 1, 2)))
        (codes, positions, values), (_, other, others) = quantizer.streams()
        assert codes.size == 8
        np.testing.assert_array_equal(positions, [7])
        np.testing.assert_array_equal(values, [9.0])
        np.testing.assert_array_equal(other, [6])
        np.testing.assert_array_equal(others, [-9.0])

    def test_each_member_streams_as_alone(self):
        # per-member bounds, outliers in some members only, in several
        # stretches: each member's streams and values are its own
        rng = np.random.default_rng(3)
        bounds = [5e-2, 1e-3, 1e-2, 5e-2]
        stretches = []
        for shape in [(5, 4), (7,), (3, 2, 2)]:
            true = rng.standard_normal((4, *shape))
            stretches.append((true, true + 0.1 * rng.standard_normal(true.shape)))
        stretches[0][0][2, 3, 1] = 1e3
        stretches[2][0][3, 0, 1, 1] = -1e3
        quantizer = Quantizer(bounds, 64)
        stacked = [quantizer.quantize(true, pred) for true, pred in stretches]
        streams = quantizer.streams()
        assert [p.size > 0 for _, p, _ in streams] == [False, True, True, True]
        for i, bound in enumerate(bounds):
            alone = Quantizer([bound], 64)
            for (true, pred), got in zip(stretches, stacked):
                want = alone.quantize(true[i : i + 1], pred[i : i + 1])
                assert got[i].tobytes() == want[0].tobytes()
            for got, want in zip(streams[i], alone.streams()[0]):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_codes_round_to_the_nearest_bin(self):
        # bins of width 2 centred at even errors
        errors = np.array([0.9, 1.1, 2.9, 3.1, -0.9, -1.1])
        _, codes, positions, _ = quantize(errors, np.zeros(6), 1.0)
        np.testing.assert_array_equal(codes, [0, 1, 1, 2, 0, -1])
        assert codes.dtype == np.int64 and positions.size == 0

    def test_overflow_is_an_outlier(self):
        true, pred = np.array([5.0, 6.0]), np.array([5.0, 5.0])
        # 1.0 / 0.02 = 50 bins > radius 4
        values, codes, positions, outliers = quantize(true, pred, 0.01, 4)
        np.testing.assert_array_equal(codes, [0, 0])
        np.testing.assert_array_equal(positions, [1])
        np.testing.assert_array_equal(outliers, [6.0])
        np.testing.assert_array_equal(values, true)

    def test_a_rounded_value_past_the_bound_is_an_outlier(self):
        # the code is in range, but pred + code * 2eb rounds, at 1e7,
        # to a float farther than eb from the true value
        rng = np.random.default_rng(0)
        true = 1e7 + 1e-6 * rng.standard_normal(256)
        pred = np.full(256, 1e7)
        values, codes, positions, outliers = quantize(true, pred, 1e-9, 1 << 30)
        assert 0 < positions.size < true.size
        assert np.all(codes[positions] == 0)
        np.testing.assert_array_equal(outliers, true[positions])
        assert np.all(np.abs(values - true) <= 1e-9)

    def test_negative_zero_is_cleared_from_codes(self):
        # rint(-0.4) is -0.0; a decoder multiplies the integer 0
        true, pred = np.array([-0.0, -0.4]), np.array([-0.0, -0.0])
        values, codes, _, _ = quantize(true, pred, 0.5)
        np.testing.assert_array_equal(codes, [0, 0])
        assert not np.any(np.signbit(values))
        decoded = Dequantizer([(codes, [], [])], [0.5]).dequantize(pred[None])
        assert decoded.tobytes() == values[None].tobytes()

    @given(
        st.floats(1e-6, 1e3),
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=200,
        ),
        st.integers(2, 1 << 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_invariant(self, eb, raw, radius):
        true = np.array(raw)
        pred = np.roll(true, 1)
        values, codes, positions, _ = quantize(true, pred, eb, radius)
        assert np.all(np.abs(values - true) <= eb)
        assert np.all(np.abs(codes) <= radius)
        assert np.all(np.diff(positions) > 0)


class TestDequantize:
    def test_inverts_stretches_in_traversal_order(self):
        rng = np.random.default_rng(1)
        stretches = [
            (rng.standard_normal(shape), rng.standard_normal(shape))
            for shape in [(5, 4), (7,), (3, 2, 2)]
        ]
        bounds = [1e-2, 1e-1]
        quantizer = Quantizer(bounds, 16)
        encoded = [
            quantizer.quantize(np.stack([true, 2 * true]), np.stack([pred] * 2))
            for true, pred in stretches
        ]
        streams = quantizer.streams()
        # the radius makes outliers in every member
        assert all(positions.size for _, positions, _ in streams)
        dequantizer = Dequantizer(streams, bounds)
        for (_, pred), want in zip(stretches, encoded):
            got = dequantizer.dequantize(np.stack([pred] * 2))
            assert got.tobytes() == want.tobytes()

    def test_each_member_dequantizes_as_alone(self):
        # per-member bounds, outliers in some members only, stretches of
        # several shapes: each member is what a stack of it alone gives
        rng = np.random.default_rng(4)
        bounds = [5e-2, 1e-3, 1e-2]
        quantizer = Quantizer(bounds, 1 << 10)
        stretches = []
        for shape in [(4, 6), (9,), (2, 3, 5)]:
            true = rng.standard_normal((3, *shape))
            true[1] *= 1e3  # outliers in the middle member only
            pred = rng.standard_normal((3, *shape))
            quantizer.quantize(true, pred)
            stretches.append(pred)
        streams = quantizer.streams()
        assert [positions.size > 0 for _, positions, _ in streams] == [
            False,
            True,
            False,
        ]
        stacked = Dequantizer(streams, bounds)
        alone = [Dequantizer([s], [b]) for s, b in zip(streams, bounds)]
        for pred in stretches:
            got = stacked.dequantize(pred)
            for i, member in enumerate(alone):
                want = member.dequantize(pred[i : i + 1])
                assert got[i : i + 1].tobytes() == want.tobytes()

    def test_outlier_positions_in_any_order(self):
        true = np.array([0.0, 9.0, 0.1, -7.0, 0.0, 5.0])
        pred = np.zeros(6)
        values, codes, positions, outliers = quantize(true, pred, 0.05, 1)
        order = np.random.default_rng(2).permutation(positions.size)
        shuffled = Dequantizer(
            [(codes, positions[order], outliers[order])], [0.05]
        )
        first = shuffled.dequantize(pred[None, :3])
        second = shuffled.dequantize(pred[None, 3:])
        np.testing.assert_array_equal(
            np.concatenate([first, second], axis=1), values[None]
        )


#: shapes of 1-D to 4-D, none a multiple of the regression block (6)
SHAPES = [(53,), (23, 17), (13, 11, 9), (7, 8, 9, 5)]


def _outlier_field(cause, shape, seed):
    """A field and config whose points escape the quantizer by *cause*:
    past a small radius, or past the bound once rounded at 1e7."""
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(shape), axis=-1)
    if cause == "overflow":
        return 0.01 * walk, CompressionConfig(error_bound=1e-3, quant_radius=4)
    config = CompressionConfig(error_bound=1e-9, quant_radius=1 << 30)
    return 1e7 + 1e-6 * walk, config


#: sha256 over the five stage sections (each length-prefixed) of every
#: interpolation and regression case below, encoded without and with
#: the reconstruction, and over that reconstruction's bytes; taken
#: before the predictors shared one quantizer
OUTLIER_SECTIONS_SHA256 = (
    "20572de0becfe2f4653d93599dd126cc9f87f2fcc45ddc62d1b59028cfd07cc8"
)


def test_outlier_sections_are_pinned():
    digest = hashlib.sha256()
    codec = SZCompressor()
    cases = itertools.product(
        ["interpolation", "regression"], ["overflow", "violation"], SHAPES
    )
    for seed, (predictor, cause, shape) in enumerate(cases):
        data, config = _outlier_field(cause, shape, seed)
        config = replace(config, predictor=predictor)
        for reconstruct in (False, True):
            _, sections, recon, measures = encode_alone(
                data, config, reconstruct, codec
            )
            assert measures["n_outliers"] > 0, (predictor, cause, shape)
            for section in sections:
                digest.update(len(section).to_bytes(8, "little"))
                digest.update(section)
            if reconstruct:
                digest.update(recon.tobytes())
    assert digest.hexdigest() == OUTLIER_SECTIONS_SHA256


@pytest.mark.parametrize("predictor", ["interpolation", "regression"])
def test_the_predictor_quantizes_through_it(monkeypatch, predictor):
    """Every code a predictor writes is one the quantizer made, and
    every value it decodes one the dequantizer returned."""
    from repro.compressor.predictors import make_predictor

    seen = {"quantized": 0, "dequantized": 0}

    def spy(name, real):
        def counted(self, *args):
            value = real(self, *args)
            seen[name] += value.size
            return value

        return counted

    monkeypatch.setattr(
        Quantizer, "quantize", spy("quantized", Quantizer.quantize)
    )
    monkeypatch.setattr(
        Dequantizer, "dequantize", spy("dequantized", Dequantizer.dequantize)
    )
    pred = make_predictor(predictor)
    data, _ = _outlier_field("overflow", (23, 17), 0)
    output = pred.decompose(data, 1e-3, 4)
    pred.reconstruct(output, data.shape, 1e-3)
    n = output.codes.size
    assert seen == {"quantized": n, "dequantized": n}
