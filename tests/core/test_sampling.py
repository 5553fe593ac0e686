"""Tests for the model's sampling strategies."""

import numpy as np
import pytest

from repro.compressor.predictors import make_predictor
from repro.core.sampling import (
    SampleResult,
    sample_prediction_errors,
    sample_prediction_errors_stack,
)
from tests.conftest import smooth_field


class TestSamplePredictionErrors:
    @pytest.mark.parametrize(
        "predictor", ["lorenzo", "interpolation", "regression"]
    )
    def test_basic_fields(self, predictor):
        data = smooth_field((48, 48))
        result = sample_prediction_errors(data, predictor, rate=0.05)
        assert result.predictor == predictor
        assert result.n_total == data.size
        assert result.shape == data.shape
        assert result.dtype_bits == 32
        assert result.n_samples > 0
        assert result.value_range == pytest.approx(
            float(data.max() - data.min())
        )

    def test_invalid_rate(self):
        data = smooth_field((16, 16))
        with pytest.raises(ValueError):
            sample_prediction_errors(data, rate=0.0)
        with pytest.raises(ValueError):
            sample_prediction_errors(data, rate=1.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            sample_prediction_errors(np.zeros(0))

    def test_deterministic_with_seed(self):
        data = smooth_field((32, 32))
        a = sample_prediction_errors(data, seed=7)
        b = sample_prediction_errors(data, seed=7)
        np.testing.assert_array_equal(a.errors, b.errors)

    def test_sparsity_tracked(self):
        data = smooth_field((32, 32))
        data[:16] = 0.0
        result = sample_prediction_errors(data)
        assert result.sparsity == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize(
        "predictor", ["lorenzo", "interpolation", "regression"]
    )
    def test_sampled_std_close_to_full(self, predictor):
        # The Fig. 4 property: 1% sampling reproduces the error std.
        data = smooth_field((96, 96))
        pred = make_predictor(predictor)
        full = pred.prediction_errors(data.astype(np.float64))
        result = sample_prediction_errors(data, predictor, rate=0.01)
        rel = result.std_error_vs(full)
        assert rel < 0.02  # within 2% of the value range

    def test_std_error_metric_zero_for_full_rate(self):
        data = smooth_field((32, 32))
        pred = make_predictor("lorenzo")
        full = pred.prediction_errors(data.astype(np.float64))
        result = sample_prediction_errors(data, "lorenzo", rate=1.0)
        assert result.std_error_vs(full) == pytest.approx(0.0, abs=1e-9)


class TestSampleResult:
    def test_n_samples(self):
        r = SampleResult(
            errors=np.zeros(10),
            rate=0.1,
            predictor="lorenzo",
            n_total=100,
            shape=(100,),
            value_range=1.0,
            data_variance=1.0,
            data_mean=0.0,
            sparsity=0.0,
            dtype_bits=32,
        )
        assert r.n_samples == 10


def _loop_stencils(data, flat_idx):
    """Reference gather: one neighbour at a time, Python loops only."""
    data = np.asarray(data, dtype=np.float64)
    ndim = data.ndim
    values = np.zeros((len(flat_idx), 1 << ndim))
    for row, flat in enumerate(flat_idx):
        coord = np.unravel_index(int(flat), data.shape)
        for mask in range(1 << ndim):
            point = tuple(
                c - (mask >> axis & 1) for axis, c in enumerate(coord)
            )
            if min(point) >= 0:
                values[row, mask] = data[point]
    return values


def _assert_same_sample(one: SampleResult, other: SampleResult):
    for name in SampleResult.__dataclass_fields__:
        a, b = getattr(one, name), getattr(other, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


class TestStackedSampling:
    """A stack's pass equals its members' own passes, bit for bit."""

    @pytest.mark.parametrize("shape", [(300,), (23, 19), (7, 11, 13)])
    def test_gather_matches_the_loop_reference(self, shape):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((3,) + shape)
        flat_idx = rng.choice(stack[0].size, size=97, replace=False)
        # the first point and the last: every border case of the stencil
        flat_idx[:2] = 0, stack[0].size - 1
        signs, values = make_predictor("lorenzo")._gather_stencils(
            stack, flat_idx
        )
        assert values.shape == (3, 97, 1 << len(shape))
        for member, gathered in zip(stack, values):
            np.testing.assert_array_equal(
                gathered, _loop_stencils(member, flat_idx)
            )
        assert signs.tolist() == [
            (-1.0) ** bin(mask).count("1") for mask in range(signs.size)
        ]

    @pytest.mark.parametrize(
        "predictor", ["lorenzo", "interpolation", "regression"]
    )
    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    def test_members_equal_single_passes(self, predictor, dtype):
        rng = np.random.default_rng(9)
        smooth = smooth_field((24, 20), seed=3).astype(np.float64)
        sparse = smooth * (rng.random(smooth.shape) < 0.2)
        stack = np.stack(
            [
                smooth,
                sparse,  # zeros: its value draw is its own
                np.zeros_like(smooth),  # all zero
                np.full_like(smooth, 2.5),  # constant
                rng.standard_normal(smooth.shape),
            ]
        ).astype(dtype)
        batch = sample_prediction_errors_stack(
            stack, predictor, rate=0.05, seed=6
        )
        assert len(batch) == len(stack)
        for member, sample in zip(stack, batch):
            _assert_same_sample(
                sample,
                sample_prediction_errors(
                    member, predictor, rate=0.05, seed=6
                ),
            )

    def test_one_draw_and_two_gathers_per_stack(self, monkeypatch):
        predictor_type = type(make_predictor("lorenzo"))
        calls = []
        original = predictor_type._gather_stencils

        def counting(self, stack, flat_idx):
            calls.append(stack.shape[0])
            return original(self, stack, flat_idx)

        monkeypatch.setattr(predictor_type, "_gather_stencils", counting)
        stack = np.random.default_rng(1).standard_normal((16, 16, 16, 32))
        sample_prediction_errors_stack(stack, "lorenzo", rate=0.05)
        # point stencils + row stencils, each over all 16 members
        assert calls == [16, 16]

    def test_empty_stack_and_empty_members(self):
        assert sample_prediction_errors_stack(np.zeros((0, 8, 8))) == []
        with pytest.raises(ValueError):
            sample_prediction_errors_stack(np.zeros((2, 0)))
