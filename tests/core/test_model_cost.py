"""The cheap model paths answer exactly what the full ones do.

``bitrate`` / ``bitrate_curve`` (rate-only, grid-batched), the lazily
built quality table and the one-gather sampling pass are optimisations
of evaluation order only: every number must equal the scalar
``estimate`` to the last bit.  The loop implementations they replaced
are kept here as the references.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.compressor.config import ErrorBoundMode
from repro.compressor.encoders.rle import zero_run_lengths
from repro.core import histogram as histogram_mod
from repro.core.histogram import histograms_from_codes
from repro.core.model import RatioQualityModel
from repro.core.quality import error_variance_for_psnr
from repro.core.sampling import sample_prediction_errors

PREDICTORS = ("lorenzo", "interpolation", "regression")
MODES = (ErrorBoundMode.ABS, ErrorBoundMode.REL, ErrorBoundMode.PW_REL)


def _fields() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20240914)
    return {
        "walk_1d": np.cumsum(rng.standard_normal(6000)),
        "walk_2d": np.cumsum(
            np.cumsum(rng.standard_normal((300, 310)), axis=0), axis=1
        ),
        "walk_3d_f4": np.cumsum(
            rng.standard_normal((20, 24, 28)), axis=-1
        ).astype(np.float32),
        "tile_2d_f4": np.cumsum(
            rng.standard_normal((32, 32)), axis=1
        ).astype(np.float32),
    }


FIELDS = _fields()


def _grid(model: RatioQualityModel, field: np.ndarray, n: int) -> np.ndarray:
    """*n* query-mode bounds from absurdly fine to past the value range."""
    if model.mode is ErrorBoundMode.ABS:
        scale = float(field.max() - field.min()) or 1.0
        return np.geomspace(scale * 1e-20, scale * 8.0, n)
    return np.geomspace(1e-20, 4.0, n)


# -- sampling: one gather, same arrays -----------------------------------------

#: sha256 over every ``SampleResult`` array (rates 0.01 and 0.05, seed 3)
#: of the seeded fields above, taken at the revision *before* the error
#: sample was derived from the stencil gather.
SAMPLE_SHA256 = {
    "walk_1d/lorenzo": (
        "28d6acc6eaf6d038a27108205bfd6de04d14088e4e35a95a23e2361b9c01d954"
    ),
    "walk_1d/interpolation": (
        "96205cc9afb049e700395ca0f58f2fec56d92f042ada1f949b092c1fe4f7b8d6"
    ),
    "walk_1d/regression": (
        "7c26f1cf3d6d3ee3c2e964dfb1f1836f9f98b9fc63d5e1c425c02f4d1ad6897c"
    ),
    "walk_2d/lorenzo": (
        "dd781e9c02f1f8534a834814048678f32b6341d2e2d2ebf26ff01250e072bbba"
    ),
    "walk_2d/interpolation": (
        "e3340562214d281b0e8f8e1ff3ca118cd4db8e7bae26b85c4c12da6bd0896574"
    ),
    "walk_2d/regression": (
        "91258528156e99d06e443ea59a777cc0d66d6189f14c625aac23086d07af5332"
    ),
    "walk_3d_f4/lorenzo": (
        "417084c1ae745751a6870a99d3fcaa011433f2d4748b33e85cbbeac46e73cfb5"
    ),
    "walk_3d_f4/interpolation": (
        "b6a789c53513c5b8c7a9c6e007d466b4648981f742b2f509307100614dc600b4"
    ),
    "walk_3d_f4/regression": (
        "cf28680c983f33c24b9767a3d595ebcf703246e9d0084b893dae54415973f8b8"
    ),
    "tile_2d_f4/lorenzo": (
        "5bf09eb8567d237594f59aa0371ef964d4330d0796c121bc1c0c6e0e909b3486"
    ),
    "tile_2d_f4/interpolation": (
        "493fa84fe564ed8e50745cd728f38ad37d9ab82ce36131dc7c14a016a5835296"
    ),
    "tile_2d_f4/regression": (
        "da0279bea66679dd0626fd0945e483f4468965042c9e6e7afc817415fdde6675"
    ),
}


def _sample_digest(field: np.ndarray, predictor: str) -> str:
    digest = hashlib.sha256()
    for rate in (0.01, 0.05):
        sample = sample_prediction_errors(
            field, predictor=predictor, rate=rate, seed=3
        )
        for array in (
            sample.errors,
            sample.values,
            sample.stencil_values,
            sample.stencil_signs,
            sample.row_stencils,
        ):
            if array is None:
                digest.update(b"none")
                continue
            array = np.ascontiguousarray(array)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(SAMPLE_SHA256))
def test_sample_arrays_are_pinned(key):
    name, predictor = key.split("/")
    assert _sample_digest(FIELDS[name], predictor) == SAMPLE_SHA256[key]


def test_error_sample_is_the_signed_stencil_sum():
    """The derivation itself, against the predictor's own sampler."""
    from repro.compressor.predictors import make_predictor

    field = FIELDS["walk_3d_f4"]
    sample = sample_prediction_errors(field, rate=0.3, seed=9)
    direct = make_predictor("lorenzo").sample_errors(
        field, sample.rate, np.random.default_rng(9)
    )
    np.testing.assert_array_equal(sample.errors, direct)


def test_order2_lorenzo_keeps_the_error_sampler():
    sample = sample_prediction_errors(FIELDS["walk_2d"], seed=1, order=2)
    assert sample.stencil_values is None and sample.row_stencils is None
    assert sample.n_samples >= 4096 and np.all(np.isfinite(sample.errors))


# -- rate-only and batched queries ---------------------------------------------


def _assert_rate_queries_match(model, grid):
    scalar = [model.estimate(float(eb)).bitrate for eb in grid]
    curve = model.bitrate_curve(grid)
    assert curve.dtype == np.float64 and curve.shape == (len(grid),)
    assert curve.tolist() == scalar
    assert [model.bitrate(float(eb)) for eb in grid] == scalar


@pytest.mark.parametrize("use_lossless", (True, False))
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("name", ("walk_1d", "walk_3d_f4", "tile_2d_f4"))
def test_bitrate_queries_equal_estimate(name, predictor, mode, use_lossless):
    field = FIELDS[name]
    if mode is ErrorBoundMode.PW_REL:
        field = np.exp(field / np.abs(field).max())
    model = RatioQualityModel(
        predictor=predictor, mode=mode, use_lossless=use_lossless, seed=1
    ).fit(field)
    # the fine end of the grid drives lattice indices into the 1e15 clamp
    _assert_rate_queries_match(model, _grid(model, field, 9))


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_outliers_beyond_a_small_radius(predictor):
    field = FIELDS["walk_2d"]
    model = RatioQualityModel(predictor=predictor, radius=16, seed=2).fit(
        field
    )
    grid = _grid(model, field, 12)
    assert max(model.histogram(float(eb)).outlier_fraction for eb in grid) > 0
    _assert_rate_queries_match(model, grid)


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_constant_tile(predictor):
    model = RatioQualityModel(predictor=predictor).fit(np.full((32, 32), 3.5))
    _assert_rate_queries_match(model, np.geomspace(1e-12, 10.0, 7))


def test_grid_longer_than_the_chunk_budget():
    field = FIELDS["tile_2d_f4"]
    model = RatioQualityModel(seed=0).fit(field)
    per_bound = model.sample.stencil_values.size
    n = 2 * histogram_mod.CURVE_BATCH_POINTS // per_bound + 3
    _assert_rate_queries_match(model, _grid(model, field, n))


def test_sample_larger_than_the_chunk_budget(monkeypatch):
    field = FIELDS["walk_2d"]
    model = RatioQualityModel(seed=0).fit(field)
    grid = _grid(model, field, 5)
    expected = model.bitrate_curve(grid)
    monkeypatch.setattr(histogram_mod, "CURVE_BATCH_POINTS", 64)
    np.testing.assert_array_equal(model.bitrate_curve(grid), expected)


def test_single_bound_and_empty_grids():
    field = FIELDS["walk_1d"]
    model = RatioQualityModel().fit(field)
    _assert_rate_queries_match(model, [0.37])
    assert model.bitrate_curve([]).shape == (0,)
    with pytest.raises(ValueError):
        model.bitrate_curve([0.1, -1.0])
    with pytest.raises(RuntimeError):
        RatioQualityModel().bitrate_curve([0.1])


@pytest.mark.parametrize("refined", (True, False))
@pytest.mark.parametrize("predictor", PREDICTORS)
def test_estimate_curve_equals_the_scalar_loop(predictor, refined):
    field = FIELDS["walk_3d_f4"]
    model = RatioQualityModel(predictor=predictor, seed=4).fit(field)
    grid = _grid(model, field, 8)
    assert model.estimate_curve(grid, refined) == [
        model.estimate(float(eb), refined) for eb in grid
    ]


def test_inverse_ratio_query_runs_on_the_rate_only_path():
    field = FIELDS["walk_2d"]
    model = RatioQualityModel(seed=0).fit(field)
    eb = model.error_bound_for_ratio(12.0)
    # ~50 bisection probes, and the quality table was never built
    assert model._residual_grid is None
    assert model.estimate(eb).ratio == pytest.approx(12.0, rel=0.05)


def _psnr_bisection_over_estimate(model, target):
    """``error_bound_for_psnr`` as it ran when every probe was a full
    ``estimate`` — the oracle for the quality-only search."""
    sample = model.sample
    target_var = error_variance_for_psnr(sample.value_range, target)
    seed_eb = model._from_abs(float(np.sqrt(3.0 * target_var)))
    eb_cap = max(model._from_abs(sample.value_range), seed_eb)
    lo = hi = seed_eb
    for _ in range(60):
        if model.estimate(lo).psnr < target:
            lo /= 2.0
        else:
            break
    for _ in range(60):
        if model.estimate(hi).psnr > target and hi < eb_cap:
            hi = min(hi * 2.0, eb_cap)
        else:
            break
    for _ in range(50):
        mid = np.sqrt(lo * hi)
        if model.estimate(mid).psnr > target:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("predictor", PREDICTORS)
def test_inverse_psnr_query_reads_the_quality_side_only(
    predictor, mode, monkeypatch
):
    field = FIELDS["walk_3d_f4"]
    if mode is ErrorBoundMode.PW_REL:
        field = np.exp(field / np.abs(field).max())
    model = RatioQualityModel(predictor=predictor, mode=mode, seed=3).fit(
        field
    )
    expected = [_psnr_bisection_over_estimate(model, t) for t in (35.0, 70.0)]

    def no_rates(*args, **kwargs):
        raise AssertionError("a PSNR search read the bit-rate side")

    monkeypatch.setattr(RatioQualityModel, "_rates", no_rates)
    assert [model.error_bound_for_psnr(t) for t in (35.0, 70.0)] == expected


def test_mean_zero_run_equals_the_row_loop():
    field = np.where(
        np.random.default_rng(5).random((64, 64)) < 0.9,
        0.0,
        FIELDS["walk_2d"][:64, :64],
    )
    model = RatioQualityModel(seed=0).fit(field)
    sample = model.sample
    bounds = [1e-6, 0.01, 0.5, 40.0]
    expected = []
    for eb in bounds:
        lattice = np.rint(sample.row_stencils / (2.0 * eb))
        codes = (lattice @ sample.stencil_signs).astype(np.int64)
        lengths = np.concatenate([zero_run_lengths(row) for row in codes])
        expected.append(float(lengths.mean()) if lengths.size else None)
    assert model._mean_zero_runs(bounds) == expected
    assert [model._mean_zero_runs([eb])[0] for eb in bounds] == expected


def test_histograms_from_one_sort_equal_unique_per_row():
    rng = np.random.default_rng(0)
    codes = rng.integers(-40, 40, size=(6, 500))
    codes[2] = 0
    codes[3, ::7] = 10_000
    bounds = [0.1 * (g + 1) for g in range(6)]
    for hist, row, eb in zip(
        histograms_from_codes(codes, bounds, radius=32), codes, bounds
    ):
        kept = np.where(np.abs(row) > 32, 0, row)
        symbols, counts = np.unique(kept, return_counts=True)
        np.testing.assert_array_equal(hist.symbols, symbols)
        np.testing.assert_array_equal(hist.probs, counts / counts.sum())
        assert hist.p0 == np.count_nonzero(kept == 0) / row.size
        overflowed = np.count_nonzero(kept != row)
        assert hist.outlier_fraction == overflowed / row.size
        assert hist.error_bound == eb and hist.n_samples == row.size
        assert np.isnan(hist.central_var)


# -- the quality table: built late, same numbers -------------------------------


def _eager_residual_table(data):
    """The 48-pass loop ``fit`` used to run eagerly."""
    flat = np.asarray(data, dtype=np.float64).ravel()
    vrange = float(flat.max() - flat.min())
    grid = np.geomspace(vrange * 1e-9, vrange * 4.0, 48)
    variances = np.empty_like(grid)
    for i, eb in enumerate(grid):
        width = 2.0 * eb
        residual = flat - width * np.rint(flat / width)
        variances[i] = float(np.mean(residual**2))
    return np.log(grid), variances


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_lazy_quality_fields_equal_the_eager_table(name):
    field = FIELDS[name]
    model = RatioQualityModel(seed=0).fit(field)
    grid = _grid(model, field, 11)[3:]
    model.bitrate_curve(grid)
    model.bitrate(float(grid[0]))
    assert model._residual_grid is None, "rate-only queries built the table"
    log_grid, variances = _eager_residual_table(field)
    for eb in grid:
        est = model.estimate(float(eb))
        assert est.error_variance == float(
            np.interp(np.log(eb), log_grid, variances)
        )
    table = model._residual_table()
    np.testing.assert_array_equal(table[0], log_grid)
    np.testing.assert_array_equal(table[1], variances)
    assert model._residual_source is None, "the array outlived the table"


def test_one_estimate_computes_at_most_two_table_entries(monkeypatch):
    field = FIELDS["walk_2d"]
    model = RatioQualityModel(seed=0).fit(field)
    entries = []
    fit_entry = RatioQualityModel._fit_residual_curve

    def counted(self, entry):
        entries.append(entry)
        return fit_entry(self, entry)

    monkeypatch.setattr(RatioQualityModel, "_fit_residual_curve", counted)
    span = float(field.max() - field.min())
    # inside the grid, below it (clamped to the first entry), above it
    for eb in (span * 1e-3, span * 1e-12, span * 10.0):
        before = len(entries)
        model.estimate(eb)
        assert len(entries) - before <= 2
    assert len(entries) == len(set(entries)) < 48
    assert model._residual_source is not None
    model.error_bound_for_psnr(40.0)  # ~50 probes around one bound
    assert len(entries) < 12


def test_pickled_model_answers_identically_and_stays_small():
    field = np.cumsum(
        np.random.default_rng(8).standard_normal((600, 620)), axis=1
    )
    grid = _grid(RatioQualityModel(), field, 9)[3:]
    fresh = RatioQualityModel(seed=0).fit(field)
    expected = [fresh.estimate(eb) for eb in grid]
    blob = pickle.dumps(RatioQualityModel(seed=0).fit(field))
    clone = pickle.loads(blob)
    assert clone._residual_source is None
    assert [clone.estimate(eb) for eb in grid] == expected
    assert clone.bitrate_curve(grid).tolist() == [e.bitrate for e in expected]
    # O(sample): the sampled arrays plus a 48-point table, not the field
    sample = clone.sample
    sampled_bytes = sum(
        a.nbytes
        for a in (
            sample.errors,
            sample.values,
            sample.stencil_values,
            sample.row_stencils,
        )
    )
    assert len(blob) < 1.25 * sampled_bytes + 8192
    assert len(blob) < field.nbytes / 4
