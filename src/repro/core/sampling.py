"""Sampling strategies for the predictor module of the model (§III-C).

The model needs the *distribution of prediction errors* without running
the compressor.  Each predictor has a matching strategy (all built on the
predictors' own ``sample_errors``):

* Lorenzo — uniformly random points, stencil evaluated on original
  neighbours (§III-C1);
* interpolation — level-aware sampling: every interpolation level
  contributes in proportion to its population (§III-C2);
* regression — whole-block sampling, since residuals only exist relative
  to a block's own fit (§III-C3).

The default rate is the paper's 1%.  One sampling pass supports *all*
error bounds: the raw errors are kept and re-quantized per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressor.predictors import make_predictor
from repro.compressor.predictors.lorenzo import stencil_errors

__all__ = [
    "SampleResult",
    "TileStatsBatch",
    "sample_prediction_errors",
    "sample_prediction_errors_stack",
    "batch_tile_stats",
    "iter_tile_batches",
    "DEFAULT_SAMPLE_RATE",
    "MIN_SAMPLES",
]

DEFAULT_SAMPLE_RATE = 0.01

#: Point budget per materialized tile batch for the vectorized per-tile
#: passes.  Bounds peak memory on memmapped inputs to a few batches of
#: float64 tiles while keeping each NumPy reduction large enough to
#: amortize dispatch overhead.
BATCH_POINTS = 1 << 22

#: Floor on the absolute sample count.  The paper's 1% rate targets
#: fields of 10^7..10^9 points; on laptop-scale arrays a bare 1% is a
#: few hundred points and the histogram/variance estimates get noisy,
#: so the effective rate is raised until at least this many points are
#: covered (or the whole array, if smaller).
MIN_SAMPLES = 4096


@dataclass(frozen=True)
class SampleResult:
    """Sampled prediction errors plus the data statistics the model needs.

    Attributes
    ----------
    errors:
        Sampled prediction errors (original-value prediction).
    rate:
        Requested sampling rate.
    predictor:
        Predictor name the errors correspond to.
    n_total:
        Number of points in the full array.
    shape:
        Full array shape (used for side-payload overhead estimates).
    value_range, data_variance, data_mean:
        Exact statistics of the full array (cheap O(N) reductions).
    sparsity:
        Fraction of exactly-zero values in the full array; tracked for
        sparse fields such as early RTM snapshots (§III-C).
    dtype_bits:
        Bits per point of the original representation (32/64).
    values:
        A uniform sample of the *non-zero* raw data values (same
        coverage as the error sample).  The dual-quantization Lorenzo
        error model needs the value distribution: its reconstruction is
        exactly ``2 eb * rint(x / 2 eb)``, so the compression error is
        the scalar quantization residual of the values.  Exact zeros
        always have zero residual, so sampling the non-zero support and
        weighting by ``1 - sparsity`` handles sparse fields (§III-C)
        without inflating the sample.
    """

    errors: np.ndarray
    rate: float
    predictor: str
    n_total: int
    shape: tuple[int, ...]
    value_range: float
    data_variance: float
    data_mean: float
    sparsity: float
    dtype_bits: int
    values: np.ndarray | None = None
    #: Lorenzo stencil replay data: per-sample neighbourhood values and
    #: the inclusion-exclusion signs, for exact dual-quant code
    #: histograms at any error bound (None for other predictors).
    stencil_values: np.ndarray | None = None
    stencil_signs: np.ndarray | None = None
    #: Contiguous-row stencil replay (n_rows, row_len, 2^d): zero-run
    #: statistics at any bound for the RLE model (None for other
    #: predictors).
    row_stencils: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        """Number of sampled errors."""
        return int(self.errors.size)

    def std_error_vs(self, full_errors: np.ndarray) -> float:
        """Relative deviation of sampled vs full error std (Fig. 4 metric).

        ``|std(sampled) - std(full)| / value_range`` — the "Sample Err"
        column of Table II.
        """
        full_std = float(np.std(np.asarray(full_errors, dtype=np.float64)))
        samp_std = float(np.std(self.errors))
        if self.value_range == 0:
            return 0.0
        return abs(samp_std - full_std) / self.value_range


def sample_prediction_errors(
    data: np.ndarray,
    predictor: str = "lorenzo",
    rate: float = DEFAULT_SAMPLE_RATE,
    seed: int | None = 0,
    **predictor_kwargs,
) -> SampleResult:
    """One sampling pass over *data* for the given predictor.

    Returns a :class:`SampleResult`; raise on empty input or a rate
    outside (0, 1].  The batch of one of
    :func:`sample_prediction_errors_stack`.
    """
    return sample_prediction_errors_stack(
        np.asarray(data)[None], predictor, rate, seed, **predictor_kwargs
    )[0]


def sample_prediction_errors_stack(
    stack: np.ndarray,
    predictor: str = "lorenzo",
    rate: float = DEFAULT_SAMPLE_RATE,
    seed: int | None = 0,
    **predictor_kwargs,
) -> list[SampleResult]:
    """One sampling pass over ``(k, *shape)`` same-shaped arrays.

    Member *i* of the result is what the pass over ``stack[i]`` alone
    returns: equal shapes draw equal sample points from an equal seed,
    so order-1 Lorenzo makes one index draw, one point-stencil gather
    and one row-stencil gather for the whole stack (other predictors
    sample member by member).
    """
    stack = np.asarray(stack)
    size = int(np.prod(stack.shape[1:]))
    if size == 0:
        raise ValueError("cannot sample an empty array")
    if not 0 < rate <= 1:
        raise ValueError("rate must be within (0, 1]")
    if size * rate < MIN_SAMPLES:
        rate = min(1.0, MIN_SAMPLES / size)
    if len(stack) == 0:
        return []
    pred = make_predictor(predictor, **predictor_kwargs)
    work = stack.astype(np.float64, copy=False)
    flat = work.reshape(len(stack), -1)
    rng = np.random.default_rng(seed)
    stencil_signs = None
    stencil_values = row_stencils = [None] * len(stack)
    if predictor == "lorenzo" and getattr(pred, "order", 1) == 1:
        # one gather serves both the stencils and the errors
        stencil_signs, stencil_values = pred.sample_stencils(
            work, rate, rng, stacked=True
        )
        errors = stencil_errors(stencil_signs, stencil_values)
        row_len = stack.shape[-1]
        n_rows = max(8, int(round(size * rate / max(row_len, 1))))
        _, row_stencils = pred.sample_row_stencils(
            work, n_rows, np.random.default_rng(seed), stacked=True
        )
        # every member's value draw starts from this generator state; a
        # zero-free member draws from all positions, so those share one
        state = rng.bit_generator.state
        shared = flat[:, _value_positions(np.arange(size), size, rate, rng)]
        values = []
        for k, row in enumerate(flat):
            nonzero = np.flatnonzero(row)
            if nonzero.size == size:
                values.append(shared[k])
            elif nonzero.size:
                rng.bit_generator.state = state
                values.append(
                    row[_value_positions(nonzero, size, rate, rng)]
                )
            else:
                values.append(np.zeros(1, dtype=np.float64))
    else:
        errors, values = [], []
        for member, row in zip(work, flat):
            rng = np.random.default_rng(seed)
            errors.append(pred.sample_errors(member, rate, rng))
            nonzero = np.flatnonzero(row)
            values.append(
                row[_value_positions(nonzero, size, rate, rng)]
                if nonzero.size
                else np.zeros(1, dtype=np.float64)
            )
    return [
        SampleResult(
            errors=np.asarray(errors[k], dtype=np.float64),
            rate=rate,
            predictor=predictor,
            n_total=size,
            shape=tuple(stack.shape[1:]),
            value_range=float(member.max() - member.min()),
            data_variance=float(member.var()),
            data_mean=float(member.mean()),
            sparsity=float(np.count_nonzero(member == 0) / size),
            dtype_bits=int(stack.dtype.itemsize * 8),
            values=values[k],
            stencil_values=stencil_values[k],
            stencil_signs=stencil_signs,
            row_stencils=row_stencils[k],
        )
        for k, member in enumerate(work)
    ]


def _value_positions(
    nonzero: np.ndarray, size: int, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draw of non-zero positions for ``SampleResult.values``."""
    n_values = max(1, min(nonzero.size, int(round(size * rate))))
    return rng.choice(nonzero, size=n_values, replace=False)


# -- vectorized per-tile statistics (adaptive planner fast path) ---------------


@dataclass(frozen=True)
class TileStatsBatch:
    """Per-tile summary statistics computed in one vectorized pass.

    The adaptive planner's clustering and plan-cache fingerprinting run
    on these: for every tile of a tiled compression run the batch holds
    exact min/max/mean plus std and gradient energy (mean squared
    first difference, summed over axes — a cheap roughness proxy for
    "how hard is this tile to predict").  All arrays are indexed in
    ``iter_tiles`` order.
    """

    extents: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    sizes: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    grad_energy: np.ndarray

    @property
    def n_tiles(self) -> int:
        """Number of tiles covered."""
        return len(self.extents)

    @property
    def value_range(self) -> float:
        """Exact global value range over all tiles."""
        if self.n_tiles == 0:
            return 0.0
        return float(self.maxs.max() - self.mins.min())

    @property
    def ranges(self) -> np.ndarray:
        """Per-tile value ranges."""
        return self.maxs - self.mins


def iter_tile_batches(
    data: np.ndarray,
    extents,
    batch_points: int = BATCH_POINTS,
):
    """Yield ``(indices, stack)`` batches of same-shaped tiles.

    Tiles are grouped by shape (edge tiles of a non-divisible grid form
    their own groups) and materialized a bounded batch at a time as a
    float64 stack of shape ``(n_batch, *tile_shape)``, so the per-tile
    vectorized passes work on memmapped inputs without loading the
    whole array.  ``indices`` are positions into *extents*.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (start, stop) in enumerate(extents):
        shape = tuple(b - a for a, b in zip(start, stop))
        groups.setdefault(shape, []).append(i)
    for shape, indices in groups.items():
        points = max(1, int(np.prod(shape)))
        per_batch = max(1, batch_points // points)
        for pos in range(0, len(indices), per_batch):
            batch = indices[pos : pos + per_batch]
            stack = np.empty((len(batch),) + shape, dtype=np.float64)
            for k, i in enumerate(batch):
                start, stop = extents[i]
                slc = tuple(slice(a, b) for a, b in zip(start, stop))
                stack[k] = data[slc]
            yield np.asarray(batch, dtype=np.intp), stack


def batch_tile_stats(
    data: np.ndarray,
    extents,
    batch_points: int = BATCH_POINTS,
) -> TileStatsBatch:
    """Vectorized per-tile summary statistics over *extents*.

    One pass over the tiles; every reduction runs batched across a
    stack of same-shaped tiles rather than per tile in Python.
    """
    extents = tuple(
        (tuple(int(a) for a in start), tuple(int(b) for b in stop))
        for start, stop in extents
    )
    n = len(extents)
    sizes = np.array(
        [
            int(np.prod([b - a for a, b in zip(start, stop)]))
            for start, stop in extents
        ],
        dtype=np.int64,
    )
    mins = np.zeros(n)
    maxs = np.zeros(n)
    means = np.zeros(n)
    stds = np.zeros(n)
    grad = np.zeros(n)
    for indices, stack in iter_tile_batches(data, extents, batch_points):
        axes = tuple(range(1, stack.ndim))
        mins[indices] = stack.min(axis=axes)
        maxs[indices] = stack.max(axis=axes)
        means[indices] = stack.mean(axis=axes)
        stds[indices] = stack.std(axis=axes)
        energy = np.zeros(len(indices))
        for axis in axes:
            if stack.shape[axis] > 1:
                diffs = np.diff(stack, axis=axis)
                energy += np.mean(
                    diffs**2, axis=tuple(range(1, diffs.ndim))
                )
        grad[indices] = energy
    return TileStatsBatch(
        extents=extents,
        sizes=sizes,
        mins=mins,
        maxs=maxs,
        means=means,
        stds=stds,
        grad_energy=grad,
    )
