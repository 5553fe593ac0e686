"""Multi-level linear-interpolation predictor (Zhao et al., ICDE'21; SZ3).

The array is covered by a hierarchy of lattices with strides
``2^L, 2^{L-1}, ..., 1``.  The coarsest lattice ("anchors") is stored
verbatim.  Each level then halves the stride in ``ndim`` separable
sweeps: sweep *a* predicts the points whose axis-*a* coordinate is an odd
multiple of the half stride by linearly interpolating their two known
axis-*a* neighbours (or copying the left neighbour at the boundary),
quantizes the prediction error, and reconstructs — so later sweeps and
levels predict from reconstructed values, exactly like SZ3.

Every sweep is a pure slicing operation, so compression and decompression
are vectorized, each over a whole stack of same-shaped arrays, whose
leading member axis every sweep index takes whole; the code/outlier
streams follow the deterministic traversal order (level, axis, C-order
within the sweep block).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from repro.compressor.predictors.base import Predictor, PredictorOutput
from repro.compressor.quantizer import Dequantizer, Quantizer

__all__ = ["InterpolationPredictor"]

#: default coarsest stride is 2**DEFAULT_MAX_LEVEL
DEFAULT_MAX_LEVEL = 5


def _sweep_indices(
    shape: tuple[int, ...], axis: int, stride: int, half: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Index vectors selecting one sweep's target points.

    Axes before *axis* use the fine stride (already refined this level),
    *axis* uses odd multiples of *half*, axes after use the coarse stride.
    Returns per-axis index vectors plus the target indices along *axis*.
    """
    index_vectors: list[np.ndarray] = []
    targets = np.arange(half, shape[axis], stride)
    for a, n in enumerate(shape):
        if a < axis:
            index_vectors.append(np.arange(0, n, half))
        elif a == axis:
            index_vectors.append(targets)
        else:
            index_vectors.append(np.arange(0, n, stride))
    return index_vectors, targets


def _open_mesh(vectors: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """``np.ix_`` for non-empty integer index vectors.

    Ten sweeps per 32x32 tile make the per-call type checks of
    ``np.ix_`` a measurable share of a small tile's encode and of the
    model's sampling pass.
    """
    ndim = len(vectors)
    return tuple(
        v.reshape((1,) * k + (-1,) + (1,) * (ndim - k - 1))
        for k, v in enumerate(vectors)
    )


class _Sweep(NamedTuple):
    """One sweep: the points of *level* refined along *axis*.

    Every index is a read-only open mesh (:func:`_open_mesh`), built
    once per shape (:func:`_sweeps`).
    """

    level: int
    axis: int
    #: the sweep's points (:func:`_sweep_indices`)
    grid: tuple[np.ndarray, ...]
    #: their left and right neighbours along *axis*: the left one again
    #: where the right one is past the far edge
    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]
    #: where the right neighbour exists, shaped to broadcast over the grid
    inside: np.ndarray

    def predict(self, values: np.ndarray) -> np.ndarray:
        """Linear interpolation of the sweep's points along its axis,
        from *values* (the left neighbour alone at the far edge), of
        every member when *values* is a stack."""
        # a stack's member axis is taken whole; one array (decode,
        # sampling) is indexed with no prefix, which NumPy does faster
        lead = (slice(None),) * (values.ndim - len(self.grid))
        left = values[lead + self.left]
        right = values[lead + self.right]
        return np.where(self.inside, 0.5 * (left + right), left)


@functools.lru_cache(maxsize=128)
def _sweeps(shape: tuple[int, ...], levels: int) -> tuple[_Sweep, ...]:
    """Every non-empty sweep of *levels* over *shape*, in traversal order.

    The indices depend on nothing else, so each ``(shape, levels)`` is
    built once and shared by every encode, decode and sampling pass.
    """
    sweeps = []
    for level in range(levels, 0, -1):
        stride = 1 << level
        half = stride >> 1
        for axis in range(len(shape)):
            vectors, targets = _sweep_indices(shape, axis, stride, half)
            if targets.size == 0 or any(v.size == 0 for v in vectors):
                continue
            inside = targets + half < shape[axis]
            left, right = list(vectors), list(vectors)
            left[axis] = targets - half
            right[axis] = np.where(inside, targets + half, targets - half)
            grid, left, right = (_open_mesh(v) for v in (vectors, left, right))
            inside = inside.reshape(grid[axis].shape)
            for array in (*grid, *left, *right, inside):
                array.flags.writeable = False
            sweeps.append(_Sweep(level, axis, grid, left, right, inside))
    return tuple(sweeps)


class InterpolationPredictor(Predictor):
    """SZ3-style multi-level linear interpolation."""

    name = "interpolation"

    def __init__(self, max_level: int = DEFAULT_MAX_LEVEL) -> None:
        if max_level < 1:
            raise ValueError("max_level must be at least 1")
        self.max_level = max_level

    def _levels(self, shape: tuple[int, ...]) -> int:
        """Number of refinement levels for *shape*."""
        span = max(shape)
        level = 1
        while (1 << level) < span and level < self.max_level:
            level += 1
        return level

    # -- compression ---------------------------------------------------------

    def decompose_stack(
        self,
        stack: np.ndarray,
        error_bounds: Sequence[float],
        radius: int,
        reconstruct: bool = False,
    ) -> list[PredictorOutput]:
        """Every sweep of every member at once: one stretch of the
        quantizer per sweep."""
        stack = self._validate(stack, stacked=True)
        quantizer = Quantizer(error_bounds, radius)
        shape = stack.shape[1:]
        levels = self._levels(shape)
        anchor_slices = (..., *(slice(None, None, 1 << levels) for _ in shape))

        recon = np.zeros_like(stack)
        anchors = stack[anchor_slices].copy()
        recon[anchor_slices] = anchors
        for sweep in _sweeps(shape, levels):
            grid = (..., *sweep.grid)
            recon[grid] = quantizer.quantize(stack[grid], sweep.predict(recon))
        return [  # each member's streams, side payload, meta, values
            PredictorOutput(
                *streams,
                anchors[i].tobytes(),
                {"levels": levels, "anchor_shape": [*anchors.shape[1:]]},
                recon[i] if reconstruct else None,
            )
            for i, streams in enumerate(quantizer.streams())
        ]

    # -- decompression ---------------------------------------------------------

    def reconstruct_stack(
        self,
        outputs: Sequence[PredictorOutput],
        shape: tuple[int, ...],
        error_bounds: Sequence[float],
    ) -> np.ndarray:
        """Every sweep of every member at once, on the anchor grid that
        *shape* and ``levels`` make: a meta recording another is refused."""
        meta = outputs[0].meta
        levels = outputs[0].meta_int("levels")
        anchor_slices = (..., *(slice(None, None, 1 << levels) for _ in shape))
        recon = np.zeros((len(outputs), *shape), dtype=np.float64)
        anchors = recon[anchor_slices]
        if meta.get("anchor_shape") != [*anchors.shape[1:]]:
            raise ValueError(f"corrupt predictor meta: {meta!r} of {shape}")
        anchors[...] = np.stack(
            [np.frombuffer(o.side_payload, np.float64) for o in outputs]
        ).reshape(anchors.shape)
        dequantizer = Dequantizer(
            [(o.codes, o.outlier_positions, o.outlier_values) for o in outputs],
            error_bounds,
        )
        for sweep in _sweeps(tuple(shape), levels):
            grid = (..., *sweep.grid)
            recon[grid] = dequantizer.dequantize(sweep.predict(recon))
        return recon

    # -- model support ---------------------------------------------------------

    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        """Errors of every sweep, predicting from *original* values."""
        errors = [err.ravel() for _, _, err in self.level_errors(data)]
        return np.concatenate([np.zeros(0), *errors])

    def level_errors(
        self, data: np.ndarray
    ) -> list[tuple[int, int, np.ndarray]]:
        """Per-sweep original-value prediction errors.

        Returns ``(level, axis, errors)`` tuples in traversal order; the
        sampling strategy weights levels with these blocks.
        """
        data = self._validate(data)
        return [
            (
                sweep.level,
                sweep.axis,
                data[sweep.grid] - sweep.predict(data),
            )
            for sweep in _sweeps(data.shape, self._levels(data.shape))
        ]

    def sample_errors(
        self, data: np.ndarray, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Level-aware sampling (§III-C2).

        Each interpolation level contributes samples in proportion to its
        population (the level populations already follow the paper's
        ``2^-n`` geometric progression across levels), drawn uniformly at
        random within the level's sweep blocks.
        """
        pieces = [np.zeros(0)]
        for _, _, err in self.level_errors(data):
            flat = err.ravel()
            n = max(1, int(round(flat.size * rate)))
            if n < flat.size:
                flat = flat[rng.choice(flat.size, size=n, replace=False)]
            pieces.append(flat)
        return np.concatenate(pieces)
