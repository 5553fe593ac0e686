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
are vectorized; the code/outlier streams follow the deterministic
traversal order (level, axis, C-order within the sweep block).
"""

from __future__ import annotations

import numpy as np

from repro.compressor.predictors.base import Predictor, PredictorOutput

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

    def decompose(
        self,
        data: np.ndarray,
        error_bound: float,
        radius: int,
        reconstruct: bool = False,
    ) -> PredictorOutput:
        data = self._validate(data)
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        bin_width = 2.0 * error_bound
        levels = self._levels(data.shape)
        stride0 = 1 << levels

        recon = np.zeros_like(data)
        anchor_slices = tuple(slice(None, None, stride0) for _ in data.shape)
        anchors = data[anchor_slices].copy()
        recon[anchor_slices] = anchors

        code_blocks: list[np.ndarray] = []
        outlier_positions: list[np.ndarray] = []
        outlier_values: list[np.ndarray] = []
        offset = 0
        for level in range(levels, 0, -1):
            stride = 1 << level
            half = stride >> 1
            for axis in range(data.ndim):
                vectors, targets = _sweep_indices(
                    data.shape, axis, stride, half
                )
                if targets.size == 0 or any(v.size == 0 for v in vectors):
                    continue
                grid = _open_mesh(vectors)
                pred = self._predict(recon, vectors, axis, targets, half)
                true = data[grid]
                err = true - pred
                # + 0.0 clears -0.0: the decoder multiplies integer
                # codes, and ``recon`` must hold exactly its values
                codes_f = np.rint(err / bin_width) + 0.0
                value = pred + codes_f * bin_width
                bad = (np.abs(codes_f) > radius) | (
                    np.abs(true - value) > error_bound
                )
                codes_f = np.where(bad, 0.0, codes_f)
                value = np.where(bad, true, value)
                recon[grid] = value

                flat_codes = codes_f.astype(np.int64).ravel()
                code_blocks.append(flat_codes)
                bad_flat = np.flatnonzero(bad.ravel())
                if bad_flat.size:
                    outlier_positions.append(bad_flat + offset)
                    outlier_values.append(true.ravel()[bad_flat])
                offset += flat_codes.size

        codes = (
            np.concatenate(code_blocks)
            if code_blocks
            else np.zeros(0, dtype=np.int64)
        )
        positions = (
            np.concatenate(outlier_positions)
            if outlier_positions
            else np.zeros(0, dtype=np.int64)
        )
        values = (
            np.concatenate(outlier_values)
            if outlier_values
            else np.zeros(0, dtype=np.float64)
        )
        return PredictorOutput(
            codes=codes,
            outlier_positions=positions,
            outlier_values=values,
            side_payload=anchors.astype(np.float64).tobytes(),
            meta={"levels": levels, "anchor_shape": list(anchors.shape)},
            reconstruction=recon if reconstruct else None,
        )

    def _predict(
        self,
        recon: np.ndarray,
        vectors: list[np.ndarray],
        axis: int,
        targets: np.ndarray,
        half: int,
    ) -> np.ndarray:
        """Linear interpolation of the sweep targets along *axis*."""
        n = recon.shape[axis]
        left_vec = list(vectors)
        right_vec = list(vectors)
        left_vec[axis] = targets - half
        right_ok = targets + half < n
        right_vec[axis] = np.where(right_ok, targets + half, targets - half)
        left = recon[_open_mesh(left_vec)]
        right = recon[_open_mesh(right_vec)]
        weight_shape = [1] * recon.ndim
        weight_shape[axis] = targets.size
        ok = right_ok.reshape(weight_shape)
        return np.where(ok, 0.5 * (left + right), left)

    # -- decompression ---------------------------------------------------------

    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        error_bound: float,
    ) -> np.ndarray:
        bin_width = 2.0 * error_bound
        levels = output.meta_int("levels")
        stride0 = 1 << levels
        anchor_shape = tuple(output.meta["anchor_shape"])
        anchors = np.frombuffer(
            output.side_payload, dtype=np.float64
        ).reshape(anchor_shape)

        recon = np.zeros(shape, dtype=np.float64)
        anchor_slices = tuple(slice(None, None, stride0) for _ in shape)
        recon[anchor_slices] = anchors

        out_pos = np.asarray(output.outlier_positions, dtype=np.int64)
        out_val = np.asarray(output.outlier_values, dtype=np.float64)
        order = np.argsort(out_pos)
        out_pos, out_val = out_pos[order], out_val[order]
        offset = 0
        for level in range(levels, 0, -1):
            stride = 1 << level
            half = stride >> 1
            for axis in range(len(shape)):
                vectors, targets = _sweep_indices(shape, axis, stride, half)
                if targets.size == 0 or any(v.size == 0 for v in vectors):
                    continue
                grid = _open_mesh(vectors)
                pred = self._predict(recon, vectors, axis, targets, half)
                block_size = int(np.prod([v.size for v in vectors]))
                codes = output.codes[offset : offset + block_size].reshape(
                    pred.shape
                )
                value = pred + codes.astype(np.float64) * bin_width
                # Patch outliers belonging to this sweep (positions are
                # sorted, so the sweep's slice is contiguous).
                lo = np.searchsorted(out_pos, offset)
                hi = np.searchsorted(out_pos, offset + block_size)
                if hi > lo:
                    local = np.unravel_index(
                        out_pos[lo:hi] - offset, pred.shape
                    )
                    value[local] = out_val[lo:hi]
                recon[grid] = value
                offset += block_size
        return recon

    # -- model support ---------------------------------------------------------

    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        """Errors of every sweep, predicting from *original* values."""
        data = self._validate(data)
        blocks = [
            err for _, _, err in self.level_errors(data)
        ]
        if not blocks:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate([b.ravel() for b in blocks])

    def level_errors(
        self, data: np.ndarray
    ) -> list[tuple[int, int, np.ndarray]]:
        """Per-sweep original-value prediction errors.

        Returns ``(level, axis, errors)`` tuples in traversal order; the
        sampling strategy weights levels with these blocks.
        """
        data = self._validate(data)
        levels = self._levels(data.shape)
        out: list[tuple[int, int, np.ndarray]] = []
        for level in range(levels, 0, -1):
            stride = 1 << level
            half = stride >> 1
            for axis in range(data.ndim):
                vectors, targets = _sweep_indices(
                    data.shape, axis, stride, half
                )
                if targets.size == 0 or any(v.size == 0 for v in vectors):
                    continue
                grid = _open_mesh(vectors)
                pred = self._predict(data, vectors, axis, targets, half)
                out.append((level, axis, data[grid] - pred))
        return out

    def sample_errors(
        self, data: np.ndarray, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Level-aware sampling (§III-C2).

        Each interpolation level contributes samples in proportion to its
        population (the level populations already follow the paper's
        ``2^-n`` geometric progression across levels), drawn uniformly at
        random within the level's sweep blocks.
        """
        data = self._validate(data)
        pieces: list[np.ndarray] = []
        for _, _, err in self.level_errors(data):
            flat = err.ravel()
            n = max(1, int(round(flat.size * rate)))
            if n >= flat.size:
                pieces.append(flat)
            else:
                idx = rng.choice(flat.size, size=n, replace=False)
                pieces.append(flat[idx])
        if not pieces:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(pieces)
