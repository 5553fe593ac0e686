"""Lorenzo predictor (Ibarria et al. 2003), the default SZ predictor.

The order-1 Lorenzo predictor estimates each point from its "lower-left"
neighbours: in 1-D the previous point, in 2-D ``a + b - c`` over the
preceding row/column, in 3-D the 7-term inclusion-exclusion over the
preceding cube corner.  Order-2 applies the same difference stencil twice.

Two implementations are provided:

:class:`LorenzoPredictor`
    The production path.  It uses *dual quantization* (the cuSZ
    formulation): values are first snapped to the ``2*eb`` lattice
    (``q = rint(x / (2*eb))``, which alone guarantees the error bound),
    then the Lorenzo stencil is applied to the integer lattice, where it
    is an exact finite-difference operator and therefore fully
    vectorizable — the inverse is a cumulative sum per axis.

:class:`ClassicLorenzoPredictor`
    The original sequential SZ formulation that predicts from
    *reconstructed* neighbours.  Kept for cross-validation and the
    ablation benchmark; it is a Python loop and only suitable for small
    arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compressor.predictors.base import Predictor, PredictorOutput

__all__ = ["LorenzoPredictor", "ClassicLorenzoPredictor", "stencil_errors"]

#: points per in-place int64 -> float64 step of the inverse: its
#: temporary copy stays well below a tile
_SCALE_BLOCK = 1 << 13

#: points per slice from which the inverse adds slices instead of
#: accumulating an axis (the measured crossover is 256-512)
_MIN_SLICE = 512


def _forward_difference(
    lattice: np.ndarray, order: int, stacked: bool = False
) -> np.ndarray:
    """Apply the Lorenzo difference stencil (order times per axis).

    ``stacked`` marks a leading batch axis, which the stencil skips.
    """
    codes = lattice
    for _ in range(order):
        for axis in range(int(stacked), lattice.ndim):
            codes = np.diff(codes, axis=axis, prepend=0)
    return codes


def _inverse_difference(codes: np.ndarray, order: int) -> None:
    """Invert :func:`_forward_difference` in place on the stack *codes*
    (a leading batch axis, which it skips): per-axis running sums.

    Along the last axis that is ``np.cumsum``.  Along another one whose
    slices are long in a member it is one add per index instead: NumPy
    accumulates a non-last axis in strided inner loops, ~10x slower
    than adding whole contiguous slices on a (16, 32, 256) tile's first
    axis.
    """
    for _ in range(order):
        for axis in range(codes.ndim - 1, 0, -1):
            slice_size = codes[0].size // max(codes.shape[axis], 1)
            if axis == codes.ndim - 1 or slice_size < _MIN_SLICE:
                np.cumsum(codes, axis=axis, out=codes)
                continue
            lanes = np.moveaxis(codes, axis, 0)
            for i in range(1, lanes.shape[0]):
                np.add(lanes[i], lanes[i - 1], out=lanes[i])


def lorenzo_predicted(data: np.ndarray, order: int = 1) -> np.ndarray:
    """Lorenzo prediction of every point from *original* neighbours.

    Returns the predicted value at each point (borders use the same
    stencil with out-of-range neighbours treated as zero, exactly like
    SZ's virtual zero layer).
    """
    data = np.asarray(data, dtype=np.float64)
    # prediction = x - Lorenzo-difference(x)
    return data - _forward_difference(data, order)


def stencil_errors(signs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Order-1 Lorenzo errors of the stencils *signs*, *values* that
    :meth:`LorenzoPredictor.sample_stencils` returns: the signed sum of
    the ``values[..., mask]`` columns, added in mask order."""
    errors = values[..., 0].copy()
    for mask in range(1, signs.size):
        errors += signs[mask] * values[..., mask]
    return errors


class LorenzoPredictor(Predictor):
    """Vectorized dual-quantization Lorenzo predictor."""

    name = "lorenzo"

    def __init__(self, order: int = 1) -> None:
        if order not in (1, 2):
            raise ValueError("Lorenzo order must be 1 or 2")
        self.order = order

    def decompose_stack(
        self,
        stack: np.ndarray,
        error_bounds: Sequence[float],
        radius: int,
        reconstruct: bool = False,
    ) -> list[PredictorOutput]:
        """Each member of the ``(n, *shape)`` *stack* under its own
        bound, in one pass of the lattice and the stencil over the
        stack."""
        stack = self._validate(stack, stacked=True)
        bounds = set(error_bounds)
        if min(bounds) <= 0:
            raise ValueError("error_bound must be positive")
        # one bound for the whole stack divides as a scalar
        bin_width = 2.0 * (
            float(bounds.pop())
            if len(bounds) == 1
            else np.reshape(error_bounds, (-1,) + (1,) * (stack.ndim - 1))
        )
        lattice_f = np.rint(stack / bin_width)
        if np.any(np.abs(lattice_f) > 2**53):
            raise ValueError(
                "error bound too small for dual-quantization: lattice "
                "indices exceed the exact-integer range of float64"
            )
        lattice = lattice_f.astype(np.int64)
        codes = _forward_difference(lattice, self.order, stacked=True)
        codes = codes.reshape(len(stack), -1)
        flat, size = codes.ravel(), codes.shape[1]
        positions = np.flatnonzero(np.abs(flat) > radius)
        outlier_codes = flat[positions]
        flat[positions] = 0
        cuts = positions.searchsorted(range(0, flat.size + 1, size)).tolist()
        positions %= size  # each member's own
        # the decoder's own expression, from the integer lattice
        # (``lattice_f`` may hold -0.0 where the decoder has 0.0)
        values = lattice * bin_width if reconstruct else [None] * len(stack)
        return [
            PredictorOutput(
                codes=codes[i],
                outlier_positions=positions[lo:hi],
                outlier_values=outlier_codes[lo:hi],
                meta={"order": self.order},
                reconstruction=values[i],
            )
            for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        ]

    def reconstruct_stack(
        self,
        outputs: Sequence[PredictorOutput],
        shape: tuple[int, ...],
        error_bounds: Sequence[float],
    ) -> np.ndarray:
        """One pass of the running sums over the stack's lattice, each
        member's outliers patched in and its bound scaling it."""
        order = outputs[0].meta_int("order", self.order, allowed=(1, 2))
        # the one working copy
        codes = np.stack([output.codes for output in outputs], dtype=np.int64)
        for member, output in zip(codes, outputs):
            member[output.outlier_positions] = output.outlier_values
        _inverse_difference(codes.reshape(-1, *shape), order)
        # the float64 values overwrite the lattice they are scaled from,
        # a block at a time: NumPy copies each overlapping input block
        # before writing it, so no second tile-sized array is made
        values = codes.view(np.float64)
        for member, out, bound in zip(codes, values, error_bounds):
            for lo in range(0, member.size, _SCALE_BLOCK):
                block = slice(lo, lo + _SCALE_BLOCK)
                np.multiply(member[block], 2.0 * bound, out=out[block])
        return values.reshape(-1, *shape)

    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        data = self._validate(data)
        return _forward_difference(data, self.order)

    def _gather_stencils(
        self, stack: np.ndarray, flat_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stencil neighbourhoods of the points *flat_idx*, per member.

        *stack* is ``(k, *shape)``; *flat_idx* are C-order positions
        into one member.  Returns ``(signs, values)`` with ``values`` of
        shape ``(k, len(flat_idx), 2^d)``: column ``mask`` holds the
        neighbour one step back along every axis set in ``mask``, and
        ``0.0`` where that leaves the array (the virtual zero border).
        One index table serves every member, so the whole stack is read
        by a single gather.
        """
        shape = stack.shape[1:]
        ndim = len(shape)
        coords = np.unravel_index(flat_idx, shape)
        steps = [int(np.prod(shape[axis + 1 :])) for axis in range(ndim)]
        signs = np.empty(1 << ndim, dtype=np.float64)
        index = np.empty((flat_idx.size, 1 << ndim), dtype=np.intp)
        valid = np.ones(index.shape, dtype=bool)
        for mask in range(1 << ndim):
            signs[mask] = -1.0 if bin(mask).count("1") % 2 == 1 else 1.0
            back = 0
            for axis in range(ndim):
                if mask >> axis & 1:
                    back += steps[axis]
                    valid[:, mask] &= coords[axis] >= 1
            index[:, mask] = flat_idx - back
        index[~valid] = 0
        # np.take, unlike ``flat[:, index]``, returns C order: each
        # member's slice is contiguous for the replay that follows
        values = np.take(stack.reshape(stack.shape[0], -1), index, axis=1)
        values[:, ~valid] = 0.0
        return signs, values

    def sample_stencils(
        self,
        data: np.ndarray,
        rate: float,
        rng: np.random.Generator,
        stacked: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample raw stencil values for exact dual-quant code replay.

        Returns ``(signs, values)`` with ``signs`` of shape ``(2^d,)``
        and ``values`` of shape ``(n_samples, 2^d)``: the dual-quant
        quantization code at a sampled point for *any* error bound is
        ``sum_m signs[m] * rint(values[:, m] / (2*eb))`` — the exact
        lattice stencil, including the virtual zero border.  Order 1
        only (order 2 falls back to the error-based approximation).

        With ``stacked`` *data* is ``(k, *shape)`` — *k* same-shaped
        arrays sampled at the same points, from one draw and one gather
        — and ``values`` gains a leading ``k`` axis; member *i* equals
        what the call on ``data[i]`` alone returns from an equal *rng*.
        """
        stack = self._validate(data, stacked)
        if not stacked:
            stack = stack[None]
        if self.order != 1:
            raise ValueError("stencil sampling supports order 1 only")
        n = stack[0].size
        n_samples = max(1, min(n, int(round(n * rate))))
        flat_idx = rng.choice(n, size=n_samples, replace=False)
        signs, values = self._gather_stencils(stack, flat_idx)
        return signs, values if stacked else values[0]

    def sample_row_stencils(
        self,
        data: np.ndarray,
        n_rows: int,
        rng: np.random.Generator,
        n_segments: int = 4,
        stacked: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample stencils along contiguous flattened-order segments.

        Returns ``(signs, values)`` with ``values`` of shape
        ``(total_rows, row_length, 2^d)`` where the rows are grouped
        into *n_segments* runs of consecutive lead indices — contiguous
        stretches of the C-order code stream.  Replaying codes along
        them yields *zero-run statistics* at any error bound, replacing
        the independence assumption of Eq. 7 for spatially clustered
        (sparse) data; runs routinely span many rows, so per-segment
        contiguity matters.  Order 1 only.  ``stacked`` as in
        :meth:`sample_stencils`.
        """
        stack = self._validate(data, stacked)
        if not stacked:
            stack = stack[None]
        if self.order != 1:
            raise ValueError("row sampling supports order 1 only")
        if n_rows < 1:
            raise ValueError("need at least one row")
        shape = stack.shape[1:]
        row_len = shape[-1]
        n_lead = int(np.prod(shape[:-1]))
        n_segments = max(1, min(n_segments, n_lead))
        rows_per = max(1, min(n_rows // n_segments, n_lead))
        starts = rng.choice(
            max(n_lead - rows_per + 1, 1),
            size=n_segments,
            replace=n_lead - rows_per + 1 < n_segments,
        )
        # each segment is rows_per whole rows: one contiguous stretch
        # of the flattened array, so zero runs can span row boundaries
        # as they do in the real code stream
        flat_idx = (
            starts[:, None] * row_len
            + np.arange(rows_per * row_len)[None, :]
        ).ravel()
        signs, values = self._gather_stencils(stack, flat_idx)
        values = values.reshape(
            stack.shape[0], n_segments, rows_per * row_len, signs.size
        )
        return signs, values if stacked else values[0]

    def sample_errors(
        self, data: np.ndarray, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Random-point sampling (§III-C1).

        Draw points uniformly at random and evaluate the Lorenzo stencil
        at each, touching only the sampled neighbourhoods instead of
        materialising the full error array (order 2 reads its points
        from :meth:`prediction_errors`).
        """
        data = self._validate(data)
        n = data.size
        n_samples = max(1, min(n, int(round(n * rate))))
        flat_idx = rng.choice(n, size=n_samples, replace=False)
        if self.order == 2:
            return self.prediction_errors(data).ravel()[flat_idx]
        return stencil_errors(*self._gather_stencils(data[None], flat_idx))[0]


def _classic_prediction(recon: np.ndarray, coords: tuple[int, ...]) -> float:
    """Order-1 Lorenzo prediction of the point *coords* from the values
    of *recon* before it (zero past the border), in mask order."""
    pred = 0.0
    for mask in range(1, 1 << recon.ndim):
        sign = 1.0 if bin(mask).count("1") % 2 == 1 else -1.0
        neighbour = tuple(c - (mask >> a & 1) for a, c in enumerate(coords))
        if min(neighbour) >= 0:
            pred += sign * recon[neighbour]
    return pred


class ClassicLorenzoPredictor(Predictor):
    """Sequential SZ-style Lorenzo predicting from reconstructed values.

    Python-loop reference implementation used for cross-validation of the
    dual-quantization path and for the ablation benchmark.  Only order 1.
    """

    name = "lorenzo_classic"

    def decompose_stack(
        self,
        stack: np.ndarray,
        error_bounds: Sequence[float],
        radius: int,
        reconstruct: bool = False,
    ) -> list[PredictorOutput]:
        """The reference routine, a member at a time."""
        return [
            self._decompose_member(member, bound, radius, reconstruct)
            for member, bound in zip(
                self._validate(stack, stacked=True), error_bounds
            )
        ]

    @staticmethod
    def _decompose_member(
        data: np.ndarray, error_bound: float, radius: int, reconstruct: bool
    ) -> PredictorOutput:
        bin_width = 2.0 * error_bound
        recon = np.zeros_like(data)
        flat_codes = np.zeros(data.size, dtype=np.int64)
        outlier_positions: list[int] = []
        outlier_values: list[float] = []
        for flat, coords in enumerate(np.ndindex(*data.shape)):
            pred = _classic_prediction(recon, coords)
            err = data[coords] - pred
            code = int(round(err / bin_width))
            value = pred + code * bin_width
            if abs(code) > radius or abs(data[coords] - value) > error_bound:
                outlier_positions.append(flat)
                outlier_values.append(float(data[coords]))
                recon[coords] = data[coords]
            else:
                flat_codes[flat] = code
                recon[coords] = value
        return PredictorOutput(
            codes=flat_codes,
            outlier_positions=np.array(outlier_positions, dtype=np.int64),
            outlier_values=np.array(outlier_values, dtype=np.float64),
            meta={"order": 1},
            reconstruction=recon if reconstruct else None,
        )

    def reconstruct_stack(
        self,
        outputs: Sequence[PredictorOutput],
        shape: tuple[int, ...],
        error_bounds: Sequence[float],
    ) -> np.ndarray:
        """The reference routine, a member at a time."""
        recon = np.zeros((len(outputs), *shape), dtype=np.float64)
        for member, output, bound in zip(recon, outputs, error_bounds):
            outliers = dict(
                zip(output.outlier_positions.tolist(), output.outlier_values)
            )
            for flat, coords in enumerate(np.ndindex(*shape)):
                if flat in outliers:
                    member[coords] = outliers[flat]
                    continue
                pred = _classic_prediction(member, coords)
                member[coords] = pred + output.codes[flat] * (2.0 * bound)
        return recon

    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        data = self._validate(data)
        return _forward_difference(data, 1)
