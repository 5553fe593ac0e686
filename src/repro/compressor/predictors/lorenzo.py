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

import numpy as np

from repro.compressor.predictors.base import Predictor, PredictorOutput

__all__ = ["LorenzoPredictor", "ClassicLorenzoPredictor"]


def _forward_difference(lattice: np.ndarray, order: int) -> np.ndarray:
    """Apply the Lorenzo difference stencil (order times per axis)."""
    codes = lattice
    for _ in range(order):
        for axis in range(lattice.ndim):
            codes = np.diff(codes, axis=axis, prepend=0)
    return codes


def _inverse_difference(codes: np.ndarray, order: int) -> np.ndarray:
    """Invert :func:`_forward_difference` with per-axis cumulative sums."""
    lattice = codes
    for _ in range(order):
        for axis in range(codes.ndim - 1, -1, -1):
            lattice = np.cumsum(lattice, axis=axis)
    return lattice


def lorenzo_predicted(data: np.ndarray, order: int = 1) -> np.ndarray:
    """Lorenzo prediction of every point from *original* neighbours.

    Returns the predicted value at each point (borders use the same
    stencil with out-of-range neighbours treated as zero, exactly like
    SZ's virtual zero layer).
    """
    data = np.asarray(data, dtype=np.float64)
    # prediction = x - Lorenzo-difference(x)
    return data - _forward_difference(data, order)


class LorenzoPredictor(Predictor):
    """Vectorized dual-quantization Lorenzo predictor."""

    name = "lorenzo"

    def __init__(self, order: int = 1) -> None:
        if order not in (1, 2):
            raise ValueError("Lorenzo order must be 1 or 2")
        self.order = order

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
        lattice_f = np.rint(data / bin_width)
        if np.any(np.abs(lattice_f) > 2**53):
            raise ValueError(
                "error bound too small for dual-quantization: lattice "
                "indices exceed the exact-integer range of float64"
            )
        lattice = lattice_f.astype(np.int64)
        codes = _forward_difference(lattice, self.order).ravel()

        overflow = np.abs(codes) > radius
        positions = np.flatnonzero(overflow)
        outlier_codes = codes[positions].copy()
        codes = codes.copy()
        codes[positions] = 0
        return PredictorOutput(
            codes=codes,
            outlier_positions=positions.astype(np.int64),
            outlier_values=outlier_codes,
            meta={"order": self.order},
            # the decoder's own expression, from the integer lattice
            # (``lattice_f`` may hold -0.0 where the decoder has 0.0)
            reconstruction=(
                lattice.astype(np.float64) * bin_width
                if reconstruct
                else None
            ),
        )

    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        error_bound: float,
    ) -> np.ndarray:
        codes = output.codes.astype(np.int64).copy()
        codes[output.outlier_positions] = output.outlier_values
        lattice = _inverse_difference(
            codes.reshape(shape), output.meta_int("order", self.order)
        )
        return lattice.astype(np.float64) * (2.0 * error_bound)

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
        materialising the full error array.
        """
        data = self._validate(data)
        n = data.size
        n_samples = max(1, min(n, int(round(n * rate))))
        flat_idx = rng.choice(n, size=n_samples, replace=False)
        coords = np.unravel_index(flat_idx, data.shape)
        errors = np.asarray(data[coords], dtype=np.float64).copy()
        # Inclusion-exclusion over neighbour offsets: order-1 Lorenzo
        # error = sum over non-empty offset subsets of (-1)^{|S|} x[p - S].
        ndim = data.ndim
        for mask in range(1, 1 << ndim):
            sign = -1.0 if bin(mask).count("1") % 2 == 1 else 1.0
            shifted = []
            valid = np.ones(n_samples, dtype=bool)
            for axis in range(ndim):
                c = coords[axis]
                if mask >> axis & 1:
                    c = c - 1
                    valid &= c >= 0
                shifted.append(c)
            clipped = tuple(np.maximum(c, 0) for c in shifted)
            neighbour = np.where(valid, data[clipped], 0.0)
            errors += sign * neighbour
        if self.order == 2:
            # For order 2 fall back to exact stencil on a gathered window:
            # cheap because the full-difference array is only needed at
            # the sampled points.
            full = self.prediction_errors(data)
            errors = full.ravel()[flat_idx]
        return errors


class ClassicLorenzoPredictor(Predictor):
    """Sequential SZ-style Lorenzo predicting from reconstructed values.

    Python-loop reference implementation used for cross-validation of the
    dual-quantization path and for the ablation benchmark.  Only order 1.
    """

    name = "lorenzo_classic"

    def decompose(
        self,
        data: np.ndarray,
        error_bound: float,
        radius: int,
        reconstruct: bool = False,
    ) -> PredictorOutput:
        data = self._validate(data)
        bin_width = 2.0 * error_bound
        recon = np.zeros_like(data)
        flat_codes = np.zeros(data.size, dtype=np.int64)
        outlier_positions: list[int] = []
        outlier_values: list[float] = []
        ndim = data.ndim
        for flat, coords in enumerate(np.ndindex(*data.shape)):
            pred = 0.0
            for mask in range(1, 1 << ndim):
                sign = 1.0 if bin(mask).count("1") % 2 == 1 else -1.0
                neighbour = []
                ok = True
                for axis in range(ndim):
                    c = coords[axis] - (mask >> axis & 1)
                    if c < 0:
                        ok = False
                        break
                    neighbour.append(c)
                if ok:
                    pred += sign * recon[tuple(neighbour)]
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

    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        error_bound: float,
    ) -> np.ndarray:
        bin_width = 2.0 * error_bound
        recon = np.zeros(shape, dtype=np.float64)
        outliers = dict(
            zip(output.outlier_positions.tolist(), output.outlier_values)
        )
        ndim = len(shape)
        for flat, coords in enumerate(np.ndindex(*shape)):
            if flat in outliers:
                recon[coords] = outliers[flat]
                continue
            pred = 0.0
            for mask in range(1, 1 << ndim):
                sign = 1.0 if bin(mask).count("1") % 2 == 1 else -1.0
                neighbour = []
                ok = True
                for axis in range(ndim):
                    c = coords[axis] - (mask >> axis & 1)
                    if c < 0:
                        ok = False
                        break
                    neighbour.append(c)
                if ok:
                    pred += sign * recon[tuple(neighbour)]
            recon[coords] = pred + output.codes[flat] * bin_width
        return recon

    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        data = self._validate(data)
        return _forward_difference(data, 1)
