"""Linear-scaling quantization (Tao et al., IPDPS'17).

Prediction errors are mapped to integer *quantization codes* with bin
width ``2 * eb``::

    code = rint(err / (2 * eb))          reconstruction: pred + 2*eb*code

so any in-range code guarantees ``|original - reconstructed| <= eb``.
A point whose code falls outside ``[-radius, radius]``, or whose
reconstruction still misses the bound in floating point, is
*unpredictable*: its code is 0 and its value ships verbatim in the
outlier stream, exactly as SZ does.

This is the one quantizer of the interpolation and regression
predictors, which own only their traversal: they hand it one stretch
(a sweep, a group of blocks) of ``(true, pred)`` at a time, in
traversal order.  :class:`Quantizer` returns each stretch's
reconstruction and gathers the code and outlier streams;
:class:`Dequantizer` walks the same stretches back.  Lorenzo's
dual-quantization lattice (:mod:`repro.compressor.predictors.lorenzo`)
quantizes values, not errors, and is its own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Quantizer", "Dequantizer"]


def _join(pieces: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=dtype)


class Quantizer:
    """The encoder's side: quantize stretches, gather their streams."""

    def __init__(self, error_bound: float, radius: int) -> None:
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        self.error_bound = error_bound
        self.radius = radius
        self._bin_width = 2.0 * error_bound
        self._codes: list[np.ndarray] = []
        self._positions: list[np.ndarray] = []
        self._values: list[np.ndarray] = []
        self._offset = 0

    def quantize(self, true: np.ndarray, pred: np.ndarray) -> np.ndarray:
        """The decoder's values of the stretch *true* predicted as *pred*.

        Its codes (C order) are appended to the code stream, and its
        unpredictable points to the outlier stream, by their positions
        in the code stream.
        """
        # + 0.0 clears -0.0: the decoder multiplies integer codes, and
        # the values returned must be exactly what it computes
        codes = np.rint((true - pred) / self._bin_width) + 0.0
        value = pred + codes * self._bin_width
        bad = (np.abs(codes) > self.radius) | (
            np.abs(true - value) > self.error_bound
        )
        flat = np.where(bad, 0.0, codes).astype(np.int64).ravel()
        self._codes.append(flat)
        bad_flat = np.flatnonzero(bad.ravel())
        if bad_flat.size:
            self._positions.append(bad_flat + self._offset)
            self._values.append(true.ravel()[bad_flat])
        self._offset += flat.size
        return np.where(bad, true, value)

    def streams(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, outlier_positions, outlier_values)`` so far."""
        return (
            _join(self._codes, np.int64),
            _join(self._positions, np.int64),
            _join(self._values, np.float64),
        )


class Dequantizer:
    """The decoder's side: the stretches of a :class:`Quantizer`'s
    streams, in the order it quantized them."""

    def __init__(
        self,
        codes: np.ndarray,
        outlier_positions: np.ndarray,
        outlier_values: np.ndarray,
        error_bound: float,
    ) -> None:
        positions = np.asarray(outlier_positions, dtype=np.int64)
        values = np.asarray(outlier_values, dtype=np.float64)
        # sorted, so that each stretch's outliers are one slice
        order = np.argsort(positions)
        self._positions, self._values = positions[order], values[order]
        self._codes = codes
        self._bin_width = 2.0 * error_bound
        self._offset = 0

    def dequantize(self, pred: np.ndarray) -> np.ndarray:
        """``pred + code * 2eb`` over the next ``pred.size`` codes, with
        the stretch's outliers patched in."""
        start, stop = self._offset, self._offset + pred.size
        codes = self._codes[start:stop].reshape(pred.shape)
        value = pred + codes.astype(np.float64) * self._bin_width
        lo = np.searchsorted(self._positions, start)
        hi = np.searchsorted(self._positions, stop)
        if hi > lo:
            local = np.unravel_index(self._positions[lo:hi] - start, pred.shape)
            value[local] = self._values[lo:hi]
        self._offset = stop
        return value
