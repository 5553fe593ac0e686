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
traversal order, of every member of a stack (a leading axis, a bound
per member).  :class:`Quantizer` returns each stretch's reconstruction
and gathers each member's code and outlier streams; :class:`Dequantizer`
is its mirror, which takes each member's streams and bound and walks
the stack's stretches back.  Lorenzo's dual-quantization lattice
(:mod:`repro.compressor.predictors.lorenzo`) quantizes values, not
errors, and is its own.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Quantizer", "Dequantizer"]


class Quantizer:
    """The encoder's side: quantize stretches of a stack, gather each
    member's streams."""

    def __init__(self, error_bounds: Sequence[float], radius: int) -> None:
        bounds = np.asarray(error_bounds, dtype=np.float64)
        if not np.all(bounds > 0):
            raise ValueError("error_bound must be positive")
        self.radius = radius
        self._bounds = bounds
        # codes, and (member, position, value) of outliers, per stretch
        self._codes = [np.zeros((bounds.size, 0), dtype=np.int64)]
        self._outliers = [(np.zeros(0, np.int64),) * 2 + (np.zeros(0),)]
        self._offset = 0

    def quantize(self, true: np.ndarray, pred: np.ndarray) -> np.ndarray:
        """The decoder's values of the stretch *true* predicted as *pred*,
        both ``(n, *stretch)`` — member *i* under bound *i*.

        Each member's codes (C order) are appended to its code stream,
        and its unpredictable points to its outlier stream, by their
        positions in its code stream.
        """
        eb = self._bounds.reshape((-1,) + (1,) * (true.ndim - 1))
        bin_width = 2.0 * eb
        # + 0.0 clears -0.0: the decoder multiplies integer codes, and
        # the values returned must be exactly what it computes
        codes = np.rint((true - pred) / bin_width) + 0.0
        value = pred + codes * bin_width
        bad = (np.abs(codes) > self.radius) | (np.abs(true - value) > eb)
        n = len(true)
        flat = np.where(bad, 0.0, codes).astype(np.int64).reshape(n, -1)
        self._codes.append(flat)
        member, point = np.nonzero(bad.reshape(n, -1))
        self._outliers.append(
            (member, point + self._offset, true.reshape(n, -1)[member, point])
        )
        self._offset += flat.shape[1]
        return np.where(bad, true, value)

    def streams(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each member's ``(codes, outlier_positions, outlier_values)``
        so far, in its own traversal order."""
        codes = np.concatenate(self._codes, axis=1)
        member, positions, values = map(np.concatenate, zip(*self._outliers))
        # stable: a member's outliers stay in stretch order
        order = np.argsort(member, kind="stable")
        positions, values = positions[order], values[order]
        cuts = member[order].searchsorted(np.arange(len(codes) + 1)).tolist()
        return [
            (codes[i], positions[lo:hi], values[lo:hi])
            for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        ]


class Dequantizer:
    """The decoder's side: the stretches of each member's
    :class:`Quantizer` streams, in the order they were quantized."""

    def __init__(
        self,
        streams: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        error_bounds: Sequence[float],
    ) -> None:
        codes, positions, values = zip(*streams)
        # a stack of one is a view: no second copy of a large tile's codes
        self._codes = (
            np.stack(codes) if len(codes) > 1 else np.asarray(codes[0])[None]
        )
        # every member's outliers sorted by position, so that each
        # stretch's are one slice, with the member each belongs to
        counts = [len(member) for member in positions]
        member = np.repeat(np.arange(len(counts)), counts)
        positions = np.concatenate(positions).astype(np.int64, copy=False)
        order = np.argsort(positions, kind="stable")
        self._member, self._positions = member[order], positions[order]
        self._values = np.concatenate(values).astype(np.float64)[order]
        self._bin_width = 2.0 * np.asarray(error_bounds, dtype=np.float64)
        self._offset = 0

    def dequantize(self, pred: np.ndarray) -> np.ndarray:
        """``pred + code * 2eb`` over the next stretch of codes of each
        member of the ``(n, *stretch)`` *pred*, member *i* under bound
        *i*, with the stretch's outliers patched in."""
        n = len(pred)
        start, stop = self._offset, self._offset + pred.size // n
        codes = self._codes[:, start:stop].reshape(pred.shape)
        bin_width = self._bin_width.reshape((-1,) + (1,) * (pred.ndim - 1))
        value = pred + codes.astype(np.float64) * bin_width
        lo, hi = np.searchsorted(self._positions, [start, stop])
        if hi > lo:
            member, at = self._member[lo:hi], self._positions[lo:hi] - start
            value.reshape(n, -1)[member, at] = self._values[lo:hi]
        self._offset = stop
        return value
