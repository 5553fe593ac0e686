"""Predictor interface shared by Lorenzo, interpolation and regression.

A predictor turns an array into (a) a stream of integer quantization
codes, (b) an outlier stream for unpredictable points, and (c) an
optional side payload (anchors, regression coefficients).  The inverse
direction reconstructs the array from those pieces while honouring the
error bound.  A predictor encodes a stack of same-shaped arrays in one
pass (:meth:`Predictor.decompose_stack`) and decodes one the same way
(:meth:`Predictor.reconstruct_stack`), one array as a stack of one.
Quantizing is what gives the encoder the decoder's values, so every
predictor can hand them back with its output.
Interpolation and regression quantize through
:mod:`repro.compressor.quantizer`; Lorenzo rounds onto its own lattice.

For the ratio-quality model the predictor additionally exposes
*prediction errors computed from original values* (§III-C4 of the paper:
"in most cases we use the original value to perform the prediction in
the sampling step"), which is what the sampling strategies consume.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["Predictor", "PredictorOutput"]


@dataclass
class PredictorOutput:
    """Everything the encoder stage needs from a predictor.

    Attributes
    ----------
    codes:
        Flat ``int64`` quantization codes in the predictor's traversal
        order (zero = perfect prediction within the bound).
    outlier_positions:
        Flat positions (into the traversal order) of unpredictable points.
    outlier_values:
        Verbatim payload for those points; dtype depends on the predictor
        (``float64`` values, or ``int64`` lattice codes for dual-quant
        Lorenzo).
    side_payload:
        Raw bytes the predictor needs back at reconstruction time
        (interpolation anchors, regression coefficients).
    meta:
        Small JSON-serializable dict with predictor parameters.
    reconstruction:
        What :meth:`Predictor.reconstruct` will return for this output
        (``float64``, input shape), when the caller asked
        :meth:`Predictor.decompose_stack` for it; ``None`` otherwise.  The
        predict-quantize loop already holds these values, so surfacing
        them saves the consumer a decode.
    """

    codes: np.ndarray
    outlier_positions: np.ndarray
    outlier_values: np.ndarray
    side_payload: bytes = b""
    meta: dict = field(default_factory=dict)
    reconstruction: np.ndarray | None = None

    @property
    def n_outliers(self) -> int:
        """Number of unpredictable points."""
        return int(self.outlier_positions.size)

    def meta_int(self, key: str, default=None, allowed=range(64)) -> int:
        """The small count the encoder recorded under *key*, one of
        *allowed* — a decoded container may hold anything there:
        ``ValueError`` if it does."""
        value = self.meta.get(key, default)
        if type(value) is not int or value not in allowed:
            raise ValueError(f"corrupt predictor meta: {key} = {value!r}")
        return value


class Predictor(abc.ABC):
    """Abstract predictor: decompose to codes, reconstruct from codes."""

    #: name used in configs and blob headers
    name: str = "abstract"

    def decompose(
        self,
        data: np.ndarray,
        error_bound: float,
        radius: int,
        reconstruct: bool = False,
    ) -> PredictorOutput:
        """The one-array case of :meth:`decompose_stack`."""
        return self.decompose_stack(
            np.asarray(data)[None], [error_bound], radius, reconstruct
        )[0]

    @abc.abstractmethod
    def decompose_stack(
        self,
        stack: np.ndarray,
        error_bounds: Sequence[float],
        radius: int,
        reconstruct: bool = False,
    ) -> list[PredictorOutput]:
        """Quantize member *i* of the ``(n, *shape)`` *stack* under the
        absolute bound ``error_bounds[i]``, as a stack of it alone would;
        with ``reconstruct`` each output also carries the decoder's
        reconstruction (``PredictorOutput.reconstruction``)."""

    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        error_bound: float,
    ) -> np.ndarray:
        """The one-output case of :meth:`reconstruct_stack`."""
        return self.reconstruct_stack([output], shape, [error_bound])[0]

    @abc.abstractmethod
    def reconstruct_stack(
        self,
        outputs: Sequence[PredictorOutput],
        shape: tuple[int, ...],
        error_bounds: Sequence[float],
    ) -> np.ndarray:
        """The ``(n, *shape)`` ``float64`` stack whose member *i* inverts
        ``outputs[i]``, an output of :meth:`decompose_stack` under the
        bound ``error_bounds[i]``, as a stack of it alone would.  The
        outputs are of one stack: they share their ``meta``."""

    @abc.abstractmethod
    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        """Prediction errors using *original* neighbour values.

        Full-array, error-bound independent; the model samples from this
        (or from :meth:`sample_errors` for large inputs).
        """

    def sample_errors(
        self, data: np.ndarray, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sampled prediction errors at approximately ``rate`` coverage.

        The default draws a uniform subset of :meth:`prediction_errors`;
        predictors override this with the paper's specialised strategies.
        """
        errors = self.prediction_errors(data).ravel()
        n = max(1, int(round(errors.size * rate)))
        if n >= errors.size:
            return errors
        idx = rng.choice(errors.size, size=n, replace=False)
        return errors[idx]

    @staticmethod
    def _validate(data: np.ndarray, stacked: bool = False) -> np.ndarray:
        """Common input checks; returns a float64 C-contiguous view.

        ``stacked`` marks a leading batch axis over same-shaped arrays.
        """
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim - int(stacked) not in (1, 2, 3, 4):
            raise ValueError("only 1-D..4-D arrays are supported")
        if data.size == 0:
            raise ValueError("cannot compress an empty array")
        if not np.all(np.isfinite(data)):
            raise ValueError("data must be finite (no NaN/Inf)")
        return data
