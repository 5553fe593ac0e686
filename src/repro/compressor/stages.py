"""Composable pipeline stages: transform → predict/quantize → entropy.

The per-tile codec :class:`~repro.compressor.sz.SZCompressor` composes
three stage objects, each behind a small interface so alternatives can
be swapped in without touching the codec or the container layer:

* :class:`TransformStage` — an invertible pre-transform of the raw
  values (the PW_REL log transform, or the identity);
* :class:`PredictionStage` — turns the (transformed) array into integer
  quantization codes plus outliers, and back;
* :class:`HuffmanEntropyStage` — losslessly encodes the code stream as
  one Huffman(+lossless) payload, and still reads the v3 codes sections
  of independently coded blocks that earlier revisions wrote.

Parallel work is a tile's, and framing the stage bytes the tiled
compressor's (:mod:`repro.compressor.tiled`), never a stage's.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.compressor import container
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.encoders.lossless import get_lossless_backend
from repro.compressor.predictors import make_predictor
from repro.compressor.predictors.base import PredictorOutput
from repro.compressor.transform import inverse_log_transform, log_transform
from repro.utils.timer import StageTimes, Timer

__all__ = [
    "TransformStage",
    "PwRelLogTransform",
    "PredictionStage",
    "PredictorStage",
    "HuffmanEntropyStage",
    "EncodedCodes",
]


# -- transform stage -----------------------------------------------------------


class TransformStage(abc.ABC):
    """Invertible value-domain transform applied before prediction."""

    @abc.abstractmethod
    def forward(
        self, data: np.ndarray, config: CompressionConfig
    ) -> tuple[np.ndarray, dict, bytes]:
        """Transform *data*; returns ``(work, meta, signs_payload)``.

        ``meta`` is recorded in the container header under
        ``"transform"``; ``signs_payload`` is stored as its own section.
        """

    @abc.abstractmethod
    def inverse(
        self, work: np.ndarray, header: dict, signs_payload: bytes
    ) -> np.ndarray:
        """Invert :meth:`forward` using the stored header/payload."""


class PwRelLogTransform(TransformStage):
    """Log transform for PW_REL mode; identity for ABS/REL.

    Liang et al. (CLUSTER'18): a point-wise relative bound becomes an
    absolute bound in log space.
    """

    def forward(
        self, data: np.ndarray, config: CompressionConfig
    ) -> tuple[np.ndarray, dict, bytes]:
        if config.mode is not ErrorBoundMode.PW_REL:
            return np.asarray(data, dtype=np.float64), {}, b""
        return log_transform(data)

    def inverse(
        self, work: np.ndarray, header: dict, signs_payload: bytes
    ) -> np.ndarray:
        if not header.get("transform", {}).get("pw_rel"):
            return work
        shape = tuple(header["shape"]) or (1,)
        return inverse_log_transform(work, shape, signs_payload)


# -- prediction/quantization stage ---------------------------------------------


class PredictionStage(abc.ABC):
    """Decompose values into quantization codes + outliers, and back."""

    @abc.abstractmethod
    def decompose(
        self,
        work: np.ndarray,
        config: CompressionConfig,
        abs_eb: float,
        reconstruct: bool = False,
    ) -> PredictorOutput:
        """Predict + quantize *work* under the absolute bound.

        With ``reconstruct`` the output should also carry what
        :meth:`reconstruct` will return for it
        (``PredictorOutput.reconstruction``); a stage that cannot
        surface it leaves the field ``None``.
        """

    @abc.abstractmethod
    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        abs_eb: float,
        config: CompressionConfig,
    ) -> np.ndarray:
        """Invert :meth:`decompose` (returns ``float64``)."""


class PredictorStage(PredictionStage):
    """Dispatches to the configured predictor (Lorenzo/interp/regression)."""

    @staticmethod
    def make_predictor(config: CompressionConfig):
        """Instantiate the predictor the config names."""
        if config.predictor == "lorenzo":
            return make_predictor("lorenzo", order=config.lorenzo_levels)
        if config.predictor == "interpolation":
            return make_predictor("interpolation")
        return make_predictor("regression", block=config.regression_block)

    def decompose(
        self,
        work: np.ndarray,
        config: CompressionConfig,
        abs_eb: float,
        reconstruct: bool = False,
    ) -> PredictorOutput:
        predictor = self.make_predictor(config)
        return predictor.decompose(
            work, abs_eb, config.quant_radius, reconstruct
        )

    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        abs_eb: float,
        config: CompressionConfig,
    ) -> np.ndarray:
        predictor = self.make_predictor(config)
        return predictor.reconstruct(output, shape, abs_eb)


# -- entropy-coding stage ------------------------------------------------------


@dataclass(frozen=True)
class EncodedCodes:
    """Encoded code stream plus the accounting the measurements need."""

    payload: bytes
    huffman_only: int


class HuffmanEntropyStage:
    """Huffman + optional lossless back-end over the code stream."""

    def __init__(self) -> None:
        self._huffman = HuffmanEncoder()

    def encode(
        self,
        codes: np.ndarray,
        config: CompressionConfig,
        times: StageTimes | None = None,
    ) -> EncodedCodes:
        """Encode *codes* as one Huffman(+lossless) payload."""
        times = times if times is not None else StageTimes()
        with Timer() as t:
            huffman_payload = self._huffman.encode(codes)
        times.add("huffman", t.elapsed)
        payload = huffman_payload
        if config.lossless is not None:
            with Timer() as t:
                backend = get_lossless_backend(config.lossless)
                payload = backend.compress(huffman_payload)
            times.add("lossless", t.elapsed)
        return EncodedCodes(payload, len(huffman_payload))

    def decode(
        self, payload: bytes, config: CompressionConfig, chunked: bool
    ) -> np.ndarray:
        """Invert :meth:`encode` back to the flat ``int64`` code stream.

        A *chunked* payload is a v3 codes section, whose blocks decode
        one after another; the caller checks the total.
        """
        if not chunked:
            return self._huffman.decode(self._unwrap_lossless(payload, config))
        return np.concatenate(
            [
                self._huffman.decode(self._unwrap_lossless(block, config))
                for block in container.read_chunked_codes(payload)
            ]
        )

    @staticmethod
    def _unwrap_lossless(
        payload: bytes, config: CompressionConfig
    ) -> bytes:
        if config.lossless is None:
            return payload
        return get_lossless_backend(config.lossless).decompress(payload)
