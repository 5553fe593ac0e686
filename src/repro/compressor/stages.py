"""The stages after the transform: predict/quantize → entropy.

The per-tile codec :class:`~repro.compressor.sz.SZCompressor` runs the
value-domain transform (:func:`repro.compressor.transform.
forward_transform`), then two stage objects:

* :class:`PredictorStage` — turns a stack of (transformed) arrays into
  integer quantization codes plus outliers in one pass of the
  configured predictor, and a stack of them back in another: Lorenzo
  on its own dual-quantization lattice, interpolation and regression
  through the one linear quantizer of :mod:`repro.compressor.quantizer`;
* :class:`HuffmanEntropyStage` — codes a stack of code streams as
  Huffman(+lossless) payloads, and decodes one by one route over every
  block: a payload, or each of an earlier revision's v3 codes section.

Parallel work is a tile's, and framing the stage bytes the tiled
compressor's (:mod:`repro.compressor.tiled`), never a stage's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.compressor.config import CompressionConfig
from repro.compressor.encoders.huffman import HuffmanEncoder, blob_bytes_bound
from repro.compressor.encoders.lossless import get_lossless_backend
from repro.compressor.predictors import make_predictor
from repro.compressor.predictors.base import PredictorOutput

__all__ = [
    "PredictorStage",
    "HuffmanEntropyStage",
    "EncodedCodes",
]


# -- prediction/quantization stage ---------------------------------------------


class PredictorStage:
    """Dispatches to the configured predictor (Lorenzo/interp/regression).

    :meth:`decompose` predicts and quantizes a stack of same-shaped
    arrays, each under its own absolute bound, in one
    :meth:`~repro.compressor.predictors.base.Predictor.decompose_stack`
    pass whatever the predictor; with ``reconstruct`` each output also
    carries what :meth:`reconstruct` will return for it
    (``PredictorOutput.reconstruction``), which every predictor holds
    once it has quantized.  :meth:`reconstruct` inverts a stack of
    outputs in one ``Predictor.reconstruct_stack`` pass.
    """

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
        abs_eb: Sequence[float],
        reconstruct: bool = False,
    ) -> list[PredictorOutput]:
        """The outputs of the ``(n, *shape)`` stack *work*, member *i*
        under the absolute bound ``abs_eb[i]``."""
        return self.make_predictor(config).decompose_stack(
            work, abs_eb, config.quant_radius, reconstruct
        )

    def reconstruct(
        self,
        outputs: Sequence[PredictorOutput],
        shape: tuple[int, ...],
        abs_eb: Sequence[float],
        config: CompressionConfig,
    ) -> np.ndarray:
        """The ``(n, *shape)`` ``float64`` stack whose member *i* inverts
        ``outputs[i]`` under the absolute bound ``abs_eb[i]``."""
        return self.make_predictor(config).reconstruct_stack(
            outputs, shape, abs_eb
        )


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

    def encode_stack(
        self, streams: Sequence[np.ndarray], config: CompressionConfig
    ) -> list[EncodedCodes]:
        """Encode each code stream as one Huffman(+lossless) payload.

        The Huffman streams are coded as one stack
        (:meth:`HuffmanEncoder.encode_stack`), and so are their payloads
        in the lossless stage (:meth:`LosslessBackend.compress_stack`).
        """
        with obs.span("huffman"):
            blobs = self._huffman.encode_stack(streams)
        payloads = blobs
        if config.lossless is not None:
            with obs.span("lossless"):
                backend = get_lossless_backend(config.lossless)
                payloads = backend.compress_stack(blobs)
        return [
            EncodedCodes(payload, len(blob))
            for payload, blob in zip(payloads, blobs)
        ]

    def decode_stack(
        self,
        sections: Sequence[tuple[bytes, CompressionConfig, bool]],
        max_codes: Sequence[int],
    ) -> list[np.ndarray]:
        """The flat ``int64`` code stream of every ``(payload, config,
        chunked)`` section, of at most ``max_codes[i]`` codes: what
        :meth:`encode_stack` coded.

        Every block — a payload, or one of a *chunked* (v3) section's —
        is unwrapped by one :meth:`LosslessBackend.decompress_stack`
        call per backend name, to at most its section's
        :func:`~repro.compressor.encoders.huffman.blob_bytes_bound`,
        then decoded by one :meth:`HuffmanEncoder.decode_stack` call, no
        block to more than its section's codes; a chunked section's
        blocks are joined, the total the caller's.
        """
        blocks, names, block_codes, counts = [], [], [], []  # block by block
        for (payload, config, chunked), n_codes in zip(sections, max_codes):
            parts = [payload]
            if chunked:  # only a legacy writer chunked
                from repro.compressor import legacy

                parts = legacy.read_chunked_codes(payload)
            blocks += parts
            names += [config.lossless] * len(parts)
            block_codes += [n_codes] * len(parts)
            counts.append(len(parts))
        if any(names):
            with obs.span("lossless"):
                for name in dict.fromkeys(filter(None, names)):
                    at = [k for k, named in enumerate(names) if named == name]
                    unwrapped = get_lossless_backend(name).decompress_stack(
                        [blocks[k] for k in at],
                        [blob_bytes_bound(block_codes[k]) for k in at],
                    )
                    for k, block in zip(at, unwrapped):
                        blocks[k] = block
        with obs.span("huffman"):
            decoded = iter(self._huffman.decode_stack(blocks, block_codes))
        return [
            np.concatenate([next(decoded) for _ in range(n)]) if chunked
            else next(decoded)
            for n, (_, _, chunked) in zip(counts, sections)
        ]
