"""Entropy and dictionary coders for the compression pipeline."""

from repro.compressor.encoders.huffman import (
    HuffmanCode,
    HuffmanEncoder,
    huffman_code_lengths,
)
from repro.compressor.encoders.lossless import (
    LOSSLESS_BACKENDS,
    LosslessBackend,
    get_lossless_backend,
)
from repro.compressor.encoders.lz77 import Lz77Codec, Lz77Params
from repro.compressor.encoders.rle import (
    RleStats,
    ZeroRunLengthEncoder,
    zero_run_lengths,
)

__all__ = [
    "HuffmanCode",
    "HuffmanEncoder",
    "huffman_code_lengths",
    "LosslessBackend",
    "get_lossless_backend",
    "LOSSLESS_BACKENDS",
    "Lz77Codec",
    "Lz77Params",
    "ZeroRunLengthEncoder",
    "RleStats",
    "zero_run_lengths",
]
