"""Lossless byte-stream backends for the optional post-Huffman stage.

The paper applies Zstandard (and compares Gzip) after the Huffman stage.
Neither is available here, so we build equivalent coders from our own
primitives:

``zstd_like``
    LZ77 with a large window, followed by a byte-level Huffman pass over
    the token stream — the same match-then-entropy-code architecture as
    Zstandard.
``gzip_like``
    LZ77 with the Deflate-sized 32 KiB window and shorter matches,
    followed by the same Huffman pass.
``rle``
    Byte-level zero-run RLE + Huffman; the degenerate coder the paper's
    model (Eq. 4) reduces the lossless stage to.

All backends share the trivial container ``[method:u8][body]`` and an
escape: when the coded body would exceed the input, the raw input is
stored instead.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.encoders.lz77 import Lz77Codec, Lz77Params
from repro.compressor.encoders.rle import ZeroRunLengthEncoder

__all__ = ["LosslessBackend", "get_lossless_backend", "LOSSLESS_BACKENDS"]

_RAW = 0
_CODED = 1


class LosslessBackend:
    """One named lossless coder with a stored/raw escape."""

    def __init__(self, name: str) -> None:
        if name not in LOSSLESS_BACKENDS:
            raise ValueError(
                f"unknown lossless backend {name!r}; "
                f"expected one of {sorted(LOSSLESS_BACKENDS)}"
            )
        self.name = name
        self._huffman = HuffmanEncoder()
        if name == "zstd_like":
            self._lz = Lz77Codec(Lz77Params(window_bits=20))
        elif name == "gzip_like":
            self._lz = Lz77Codec(Lz77Params(window_bits=15, max_match=258))
        else:  # rle
            self._lz = None
            self._rle = ZeroRunLengthEncoder()

    def compress(self, data: bytes) -> bytes:
        """Compress *data*; never larger than ``len(data) + 1``."""
        body = self._compress_body(data)
        if body is None or len(body) >= len(data):
            return bytes([_RAW]) + data
        return bytes([_CODED]) + body

    def decompress(self, payload: bytes) -> bytes:
        """Invert :meth:`compress`."""
        if not payload:
            raise ValueError("empty lossless payload")
        method, body = payload[0], payload[1:]
        if method == _RAW:
            return body
        if method != _CODED:
            raise ValueError(f"unknown lossless container method {method}")
        return self._decompress_body(body)

    # -- bodies -------------------------------------------------------------

    def _compress_body(self, data: bytes) -> bytes | None:
        """Coded body, or ``None`` when the raw escape is sure to win.

        The exact coded size is known from the Huffman code lengths
        alone; when it already matches or exceeds the input
        (incompressible token streams), skip the expensive bit-packing —
        the caller emits the raw escape either way, so the container
        bytes are identical to always packing.  Before any code is
        built, the planner's entropy floor (the provable form of the
        paper's Eq. 4 estimate: exact header and sync table plus the
        Shannon payload) settles the same question for most streams
        that escape — small ones, where the header rivals the data, and
        near-8-bit token streams of incompressible bytes, where the
        sync table tips it.
        """
        if self._lz is not None:
            tokens = np.frombuffer(self._lz.encode(data), dtype=np.uint8)
        else:
            symbols = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
            tokens, _ = self._rle.encode(symbols, zero_symbol=0)
        plan = self._huffman.plan(tokens, budget=len(data))
        # no plan: the floor reached the budget — or there are no tokens,
        # which only empty data produces, and any header loses to that
        if plan is None or plan.container_bytes >= len(data):
            return None
        return self._huffman.encode(tokens, plan=plan)

    def _decompress_body(self, body: bytes) -> bytes:
        decoded = self._huffman.decode(body)
        if self._lz is not None:
            tokens = decoded.astype(np.uint8).tobytes()
            return self._lz.decode(tokens)
        symbols = self._rle.decode(decoded, zero_symbol=0)
        if symbols.size and (symbols.min() < 0 or symbols.max() > 255):
            raise ValueError("corrupt RLE byte stream")
        return symbols.astype(np.uint8).tobytes()


LOSSLESS_BACKENDS = ("zstd_like", "gzip_like", "rle")


@functools.lru_cache(maxsize=None)
def get_lossless_backend(name: str) -> LosslessBackend:
    """The shared backend for *name*.

    Backends hold no per-call state, so every tile encode and decode of
    the process reuses one instance per name (unknown names raise and
    are not cached).
    """
    return LosslessBackend(name)
