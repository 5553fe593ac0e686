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
from typing import Sequence

import numpy as np

from repro.compressor.encoders.huffman import HuffmanEncoder, _histograms
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
        # the distinct tokens a stream can hold: bytes, or the byte
        # values, the marker and the run lengths of the RLE run field
        self._alphabet = 257 + self._rle.max_run if self._lz is None else 256

    def compress(self, data: bytes) -> bytes:
        """Compress *data*; never larger than ``len(data) + 1``.  The
        one-payload case of :meth:`compress_stack`."""
        return self.compress_stack([data])[0]

    def compress_stack(self, payloads: Sequence[bytes]) -> list[bytes]:
        """:meth:`compress` of every payload, each with its own escape.

        The stack is tokenised by one LZ77 scan (RLE: a payload at a
        time); one pass counts its token streams and finds their header
        sizes and entropy floors (``huffman._histograms``), each is
        planned alone, and those that code smaller than their payload
        are packed as one Huffman stack.

        The exact coded size is known from the Huffman code lengths
        alone; when it already matches or exceeds the input
        (incompressible token streams), skip the expensive bit-packing —
        the raw escape is emitted either way, so the container bytes
        are identical to always packing.  Before any code is built, the
        planner's entropy floor (the provable form of the paper's Eq. 4
        estimate: exact header and sync table plus the Shannon payload)
        settles the same question for most streams that escape — small
        ones, where the header rivals the data, and near-8-bit token
        streams of incompressible bytes, where the sync table tips it.
        """
        if self._lz is not None:
            streams = [
                np.frombuffer(tokens, dtype=np.uint8).astype(np.int64)
                for tokens in self._lz.encode_stack(payloads)
            ]
        else:
            streams = [
                self._rle.encode(
                    np.frombuffer(data, dtype=np.uint8).astype(np.int64),
                    zero_symbol=0,
                )[0]
                for data in payloads
            ]
        coded, plans = [], []
        histograms = _histograms(streams)
        for i, (tokens, data) in enumerate(zip(streams, payloads)):
            plan = self._huffman.plan(
                tokens, budget=len(data), histogram=histograms[i]
            )
            # no plan: the floor reached the budget — or there are no
            # tokens, which only empty data produces, and any header
            # loses to that
            if plan is not None and plan.container_bytes < len(data):
                coded.append(i)
                plans.append(plan)
        packed = self._huffman.encode_stack(
            [streams[i] for i in coded], plans
        )
        bodies = dict(zip(coded, packed))
        return [
            bytes([_CODED]) + bodies[i]
            if i in bodies
            else bytes([_RAW]) + data
            for i, data in enumerate(payloads)
        ]

    def decompress(self, payload: bytes) -> bytes:
        """Invert :meth:`compress` (the raw escape returns a view).  The
        one-payload case of :meth:`decompress_stack`."""
        return self.decompress_stack([payload])[0]

    def decompress_stack(
        self, payloads: Sequence[bytes], limits: Sequence | None = None
    ) -> list[bytes]:
        """:meth:`decompress` of every payload — the bytes, and the error.

        Every coded body's tokens are decoded in one
        :meth:`HuffmanEncoder.decode_stack` call (none if no body is
        coded), then inverted a payload at a time, payload *i* to at
        most ``limits[i]`` bytes, or refused unallocated — and its
        tokens past ``4 * limits[i] + 64``, twice the most such bytes
        code to (5 LZ77 tokens per 4-byte match, 2 RLE tokens per zero,
        and a header), or an alphabet no token stream of its coder holds.
        A stack that raises is decoded again one payload at a time, so
        the error is the first bad payload's own.
        """
        limits = [None] * len(payloads) if limits is None else limits
        try:
            out, coded = [], []
            for i, payload in enumerate(payloads):
                if not payload:
                    raise ValueError("empty lossless payload")
                if payload[0] == _CODED:
                    coded.append(i)
                elif payload[0] != _RAW:
                    raise ValueError(
                        f"unknown lossless container method {payload[0]}"
                    )
                out.append(memoryview(payload)[1:])
            bodies = [out[i] for i in coded]
            bounds = [limits[i] and 4 * limits[i] + 64 for i in coded]
            tokens_of = coded and self._huffman.decode_stack(
                bodies, bounds, [self._alphabet] * len(coded)
            )
            for i, tokens in zip(coded, tokens_of):
                if self._lz is not None:
                    tokens = tokens.astype(np.uint8).tobytes()
                    out[i] = self._lz.decode(tokens, limits[i])
                    continue
                symbols = self._rle.decode(tokens, limit=limits[i])
                if symbols.size and (symbols.min() < 0 or symbols.max() > 255):
                    raise ValueError("corrupt RLE byte stream")
                out[i] = symbols.astype(np.uint8).tobytes()
            return out
        except ValueError:
            if len(payloads) <= 1:
                raise
            return [
                self.decompress_stack([payload], [limit])[0]
                for payload, limit in zip(payloads, limits)
            ]


LOSSLESS_BACKENDS = ("zstd_like", "gzip_like", "rle")


@functools.lru_cache(maxsize=None)
def get_lossless_backend(name: str) -> LosslessBackend:
    """The shared backend for *name*.

    Backends hold no per-call state, so every tile encode and decode of
    the process reuses one instance per name (unknown names raise and
    are not cached).
    """
    return LosslessBackend(name)
