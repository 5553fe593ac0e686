"""Zero-run run-length encoding over quantization codes.

§III-B2 of the paper observes that after an effective predictor the
quantization codes are dominated by the central (zero) code and otherwise
nearly independent, so the only structure the optional lossless stage can
exploit is runs of zeros.  The ratio-quality model therefore approximates
the whole lossless stage with RLE *on zeros only* — this module is the
concrete codec that approximation describes.

Format: the stream is rewritten as a sequence of tokens; a zero run of
length ``n`` becomes the pair ``(ZERO_MARKER, n)`` where the run length is
stored in a fixed-size field of ``C1`` bits (the constant of Eq. 4-5);
non-zero symbols pass through unchanged.  Runs longer than the field
capacity are split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ZeroRunLengthEncoder", "RleStats", "zero_run_lengths"]

# Fixed field width (bits) for a run length; this is the paper's C1 when
# expressed in units of the zero symbol's Huffman length (1 bit).
DEFAULT_RUN_FIELD_BITS = 16


def zero_run_lengths(stream: np.ndarray, zero_symbol: int = 0) -> np.ndarray:
    """Lengths of maximal runs of *zero_symbol*, in stream order."""
    is_zero = np.asarray(stream).ravel() == zero_symbol
    if is_zero.size == 0:
        return np.zeros(0, dtype=np.int64)
    padded = np.concatenate(([False], is_zero, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, ends = edges[::2], edges[1::2]
    return (ends - starts).astype(np.int64)


@dataclass(frozen=True)
class RleStats:
    """Bookkeeping for one RLE pass."""

    n_input: int
    n_tokens: int
    n_runs: int
    run_field_bits: int

    @property
    def token_reduction(self) -> float:
        """Input symbols per output token (>= 1 when RLE helps)."""
        if self.n_tokens == 0:
            return 1.0
        return self.n_input / self.n_tokens


class ZeroRunLengthEncoder:
    """RLE on runs of one designated symbol (the zero quantization code).

    Token stream layout: ``tokens[0]`` is the marker value (chosen below
    the symbol range so it never collides with a literal), followed by
    the body: non-zero symbols verbatim, each zero run as the pair
    ``[marker, run_length]``.
    """

    def __init__(self, run_field_bits: int = DEFAULT_RUN_FIELD_BITS) -> None:
        if run_field_bits < 2 or run_field_bits > 32:
            raise ValueError("run_field_bits must be within [2, 32]")
        self.run_field_bits = run_field_bits
        self.max_run = (1 << run_field_bits) - 1

    def encode(
        self, stream: np.ndarray, zero_symbol: int = 0
    ) -> tuple[np.ndarray, RleStats]:
        """Return ``(tokens, stats)`` for *stream*.

        Tokens are ``int64``; ``tokens[0]`` holds the marker value
        ``min(stream) - 1`` and the body follows.
        """
        stream = np.asarray(stream, dtype=np.int64).ravel()
        if stream.size == 0:
            return stream.copy(), RleStats(0, 0, 0, self.run_field_bits)
        marker = int(stream.min()) - 1

        is_zero = stream == zero_symbol
        padded = np.concatenate(([False], is_zero, [False]))
        edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
        starts, ends = edges[::2], edges[1::2]

        tokens: list[np.ndarray] = [np.array([marker], dtype=np.int64)]
        cursor = 0
        n_runs = 0
        for start, end in zip(starts, ends):
            tokens.append(stream[cursor:start])
            run = int(end - start)
            while run > 0:
                take = min(run, self.max_run)
                tokens.append(np.array([marker, take], dtype=np.int64))
                run -= take
                n_runs += 1
            cursor = end
        tokens.append(stream[cursor:])
        out = np.concatenate(tokens)
        stats = RleStats(
            n_input=stream.size,
            n_tokens=out.size - 1,  # body only; tokens[0] is the header
            n_runs=n_runs,
            run_field_bits=self.run_field_bits,
        )
        return out, stats

    def decode(
        self, tokens: np.ndarray, zero_symbol: int = 0, limit: int | None = None
    ) -> np.ndarray:
        """Invert :meth:`encode`; ``tokens[0]`` carries the marker.  A run
        that takes the output past *limit* symbols is refused unallocated.
        """
        tokens = np.asarray(tokens, dtype=np.int64).ravel()
        if tokens.size == 0:
            return tokens.copy()
        marker = int(tokens[0])
        tokens = tokens[1:]
        pieces: list[np.ndarray] = []
        cursor = produced = 0
        for pos in np.flatnonzero(tokens == marker).tolist():
            if pos < cursor:
                # This position was consumed as a run length.
                continue
            if pos + 1 >= tokens.size:
                raise ValueError("dangling RLE marker at end of stream")
            run = int(tokens[pos + 1])
            if run < 0 or run > self.max_run:
                raise ValueError(f"invalid run length {run}")
            produced += pos - cursor + run
            if limit is not None and produced > limit:
                raise ValueError(f"RLE runs past the limit of {limit} symbols")
            pieces.append(tokens[cursor:pos])
            pieces.append(np.full(run, zero_symbol, dtype=np.int64))
            cursor = pos + 2
        pieces.append(tokens[cursor:])
        return np.concatenate(pieces)

