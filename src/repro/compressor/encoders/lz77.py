"""A small LZ77 dictionary coder (LZ4-flavoured token stream).

This is the substrate for the "optional lossless encoder" stage (the paper
uses Zstandard/Gzip there).  Parsing is greedy over a *precomputed*
candidate scan: the previous occurrence of every 4-byte prefix is found
in one vectorized pass (a stable radix argsort over the prefix hashes),
so the Python loop only runs once per emitted match — incompressible
stretches are skipped in O(log n) rather than byte by byte.

Token stream (all fields byte-aligned):

``[literal_len varint][literal bytes][match_len varint][dist:u24]``

A final block may omit the match (match_len 0, dist 0).  Varints are
LEB128.  ``window_bits`` bounds match distances.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Lz77Codec", "Lz77Params"]

_MIN_MATCH = 4
_HASH_BITS = 16


def write_varint(out: bytearray, value: int) -> None:
    """Append *value* as LEB128."""
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read a LEB128 varint at *pos*; return ``(value, new_pos)``."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint longer than 64 bits")


@dataclass(frozen=True)
class Lz77Params:
    """Tuning knobs; presets model Zstandard-like vs Gzip-like coders."""

    window_bits: int = 17
    max_match: int = 1 << 16

    def __post_init__(self) -> None:
        if not 8 <= self.window_bits <= 24:
            raise ValueError("window_bits must be within [8, 24]")
        if self.max_match < _MIN_MATCH:
            raise ValueError("max_match must be at least the minimum match")

    @property
    def window(self) -> int:
        """Maximum backward match distance in bytes."""
        return 1 << self.window_bits


class Lz77Codec:
    """Greedy LZ77 with a single-candidate hash table."""

    def __init__(self, params: Lz77Params | None = None) -> None:
        self.params = params or Lz77Params()

    def encode(self, data: bytes) -> bytes:
        """Compress *data*; always decodable by :meth:`decode`.  The
        one-payload case of :meth:`encode_stack`."""
        return self.encode_stack([data])[0]

    def encode_stack(self, payloads: Sequence[bytes]) -> list[bytes]:
        """:meth:`encode` of every payload, from one candidate scan.

        The scan runs over the payloads laid end to end and keeps a pair
        only inside one member: its candidate at or after the member's
        start, its 4 bytes before the member's end.  A 4-byte prefix
        that straddles two members sits after every kept one of its
        member, so it never parts two of them in a hash bucket: each
        member gets the pairs, and the bytes, it gets alone.
        """
        # joining one payload returns it: no copy
        pos, cand = self._candidate_scan(
            b"".join(payloads), self.params.window
        )
        counts = [pos.size]
        if len(payloads) > 1:  # alone, every pair is the member's
            sizes = [len(data) for data in payloads]
            ends = np.cumsum(sizes)
            member = ends.searchsorted(pos, side="right")
            start = (ends - sizes)[member]
            keep = (cand >= start) & (pos + _MIN_MATCH <= ends[member])
            pos, cand = (pos - start)[keep], (cand - start)[keep]
            counts = np.bincount(member[keep], minlength=len(payloads))
        cuts = np.cumsum([0, *counts]).tolist()
        pos, cand = pos.tolist(), cand.tolist()
        return [
            self._parse(data, pos[a:b], cand[a:b])
            for data, a, b in zip(payloads, cuts, cuts[1:])
        ]

    def _parse(
        self, data: bytes, positions: list[int], candidates: list[int]
    ) -> bytes:
        """Greedy token stream of *data* over its sorted match pairs."""
        n = len(data)
        out = bytearray()
        write_varint(out, n)
        if n == 0:
            return bytes(out)
        max_match = self.params.max_match
        j = literal_start = 0
        while True:
            j = bisect_left(positions, literal_start, j)
            if j == len(positions):
                break
            p, candidate = positions[j], candidates[j]
            length = self._extend_match(data, candidate, p, max_match)
            literals = data[literal_start:p]
            write_varint(out, len(literals))
            out.extend(literals)
            write_varint(out, length)
            out.extend((p - candidate).to_bytes(3, "big"))
            literal_start = p + length
        # Trailing literals with an empty match.
        literals = data[literal_start:]
        write_varint(out, len(literals))
        out.extend(literals)
        write_varint(out, 0)
        out.extend((0).to_bytes(3, "big"))
        return bytes(out)

    @staticmethod
    def _candidate_scan(
        data: bytes, window: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized single-candidate match scan.

        Returns ``(match_pos, cand)``: the sorted positions where a match
        of at least :data:`_MIN_MATCH` bytes starts, and ``cand[j]`` the
        previous occurrence of the 4-byte prefix at ``match_pos[j]``.
        A position's candidate is its predecessor in its 16-bit hash
        bucket: a stable argsort over the hashes (radix sort, O(n))
        lays every bucket out in scan order.  Neighbours in that order
        whose prefixes are equal are the verified pairs — equal prefixes
        hash alike, so they share a bucket — and only those within the
        window are kept and sorted back into scan order.
        """
        n = len(data)
        if n < _MIN_MATCH:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        arr = np.frombuffer(data, dtype=np.uint8)
        quad = (
            arr[: n - 3].astype(np.uint32)
            | (arr[1 : n - 2].astype(np.uint32) << np.uint32(8))
            | (arr[2 : n - 1].astype(np.uint32) << np.uint32(16))
            | (arr[3:n].astype(np.uint32) << np.uint32(24))
        )
        hashes = (
            (quad * np.uint32(2654435761)) >> np.uint32(32 - _HASH_BITS)
        ).astype(np.uint16)
        order = np.argsort(hashes, kind="stable")
        ranked = quad[order]
        pair = np.flatnonzero(ranked[1:] == ranked[:-1])
        pos, cand = order[pair + 1], order[pair]
        near = pos - cand <= window
        pos, cand = pos[near], cand[near]
        by_pos = np.argsort(pos)
        return pos[by_pos], cand[by_pos]

    @staticmethod
    def _extend_match(
        data: bytes, candidate: int, pos: int, max_match: int
    ) -> int:
        """Length of the common prefix of data[candidate:] / data[pos:].

        Most matches are short, and a few byte compares settle them;
        past that it compares in growing chunks, so long (zero-run)
        matches cost few Python operations.
        """
        n = len(data)
        short = min(max_match, n - pos, 2 * _MIN_MATCH)
        for length in range(_MIN_MATCH, short):
            if data[candidate + length] != data[pos + length]:
                return length
        length = short
        step = 64
        while length < max_match and pos + length < n:
            take = min(step, max_match - length, n - pos - length)
            if (
                data[candidate + length : candidate + length + take]
                == data[pos + length : pos + length + take]
            ):
                length += take
                step = min(step * 2, 1 << 16)
                continue
            # Binary-search the divergence point inside the chunk.
            lo, hi = 0, take
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if (
                    data[candidate + length : candidate + length + mid]
                    == data[pos + length : pos + length + mid]
                ):
                    lo = mid
                else:
                    hi = mid - 1
            return length + lo
        return length

    def decode(self, payload: bytes, limit: int | None = None) -> bytes:
        """Invert :meth:`encode`.

        No length may run past the size the stream declares, nor that
        size past *limit* bytes, so a forged ``match_len`` or size is
        refused before it is allocated.
        """
        expected, pos = read_varint(payload, 0)
        if limit is not None and expected > limit:
            raise ValueError(
                f"LZ77 stream declares {expected} bytes, past its limit "
                f"of {limit}"
            )
        out = bytearray()
        while len(out) < expected:
            lit_len, pos = read_varint(payload, pos)
            if lit_len > expected - len(out):
                raise ValueError("LZ77 literal run past the declared size")
            out.extend(payload[pos : pos + lit_len])
            pos += lit_len
            match_len, pos = read_varint(payload, pos)
            if pos + 3 > len(payload):
                raise ValueError("truncated LZ77 stream")
            dist = int.from_bytes(payload[pos : pos + 3], "big")
            pos += 3
            if match_len > expected - len(out):
                raise ValueError("LZ77 match past the declared size")
            if match_len:
                if dist <= 0 or dist > len(out):
                    raise ValueError("invalid match distance")
                start = len(out) - dist
                if dist >= match_len:
                    out.extend(out[start : start + match_len])
                else:
                    # Overlapping copy (e.g. runs): byte-by-byte semantics
                    # periodically extend the last `dist` bytes, so tile
                    # the period instead of looping per byte.
                    period = bytes(out[start:])
                    reps = -(-match_len // dist)
                    out.extend((period * reps)[:match_len])
        if len(out) != expected:
            raise ValueError("corrupt LZ77 stream")
        return bytes(out)
