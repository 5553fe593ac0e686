"""Bit-level I/O used by the entropy coders.

:func:`pack_codes` and ``BitWriter`` pack variable-length codes into
bytes; ``BitReader`` extracts them.  All are vectorized with NumPy.
:func:`pack_codes`, the encode kernel, assembles the stream in 64-bit
words, never one byte per bit: neighbouring codewords are folded into
fields of at most 57 bits, every field is shifted to its place in the
word its first bit falls in (shift counts always below 64), the fields
sharing a word are OR-reduced in one ``reduceat``, a field that
straddles leaves its tail in the next word, and the pass runs over
blocks of 65536 symbols so its temporaries do not grow with the
stream.  The reader offers both a sliding 16-bit window and
random-access window gathers (:func:`build_bit_window` /
:func:`gather_window16`, and :func:`slice_window16` when the positions
are a range) so table-driven Huffman decoding resolves many bit
positions per NumPy call instead of one Python step per symbol.  Header
fields (fixed-width words, Elias-gamma runs) are packed and unpacked
whole, never bit by bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitWriter",
    "BitReader",
    "pack_codes",
    "bits_to_bytes",
    "build_bit_window",
    "gather_window16",
    "slice_window16",
    "gamma_bit_lengths",
]

_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def gamma_bit_lengths(values: np.ndarray) -> np.ndarray:
    """Elias-gamma code width, ``2 * bit_length - 1``, of each value >= 1."""
    values = np.asarray(values)
    if values.size and values.min() < 1:
        raise ValueError("Elias gamma encodes integers >= 1")
    # bit_length(v) is the number of powers of two not above v
    bit_lengths = np.searchsorted(
        _POW2, values.astype(np.uint64), side="right"
    )
    return 2 * bit_lengths - 1


#: longest codeword :func:`pack_codes` accepts (the Huffman coder's own
#: limit), and so the longest field a fold may build: it spans at most
#: two 64-bit words wherever it starts
_MAX_CODE_BITS = 57

#: symbols per :func:`pack_codes` block: the temporaries of one block
#: (~0.5 MB each) stay cache-sized however long the stream is
_PACK_BLOCK = 1 << 16

_U64 = np.uint64


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length big-endian codewords into bytes.

    The stream is assembled in 64-bit words, a block of
    ``_PACK_BLOCK`` symbols at a time:

    * **fold** — while twice the longest codeword still fits
      ``_MAX_CODE_BITS``, neighbours merge into one field
      ``(c0 << l1 | c1, l0 + l1)``, halving what the position pass sees;
    * **shift** — a field starting at bit ``start`` lands in word
      ``start >> 6`` at offset ``start & 63``.  Its head is
      ``(code << (64 - length)) >> offset``: both shifts stay inside
      ``[0, 63]`` because ``1 <= length <= 57`` (a NumPy shift by 64 or
      more is undefined), and whatever the second shift drops is the
      tail that belongs to the next word;
    * **reduce** — starts are monotone, so the fields that share a word
      are a contiguous run and one ``bitwise_or.reduceat`` builds every
      word of the block; only the last field of a run can straddle, so
      its tail is OR-ed into the following word.  Blocks meet in a
      shared boundary word, which is why they OR into the output
      instead of assigning.

    Parameters
    ----------
    codes:
        ``uint64`` array; entry *i* holds the codeword value, MSB-first
        within its ``lengths[i]`` low bits.  A code with bits above its
        length is rejected.
    lengths:
        Integer array of the same shape with bit lengths in 0..57;
        zero-length entries contribute nothing.  Both arrays are
        ravelled.

    Returns
    -------
    (payload, total_bits):
        Packed bytes (zero-padded to a byte boundary) and the exact number
        of meaningful bits.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have the same shape")
    if codes.size == 0:
        return b"", 0
    codes, lengths = codes.ravel(), lengths.ravel()
    min_len, max_len = int(lengths.min()), int(lengths.max())
    if min_len < 0:
        raise ValueError(f"codeword length {min_len} is negative")
    if max_len > _MAX_CODE_BITS:
        raise ValueError(
            f"codeword length {max_len} exceeds {_MAX_CODE_BITS} bits"
        )
    total_bits = int(lengths.sum())
    if total_bits == 0:
        if codes.any():
            raise ValueError("some codes do not fit in their lengths")
        return b"", 0
    lengths = lengths.view(np.uint64)  # validated non-negative
    folds = 0
    while max_len << (folds + 1) <= _MAX_CODE_BITS:
        folds += 1

    # one spare word: a block's tail slot exists even when nothing spills
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    bit = 0
    for lo in range(0, codes.size, _PACK_BLOCK):
        c = codes[lo : lo + _PACK_BLOCK]
        ln = lengths[lo : lo + _PACK_BLOCK]
        if (c >> ln).any():
            raise ValueError("some codes do not fit in their lengths")
        if min_len == 0:
            keep = ln != 0
            c, ln = c[keep], ln[keep]
            if c.size == 0:
                continue
        for _ in range(folds):
            c, ln = _fold_pairs(c, ln)
        ends = np.cumsum(ln)
        ends += _U64(bit & 63)
        starts = ends - ln
        word = starts >> _U64(6)
        offset = starts & _U64(63)
        aligned = c << (_U64(64) - ln)  # each field at the top of a word
        # fields sharing a word are a run; every word of the block has one
        breaks = np.flatnonzero(word[1:] != word[:-1])
        firsts = np.concatenate(([0], breaks + 1))
        lasts = np.append(breaks, c.size - 1)
        block = np.zeros(firsts.size + 1, dtype=np.uint64)
        np.bitwise_or.reduceat(aligned >> offset, firsts, out=block[:-1])
        # Only the last field of a run can reach into the next word; what
        # it leaves there is ``aligned << (64 - offset)``, taken in two
        # steps so that offset 0 (nothing left over) is not a shift by 64.
        block[1:] |= (aligned[lasts] << (_U64(63) - offset[lasts])) << _U64(1)
        first_word = bit >> 6
        words[first_word : first_word + block.size] |= block
        bit += int(ends[-1]) - (bit & 63)
    payload = words.astype(">u8").view(np.uint8)[: (total_bits + 7) // 8]
    return payload.tobytes(), total_bits


def _fold_pairs(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge neighbouring codewords: ``(c0 << l1 | c1, l0 + l1)``.

    An odd trailing codeword is carried over as it is.
    """
    pairs = codes.size // 2
    even = 2 * pairs
    folded = np.empty(codes.size - pairs, dtype=np.uint64)
    widths = np.empty_like(folded)
    np.left_shift(codes[0:even:2], lengths[1:even:2], out=folded[:pairs])
    folded[:pairs] |= codes[1:even:2]
    np.add(lengths[0:even:2], lengths[1:even:2], out=widths[:pairs])
    if codes.size & 1:
        folded[-1], widths[-1] = codes[-1], lengths[-1]
    return folded, widths


def build_bit_window(payload: bytes) -> np.ndarray:
    """Random-access window index over *payload* for :func:`gather_window16`.

    Entry *i* packs bytes ``i, i+1, i+2`` big-endian into 24 bits (the
    stream is conceptually zero-padded), so the 16 bits starting at any
    bit offset ``p`` are a shift of ``window[p >> 3]``.
    """
    raw = np.frombuffer(payload, dtype=np.uint8).astype(np.uint32)
    b = np.concatenate([raw, np.zeros(3, dtype=np.uint32)])
    return (b[:-2] << np.uint32(16)) | (b[1:-1] << np.uint32(8)) | b[2:]


def gather_window16(window: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The 16 bits starting at each bit *position*, MSB-first, as uint32.

    *window* comes from :func:`build_bit_window`; *positions* must lie in
    ``[0, 8 * len(payload)]`` (the end position reads zero padding).
    """
    positions = np.asarray(positions, dtype=np.int64)
    word = window[positions >> 3]
    shift = (8 - (positions & 7)).astype(np.uint32)
    return (word >> shift) & np.uint32(0xFFFF)


#: ``8 - (p & 7)`` for the eight bit positions *p* that share a byte
_IN_BYTE_SHIFTS = np.arange(8, 0, -1, dtype=np.uint32)


def slice_window16(window: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """:func:`gather_window16` over the contiguous positions ``[lo, hi)``.

    A range of positions reads a *slice* of the window index, each word
    under the eight in-byte shifts — no index array, no fancy gather.
    """
    if hi <= lo:
        return np.zeros(0, dtype=np.uint32)
    words = window[lo >> 3 : (hi + 7) >> 3]
    out = (words[:, None] >> _IN_BYTE_SHIFTS) & np.uint32(0xFFFF)
    return out.ravel()[lo & 7 : (lo & 7) + hi - lo]


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 ``uint8`` array into MSB-first bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


class BitWriter:
    """Incremental bit writer for small headers and escape payloads.

    The hot encoding path uses :func:`pack_codes`; this class covers the
    small, irregular writes (code tables, outlier lists).
    """

    def __init__(self) -> None:
        self._bits: list[np.ndarray] = []
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the low *nbits* of *value*, MSB first."""
        if nbits < 0 or nbits > 64:
            raise ValueError("nbits must be within [0, 64]")
        if nbits == 0:
            return
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        word = np.array([value], dtype=">u8").view(np.uint8)
        self._bits.append(np.unpackbits(word)[64 - nbits :])
        self._nbits += nbits

    def write_gamma(self, value: int) -> None:
        """Append *value* >= 1 in Elias-gamma code.

        ``value = 2^k + r`` is written as *k* zero bits followed by the
        ``k + 1``-bit binary form — short codes for small values, which
        is ideal for the near-unit deltas of sorted quantization-code
        alphabets.
        """
        if value < 1:
            raise ValueError("Elias gamma encodes integers >= 1")
        k = value.bit_length() - 1
        if k:
            self.write(0, k)
        self.write(value, k + 1)

    def write_gamma_array(self, values: np.ndarray) -> None:
        """Append every entry of *values* (each >= 1) in Elias-gamma code.

        Same bits as one :meth:`write_gamma` per entry: the gamma code of
        ``v`` is ``v`` right-aligned in a ``2k + 1``-bit field, so each
        bit plane of the values scatters into place in one store.
        """
        values = np.asarray(values)
        if values.size == 0:
            return
        widths = gamma_bit_lengths(values)
        values = values.astype(np.uint64)
        ends = np.cumsum(widths)
        bits = np.zeros(int(ends[-1]), dtype=np.uint8)
        for plane in range((int(widths.max()) + 1) // 2):
            live = np.flatnonzero(widths > 2 * plane)
            bits[ends[live] - 1 - plane] = (
                values[live] >> np.uint64(plane)
            ) & np.uint64(1)
        self._bits.append(bits)
        self._nbits += bits.size

    def write_array(self, values: np.ndarray, nbits: int) -> None:
        """Append every entry of *values* using *nbits* bits each."""
        values = np.asarray(values, dtype=np.uint64)
        if values.size == 0:
            return
        if nbits <= 0 or nbits > 64:
            raise ValueError("nbits must be within [1, 64]")
        if nbits < 64 and np.any(values >> np.uint64(nbits)):
            raise ValueError(f"some values do not fit in {nbits} bits")
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(
            np.uint8
        )
        self._bits.append(bits.ravel())
        self._nbits += nbits * values.size

    @property
    def nbits(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def getvalue(self) -> bytes:
        """Return the packed bytes (zero-padded to a byte boundary)."""
        if not self._bits:
            return b""
        return bits_to_bytes(np.concatenate(self._bits))


class BitReader:
    """Bit reader with a vectorized sliding 16-bit window.

    ``window16`` exposes, for every bit offset, the next 16 bits as an
    integer; the Huffman decoder indexes it once per symbol.
    """

    WINDOW = 16

    def __init__(self, payload: bytes, nbits: int | None = None) -> None:
        raw = np.frombuffer(payload, dtype=np.uint8)
        bits = np.unpackbits(raw)
        if nbits is not None:
            if nbits > bits.size:
                raise ValueError("nbits exceeds available payload bits")
            bits = bits[:nbits]
        self._bits = bits
        self.pos = 0
        self._window: np.ndarray | None = None

    @property
    def nbits(self) -> int:
        """Total number of readable bits."""
        return int(self._bits.size)

    def read(self, nbits: int) -> int:
        """Read *nbits* MSB-first and return them as an int."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if self.pos + nbits > self._bits.size:
            raise EOFError("bitstream exhausted")
        chunk = self._bits[self.pos : self.pos + nbits]
        self.pos += nbits
        # packbits pads the final byte on the right; shift the pad out
        packed = np.packbits(chunk).tobytes()
        return int.from_bytes(packed, "big") >> (-nbits % 8)

    def read_gamma(self) -> int:
        """Read one Elias-gamma value (inverse of ``write_gamma``)."""
        k = 0
        while True:
            if self.pos >= self._bits.size:
                raise EOFError("bitstream exhausted")
            bit = int(self._bits[self.pos])
            self.pos += 1
            if bit:
                break
            k += 1
        value = 1
        for _ in range(k):
            if self.pos >= self._bits.size:
                raise EOFError("bitstream exhausted")
            value = (value << 1) | int(self._bits[self.pos])
            self.pos += 1
        return value

    def read_gamma_array(self, count: int) -> np.ndarray:
        """Read *count* Elias-gamma values in one vectorized pass.

        Gamma codes chain sequentially (each code's width depends on its
        leading zero run), so the start positions are recovered with
        pointer doubling over the per-position jump map
        ``jump[p] = 2 * nextone[p] - p + 1`` — ``O(log count)`` rounds of
        NumPy gathers instead of one Python iteration per bit.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        region = self._bits[self.pos :].astype(np.int64)
        n = region.size
        if n == 0:
            raise EOFError("bitstream exhausted")
        # nextone[p]: index of the first 1-bit at position >= p (n if none).
        marks = np.where(region == 1, np.arange(n, dtype=np.int64), n)
        nextone = np.minimum.accumulate(marks[::-1])[::-1]
        nextone = np.concatenate([nextone, np.array([n], dtype=np.int64)])
        # jump[p]: start of the next code when a code starts at p.  A code
        # is k zeros, a 1 at nextone[p], then k value bits.
        jump = np.minimum(2 * nextone - np.arange(n + 1, dtype=np.int64) + 1, n)
        starts = np.empty(count + 1, dtype=np.int64)
        starts[0] = 0
        have = 1
        while have < count + 1:
            take = min(have, count + 1 - have)
            starts[have : have + take] = jump[starts[:take]]
            have += take
            if have < count + 1:
                jump = jump[jump]
        heads = nextone[starts[:count]]
        ks = heads - starts[:count]
        # Each code's value bits must lie inside the region: the
        # *unclamped* start of the next code is 2*head - start + 1, and
        # the clamped `jump` used for chaining would silently hide an
        # overrun of the final code.
        ends = 2 * heads - starts[:count] + 1
        if (
            np.any(heads >= n)
            or np.any(ends > n)
            or np.any(starts[1:] <= starts[:-1])
        ):
            raise EOFError("bitstream exhausted")
        if np.any(ks > 62):
            raise ValueError("Elias-gamma value exceeds 63 bits")
        values = np.ones(count, dtype=np.int64)
        for j in range(int(ks.max())):
            live = j < ks
            values[live] = (values[live] << 1) | region[heads[live] + 1 + j]
        self.pos += int(starts[count])
        return values

    def read_array(self, count: int, nbits: int) -> np.ndarray:
        """Read *count* fixed-width fields of *nbits* bits each."""
        if count < 0 or nbits <= 0 or nbits > 64:
            raise ValueError("invalid count or nbits")
        need = count * nbits
        if self.pos + need > self._bits.size:
            raise EOFError("bitstream exhausted")
        chunk = self._bits[self.pos : self.pos + need]
        self.pos += need
        bits = chunk.reshape(count, nbits).astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)

    def window16(self) -> np.ndarray:
        """Sliding window: entry *i* packs bits ``[i, i+16)`` MSB-first.

        The stream is conceptually zero-padded at the end so the window is
        defined for every bit position.
        """
        if self._window is None:
            padded = np.concatenate(
                [self._bits, np.zeros(self.WINDOW, dtype=np.uint8)]
            ).astype(np.uint32)
            window = np.zeros(self._bits.size + 1, dtype=np.uint32)
            acc = np.zeros(self._bits.size + 1, dtype=np.uint32)
            for k in range(self.WINDOW):
                acc = padded[k : k + self._bits.size + 1]
                window = (window << np.uint32(1)) | acc
            self._window = window
        return self._window
