"""Bit-level I/O used by the entropy coders.

:func:`pack_codes` packs variable-length codes into bytes, vectorized
with NumPy: it assembles the stream in 64-bit words, never one byte per
bit — neighbouring codewords are folded into fields of at most 57 bits,
every field is shifted to its place in the word its first bit falls in
(shift counts always below 64), the fields sharing a word are
OR-reduced in one ``reduceat``, a field that straddles leaves its tail
in the next word, and the pass runs over blocks of 65536 symbols so its
temporaries do not grow with the stream.  Random-access window gathers
(:func:`build_bit_window` / :func:`gather_window16`, and
:func:`slice_window16` when the positions are a range) let table-driven
Huffman decoding resolve many bit positions per NumPy call instead of
one Python step per symbol.

Headers are Python integers.  A writer lists ``(value, width)`` fields
and :func:`pack_fields` concatenates them into bytes; the Elias-gamma
runs and fixed-width arrays of a whole stack of headers are one bit
array, written in one NumPy pass (:func:`pack_values`).  A reader takes
the header as one integer (:func:`bits_word`) and cuts fields out of it
by shifts (:func:`read_field`), walks a gamma run (:func:`read_gamma`)
and unpacks a fixed-width array with one ``np.unpackbits``
(:func:`read_fixed`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "pack_codes",
    "pack_fields",
    "pack_values",
    "bits_word",
    "read_field",
    "read_gamma",
    "read_fixed",
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
    bit offset ``p`` are a shift of ``window[p >> 3]``.  Built in place:
    one ``uint32`` array, no temporaries.
    """
    raw = np.frombuffer(payload, dtype=np.uint8)
    window = np.zeros(raw.size + 1, dtype=np.uint32)
    window[:-1] = raw
    for k in (1, 2):
        window <<= 8
        window[: max(raw.size - k, 0)] |= raw[k:]
    return window


def gather_window16(
    window: np.ndarray,
    positions: np.ndarray,
    out: np.ndarray | None = None,
    bits: int = 16,
) -> np.ndarray:
    """The 16 bits starting at each bit *position*, MSB-first.

    *window* comes from :func:`build_bit_window`; *positions* must lie in
    ``[0, 8 * len(payload)]`` (the end position reads zero padding).
    The result is a new ``uint32`` array, or is computed in *out* (an
    integer array of the positions' shape): then the window gather is
    the one array the call allocates.  With *bits* below 16 each entry
    is the leading *bits* of those 16, in the same number of passes.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if out is None:
        out = np.empty(positions.shape, dtype=np.uint32)
    np.right_shift(positions, 3, out=out, casting="unsafe")
    word = window[out]
    np.bitwise_and(positions, 7, out=out, casting="unsafe")
    np.subtract(24 - bits, out, out=out)
    np.right_shift(word, out, out=out, casting="unsafe")
    np.bitwise_and(out, (1 << bits) - 1, out=out)
    return out


#: ``p & 7`` for the eight bit positions *p* that share a byte
_IN_BYTE = np.arange(8, dtype=np.uint32)


def slice_window16(
    window: np.ndarray, lo: int, hi: int, bits: int = 16
) -> np.ndarray:
    """:func:`gather_window16` over the contiguous positions ``[lo, hi)``.

    A range of positions reads a *slice* of the window index, each word
    under the eight in-byte shifts — no index array, no fancy gather.
    """
    if hi <= lo:
        return np.zeros(0, dtype=np.uint32)
    words = window[lo >> 3 : (hi + 7) >> 3]
    shifts = np.uint32(24 - bits) - _IN_BYTE
    out = (words[:, None] >> shifts) & np.uint32((1 << bits) - 1)
    return out.ravel()[lo & 7 : (lo & 7) + hi - lo]


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 ``uint8`` array into MSB-first bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


# -- header fields -------------------------------------------------------------


def pack_fields(fields: Iterable[tuple[int, int]]) -> bytes:
    """Concatenate ``(value, width)`` fields MSB-first, zero-padded to bytes.

    Each *value* must be a non-negative integer below ``2 ** width``; a
    zero-width field adds nothing.
    """
    word = nbits = 0
    for value, width in fields:
        if width < 0:
            raise ValueError("field width must be non-negative")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        word = word << width | value
        nbits += width
    pad = -nbits % 8
    return (word << pad).to_bytes((nbits + pad) // 8, "big")


def pack_values(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Each value right-aligned in a field of its width, the fields
    concatenated MSB-first and zero-padded to bytes: one bit array, into
    which every significant bit of every value scatters in one store.
    An Elias-gamma code is such a field, ``v`` in ``2 * bit_length(v) -
    1`` bits (:func:`gamma_bit_lengths`): a run of unit values is all ones.
    """
    values = np.asarray(values, dtype=np.uint64).ravel()
    ends = np.cumsum(widths, dtype=np.int64)
    held = np.searchsorted(_POW2, values, side="right")  # significant bits
    if (held > np.asarray(widths)).any():
        raise ValueError("some values do not fit in their field widths")
    bits = np.zeros(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    plane = np.arange(held.sum()) - np.repeat(np.cumsum(held) - held, held)
    bits[np.repeat(ends - 1, held) - plane] = (
        np.repeat(values, held) >> plane.astype(np.uint64) & np.uint64(1)
    )
    return np.packbits(bits).tobytes()


def bits_word(data: bytes, nbits: int | None = None) -> tuple[int, int]:
    """The first *nbits* bits of *data* (all of them by default) as one
    integer, and *nbits* — the ``(word, nbits)`` pair the readers take."""
    total = 8 * len(data)
    if nbits is None:
        nbits = total
    if nbits > total:
        raise ValueError("nbits exceeds available payload bits")
    return int.from_bytes(data, "big") >> (total - nbits), nbits


def read_field(word: int, nbits: int, pos: int, width: int) -> int:
    """Bits ``[pos, pos + width)`` of the *nbits*-bit *word*, MSB-first.

    ``EOFError`` when they run past its end.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if pos + width > nbits:
        raise EOFError("bitstream exhausted")
    return word >> (nbits - pos - width) & ((1 << width) - 1)


def read_gamma(
    word: int, nbits: int, pos: int, count: int
) -> tuple[np.ndarray, int]:
    """*count* Elias-gamma values from bit *pos* of an *nbits*-bit word.

    Returns the ``int64`` values and the bits they took.  A run of
    unit values is all ones, so one comparison settles the common
    case; otherwise the run is walked over the word's binary digits —
    each stretch of ones is a stretch of unit values, found in one
    ``str.find``, and each code ``0^k 1 b^k`` costs two more.
    ``EOFError`` when a code runs past the word — at once when the word
    cannot hold *count* one-bit codes; after that a value of more than
    63 bits is a ``ValueError``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if pos + count > nbits:
        # every code takes a bit at least: refused before the output
        # of a count no word can hold is allocated
        raise EOFError("bitstream exhausted")
    values = np.ones(count, dtype=np.int64)
    if read_field(word, nbits, pos, count) == (1 << count) - 1:
        return values, count
    text = format(word, f"0{nbits}b")
    at, done, widest = pos, 0, 0
    where, found = [], []
    while done < count:
        stop = at + count - done  # where the rest would end, all ones
        zero = text.find("0", at, stop)
        if zero < 0:
            if stop > nbits:
                raise EOFError("bitstream exhausted")
            at, done = stop, count
            break
        done += zero - at
        head = text.find("1", zero)
        end = 2 * head - zero + 1
        if head < 0 or end > nbits:
            raise EOFError("bitstream exhausted")
        where.append(done)
        found.append(text[head:end])
        widest = max(widest, head - zero)
        at, done = end, done + 1
    if widest > 62:
        raise ValueError("Elias-gamma value exceeds 63 bits")
    values[where] = [int(digits, 2) for digits in found]
    return values, at - pos


def read_fixed(
    word: int, nbits: int, pos: int, count: int, width: int
) -> np.ndarray:
    """*count* fields of *width* bits from bit *pos* of an *nbits*-bit
    word, as ``uint64`` — one ``np.unpackbits`` for the lot."""
    if count < 0 or width <= 0 or width > 64:
        raise ValueError("invalid count or width")
    need = count * width
    field = read_field(word, nbits, pos, need)
    pad = -need % 8
    raw = (field << pad).to_bytes((need + pad) // 8, "big")
    bits = np.unpackbits(np.frombuffer(raw, np.uint8), count=need)
    bits = bits.reshape(count, width)
    return bits.astype(np.uint64) @ _POW2[width - 1 :: -1]
