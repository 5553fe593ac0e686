"""Canonical Huffman coding over integer symbol streams.

This is the first (and dominant) encoding stage of prediction-based lossy
compression: quantization codes are Huffman coded, then an optional
lossless stage mops up residual redundancy (see §III-B of the paper).

The implementation is written for NumPy throughput:

* the tree is built once per stream by a stable sort of the histogram
  and a two-queue merge (alphabet-sized, not data-sized), or by
  package-merge where that code goes past 16 bits (Deflate caps at 15);
* codes are *canonical*, so only the code lengths ship in the header;
  a write builds every codeword of a stack of streams in one ``lexsort``
  and every header's variable part — Elias-gamma symbol gaps, 6-bit
  lengths — as one bit array (:meth:`HuffmanEncoder.encode_stack`);
* encoding maps symbols through lookup tables and assembles the
  codewords in 64-bit words, a block of symbols at a time
  (:func:`repro.compressor.bitstream.pack_codes`);
* a stream of ``_SYNC_MIN_STREAM`` symbols or more embeds a *sync
  table* (the bit offset of every K-th symbol): an index that makes the
  sync blocks independent, and an integrity check every decode kernel
  holds the payload to;
* the decoder picks one of three kernels from what the blob says of
  itself.  The *stack walk* decodes every stream of a stack that is
  sync-free and one walk window long, or has a sync table and at most
  ``_SYNC_WALK_MAX_BITS`` payload bits, in one pointer-doubling pass
  (``jump[p] = p + len[p]`` from every stream's first bit and sync
  mark at once) through cached tables laid end to end: small tiles pay
  the per-stream fixed cost, not the bits.  The *batched rounds* take
  the other sync-table streams and those the walk refuses: one gather
  over the 16-bit window advances every sync block by one symbol,
  ``K`` Python rounds in all.  The *cursor walk* doubles over the other
  sync-free streams a window of bit positions at a time;
* codes longer than 16 bits, which only older files hold for alphabets
  of up to ``2**16`` symbols, take a per-bit canonical walk.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.compressor.bitstream import (
    bits_word,
    build_bit_window,
    gamma_bit_lengths,
    gather_window16,
    pack_codes,
    pack_fields,
    pack_values,
    read_field,
    read_fixed,
    read_gamma,
    slice_window16,
)

__all__ = [
    "HuffmanCode",
    "HuffmanEncodePlan",
    "HuffmanEncoder",
    "blob_bytes_bound",
    "huffman_code_lengths",
]

_PRIMARY_BITS = 16
_MAX_CODE_LEN = 57

#: The sync table of a stream serialized without one.
_NO_SYNC = np.zeros(0, dtype=np.uint32)

#: Top bit of the big-endian header-length word marks the sync-table
#: serialization (format 2).  Legacy blobs always have it clear because
#: their headers are far smaller than 2 GiB.
_SYNC_FLAG = 0x80000000

#: Streams shorter than this serialize without a sync table: the table
#: would cost more than it saves on a stream one pointer-doubling pass
#: already decodes.
_SYNC_MIN_STREAM = 4096

#: Target number of sync blocks; the decode rounds run one gather per
#: block, so more blocks means fewer, wider rounds.
_SYNC_TARGET_BLOCKS = 4096

#: Floor on symbols per sync block, bounding table overhead to
#: 32 / _SYNC_MIN_INTERVAL bits per symbol.
_SYNC_MIN_INTERVAL = 256

#: Bit positions chained per pointer-doubling pass of the sync-free
#: decode: the jump tables stay this size however long the stream is.
_WALK_WINDOW_BITS = 1 << 15

#: Floor of the walk window while long-code escapes keep cutting it short.
_WALK_MIN_WINDOW_BITS = 256

#: Entries of the stack walk's arrays (bit positions, and seeds times
#: their longest orbit) that bound one pass: a stack of more is walked
#: a group at a time (:meth:`HuffmanEncoder._walk_stack`).
_STACK_WALK_SIZE = 1 << 18

#: the seed of the cursor walk's orbit: a window's first position
_CURSOR = np.zeros(1, dtype=np.int64)

#: the shift of a 24-bit window word that puts the 16 bits starting at
#: each bit of its first byte, MSB first, at the bottom
_TO_WINDOW16 = np.uint32(8) - np.arange(8, dtype=np.uint32)

#: zero codewords of one bit: a packed stack's fill up to the next word
_ZERO_FILL, _ONE_FILL = np.zeros(63, dtype=np.uint64), np.ones(63, dtype=int)

#: the blob of a stream with no symbols: a header of one zero count
_EMPTY_BLOB = b"\x00\x00\x00\x04" + bytes(4)

#: Longest sync-table payload the stack walk takes.  The batched
#: kernel runs one Python round per symbol of a sync block (``interval``
#: rounds of ~10 us, however few blocks a round advances), the walk
#: costs by the payload bit: below this many bits the walk is cheaper
#: (measured crossover table in README "Mid-size tiles").
_SYNC_WALK_MAX_BITS = 4 * _WALK_WINDOW_BITS


class _DecodeTableLRU:
    """Thread-safe LRU of primary decode tables, keyed by code content.

    Decoding is concurrent (threaded region decodes, the serving
    layer), so lookups/insertions take a lock; the tables themselves
    are immutable once published.  The bound is on the bytes held, not
    the entries.  An entry is a symbol table of ``2 ** bits`` entries
    (``bits`` the code's longest length, capped at 16) of the narrowest
    unsigned type that holds the alphabet's largest dense index
    (``uint8`` / ``uint16`` / ``uint32``) plus a ``uint8`` length table:
    at most 128, 192 or 320 KiB, and a few KiB for the alphabets of
    small tiles.  18 MiB holds 96 of the widest ``uint16`` kind, which
    alphabets of 257 to 65 536 symbols get, so a dataset cycling
    through a few dozen distinct codes stays resident.
    """

    def __init__(self, max_bytes: int = 18 << 20) -> None:
        self._max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: bytes) -> tuple | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: bytes, value: tuple) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            # a put follows a table build, so summing ~100 sizes is free
            while self._held() > self._max_bytes:
                self._entries.popitem(last=False)

    def _held(self) -> int:
        return sum(
            table.nbytes
            for entry in self._entries.values()
            for table in entry
            if isinstance(table, np.ndarray)
        )

    @property
    def nbytes(self) -> int:
        """Bytes of table data currently cached."""
        with self._lock:
            return self._held()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: process-wide decode-table cache shared by every HuffmanEncoder (and
#: hence every reader in the process; executor workers each get their
#: own copy on first decode)
_DECODE_TABLE_CACHE = _DecodeTableLRU()


def huffman_code_lengths(counts: np.ndarray, limit=None) -> np.ndarray:
    """Return optimal prefix-code lengths for symbol *counts*.

    Standard Huffman construction.  Of equal counts a leaf merges
    before an internal node, leaves in index order and internal nodes
    in creation order; leaves stably sorted by count and internal nodes
    in a FIFO (merged counts never decrease) present their heads in
    exactly that order, so no heap is needed.  Symbols with zero count
    get length 0 (they never occur).  A singleton alphabet gets length 1.
    With a *limit*, the optimal code of no length past it: Huffman's if
    that fits, else :func:`_package_merge`'s.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D array")
    if counts.min() < 0:
        raise ValueError("counts must be non-negative")
    present = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.int64)
    if present.size == 0:
        raise ValueError("at least one symbol must have a positive count")
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    leaves = present[np.argsort(counts[present], kind="stable")]
    leaf_w = counts[leaves].tolist()
    n = len(leaf_w)
    sentinel = sum(leaf_w) + 1  # above every real weight
    leaf_w.append(sentinel)
    node_w = [sentinel] * n  # internal node k is created by merge k
    taken = []  # taken[k]: the leaves the merges before merge k took
    li = ni = 0
    leaf, node = leaf_w[0], sentinel  # the queue heads
    # the two picks of a merge are written out: an inner loop over them
    # costs a third of the speed at byte-sized alphabets
    for k in range(n - 1):
        taken.append(li)
        if leaf <= node:
            merged = leaf
            li += 1
            leaf = leaf_w[li]
        else:
            merged = node
            ni += 1
            node = node_w[ni]
        if leaf <= node:
            merged += leaf
            li += 1
            leaf = leaf_w[li]
        else:
            merged += node
            ni += 1
            node = node_w[ni]
        node_w[k] = merged
        if ni == k:  # the head of the node queue is the node just made
            node = merged

    # Both queues are consumed in order, so the nodes and the leaves of
    # a depth are the runs just before those of the depth above: merges
    # before node k took taken[k] leaves and 2 * k - taken[k] nodes.
    runs, top, node = [], n, n - 2  # the root alone is depth 0
    while top:
        runs.append(top - taken[node])
        top, node = taken[node], 2 * node - taken[node]
    if limit is not None and len(runs) > limit:
        lengths[leaves] = _package_merge(counts[leaves], limit)
    elif len(runs) > _MAX_CODE_LEN:
        raise ValueError("Huffman code length exceeds the supported maximum")
    else:
        lengths[leaves] = np.repeat(np.arange(len(runs), 0, -1), runs[::-1])
    return lengths


def _package_merge(weights: np.ndarray, limit: int) -> np.ndarray:
    """Optimal lengths of at most *limit* bits for ascending *weights*
    by package-merge (Larmore & Hirschberg): each row merges the weights
    with the pair sums of the row below, a weight ahead of an equal sum;
    the top row's ``2n - 2`` smallest are spent, a spent sum spends its
    pair, and a weight's length is the number of rows that spend it."""
    n = weights.size
    if n > 1 << limit:
        raise ValueError(f"{n} symbols need codes longer than {limit} bits")
    keep, rows = 2 * n - 2, [weights]  # no row spends more than keep
    for _ in range(limit - 1):
        below = rows[-1][: min(rows[-1].size, keep) & ~1]
        row = np.concatenate((weights, below[0::2] + below[1::2]))
        row.sort(kind="stable")
        rows.append(row)
    ranked, spent, k = weights.tolist(), [], keep
    for row in reversed(rows):
        if not k:
            break
        value = int(row[k - 1])  # the largest item spent
        # the weights below it, then equal ones up to the row's count
        leaves = min(
            bisect_right(ranked, value),
            k - int(row.searchsorted(value)) + bisect_left(ranked, value),
        )
        spent.append(leaves)
        k = 2 * (k - leaves)
    return len(spent) - np.searchsorted(np.sort(spent), np.arange(n), "right")


def _histogram(stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of a non-empty ``int64`` stream, and counts.

    A counting pass beats the sort inside ``np.unique`` whenever the
    value span is modest (quantization codes, byte tokens).
    """
    lo = int(stream.min())
    span = int(stream.max()) - lo + 1
    if span > max(256, 4 * stream.size):
        return np.unique(stream, return_counts=True)
    counts = np.bincount(stream - lo, minlength=span)
    present = np.flatnonzero(counts)
    return present + lo, counts[present]


class _Histogram(NamedTuple):
    """A stream's alphabet and counts, its sync-free header's exact bits
    (``None`` past a gap of ``2**63 - 1``: read back, gaps are
    ``int64``) and :func:`_container_bytes_floors`' floor."""

    symbols: np.ndarray
    counts: np.ndarray
    header_bits: int | None
    floor: int


def _histograms(streams: Sequence[np.ndarray]) -> list:
    """The :class:`_Histogram` of each ``int64`` stream (empty: ``None``).

    One ``bincount`` counts the streams, each one's bins following the
    value spans (taken unsigned: ``int64`` wraps at ``2**63``) of those
    before it; one stream alone takes :func:`_histogram`, one too sparse
    to count ``np.unique``.  One pass over the alphabets laid end to end
    then finds every header's exact size and every size floor.
    """
    out: list = [None] * len(streams)
    full = [i for i, stream in enumerate(streams) if stream.size]
    if len(full) == 1:
        counted = [_histogram(streams[full[0]])]
    elif full:
        sizes = np.array([streams[i].size for i in full])
        flat = np.concatenate([streams[i] for i in full])
        starts = np.cumsum(sizes) - sizes
        lo = np.minimum.reduceat(flat, starts)
        gaps = np.maximum.reduceat(flat, starts).view(np.uint64)
        gaps -= lo.view(np.uint64)
        dense = gaps < np.maximum(256, 4 * sizes).astype(np.uint64)
        spans = np.where(dense, gaps + 1, 0).astype(np.int64)
        lo[~dense] = 0
        shift = np.cumsum(spans) - spans - lo  # a value's bin, less it
        bins = np.bincount(
            (flat + np.repeat(shift, sizes))[np.repeat(dense, sizes)],
            minlength=int(spans.sum()),
        )
        seen = np.flatnonzero(bins)  # the bins of the values seen
        cuts = seen.searchsorted(np.append(shift + lo, spans.sum()))
        symbols, counts = seen - np.repeat(shift, np.diff(cuts)), bins[seen]
        counted = [
            (symbols[a:b], counts[a:b])
            if ok
            else np.unique(streams[i], return_counts=True)
            for ok, a, b, i in zip(dense, cuts, cuts[1:], full)
        ]
    else:
        return out
    sizes = np.array([symbols.size for symbols, _ in counted])
    if all(int(s[-1]) - int(s[0]) == s.size - 1 for s, _ in counted):
        gap_bits, wide = sizes - 1, [0] * sizes.size  # one bit a gap
    else:
        member, later, gaps = _alphabet_gaps([s for s, _ in counted])
        widths = gamma_bit_lengths(gaps)
        gap_bits = np.bincount(member[later], widths, sizes.size).astype(int)
        wide = np.bincount(member[later], widths > 125, sizes.size)  # 64-bit
    # gaps and 6-bit lengths, then n_symbols (32 bits), the first symbol
    # (zigzag), n_data and total_bits (64 bits each)
    header_bits = gap_bits + 6 * sizes + 224
    floors = _container_bytes_floors(
        np.concatenate([counts for _, counts in counted]), sizes, header_bits
    )
    for k, i in enumerate(full):
        bits = None if wide[k] else int(header_bits[k])
        out[i] = _Histogram(*counted[k], bits, int(floors[k]))
    return out


def _alphabet_gaps(alphabets: Sequence[np.ndarray]) -> tuple:
    """Each symbol's alphabet, whether a symbol of it precedes, and the
    gap from that one (unsigned: none wraps) of sorted alphabets."""
    symbols = np.concatenate(alphabets)
    sizes = [alphabet.size for alphabet in alphabets]
    later = np.ones(symbols.size, dtype=bool)
    later[np.cumsum(sizes) - sizes] = False
    gaps = np.diff(symbols.view(np.uint64))[later[1:]]
    return np.repeat(np.arange(len(sizes)), sizes), later, gaps


def _container_bytes_floors(
    counts: np.ndarray, sizes: np.ndarray, header_bits: np.ndarray
) -> np.ndarray:
    """A floor on the ``container_bytes`` of any plan for each of a
    stack of histograms (counts laid end to end, ``sizes[k]`` each).

    No prefix code spends fewer payload bits than the Shannon entropy
    ``n * H``; the header size is exact, and so is the sync table where
    every plan carries one (:data:`_SYNC_MIN_STREAM` symbols or more,
    no u32 offset overflow even at the longest length the alphabet
    admits).  Float error is shaved off the entropy term.
    """
    starts = np.cumsum(sizes) - sizes
    n = np.add.reduceat(counts, starts)
    terms = counts * np.log2(np.repeat(n, sizes) / counts)
    entropy_bits = np.add.reduceat(terms, starts) * (1 - 1e-9)
    floors = 4 + (header_bits + 7) // 8 + entropy_bits.astype(np.int64) // 8
    for k in np.flatnonzero(n >= _SYNC_MIN_STREAM).tolist():
        interval, n_sync = _sync_layout(int(n[k]))
        longest = min(_MAX_CODE_LEN, max(int(sizes[k]) - 1, 1))
        if int(n[k]) * longest < 1 << 32:
            floors[k] += 8 + 4 * n_sync  # interval + count, then offsets
    return floors


def blob_bytes_bound(n_symbols: int) -> int:
    """Most bytes any writer's blob of *n_symbols* symbols takes.

    The header-length word, the fixed fields (counts, first symbol,
    sync interval: 288 bits) and a byte of rounding each for header and
    payload; then per symbol a gamma alphabet gap (at most 125 bits: a
    gap fits 63), a 6-bit code length, a 32-bit sync offset and a code
    of at most :data:`_MAX_CODE_LEN` bits.  What a lossless stage that
    wraps such a blob may decode to.
    """
    return 4 + (288 + 16 + (125 + 6 + 32 + _MAX_CODE_LEN) * n_symbols) // 8


def _check_count(what: str, count: int, limit: int | None) -> None:
    """Refuse a header that declares *count* *what* past *limit*."""
    if limit is not None and count > limit:
        raise ValueError(f"{count} Huffman {what} past the limit of {limit}")


def _sync_layout(n: int) -> tuple[int, int]:
    """Sync interval and offset count of an *n*-symbol stream's table.

    ``(0, 0)`` below :data:`_SYNC_MIN_STREAM`.  Every block but the
    first starts on an offset, so there are ``(n - 1) // interval``.
    """
    if n < _SYNC_MIN_STREAM:
        return 0, 0
    interval = max(_SYNC_MIN_INTERVAL, -(-n // _SYNC_TARGET_BLOCKS))
    return interval, (n - 1) // interval


def _canonical_codes(
    lengths: np.ndarray, sizes: Sequence[int] | None = None
) -> np.ndarray:
    """Canonical codewords of a stack of codes, their lengths laid end
    to end (``sizes[k]`` each; one code by default).

    One ``lexsort`` ranks every symbol by ``(code, length, index)``; a
    code's codewords count up within each length, shifting left at
    every length increase — so the codeword of rank *r* is the Kraft sum
    of the code's ranks before it, scaled to its own length.  Length-0
    symbols (absent from the stream) get 0 and must never be encoded.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    sizes = np.asarray([lengths.size] if sizes is None else sizes)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    if lengths.size == 0:
        return codes
    member = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((lengths, member))
    ranked = lengths[order]
    longest = np.repeat(ranked[np.cumsum(sizes) - 1], sizes)
    pad = (longest - ranked).astype(np.uint64)
    weight = np.where(ranked > 0, np.uint64(1) << pad, np.uint64(0))
    before = np.cumsum(weight) - weight  # wraps between codes, harmlessly
    before -= np.repeat(before[np.cumsum(sizes) - sizes], sizes)
    if (before[1:] < before[:-1])[member[1:] == member[:-1]].any():
        # only lengths no encoder emits (a corrupt header) oversubscribe
        # the code space this far
        raise ValueError("corrupt Huffman code lengths")
    codes[order] = before >> pad
    return codes


def _jump_map(lens: np.ndarray) -> np.ndarray:
    """``jump[p] = p + lens[p]`` over one window of ``lens.size`` offsets.

    Offset ``lens.size`` is the absorbing exit for long-code escapes
    (``lens[p] == 0``) and for symbols that run past the window.
    """
    m = lens.size
    jump = np.arange(m + 1, dtype=np.int64)
    jump[:m] += lens
    jump[:m][lens == 0] = m
    np.minimum(jump, m, out=jump)
    return jump


def _block_orbits(
    jump: np.ndarray, seeds: np.ndarray, count: int
) -> np.ndarray:
    """Row *i*: the first *count* points of the orbit of ``seeds[i]``.

    A symbol starts where the one before it started plus its length, so
    the starts from a seed are its orbit under ``jump[p] = p + len[p]``
    (:func:`_jump_map`).  Pointer doubling (``jump <- jump[jump]``)
    finds every seed's in ``log2(count)`` gathers, not a Python step
    per symbol; ``np.take`` gathers them a sixth faster than indexing.
    """
    orbits = np.empty((seeds.size, count), dtype=np.int64)
    orbits[:, 0] = seeds
    have = 1
    while have < count:
        take = min(have, count - have)
        orbits[:, have : have + take] = np.take(jump, orbits[:, :take])
        have += take
        if have < count:
            jump = np.take(jump, jump)
    return orbits


def _table_bits(len_table: np.ndarray) -> int:
    """The window bits a primary table of ``2 ** bits`` entries reads."""
    return len_table.size.bit_length() - 1


@dataclass
class HuffmanCode:
    """A canonical Huffman code over a dense alphabet.

    ``symbols[i]`` is the original symbol value for dense index *i*;
    ``lengths[i]``/``codes[i]`` its code length and canonical codeword.
    Neither a plan's code (a stack's codewords are built at once) nor
    a parsed one with no length past 16 bits has ``codes``: decoding
    needs only the lengths, and the long-code walk those codewords.
    """

    symbols: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray | None = None


class _Stream(NamedTuple):
    """One parsed Huffman blob: what every decode kernel takes."""

    code: HuffmanCode
    n_data: int
    payload: memoryview
    total_bits: int
    interval: int
    sync: np.ndarray


#: the stream of a blob with no symbols
_EMPTY_STREAM = _Stream(
    HuffmanCode(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    0, memoryview(b""), 0, 0, _NO_SYNC,
)


@dataclass(frozen=True)
class HuffmanEncodePlan:
    """Everything :meth:`HuffmanEncoder.encode` needs except the packed
    payload bits, plus the exact serialized size (see
    :meth:`HuffmanEncoder.plan`)."""

    code: HuffmanCode
    dense: np.ndarray
    lengths: np.ndarray
    total_bits: int
    interval: int
    sync: np.ndarray
    container_bytes: int


class HuffmanEncoder:
    """Encode/decode integer symbol streams with canonical Huffman codes.

    The serialized container is self-describing::

        [n_symbols:u32][symbol values: zigzag u64 varbits]
        [code lengths: 6 bits each][n_data:u64][total_bits:u64]
        ([sync_interval:u32][n_sync:u32] when the format-2 flag is set)
        [sync offsets: u32 LE each][payload bits]

    Format 2 (flagged by the top bit of the header-length word) appends
    the bit offset of every ``sync_interval``-th symbol.  Whichever
    kernel :meth:`decode` picks for it verifies the table against the
    payload; format-1 blobs (short streams, older writers) have none.
    """

    def encode(
        self, stream: np.ndarray, plan: "HuffmanEncodePlan | None" = None
    ) -> bytes:
        """Compress *stream* (any integer dtype) to bytes.

        ``plan`` (from :meth:`plan`) reuses an already-built code —
        callers that first ask for the coded size avoid rebuilding the
        histogram, tree and sync table.  The one-stream case of
        :meth:`encode_stack`.
        """
        return self.encode_stack([stream], [plan])[0]

    def encode_stack(
        self,
        streams: Sequence[np.ndarray],
        plans: "Sequence[HuffmanEncodePlan | None] | None" = None,
    ) -> list[bytes]:
        """:meth:`encode` of every stream, with its plan (``None``: built).

        Each stream gets its own :meth:`plan`, from what one pass over
        the stack counted (:func:`_histograms`).  One
        :func:`_canonical_codes` pass builds every code's codewords, one
        :func:`pack_codes` call packs every stream, each from a 64-bit
        word (zero fill ahead of it) so that its slice is the bytes it
        packs to alone, and one pass writes every header.
        """
        streams = [np.asarray(s, dtype=np.int64).ravel() for s in streams]
        plans = list(plans or [None] * len(streams))
        todo = [i for i, plan in enumerate(plans) if plan is None]
        for i, histogram in zip(todo, _histograms([streams[i] for i in todo])):
            plans[i] = self.plan(streams[i], histogram=histogram)
        coded = [plan for plan in plans if plan is not None]
        if not coded:
            return [_EMPTY_BLOB] * len(plans)
        sizes = np.array([plan.code.lengths.size for plan in coded])
        book = _canonical_codes(  # every code's codewords
            np.concatenate([plan.code.lengths for plan in coded]), sizes
        )
        codes, lengths, words = [], [], [0]
        for plan, start in zip(coded, (np.cumsum(sizes) - sizes).tolist()):
            fill = -plan.total_bits % 64
            codes += [book[start:][plan.dense], _ZERO_FILL[:fill]]
            lengths += [plan.lengths, _ONE_FILL[:fill]]
            words.append(words[-1] + (plan.total_bits + fill) // 64)
        if len(coded) > 1:  # one stream is packed as it is
            codes, lengths = [np.concatenate(codes)], [np.concatenate(lengths)]
        packed = memoryview(pack_codes(codes[0], lengths[0])[0])
        blobs = iter(self._serialize([
            _Stream(
                plan.code, plan.dense.size,
                packed[8 * word :][: (plan.total_bits + 7) // 8],
                plan.total_bits, plan.interval, plan.sync,
            )
            for plan, word in zip(coded, words)
        ]))
        return [next(blobs) if plan else _EMPTY_BLOB for plan in plans]

    def plan(
        self,
        stream: np.ndarray,
        budget: int | None = None,
        histogram: _Histogram | None = None,
    ) -> "HuffmanEncodePlan | None":
        """Build everything :meth:`encode` needs except the packed bits.

        Returns ``None`` for an empty stream.  The plan carries the exact
        serialized size (``container_bytes``), so escape decisions can be
        made — and the stream then encoded — with one code construction.

        A caller that would discard any plan of *budget* bytes or more
        passes it: when the entropy floor on the serialized size
        (:func:`_container_bytes_floors`) already reaches the budget the
        answer is ``None`` too, and no code is built.  *histogram* is
        the stream's, when a stack pass counted it (:func:`_histograms`).
        A gap past ``2**63 - 1`` in the alphabet raises ``ValueError``.
        """
        stream = np.asarray(stream, dtype=np.int64).ravel()
        if stream.size == 0:
            return None
        symbols, counts, header_bits, floor = (
            histogram or _histograms([stream])[0]
        )
        if header_bits is None:
            raise ValueError("Huffman alphabet gap exceeds 2**63 - 1")
        if budget is not None and floor >= budget:
            return None
        # codes fit the primary table if any 16-bit code holds the alphabet
        limit = max(_PRIMARY_BITS, (symbols.size - 1).bit_length())
        code = HuffmanCode(symbols, huffman_code_lengths(counts, limit=limit))
        dense = self._dense_indices(code.symbols, stream)
        lengths = code.lengths[dense]
        interval, sync, total_bits = self._sync_offsets(lengths)
        header_bits += 64 if interval else 0  # sync interval + count
        container_bytes = 4 + (header_bits + 7) // 8 + 4 * sync.size
        container_bytes += (total_bits + 7) // 8
        return HuffmanEncodePlan(
            code, dense, lengths, total_bits, interval, sync, container_bytes
        )

    def decode(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`encode`, returning an ``int64`` array.

        The one-blob case of :meth:`decode_stack`.
        """
        return self.decode_stack([blob])[0]

    def decode_stack(
        self,
        blobs: Sequence[bytes],
        limits: Sequence | None = None,
        alphabets: Sequence | None = None,
    ) -> list[np.ndarray]:
        """:meth:`decode` of every blob — the arrays, and the error.

        The headers are read in one integer pass (:meth:`_parse`), and
        blob *i*'s is refused unallocated if it counts codes or symbols
        past ``limits[i]``, or symbols past ``alphabets[i]``.  Every
        stream the stack walk takes is decoded in one pointer-doubling
        pass over all of them (:meth:`_walk_stack`); the others take
        the kernel of their kind, as alone.  A stack that raises is
        decoded again one blob at a time, so the error is the first bad
        blob's own.
        """
        limits = limits or [None] * len(blobs)
        alphabets = alphabets or [None] * len(blobs)
        try:
            return self._decode_stack(blobs, limits, alphabets)
        except ValueError:
            if len(blobs) <= 1:
                raise
            return [
                self._decode_stack([blob], [limit], [alphabet])[0]
                for blob, limit, alphabet in zip(blobs, limits, alphabets)
            ]

    def _decode_stack(self, blobs, limits, alphabets) -> list[np.ndarray]:
        streams = self._parse(blobs, limits, alphabets)
        out: list = [None] * len(streams)
        walk: list[int] = []
        for i, stream in enumerate(streams):
            code, n_data, payload, total_bits, interval, sync = stream
            if n_data == 0:
                if sync.size:
                    raise ValueError("corrupt Huffman sync table")
                out[i] = np.zeros(0, dtype=np.int64)
            elif 8 * len(payload) < total_bits:
                raise ValueError("Huffman payload truncated")
            elif n_data > total_bits:
                # every symbol costs at least one bit; a larger count means
                # a corrupt header (and would over-allocate the output)
                raise ValueError("corrupt Huffman header")
            elif code.lengths.max() <= _PRIMARY_BITS and (
                0 < interval < n_data and total_bits <= _SYNC_WALK_MAX_BITS
                or not interval and total_bits < _WALK_WINDOW_BITS
            ):
                walk.append(i)
            else:
                out[i] = code.symbols[self._decode_alone(stream)]
        walked = self._walk_stack([streams[i] for i in walk])
        for i, dense in zip(walk, walked):
            if dense is None:  # refused: its kind's kernel says why
                dense = self._decode_alone(streams[i])
            out[i] = streams[i].code.symbols[dense]
        return out

    def _decode_alone(self, stream: _Stream) -> np.ndarray:
        """A stream's dense indices by the kernel of its kind: the
        batched rounds for sync blocks, else the cursor walk — held, on
        a sync table's one block (whatever interval a corrupt header
        names), to end exactly on ``total_bits``."""
        code, n_data, _, total_bits, interval, sync = stream
        if 0 < interval < n_data:
            return self._decode_payload_batched(*stream)
        if interval:
            self._block_starts(n_data, total_bits, interval, sync)
        dense = self._decode_payload(*stream[:4])
        if interval and code.lengths[dense].sum() != total_bits:
            raise ValueError("corrupt Huffman payload")
        return dense

    # -- encoding ----------------------------------------------------------

    @staticmethod
    def _dense_indices(symbols: np.ndarray, stream: np.ndarray) -> np.ndarray:
        """Map stream values to dense alphabet indices.

        A direct lookup table beats binary search whenever the alphabet
        span is modest (quantization codes span at most ``2 * radius``);
        sparse alphabets fall back to ``searchsorted``.
        """
        lo = int(symbols[0])
        span = int(symbols[-1]) - lo + 1
        if span <= max(1 << 17, 4 * symbols.size):
            lut = np.zeros(span, dtype=np.int64)
            lut[symbols - lo] = np.arange(symbols.size, dtype=np.int64)
            return lut[stream - lo]
        return np.searchsorted(symbols, stream)

    @staticmethod
    def _sync_offsets(lengths: np.ndarray) -> tuple[int, np.ndarray, int]:
        """A sync interval, the bit offsets of the block starts (a running
        sum of the blocks' bit counts, not of the stream's) and the
        payload bits.  Interval 0 and no offsets when the stream is too
        small to benefit or the payload exceeds the u32 offset range.
        """
        interval, n_sync = _sync_layout(int(lengths.size))
        if not interval:
            return 0, np.zeros(0, dtype=np.uint32), int(lengths.sum())
        marked = n_sync * interval
        ends = np.cumsum(lengths[:marked].reshape(n_sync, interval).sum(1))
        total_bits = int(ends[-1]) + int(lengths[marked:].sum())
        if total_bits >= 1 << 32:
            return 0, np.zeros(0, dtype=np.uint32), total_bits
        return interval, ends.astype(np.uint32), total_bits

    # -- serialization -----------------------------------------------------

    def _serialize(self, streams: Sequence[_Stream]) -> list[bytes]:
        """Every stream's blob: the inverse of :meth:`_parse`.

        A header holds the sorted alphabet as its first symbol (zigzag)
        and Elias-gamma gaps — ~2 bits per symbol instead of 64 for
        quantization codes — then the 6-bit code lengths.  The gaps and
        lengths of every header are one bit array (:func:`pack_values`),
        cut per stream by integer shifts.
        """
        codes = [stream.code for stream in streams]
        member, later, gaps = _alphabet_gaps([code.symbols for code in codes])
        lengths = np.concatenate([code.lengths for code in codes])
        # a stream's gaps, then its lengths: sorted stably by stream
        order = np.argsort(np.append(member[later], member), kind="stable")
        values = np.append(gaps, lengths.astype(np.uint64))[order]
        gammas = gamma_bit_lengths(gaps)
        widths = np.append(gammas, np.full(member.size, 6))[order]
        packed = pack_values(values, widths)
        last = np.cumsum(2 * np.bincount(member) - 1) - 1  # a header's last
        ends = np.cumsum(widths)[last].tolist()
        blobs = []
        for stream, lo, hi in zip(streams, [0, *ends], ends):
            code, n_data, payload, total_bits, interval, sync = stream
            first = int(code.symbols[0])
            cut = int.from_bytes(packed[lo >> 3 : (hi + 7) >> 3], "big")
            fields = [
                (code.symbols.size, 32),
                ((first << 1 ^ first >> 63) & (2**64 - 1), 64),
                (cut >> (-hi % 8) & (1 << hi - lo) - 1, hi - lo),
                (n_data, 64),
                (total_bits, 64),
            ]
            flag, tail = 0, b""
            if interval:
                fields += [(interval, 32), (sync.size, 32)]
                flag, tail = _SYNC_FLAG, sync.astype("<u4").tobytes()
            header = pack_fields(fields)
            head = (len(header) | flag).to_bytes(4, "big") + header
            blobs.append(head + tail + payload)
        return blobs

    def _parse(
        self, blobs: Sequence[bytes], limits=None, alphabets=None
    ) -> list[_Stream]:
        """Every blob's header, read from Python integers.

        Fixed fields are shifts of the header read as one integer
        (:meth:`_parse_fields`); the 6-bit code lengths of all the
        blobs are cut from one concatenated field by one
        :func:`~repro.compressor.bitstream.read_fixed`.  Codewords are
        built only for a code with lengths past the primary table's 16
        bits: the long-code walk reads them, and building them refuses
        what :func:`_canonical_codes` refuses.
        """
        limits = limits or [None] * len(blobs)
        alphabets = alphabets or [None] * len(blobs)
        heads = list(map(self._parse_fields, blobs, limits, alphabets))
        counts = [head[0] for head in heads]
        word = 0
        for n_symbols, field, *_ in heads:
            word = word << 6 * n_symbols | field
        lengths = read_fixed(word, 6 * sum(counts), 0, sum(counts), 6)
        lengths = np.split(lengths.astype(np.int64), np.cumsum(counts[:-1]))
        streams = []
        for (n_symbols, _, first, deltas, *rest), lens in zip(heads, lengths):
            if n_symbols == 0:
                streams.append(_EMPTY_STREAM)
                continue
            codes = None
            if lens.max() > _PRIMARY_BITS:
                # the one refusal of corrupt lengths _canonical_codes
                # makes, a 64-bit Kraft sum wrapping, needs codes past
                # 16 bits: a header has too few symbols otherwise
                codes = _canonical_codes(lens)
            symbols = np.empty(n_symbols, dtype=np.int64)
            symbols[0] = first
            np.cumsum(deltas, out=symbols[1:])
            symbols[1:] += first
            streams.append(_Stream(HuffmanCode(symbols, lens, codes), *rest))
        return streams

    @staticmethod
    def _parse_fields(
        blob: bytes, limit: int | None = None, alphabet: int | None = None
    ) -> tuple:
        """``(n_symbols, lengths field, first symbol, deltas, n_data,
        payload, total_bits, interval, sync)`` of one blob's header."""
        if len(blob) < 4:
            raise ValueError("truncated Huffman container")
        flagged = int.from_bytes(blob[:4], "big")
        header_len = flagged & ~_SYNC_FLAG
        pos = 4 + header_len
        if pos > len(blob):
            raise ValueError("truncated Huffman header")
        word, nbits = bits_word(blob[4:pos])
        try:
            n_symbols = read_field(word, nbits, 0, 32)
            if 6 * n_symbols > 8 * header_len:
                # the code-length section alone would not fit the header
                raise ValueError("corrupt Huffman header")
            _check_count("symbols", n_symbols, limit)
            _check_count("symbols", n_symbols, alphabet)
            if n_symbols == 0:
                return 0, 0, 0, None
            zz_first = read_field(word, nbits, 32, 64)
            deltas, used = read_gamma(word, nbits, 96, n_symbols - 1)
            at = 96 + used
            lengths_field = read_field(word, nbits, at, 6 * n_symbols)
            at += 6 * n_symbols
            n_data = read_field(word, nbits, at, 64)
            _check_count("codes", n_data, limit)
            total_bits = read_field(word, nbits, at + 64, 64)
            interval, sync = 0, _NO_SYNC
            if flagged & _SYNC_FLAG:
                interval = read_field(word, nbits, at + 128, 32)
                n_sync = read_field(word, nbits, at + 160, 32)
                sync_end = pos + 4 * n_sync
                if interval <= 0 or sync_end > len(blob):
                    raise ValueError("corrupt Huffman sync table")
                sync = np.frombuffer(blob[pos:sync_end], dtype="<u4")
                pos = sync_end
        except EOFError as exc:
            raise ValueError("truncated Huffman header") from exc
        first = (zz_first >> 1) ^ -(zz_first & 1)
        # a view: a stream-sized copy of the payload buys the decode nothing
        payload = memoryview(blob)[pos:]
        return (
            n_symbols, lengths_field, first, deltas, n_data, payload,
            total_bits, interval, sync,
        )

    # -- decoding ----------------------------------------------------------

    def _walk_stack(
        self, streams: Sequence[_Stream]
    ) -> list[np.ndarray | None]:
        """Dense indices of the streams the stack walk takes, or ``None``.

        One pointer-doubling pass per group of streams whose arrays —
        bit positions, and seeds times their longest orbit — stay within
        :data:`_STACK_WALK_SIZE` entries (one always goes).
        """
        out: list[np.ndarray | None] = []
        group: list[_Stream] = []
        positions = seeds = widest = 0
        for stream in streams:
            span = 8 * ((stream.total_bits >> 3) + 3)
            more = stream.sync.size + 1
            wider = max(widest, stream.interval or stream.n_data)
            if group and max(
                positions + span, (seeds + more) * wider
            ) > _STACK_WALK_SIZE:
                out += self._walk_group(group)
                group, positions, seeds = [], 0, 0
                wider = stream.interval or stream.n_data
            group.append(stream)
            positions, seeds, widest = positions + span, seeds + more, wider
        return out + (self._walk_group(group) if group else [])

    def _walk_group(
        self, streams: Sequence[_Stream]
    ) -> list[np.ndarray | None]:
        """One pointer-doubling pass over a group of streams.

        The payloads are laid end to end, each cut or zero-padded to the
        bytes its positions ``0 .. total_bits`` read, and so are the
        cached primary tables: each position resolves through its own
        stream's table in one gather.  Chaining ``jump[p] = p + len[p]``
        from every stream's first bit and checked sync mark at once
        (:func:`_block_orbits`) yields the symbol starts.  A block must
        land on the next mark and a sync stream's last on its
        ``total_bits``, as in the batched rounds; a sync-free stream's
        within it, as in the cursor walk.  A stream one fails (an
        escape, a prefix no code holds, a truncation) gets ``None``.
        """
        table_at: dict[int, int] = {}  # a table the group shares goes once
        sym_parts, len_parts, marks = [], [], []
        chunks, spans, bases, drops, blocks = [], [], [], [], []
        size = 0
        for stream in streams:
            if stream.interval:  # the table is checked before it seeds
                self._block_starts(stream.n_data, *stream[3:])
                marks.append(stream.sync)
            sym_table, len_table, _ = self._primary_tables(stream.code)
            base = table_at.get(id(len_table))
            if base is None:
                base = table_at[id(len_table)] = size
                sym_parts.append(sym_table)
                len_parts.append(len_table)
                size += len_table.size
            span = (stream.total_bits >> 3) + 3  # bytes of its 24-bit words
            chunk = bytes(stream.payload[:span])
            chunks += [chunk, bytes(span - len(chunk))]
            spans.append(span)
            bases.append(base)
            drops.append(_PRIMARY_BITS - _table_bits(len_table))
            blocks.append(stream.sync.size + 1)
        spans, blocks = np.array(spans), np.array(blocks)

        def per_byte(values: list[int]) -> np.ndarray:
            return np.repeat(np.array(values, np.uint32), spans)[:, None]

        # the table entry of every bit position, computed in the window's
        # uint32 and converted to an index once
        window = build_bit_window(b"".join(chunks))[: int(spans.sum()), None]
        index = window >> _TO_WINDOW16
        index &= np.uint32(0xFFFF)
        index >>= per_byte(drops)  # its own table's leading bits
        index += per_byte(bases)
        index = index.ravel().astype(np.intp)
        jump = _jump_map(np.concatenate(len_parts)[index])
        # a seed per block: a stream's first bit, then its marks
        starts = 8 * (np.cumsum(spans) - spans)
        first, last = np.cumsum(blocks) - blocks, np.cumsum(blocks) - 1
        seeds = np.repeat(starts, blocks)
        later = np.ones(seeds.size, dtype=bool)
        later[first] = False
        seeds[later] += np.concatenate([_NO_SYNC, *marks])
        # each block runs onto the next seed, a stream's last onto its end
        ends = np.append(seeds[1:], 0)
        ends[last] = starts + [stream.total_bits for stream in streams]
        counts = np.array([stream.n_data for stream in streams])
        widths = np.array([s.interval or s.n_data for s in streams])
        lengths = np.repeat(widths, blocks)
        lengths[last] = counts - (blocks - 1) * widths
        orbits = _block_orbits(jump, seeds, int(widths.max()))
        landed = jump[orbits[np.arange(seeds.size), lengths - 1]]
        exact = np.repeat(blocks > 1, blocks)  # a walked sync table has 2+
        ok = np.where(exact, landed == ends, landed <= ends)
        done = np.logical_and.reduceat(ok, first)
        # a failed orbit ends on the exit, one past the last position
        np.minimum(orbits, index.size - 1, out=orbits)
        dense = np.concatenate(sym_parts)[index[orbits]]
        return [
            dense[a : a + k, :w].ravel()[:n] if ok else None
            for a, k, w, n, ok in zip(
                first.tolist(), blocks.tolist(), widths.tolist(),
                counts.tolist(), done.tolist(),
            )
        ]

    @staticmethod
    def _block_starts(
        n_data: int, total_bits: int, interval: int, sync: np.ndarray
    ) -> np.ndarray:
        """Validated bit offsets of symbols ``0, interval, 2*interval, ...``.

        The sync table must hold exactly the marks its interval implies,
        strictly increasing inside ``(0, total_bits)`` — it is an
        integrity check as much as an index, so every kernel that takes
        one starts here.
        """
        if sync.size != (n_data - 1) // interval:
            raise ValueError("corrupt Huffman sync table")
        starts = np.zeros(sync.size + 1, dtype=np.int64)
        starts[1:] = sync
        if np.any(starts[1:] <= starts[:-1]) or int(starts[-1]) >= total_bits:
            raise ValueError("corrupt Huffman sync table")
        return starts

    def _decode_payload(
        self, code: HuffmanCode, n_data: int, payload: bytes, total_bits: int
    ) -> np.ndarray:
        """Cursor walk of a sync-free stream, a window of bit positions at
        a time: every position resolves through the primary tables at
        once, the cursor's orbit under ``jump[p] = p +
        len_table[window16[p]]`` (:func:`_block_orbits`) is the symbol
        starts.  It leaves the window or stops *at* an escape, a code
        past 16 bits that the canonical walk resolves; the next window
        starts behind it, shrunk while escapes keep coming, so a stream
        dense in long codes does not pay a full window per symbol.
        """
        sym_table, len_table, _ = self._primary_tables(code)
        bits = _table_bits(len_table)
        window = build_bit_window(payload)
        long_codes: dict | None = None  # lazy long-code index
        out = np.empty(n_data, dtype=sym_table.dtype)
        span = _WALK_WINDOW_BITS
        done = pos = 0
        while done < n_data:
            if pos > total_bits:
                raise ValueError("Huffman payload truncated")
            # positions up to total_bits inclusive: the end position
            # reads zero padding, as in the round-based decoder
            prefix = slice_window16(
                window, pos, min(pos + span, total_bits + 1), bits
            ).astype(np.intp)  # a table gather converts any other index
            lens = len_table[prefix]
            orbit = _block_orbits(
                _jump_map(lens), _CURSOR, min(n_data - done, lens.size)
            )[0]
            starts = orbit[: np.searchsorted(orbit, lens.size)]
            out[done : done + starts.size] = sym_table[prefix[starts]]
            done += starts.size
            last = int(starts[-1])
            step = int(lens[last])
            if step:
                span = min(2 * span, _WALK_WINDOW_BITS)
            else:
                if long_codes is None:
                    long_codes = self._long_code_index(code)
                out[done - 1], step = self._decode_long_bytes(
                    window, pos + last, total_bits, long_codes
                )
                span = max(span // 4, _WALK_MIN_WINDOW_BITS)
            pos += last + step
        if pos > total_bits:
            raise ValueError("Huffman payload truncated")
        return out

    def _decode_payload_batched(
        self,
        code: HuffmanCode,
        n_data: int,
        payload: bytes,
        total_bits: int,
        interval: int,
        sync: np.ndarray,
    ) -> np.ndarray:
        """Round-based table decode: every sync block advances in lockstep.

        Round *r* gathers the 16-bit window at each block's cursor,
        resolves symbol and code length through the primary tables, and
        advances all cursors at once; block boundaries come from the
        serialized sync table, so blocks are mutually independent.
        Symbol *r* of every block is column *r* of the ``(blocks,
        interval)`` output, and a round computes in per-block buffers
        allocated once per call: beyond them it allocates only its
        gathers (and, when a code escapes, the escape's index); under a
        complete table (:meth:`_primary_tables`) none tests for one.
        """
        starts = self._block_starts(n_data, total_bits, interval, sync)
        n_blocks = starts.size
        rem = n_data - (n_blocks - 1) * interval
        sym_table, len_table, complete = self._primary_tables(code)
        bits = _table_bits(len_table)
        # the output outlives the window: allocated first, the window's
        # pages are the last taken and the first given back
        out = np.empty((n_blocks, interval), dtype=sym_table.dtype)
        window = build_bit_window(payload)
        cur = starts.copy()
        pos = np.empty(n_blocks, dtype=np.int64)  # the clamped cursors
        # one intp conversion serves both table gathers
        prefix = np.empty(n_blocks, dtype=np.intp)
        rows = out
        slow: dict | None = None  # lazy long-code index
        for r in range(interval):
            if r == rem:
                # The (shorter) final block is exhausted: its cursor must
                # sit exactly on the end of the payload; drop it.
                if int(cur[-1]) != total_bits:
                    raise ValueError("corrupt Huffman payload")
                cur, pos, prefix, rows = (
                    cur[:-1], pos[:-1], prefix[:-1], rows[:-1]
                )
            # a corrupt sync table can push a cursor past the payload
            # end, and the final integrity check reports that — the
            # gathers and the escape walk must not index out of bounds
            # first
            np.minimum(cur, total_bits, out=pos)
            gather_window16(window, pos, out=prefix, bits=bits)
            ln = len_table[prefix]
            rows[:, r] = sym_table[prefix]
            if not complete and not ln.all():
                if slow is None:
                    slow = self._long_code_index(code)
                for e in np.flatnonzero(ln == 0):
                    rows[e, r], ln[e] = self._decode_long_bytes(
                        window, int(pos[e]), total_bits, slow
                    )
            np.add(cur, ln, out=cur)
        # Every surviving block must land exactly on the next block's
        # start (the last full one on total_bits) — a cheap, complete
        # integrity check against truncated or corrupted payloads.
        final = starts[1:]
        if rem == interval:
            final = np.append(final, total_bits)
        if not np.array_equal(cur, final):
            raise ValueError("corrupt Huffman payload")
        return out.ravel()[:n_data]

    def _primary_tables(
        self, code: HuffmanCode
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """The primary decode tables for *code* (cached), and whether
        they are complete: every entry holds a code.

        A table has ``2 ** bits`` entries, ``bits`` the longest code
        length capped at 16: ``len_table[prefix]`` is the code length
        when a full code of length <= ``bits`` matches the leading
        ``bits`` of a window (:func:`_table_bits`), else 0 (escape to
        the slow path).  A small alphabet's tables are a few hundred
        bytes, not two 64 K arrays.  A complete code of no length past
        16 bits, as :meth:`plan` builds them, leaves no entry empty.

        The tables are content-addressed through a process-wide LRU:
        canonical codes are fully determined by the code lengths, so
        any two streams sharing them — e.g. the many near-constant
        tiles of a container that emit the same tiny code — build the
        tables once per reader process instead of once per tile.
        """
        lengths = code.lengths
        key = hashlib.blake2b(lengths.tobytes(), digest_size=16).digest()
        cached = _DECODE_TABLE_CACHE.get(key)
        if cached is not None:
            return cached
        bits = min(max(int(lengths.max(initial=0)), 1), _PRIMARY_BITS)
        size = 1 << bits
        # the narrowest symbol entries that hold the largest dense index:
        # building the table costs mostly the pages it touches
        sym_table = np.zeros(
            size, dtype=np.min_scalar_type(max(lengths.size - 1, 0))
        )
        len_table = np.zeros(size, dtype=np.uint8)
        # Canonical codes of length <= bits, taken in (length, index)
        # order, tile the prefix space from 0: each fills the next
        # 2**(bits - length) entries.  A corrupt header can oversubscribe
        # the space; what starts past its end is dropped.
        short = np.flatnonzero((lengths > 0) & (lengths <= bits))
        short = short[np.argsort(lengths[short], kind="stable")]
        spans = 1 << (bits - lengths[short])
        short = short[: np.searchsorted(np.cumsum(spans) - spans, size)]
        spans = spans[: short.size]
        for table, fill in ((sym_table, short), (len_table, lengths[short])):
            fill = np.repeat(fill.astype(table.dtype), spans)[:size]
            table[: fill.size] = fill
        # the same arrays are handed to every decode that shares the
        # code, so freeze them against accidental mutation
        sym_table.flags.writeable = False
        len_table.flags.writeable = False
        tables = (sym_table, len_table, int(spans.sum()) >= size)
        _DECODE_TABLE_CACHE.put(key, tables)
        return tables

    def _long_code_index(
        self, code: HuffmanCode
    ) -> dict[tuple[int, int], int]:
        """Map ``(length, codeword)`` to dense index for codes > 16 bits.

        The codewords are the ones :meth:`_parse` built: a parsed code
        has them whenever a length passes 16 bits — read-only codes,
        which writers emit only for alphabets past ``2**16`` symbols.
        """
        dense = np.flatnonzero(code.lengths > _PRIMARY_BITS)
        if not dense.size:  # an escape no code resolves
            return {}
        keys = zip(code.lengths[dense].tolist(), code.codes[dense].tolist())
        return dict(zip(keys, dense.tolist()))

    @staticmethod
    def _decode_long_bytes(
        window: np.ndarray,
        pos: int,
        total_bits: int,
        long_codes: dict[tuple[int, int], int],
    ) -> tuple[int, int]:
        """Per-bit canonical walk for codes longer than 16 bits, which
        only files written before codes were length-limited hold (and
        alphabets past ``2**16`` symbols).  Reads bits from the
        :func:`repro.compressor.bitstream.build_bit_window` index both
        decoders already hold; bits at or past *total_bits* read as zero.
        """
        word = int(window[pos >> 3])
        value = (word >> (8 - (pos & 7))) & 0xFFFF
        ln = _PRIMARY_BITS
        while ln < _MAX_CODE_LEN:
            ln += 1
            nxt = pos + ln - 1
            if nxt < total_bits:
                bit = (int(window[nxt >> 3]) >> (23 - (nxt & 7))) & 1
            else:
                bit = 0
            value = (value << 1) | bit
            hit = long_codes.get((ln, value))
            if hit is not None:
                return hit, ln
        raise ValueError("invalid Huffman payload: no code matched")
