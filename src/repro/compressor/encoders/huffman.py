"""Canonical Huffman coding over integer symbol streams.

This is the first (and dominant) encoding stage of prediction-based lossy
compression: quantization codes are Huffman coded, then an optional
lossless stage mops up residual redundancy (see §III-B of the paper).

The implementation is written for NumPy throughput:

* the tree is built once per stream by a stable sort of the histogram
  and a two-queue merge (alphabet-sized, not data-sized);
* codes are *canonical*, so only the code lengths ship in the header;
* encoding maps symbols through lookup tables and assembles the
  codewords in 64-bit words — neighbours folded into fields of up to 57
  bits, shifted into place, OR-reduced per word, a block of symbols at
  a time (:func:`repro.compressor.bitstream.pack_codes`);
* a stream of ``_SYNC_MIN_STREAM`` symbols or more embeds a *sync
  table* (the bit offset of every K-th symbol): an index that makes the
  sync blocks independent, and an integrity check every decode kernel
  holds the payload to;
* the decoder picks its kernel by cost, from what the blob says of
  itself: long sync-table streams (payload above
  ``_SYNC_WALK_MAX_BITS``) run *batched rounds* — one gather over the
  16-bit window advances every sync block by one symbol, ``K`` Python
  rounds in all, which pays only once the blocks are many; shorter ones
  resolve every bit position of a window through the tables at once and
  chain ``jump[p] = p + len_table[window16[p]]`` by pointer doubling
  from all the sync marks of the window; streams without a table
  (short, or serialized by older versions) chain from the cursor alone,
  one fixed-size window at a time;
* codes longer than 16 bits take a per-bit canonical walk, which is rare
  because long codes correspond to near-zero-probability symbols.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.compressor.bitstream import (
    BitReader,
    BitWriter,
    build_bit_window,
    gamma_bit_lengths,
    gather_window16,
    pack_codes,
    slice_window16,
)

__all__ = [
    "HuffmanCode",
    "HuffmanEncodePlan",
    "HuffmanEncoder",
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

#: Longest sync-table payload the window walk takes.  The batched
#: kernel runs one Python round per symbol of a sync block (``interval``
#: rounds of ~10 us, however few blocks a round advances), the walk
#: costs by the payload bit: below this many bits the walk is cheaper
#: (measured crossover table in README "Mid-size tiles").
_SYNC_WALK_MAX_BITS = 6 * _WALK_WINDOW_BITS


class _DecodeTableLRU:
    """Thread-safe LRU of primary decode tables, keyed by code content.

    Decoding is concurrent (threaded region decodes, the serving
    layer), so lookups/insertions take a lock; the tables themselves
    are immutable once published.  The bound is on the bytes held, not
    the entries: 32 tables of the widest kind (``int64`` symbols,
    ~0.6 MiB each) or ~100 of the ``uint16`` kind every real alphabet
    gets, so a dataset cycling through a few dozen distinct codes
    stays resident.
    """

    def __init__(self, max_bytes: int = 32 * 9 * (1 << _PRIMARY_BITS)) -> None:
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


def huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Return optimal prefix-code lengths for symbol *counts*.

    Standard Huffman construction.  Of equal counts a leaf merges
    before an internal node, leaves in index order and internal nodes
    in creation order; leaves stably sorted by count and internal nodes
    in a FIFO (merged counts never decrease) present their heads in
    exactly that order, so no heap is needed.  Symbols with zero count
    get length 0 (they never occur).  A singleton alphabet gets length 1.
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
    # both queues are consumed front to back, so the parent of the i-th
    # leaf / internal node is the i-th entry appended here
    leaf_parent: list[int] = []
    node_parent: list[int] = []
    li = ni = 0
    leaf, node = leaf_w[0], sentinel  # the queue heads
    # the two picks of a merge are written out: an inner loop over them
    # costs a third of the speed at byte-sized alphabets
    for k in range(n - 1):
        if leaf <= node:
            merged = leaf
            li += 1
            leaf = leaf_w[li]
            leaf_parent.append(k)
        else:
            merged = node
            ni += 1
            node = node_w[ni]
            node_parent.append(k)
        if leaf <= node:
            merged += leaf
            li += 1
            leaf = leaf_w[li]
            leaf_parent.append(k)
        else:
            merged += node
            ni += 1
            node = node_w[ni]
            node_parent.append(k)
        node_w[k] = merged
        if ni == k:  # the head of the node queue is the node just made
            node = merged

    depth = [0] * (n - 1)  # the root is node n - 2
    for k in range(n - 3, -1, -1):
        depth[k] = depth[node_parent[k]] + 1
    leaf_depth = [depth[k] + 1 for k in leaf_parent]
    if max(leaf_depth) > _MAX_CODE_LEN:
        raise ValueError("Huffman code length exceeds the supported maximum")
    lengths[leaves] = leaf_depth
    return lengths


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


def _sync_layout(n: int) -> tuple[int, int]:
    """Sync interval and offset count of an *n*-symbol stream's table.

    ``(0, 0)`` below :data:`_SYNC_MIN_STREAM`.  Every block but the
    first starts on an offset, so there are ``(n - 1) // interval``.
    """
    if n < _SYNC_MIN_STREAM:
        return 0, 0
    interval = max(_SYNC_MIN_INTERVAL, -(-n // _SYNC_TARGET_BLOCKS))
    return interval, (n - 1) // interval


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords from code lengths.

    Symbols are ranked by ``(length, symbol-index)``; codewords count up
    within each length, shifting left at every length increase — so the
    codeword of rank *r* is the Kraft sum of the ranks before it, scaled
    to its own length.  Length-0 symbols (absent from the stream)
    receive code 0 and must never be encoded.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    order = np.argsort(lengths, kind="stable")
    ranked = lengths[order].astype(np.uint64)
    coded = np.searchsorted(ranked, 1)
    if coded == ranked.size:
        return codes
    order, ranked = order[coded:], ranked[coded:]
    pad = ranked[-1] - ranked
    before = np.zeros(order.size, dtype=np.uint64)
    np.cumsum(np.uint64(1) << pad[:-1], out=before[1:])
    if (before[1:] < before[:-1]).any():
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

    Pointer doubling as in :func:`_chain_starts`, every seed at once:
    ``log2(count)`` squarings of *jump* however many seeds there are.
    """
    orbits = np.empty((seeds.size, count), dtype=np.int64)
    orbits[:, 0] = seeds
    have = 1
    while have < count:
        take = min(have, count - have)
        orbits[:, have : have + take] = jump[orbits[:, :take]]
        have += take
        if have < count:
            jump = jump[jump]
    return orbits


def _chain_starts(lens: np.ndarray, limit: int) -> np.ndarray:
    """Offsets of the symbols that start inside one window of positions.

    ``lens[p]`` is the code length the primary table resolves at offset
    *p* of the window, 0 for a long-code escape.  A symbol starts at
    offset 0 and each next one ``lens`` bits on, so the starts are the
    orbit of 0 under ``jump[p] = p + lens[p]``; pointer doubling
    (``jump <- jump[jump]``) finds it in ``O(log n)`` gathers instead
    of one Python step per symbol.  The orbit stops after *limit*
    symbols, on leaving the window, or *at* the first escape — the
    caller tells the last two apart by ``lens`` at the final start.
    """
    m = lens.size
    limit = min(limit, m)
    jump = _jump_map(lens)
    starts = np.empty(limit, dtype=np.int64)
    starts[0] = 0
    have = 1
    while have < limit and starts[have - 1] < m:
        take = min(have, limit - have)
        starts[have : have + take] = jump[starts[:take]]
        have += take
        if have < limit:
            jump = jump[jump]
    return starts[: np.searchsorted(starts[:have], m)]


@dataclass
class HuffmanCode:
    """A canonical Huffman code over a dense alphabet.

    ``symbols[i]`` is the original symbol value for dense index *i*;
    ``lengths[i]``/``codes[i]`` its code length and canonical codeword.
    """

    symbols: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_stream(cls, stream: np.ndarray) -> "HuffmanCode":
        """Build the optimal code for the given integer stream."""
        return cls._from_sorted_histogram(
            *_histogram(np.asarray(stream, dtype=np.int64).ravel())
        )

    @classmethod
    def _from_sorted_histogram(
        cls, symbols: np.ndarray, counts: np.ndarray
    ) -> "HuffmanCode":
        lengths = huffman_code_lengths(counts)
        return cls(symbols, lengths, _canonical_codes(lengths))

    @classmethod
    def from_histogram(
        cls, symbols: np.ndarray, counts: np.ndarray
    ) -> "HuffmanCode":
        """Build the code from a precomputed ``(symbols, counts)`` pair."""
        symbols = np.asarray(symbols, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if symbols.shape != counts.shape:
            raise ValueError("symbols and counts must align")
        keep = counts > 0
        symbols, counts = symbols[keep], counts[keep]
        order = np.argsort(symbols)
        return cls._from_sorted_histogram(symbols[order], counts[order])


@dataclass(frozen=True)
class HuffmanEncodePlan:
    """Everything :meth:`HuffmanEncoder.encode` needs except the packed
    payload bits, plus the exact serialized size (see
    :meth:`HuffmanEncoder.plan`)."""

    code: HuffmanCode
    dense: np.ndarray
    lengths: np.ndarray
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
    the bit offset of every ``sync_interval``-th symbol.  The format
    does not pick the decode kernel — :meth:`decode` does, by payload
    size — but whichever runs verifies the table against the payload;
    format-1 blobs (short streams, older writers) have none to verify.
    """

    def encode(
        self, stream: np.ndarray, plan: "HuffmanEncodePlan | None" = None
    ) -> bytes:
        """Compress *stream* (any integer dtype) to bytes.

        ``plan`` (from :meth:`plan`) reuses an already-built code —
        callers that first ask for the coded size avoid rebuilding the
        histogram, tree and sync table.
        """
        stream = np.asarray(stream, dtype=np.int64).ravel()
        if plan is None:
            plan = self.plan(stream)
        if plan is None:
            return self._serialize_empty()
        code = plan.code
        payload, total_bits = pack_codes(
            code.codes[plan.dense], plan.lengths
        )
        return self._serialize(
            code, stream.size, payload, total_bits, plan.interval, plan.sync
        )

    def plan(
        self, stream: np.ndarray, budget: int | None = None
    ) -> "HuffmanEncodePlan | None":
        """Build everything :meth:`encode` needs except the packed bits.

        Returns ``None`` for an empty stream.  The plan carries the exact
        serialized size (``container_bytes``), so escape decisions can be
        made — and the stream then encoded — with one code construction.

        A caller that would discard any plan of *budget* bytes or more
        passes it: when the entropy floor on the serialized size
        (:meth:`_container_bytes_floor`) already reaches the budget the
        answer is ``None`` too, and no code is built.
        """
        stream = np.asarray(stream, dtype=np.int64).ravel()
        if stream.size == 0:
            return None
        symbols, counts = _histogram(stream)
        if (
            budget is not None
            and self._container_bytes_floor(symbols, counts) >= budget
        ):
            return None
        code = HuffmanCode._from_sorted_histogram(symbols, counts)
        dense = self._dense_indices(code.symbols, stream)
        lengths = code.lengths[dense]
        total_bits = int(lengths.sum())
        interval, sync = self._sync_offsets(lengths)
        header_bits = self._header_bits(code.symbols) + (
            64 if interval else 0  # sync interval + count
        )
        container_bytes = (
            4
            + (header_bits + 7) // 8
            + 4 * sync.size
            + (total_bits + 7) // 8
        )
        return HuffmanEncodePlan(
            code, dense, lengths, interval, sync, container_bytes
        )

    def decode(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`encode`, returning an ``int64`` array."""
        code, n_data, payload, total_bits, interval, sync = (
            self._deserialize(blob)
        )
        if n_data == 0:
            if sync.size:
                raise ValueError("corrupt Huffman sync table")
            return np.zeros(0, dtype=np.int64)
        if 8 * len(payload) < total_bits:
            raise ValueError("Huffman payload truncated")
        if n_data > total_bits:
            # every symbol costs at least one bit; a larger count means a
            # corrupt header (and would over-allocate the output)
            raise ValueError("corrupt Huffman header")
        if interval and n_data > interval and total_bits > _SYNC_WALK_MAX_BITS:
            dense = self._decode_payload_batched(
                code, n_data, payload, total_bits, interval, sync
            )
        else:
            # sync-free streams of any size, and sync-table ones too
            # short to fill the batched rounds; the rule also bounds
            # those rounds by the payload size, whatever interval a
            # corrupt header names
            dense = self._decode_payload(
                code, n_data, payload, total_bits, interval, sync
            )
        return code.symbols[dense]

    def encoded_size_bits(self, stream: np.ndarray) -> int:
        """Exact payload size in bits without packing the bitstream.

        Used by "size-only" measurement paths (the header is excluded, as
        in the paper's bit-rate accounting).
        """
        stream = np.asarray(stream, dtype=np.int64).ravel()
        if stream.size == 0:
            return 0
        code = HuffmanCode.from_stream(stream)
        dense = self._dense_indices(code.symbols, stream)
        return int(code.lengths[dense].sum())

    # -- encoding ----------------------------------------------------------

    @staticmethod
    def _header_bits(symbols: np.ndarray) -> int:
        """Exact bit size of the serialized header of a sync-free stream."""
        return (
            32  # n_symbols
            + 64  # first symbol, zigzag
            + int(gamma_bit_lengths(np.diff(symbols)).sum())
            + 6 * symbols.size
            + 64  # n_data
            + 64  # total_bits
        )

    @classmethod
    def _container_bytes_floor(
        cls, symbols: np.ndarray, counts: np.ndarray
    ) -> int:
        """A floor on the ``container_bytes`` of any plan for a histogram.

        No prefix code spends fewer payload bits than the Shannon
        entropy ``n * H`` of the histogram, and the header size is exact.
        So is the sync table wherever every plan carries one: a stream
        of :data:`_SYNC_MIN_STREAM` symbols or more whose payload cannot
        overflow the u32 offsets even at the longest code length its
        alphabet admits.  Float error is shaved off the entropy term, so
        the floor never exceeds the exact size.
        """
        n = int(counts.sum())
        entropy_bits = float(
            np.sum(counts * np.log2(n / counts)) * (1 - 1e-9)
        )
        interval, n_sync = _sync_layout(n)
        longest = min(_MAX_CODE_LEN, max(symbols.size - 1, 1))
        sync_bytes = 0
        if interval and n * longest < 1 << 32:
            sync_bytes = 8 + 4 * n_sync  # interval + count, then offsets
        return (
            4
            + (cls._header_bits(symbols) + 7) // 8
            + sync_bytes
            + int(entropy_bits) // 8
        )

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
    def _sync_offsets(lengths: np.ndarray) -> tuple[int, np.ndarray]:
        """Pick a sync interval and the bit offsets of the block starts.

        Returns ``(0, empty)`` when the stream is too small to benefit or
        the payload exceeds the u32 offset range.
        """
        interval, n_sync = _sync_layout(int(lengths.size))
        if not interval:
            return 0, np.zeros(0, dtype=np.uint32)
        ends = np.cumsum(lengths, dtype=np.int64)
        if int(ends[-1]) >= 1 << 32:
            return 0, np.zeros(0, dtype=np.uint32)
        idx = np.arange(1, n_sync + 1, dtype=np.int64) * interval
        return interval, ends[idx - 1].astype(np.uint32)

    # -- serialization -----------------------------------------------------

    def _serialize_empty(self) -> bytes:
        writer = BitWriter()
        writer.write(0, 32)
        header = writer.getvalue()
        return len(header).to_bytes(4, "big") + header

    def _serialize(
        self,
        code: HuffmanCode,
        n_data: int,
        payload: bytes,
        total_bits: int,
        sync_interval: int = 0,
        sync_offsets: np.ndarray | None = None,
    ) -> bytes:
        writer = BitWriter()
        writer.write(code.symbols.size, 32)
        # Compact symbol table: the alphabet is sorted, so store the
        # first value (zigzag, 64 bits) and Elias-gamma deltas — near-unit
        # for quantization codes, ~2 bits per symbol instead of 64.
        first = int(code.symbols[0])
        writer.write((first << 1 ^ first >> 63) & (2**64 - 1), 64)
        writer.write_gamma_array(np.diff(code.symbols))
        writer.write_array(code.lengths.astype(np.uint64), 6)
        writer.write(n_data, 64)
        writer.write(total_bits, 64)
        if sync_interval:
            writer.write(sync_interval, 32)
            writer.write(sync_offsets.size, 32)
        header = writer.getvalue()
        flag = _SYNC_FLAG if sync_interval else 0
        sync_bytes = (
            sync_offsets.astype("<u4").tobytes() if sync_interval else b""
        )
        return (
            (len(header) | flag).to_bytes(4, "big")
            + header
            + sync_bytes
            + payload
        )

    def _deserialize(
        self, blob: bytes
    ) -> tuple[HuffmanCode, int, bytes, int, int, np.ndarray]:
        if len(blob) < 4:
            raise ValueError("truncated Huffman container")
        word = int.from_bytes(blob[:4], "big")
        has_sync = bool(word & _SYNC_FLAG)
        header_len = word & ~_SYNC_FLAG
        try:
            header = BitReader(blob[4 : 4 + header_len])
            n_symbols = header.read(32)
            if 6 * n_symbols > 8 * header_len:
                # the code-length section alone would not fit the header
                raise ValueError("corrupt Huffman header")
            if n_symbols == 0:
                return HuffmanCode(
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.uint64),
                ), 0, b"", 0, 0, _NO_SYNC
            zz_first = header.read(64)
            first = (zz_first >> 1) ^ -(zz_first & 1)
            deltas = header.read_gamma_array(n_symbols - 1)
            symbols = np.empty(n_symbols, dtype=np.int64)
            symbols[0] = first
            np.cumsum(deltas, out=symbols[1:])
            symbols[1:] += first
            lengths = header.read_array(n_symbols, 6).astype(np.int64)
            n_data = header.read(64)
            total_bits = header.read(64)
            interval = 0
            sync = _NO_SYNC
            pos = 4 + header_len
            if has_sync:
                interval = header.read(32)
                n_sync = header.read(32)
                sync_end = pos + 4 * n_sync
                if interval <= 0 or sync_end > len(blob):
                    raise ValueError("corrupt Huffman sync table")
                sync = np.frombuffer(blob[pos:sync_end], dtype="<u4")
                pos = sync_end
        except EOFError as exc:
            raise ValueError("truncated Huffman header") from exc
        code = HuffmanCode(symbols, lengths, _canonical_codes(lengths))
        return code, n_data, blob[pos:], total_bits, interval, sync

    # -- decoding ----------------------------------------------------------

    @staticmethod
    def _block_starts(
        n_data: int, total_bits: int, interval: int, sync: np.ndarray
    ) -> np.ndarray:
        """Validated bit offsets of symbols ``0, interval, 2*interval, ...``.

        The sync table must hold exactly the marks its interval implies,
        strictly increasing inside ``(0, total_bits)`` — it is an
        integrity check as much as an index, so every decode kernel
        starts here.  Sync-free streams (``interval == 0``) have the one
        block starting at 0.
        """
        if sync.size != ((n_data - 1) // interval if interval else 0):
            raise ValueError("corrupt Huffman sync table")
        starts = np.zeros(sync.size + 1, dtype=np.int64)
        starts[1:] = sync
        if np.any(starts[1:] <= starts[:-1]) or int(starts[-1]) >= total_bits:
            raise ValueError("corrupt Huffman sync table")
        return starts

    def _decode_payload(
        self,
        code: HuffmanCode,
        n_data: int,
        payload: bytes,
        total_bits: int,
        interval: int = 0,
        sync: np.ndarray = _NO_SYNC,
    ) -> np.ndarray:
        """Window-walk decode: pointer doubling over windows of bit positions.

        Every bit position of a window resolves through the primary
        tables at once; chaining ``jump[p] = p + len_table[window16[p]]``
        from the cursor recovers the symbol starts
        (:func:`_chain_starts`), and one gather yields their symbols.
        A code longer than 16 bits ends the chain: the canonical walk
        resolves that one symbol and the next window starts behind it
        (shrunk while escapes keep coming, so a stream dense in long
        codes does not pay a full window per symbol).

        A stream with a sync table (``interval > 0``) is held to it as
        the batched kernel holds it: the table is validated, every
        symbol ``k * interval`` must start on its mark, and the last
        symbol must end on ``total_bits`` — so the two kernels accept
        the same blobs and return the same arrays.  Its marks also let
        the chains of all blocks run at once
        (:meth:`_decode_from_marks`); the walk from the cursor is then
        only the fallback for streams with long codes.
        """
        marks = self._block_starts(n_data, total_bits, interval, sync)
        sym_table, len_table = self._primary_tables(code)
        window = build_bit_window(payload)
        if marks.size > 1:
            out = self._decode_from_marks(
                sym_table, len_table, window, n_data, total_bits, interval,
                marks,
            )
            if out is not None:
                return out
        long_codes: dict | None = None  # lazy long-code index
        out = np.empty(n_data, dtype=sym_table.dtype)
        span = _WALK_WINDOW_BITS
        done = 0
        pos = 0
        while done < n_data:
            if pos > total_bits:
                raise ValueError("Huffman payload truncated")
            # positions up to total_bits inclusive: the end position
            # reads zero padding, as in the round-based decoder
            prefix = slice_window16(
                window, pos, min(pos + span, total_bits + 1)
            ).astype(np.intp)  # a table gather converts any other index
            lens = len_table[prefix]
            starts = _chain_starts(lens, n_data - done)
            if interval:
                on_mark = starts[-done % interval :: interval]
                block = -(-done // interval)
                if not np.array_equal(
                    on_mark + pos, marks[block : block + on_mark.size]
                ):
                    raise ValueError("corrupt Huffman payload")
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
        if interval and pos != total_bits:
            raise ValueError("corrupt Huffman payload")
        return out

    @staticmethod
    def _decode_from_marks(
        sym_table: np.ndarray,
        len_table: np.ndarray,
        window: np.ndarray,
        n_data: int,
        total_bits: int,
        interval: int,
        marks: np.ndarray,
    ) -> np.ndarray | None:
        """Decode block-parallel from the sync marks, a window at a time.

        With every block start known the doubling runs all blocks of a
        window at once and needs ``log2(interval)`` squarings of the
        jump map, not ``log2`` of the symbols the window holds.  Each
        block must run exactly onto the next mark, the last onto
        ``total_bits`` — the batched kernel's acceptance test.  ``None``
        when one does not: a long-code escape or corruption, and the
        walk from the cursor resolves the one and reports the other.
        """
        edges = np.append(marks, total_bits)
        out = np.empty(n_data, dtype=sym_table.dtype)
        i = 0
        while i < marks.size:
            # the whole blocks one walk window holds, at least one
            lo = int(edges[i])
            j = int(np.searchsorted(edges, lo + _WALK_WINDOW_BITS, "right"))
            j = max(j - 1, i + 1)
            prefix = slice_window16(window, lo, int(edges[j]) + 1).astype(
                np.intp
            )
            jump = _jump_map(len_table[prefix])
            starts = _block_orbits(jump, edges[i:j] - lo, interval)
            starts = starts.ravel()[: n_data - i * interval]
            # the last symbol of each block; the final block is short
            last = np.minimum(np.arange(1, j - i + 1) * interval, starts.size)
            if not np.array_equal(
                jump[starts[last - 1]], edges[i + 1 : j + 1] - lo
            ):
                return None
            out[i * interval : i * interval + starts.size] = sym_table[
                prefix[starts]
            ]
            i = j
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
        """
        starts = self._block_starts(n_data, total_bits, interval, sync)
        n_blocks = starts.size
        rem = n_data - (n_blocks - 1) * interval
        sym_table, len_table = self._primary_tables(code)
        window = build_bit_window(payload)
        limit = np.int64(total_bits)

        out = np.empty(n_data, dtype=sym_table.dtype)
        cur = starts.copy()
        base = np.arange(n_blocks, dtype=np.int64) * interval
        slow: dict | None = None  # lazy long-code index
        for r in range(interval):
            if r == rem:
                # The (shorter) final block is exhausted: its cursor must
                # sit exactly on the end of the payload; drop it.
                if int(cur[-1]) != total_bits:
                    raise ValueError("corrupt Huffman payload")
                cur = cur[:-1]
                base = base[:-1]
            prefix = gather_window16(window, np.minimum(cur, limit))
            ln = len_table[prefix]
            out[base + r] = sym_table[prefix]
            if not ln.all():
                if slow is None:
                    slow = self._long_code_index(code)
                ln = ln.astype(np.int64)
                for e in np.flatnonzero(ln == 0):
                    # clamp like the gather above: a corrupt sync table
                    # can push a cursor past the payload end, and the
                    # final integrity check reports that — the escape
                    # walk must not index out of bounds first
                    dense, ln_e = self._decode_long_bytes(
                        window, int(min(cur[e], limit)), total_bits, slow
                    )
                    out[base[e] + r] = dense
                    ln[e] = ln_e
            cur = cur + ln
        # Every surviving block must land exactly on the next block's
        # start (the last full one on total_bits) — a cheap, complete
        # integrity check against truncated or corrupted payloads.
        if rem == interval:
            final = np.concatenate([starts[1:], np.array([limit])])
        else:
            final = starts[1:]
        if not np.array_equal(cur, final):
            raise ValueError("corrupt Huffman payload")
        return out

    def _primary_tables(
        self, code: HuffmanCode
    ) -> tuple[np.ndarray, np.ndarray]:
        """The 16-bit primary decode table for *code* (cached).

        ``len_table[prefix]`` is the code length when a full code of
        length <= 16 matches the prefix, else 0 (escape to the slow path).

        The tables are content-addressed through a process-wide LRU:
        canonical codes are fully determined by ``(symbols, lengths)``,
        so any two streams sharing an alphabet — e.g. the many
        near-constant tiles of an adaptive (v5) container that land on
        the same TOC config palette entry and emit the same tiny code —
        build the LUT once per reader process instead of once per tile.
        """
        key = hashlib.blake2b(
            code.symbols.tobytes() + b"|" + code.lengths.tobytes(),
            digest_size=16,
        ).digest()
        cached = _DECODE_TABLE_CACHE.get(key)
        if cached is not None:
            return cached
        # the narrowest symbol entries that hold the alphabet: building
        # the table costs mostly the pages it touches
        sym_table = np.zeros(
            1 << _PRIMARY_BITS, dtype=np.min_scalar_type(code.lengths.size)
        )
        len_table = np.zeros(1 << _PRIMARY_BITS, dtype=np.uint8)
        for dense in range(code.lengths.size):
            ln = int(code.lengths[dense])
            if ln == 0 or ln > _PRIMARY_BITS:
                continue
            base = int(code.codes[dense]) << (_PRIMARY_BITS - ln)
            span = 1 << (_PRIMARY_BITS - ln)
            sym_table[base : base + span] = dense
            len_table[base : base + span] = ln
        # the same arrays are handed to every decode that shares the
        # alphabet, so freeze them against accidental mutation
        sym_table.flags.writeable = False
        len_table.flags.writeable = False
        _DECODE_TABLE_CACHE.put(key, (sym_table, len_table))
        return sym_table, len_table

    def _long_code_index(
        self, code: HuffmanCode
    ) -> dict[tuple[int, int], int]:
        """Map ``(length, codeword)`` to dense index for codes > 16 bits."""
        index: dict[tuple[int, int], int] = {}
        for dense in range(code.lengths.size):
            ln = int(code.lengths[dense])
            if ln > _PRIMARY_BITS:
                index[(ln, int(code.codes[dense]))] = dense
        return index

    @staticmethod
    def _decode_long_bytes(
        window: np.ndarray,
        pos: int,
        total_bits: int,
        long_codes: dict[tuple[int, int], int],
    ) -> tuple[int, int]:
        """Per-bit canonical walk for codes longer than 16 bits.

        Reads bits from the
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
