"""Unit + property tests for the Huffman codec.

The vectorised kernels are checked against the loops they replaced,
kept here as oracles: the heap construction of the code lengths and
the one-symbol-per-iteration walk of a sync-free payload.  Randomised
cases expand from integer seeds (as in ``tests/proptest.py``), so a
failure names the seed that reproduces it.
"""

import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor.bitstream import BitReader, pack_codes
from repro.compressor.encoders import huffman as huffman_module
from repro.compressor.encoders.huffman import (
    HuffmanCode,
    HuffmanEncoder,
    _canonical_codes,
    huffman_code_lengths,
)
from repro.utils.stats import entropy_bits, normalized_histogram
from tests.compressor.test_bitstream import _reference_pack_codes


# -- oracles: the scalar loops the vectorised kernels replaced ------------------


def heap_code_lengths(counts: np.ndarray) -> np.ndarray:
    """The heap-of-tuples Huffman construction, tie-breaks and all."""
    counts = np.asarray(counts, dtype=np.int64)
    present = np.flatnonzero(counts > 0)
    lengths = np.zeros(counts.size, dtype=np.int64)
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    heap = [(int(counts[i]), int(i), int(i)) for i in present]
    heapq.heapify(heap)
    tiebreak = counts.size
    while len(heap) > 1:
        c1, _, n1 = heapq.heappop(heap)
        c2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (c1 + c2, tiebreak, [n1, n2]))
        tiebreak += 1
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int):
            lengths[node] = max(depth, 1)
        else:
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
    return lengths


def loop_canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical codewords counted up one symbol at a time."""
    codes = np.zeros(len(lengths), dtype=np.uint64)
    order = np.lexsort((np.arange(len(lengths)), lengths))
    code = prev_len = 0
    for idx in order[np.asarray(lengths)[order] > 0]:
        code <<= int(lengths[idx]) - prev_len
        codes[idx] = code
        code += 1
        prev_len = int(lengths[idx])
    return codes


def scalar_walk(
    enc: HuffmanEncoder,
    code: HuffmanCode,
    n_data: int,
    payload: bytes,
    total_bits: int,
) -> np.ndarray:
    """One Python iteration per symbol over the sliding 16-bit window."""
    window = BitReader(payload, nbits=total_bits).window16()
    sym_table, len_table = enc._primary_tables(code)
    long_codes = enc._long_code_index(code)
    out = np.empty(n_data, dtype=np.int64)
    pos = 0
    for i in range(n_data):
        if pos >= window.size:
            raise ValueError("Huffman payload truncated")
        prefix = int(window[pos])
        ln = int(len_table[prefix])
        if ln:
            out[i] = sym_table[prefix]
        else:
            value = prefix
            ln = 16
            while True:
                if ln == 57:
                    raise ValueError("no code matched")
                ln += 1
                nxt = pos + ln - 1
                bit = int(window[nxt]) >> 15 if nxt < window.size else 0
                value = (value << 1) | bit
                if (ln, value) in long_codes:
                    out[i] = long_codes[(ln, value)]
                    break
        pos += ln
    if pos > total_bits:
        raise ValueError("Huffman payload truncated")
    return out


def reference_decode(enc: HuffmanEncoder, blob: bytes) -> np.ndarray:
    """``HuffmanEncoder.decode`` with the scalar walk for sync-free streams."""
    code, n_data, payload, total_bits, interval, _ = enc._deserialize(blob)
    if n_data == 0:
        return np.zeros(0, dtype=np.int64)
    if 8 * len(payload) < total_bits or n_data > total_bits:
        raise ValueError("corrupt Huffman container")
    if interval and n_data > interval:
        return enc.decode(blob)  # sync-table path, not under test here
    return code.symbols[scalar_walk(enc, code, n_data, payload, total_bits)]


def sync_free_blob(
    enc: HuffmanEncoder, code: HuffmanCode, dense: np.ndarray
) -> bytes:
    """Serialize *dense* indices under *code* with no sync table."""
    payload, total_bits = pack_codes(code.codes[dense], code.lengths[dense])
    return enc._serialize(code, dense.size, payload, total_bits)


def staircase_code(rng: np.random.Generator, longest: int) -> HuffmanCode:
    """A complete code with lengths 1, 2, ..., longest - 1, longest - 1."""
    lengths = np.r_[np.arange(1, longest), longest - 1].astype(np.int64)
    rng.shuffle(lengths)
    symbols = np.sort(rng.choice(10_000, lengths.size, replace=False)) - 5000
    return HuffmanCode(symbols, lengths, _canonical_codes(lengths))


def draw_small_stream(seed: int) -> np.ndarray:
    """1..4095 symbols: the streams that serialize without a sync table."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 3, int(rng.integers(1, 4096)), 4095]))
    kind = seed % 5
    if kind == 0:
        return rng.integers(-5, 6, n)
    if kind == 1:  # zero-dominated, like quantization codes
        return (rng.geometric(0.6, n) - 1) * rng.choice([-1, 1], n)
    if kind == 2:
        return np.zeros(n, dtype=np.int64)
    if kind == 3:  # sparse alphabet: searchsorted / np.unique branches
        return rng.integers(0, 300, n) * 100_003
    return rng.integers(0, 2, n) * 7  # two symbols


class TestCodeLengths:
    def test_two_symbols(self):
        lengths = huffman_code_lengths(np.array([5, 5]))
        np.testing.assert_array_equal(lengths, [1, 1])

    def test_singleton_gets_one_bit(self):
        lengths = huffman_code_lengths(np.array([7]))
        assert lengths[0] == 1

    def test_zero_count_symbol_gets_zero_length(self):
        lengths = huffman_code_lengths(np.array([4, 0, 4]))
        assert lengths[1] == 0
        assert lengths[0] == lengths[2] == 1

    def test_skewed_distribution(self):
        # frequencies 8,4,2,1,1 -> optimal lengths 1,2,3,4,4
        lengths = huffman_code_lengths(np.array([8, 4, 2, 1, 1]))
        assert sorted(lengths.tolist()) == [1, 2, 3, 4, 4]

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array([0, 0]))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array([-1, 2]))

    @given(st.lists(st.integers(1, 10_000), min_size=2, max_size=128))
    @settings(max_examples=50)
    def test_kraft_equality(self, counts):
        lengths = huffman_code_lengths(np.array(counts))
        kraft = np.sum(2.0 ** (-lengths[lengths > 0]))
        assert kraft == pytest.approx(1.0)

    @given(st.lists(st.integers(1, 10_000), min_size=2, max_size=128))
    @settings(max_examples=50)
    def test_average_length_within_entropy_plus_one(self, counts):
        counts_arr = np.array(counts)
        lengths = huffman_code_lengths(counts_arr)
        p = counts_arr / counts_arr.sum()
        avg = float(np.sum(p * lengths))
        h = entropy_bits(p)
        assert h - 1e-9 <= avg <= h + 1.0 + 1e-9


def draw_histogram(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    kind = seed % 8
    n = int(rng.integers(2, 300))
    if kind == 0:  # tie-heavy
        counts = rng.integers(1, 4, n)
    elif kind == 1:  # powers of two: every merge ties with a leaf
        counts = 2 ** rng.integers(0, 12, n)
    elif kind == 2:
        counts = np.array([int(rng.integers(1, 1000))])  # singleton
    elif kind == 3:
        counts = rng.integers(1, 1000, 2)  # two symbols
    elif kind == 4:  # byte-token sized and beyond
        counts = rng.integers(1, 10_000, int(rng.integers(256, 700)))
    elif kind == 5:
        counts = np.ones(n, dtype=np.int64)
    elif kind == 6:  # Fibonacci-like skew: deep trees
        counts = np.cumsum(np.r_[1, 1, rng.integers(1, 3, min(n, 40))])
        counts = np.maximum.accumulate(counts) ** 2
    else:
        counts = rng.geometric(0.05, n)
    counts = np.asarray(counts, dtype=np.int64)
    if seed % 3 == 0 and counts.size > 2:  # absent symbols in between
        counts[rng.random(counts.size) < 0.3] = 0
        if not counts.any():
            counts[0] = 1
    rng.shuffle(counts)
    return counts


class TestCodeLengthsMatchHeapOracle:
    @pytest.mark.parametrize("seed", range(96))
    def test_lengths_equal_the_heap_construction(self, seed):
        counts = draw_histogram(seed)
        np.testing.assert_array_equal(
            huffman_code_lengths(counts), heap_code_lengths(counts)
        )

    def test_deepest_supported_tree_and_the_one_beyond(self):
        fib = [1, 1]
        while len(fib) < 59:
            fib.append(fib[-1] + fib[-2])
        np.testing.assert_array_equal(
            huffman_code_lengths(np.array(fib[:58])),
            heap_code_lengths(np.array(fib[:58])),
        )
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array(fib))

    @pytest.mark.parametrize("seed", range(48))
    def test_canonical_codes_equal_the_counting_loop(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            lengths = huffman_code_lengths(draw_histogram(seed))
        else:  # what a corrupt header can hold: any 6-bit lengths
            lengths = rng.integers(0, 64, int(rng.integers(1, 40)))
        try:
            expected = loop_canonical_codes(lengths)
        except OverflowError:
            with pytest.raises(ValueError):
                _canonical_codes(lengths)
        else:
            np.testing.assert_array_equal(
                _canonical_codes(lengths), expected
            )

    def test_oversubscribed_lengths_raise_value_error(self):
        with pytest.raises(ValueError):
            _canonical_codes(np.array([1] * 5 + [63]))


class TestHuffmanCodePrefixProperty:
    @given(st.lists(st.integers(1, 1000), min_size=2, max_size=64))
    @settings(max_examples=30)
    def test_codes_are_prefix_free(self, counts):
        symbols = np.arange(len(counts))
        code = HuffmanCode.from_histogram(symbols, np.array(counts))
        entries = [
            (int(code.codes[i]), int(code.lengths[i]))
            for i in range(len(counts))
            if code.lengths[i] > 0
        ]
        as_strings = [format(c, f"0{ln}b") for c, ln in entries]
        for i, a in enumerate(as_strings):
            for j, b in enumerate(as_strings):
                if i != j:
                    assert not b.startswith(a)


class TestEncoderRoundtrip:
    def test_simple_roundtrip(self):
        enc = HuffmanEncoder()
        stream = np.array([0, 0, 1, -1, 0, 2, 0, 0])
        out = enc.decode(enc.encode(stream))
        np.testing.assert_array_equal(out, stream)

    def test_empty_stream(self):
        enc = HuffmanEncoder()
        out = enc.decode(enc.encode(np.array([], dtype=np.int64)))
        assert out.size == 0

    def test_single_symbol_stream(self):
        enc = HuffmanEncoder()
        stream = np.zeros(1000, dtype=np.int64)
        out = enc.decode(enc.encode(stream))
        np.testing.assert_array_equal(out, stream)

    def test_negative_symbols(self):
        enc = HuffmanEncoder()
        stream = np.array([-32768, 32767, -1, 0, 1] * 10)
        np.testing.assert_array_equal(
            enc.decode(enc.encode(stream)), stream
        )

    def test_large_symbol_values(self):
        enc = HuffmanEncoder()
        stream = np.array([2**40, -(2**40), 0, 0, 2**40])
        np.testing.assert_array_equal(
            enc.decode(enc.encode(stream)), stream
        )

    def test_wide_alphabet_with_rare_symbols(self):
        rng = np.random.default_rng(0)
        common = np.zeros(5000, dtype=np.int64)
        rare = rng.integers(-500, 500, size=200)
        stream = np.concatenate([common, rare])
        rng.shuffle(stream)
        enc = HuffmanEncoder()
        np.testing.assert_array_equal(
            enc.decode(enc.encode(stream)), stream
        )

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=500),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random(self, values):
        enc = HuffmanEncoder()
        stream = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(
            enc.decode(enc.encode(stream)), stream
        )

    def test_geometric_distribution_roundtrip(self):
        # Mirrors real quantization-code statistics (zero-dominated).
        rng = np.random.default_rng(1)
        stream = (rng.geometric(0.7, size=20_000) - 1) * rng.choice(
            [-1, 1], size=20_000
        )
        enc = HuffmanEncoder()
        np.testing.assert_array_equal(
            enc.decode(enc.encode(stream)), stream
        )


class TestEncodedSize:
    def test_size_only_matches_real_payload_bits(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(-5, 6, size=4000)
        enc = HuffmanEncoder()
        bits = enc.encoded_size_bits(stream)
        # real payload is the container minus header; check consistency
        code = HuffmanCode.from_stream(stream)
        dense = np.searchsorted(code.symbols, stream)
        assert bits == int(code.lengths[dense].sum())

    def test_compression_beats_raw_for_skewed_data(self):
        stream = np.zeros(10_000, dtype=np.int64)
        stream[::100] = 1
        enc = HuffmanEncoder()
        bits = enc.encoded_size_bits(stream)
        assert bits < stream.size * 2  # far below 64-bit raw

    def test_size_near_entropy(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 16, size=50_000)
        _, probs = normalized_histogram(stream)
        h = entropy_bits(probs)
        enc = HuffmanEncoder()
        bits_per_symbol = enc.encoded_size_bits(stream) / stream.size
        assert h <= bits_per_symbol <= h + 1.0


class TestSizeFloor:
    @pytest.mark.parametrize("seed", range(40))
    def test_floor_never_exceeds_the_exact_size(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 4 == 0:  # long enough for a sync table
            stream = rng.integers(0, int(rng.integers(1, 300)), 6000)
        else:
            stream = draw_small_stream(seed)
        enc = HuffmanEncoder()
        plan = enc.plan(stream)
        floor = enc._container_bytes_floor(
            *np.unique(stream, return_counts=True)
        )
        assert floor <= plan.container_bytes
        assert len(enc.encode(stream, plan=plan)) == plan.container_bytes
        # the budget only ever withholds plans it proves too large
        assert enc.plan(stream, budget=floor) is None
        assert enc.plan(stream, budget=floor + 1) is not None

    def test_floor_is_within_a_byte_for_dyadic_histograms(self):
        # counts 4,2,1,1: entropy == Huffman cost, so only the payload's
        # rounding (down in the floor, up in the container) separates them
        stream = np.repeat([0, 1, 2, 3], [512, 256, 128, 128])
        enc = HuffmanEncoder()
        floor = enc._container_bytes_floor(
            *np.unique(stream, return_counts=True)
        )
        assert 0 <= enc.plan(stream).container_bytes - floor <= 1

    def test_floor_counts_the_sync_table_exactly(self):
        # the same dyadic histogram, long enough for a sync table: the
        # floor stays within the payload's rounding, so its sync term is
        # the table's exact size, not merely a bound on it
        stream = np.repeat([0, 1, 2, 3], [2048, 1024, 512, 512])
        enc = HuffmanEncoder()
        plan = enc.plan(stream)
        assert plan.interval and plan.sync.size == 15
        floor = enc._container_bytes_floor(
            *np.unique(stream, return_counts=True)
        )
        assert 0 <= plan.container_bytes - floor <= 1


class TestSyncFreeWalk:
    """The pointer-doubling decode against the scalar walk it replaced."""

    @pytest.mark.parametrize("seed", range(60))
    def test_walk_equals_scalar_walk(self, seed):
        stream = draw_small_stream(seed)
        enc = HuffmanEncoder()
        blob = enc.encode(stream)
        code, n_data, payload, total_bits, interval, _ = enc._deserialize(
            blob
        )
        assert interval == 0 and n_data == stream.size
        np.testing.assert_array_equal(
            enc._decode_payload(code, n_data, payload, total_bits),
            scalar_walk(enc, code, n_data, payload, total_bits),
        )
        np.testing.assert_array_equal(enc.decode(blob), stream)

    @pytest.mark.parametrize("seed", range(40))
    def test_long_codes_take_the_canonical_walk(self, seed):
        rng = np.random.default_rng(seed)
        code = staircase_code(rng, int(rng.integers(18, 45)))
        n = int(rng.choice([1, 2, int(rng.integers(1, 4096))]))
        long_ones = np.flatnonzero(code.lengths > 16)
        if seed % 4 == 0:  # every symbol escapes
            dense = rng.choice(long_ones, n)
        else:  # escapes at a seeded rate among short codes
            p = 2.0 ** -np.minimum(code.lengths, 10).astype(float)
            dense = rng.choice(code.lengths.size, n, p=p / p.sum())
            dense[rng.random(n) < rng.choice([0.0, 0.01, 0.3])] = (
                long_ones[0]
            )
        enc = HuffmanEncoder()
        blob = sync_free_blob(enc, code, dense)
        np.testing.assert_array_equal(
            enc.decode(blob), code.symbols[dense]
        )
        np.testing.assert_array_equal(
            reference_decode(enc, blob), code.symbols[dense]
        )

    def test_walk_crosses_window_boundaries(self, monkeypatch):
        # windows far smaller than the stream: every hand-over between
        # windows (and the shrink/regrow around escapes) is exercised
        monkeypatch.setattr(huffman_module, "_WALK_WINDOW_BITS", 64)
        monkeypatch.setattr(huffman_module, "_WALK_MIN_WINDOW_BITS", 8)
        rng = np.random.default_rng(3)
        code = staircase_code(rng, 24)
        p = 2.0 ** -np.minimum(code.lengths, 12).astype(float)
        dense = rng.choice(code.lengths.size, 3000, p=p / p.sum())
        enc = HuffmanEncoder()
        np.testing.assert_array_equal(
            enc.decode(sync_free_blob(enc, code, dense)),
            code.symbols[dense],
        )

    @pytest.mark.parametrize("seed", range(120))
    def test_corrupt_small_blobs_agree_with_scalar_verdict(self, seed):
        """Bit flips and truncations: right bytes or ValueError, and the
        same verdict as the scalar walk — nothing else ever escapes."""
        rng = np.random.default_rng(1000 + seed)
        enc = HuffmanEncoder()
        if seed % 3 == 0:
            code = staircase_code(rng, int(rng.integers(17, 30)))
            p = 2.0 ** -np.minimum(code.lengths, 12).astype(float)
            dense = rng.choice(
                code.lengths.size, int(rng.integers(1, 2000)), p=p / p.sum()
            )
            blob = sync_free_blob(enc, code, dense)
        else:
            blob = enc.encode(draw_small_stream(seed))
        for _ in range(12):
            damaged = bytearray(blob)
            mode = int(rng.integers(0, 3))
            if mode == 0:
                damaged = damaged[: int(rng.integers(0, len(damaged)))]
            else:
                for _ in range(1 if mode == 1 else 4):
                    at = int(rng.integers(0, len(damaged)))
                    damaged[at] ^= 1 << int(rng.integers(0, 8))
            damaged = bytes(damaged)
            try:
                expected = reference_decode(enc, damaged)
            except ValueError:
                with pytest.raises(ValueError):
                    enc.decode(damaged)
            else:
                np.testing.assert_array_equal(enc.decode(damaged), expected)

    def test_multi_megabit_sync_free_blob_decodes_in_bounded_memory(self):
        """A legacy format-1 stream of any length walks fixed-size
        windows: beyond the output (and its symbol mapping) the decode
        holds a few bytes per payload byte, never tables per bit."""
        rng = np.random.default_rng(11)
        stream = rng.geometric(0.5, 1_000_000) - 1
        enc = HuffmanEncoder()
        plan = enc.plan(stream)
        payload, total_bits = pack_codes(
            plan.code.codes[plan.dense], plan.lengths
        )
        assert total_bits > 1_500_000
        blob = enc._serialize(plan.code, stream.size, payload, total_bits)
        del plan, payload
        tracemalloc.start()
        try:
            decoded = enc.decode(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(decoded, stream)
        # 16 MB of output and mapped symbols; one int64 table entry per
        # bit position alone would add another 16 MB
        assert peak < 2 * decoded.nbytes + (4 << 20)


# -- format-2 (sync-table) streams: one verdict whichever kernel runs ---------


def sync_blob(
    enc: HuffmanEncoder, code: HuffmanCode, dense: np.ndarray, interval: int
) -> bytes:
    """Serialize *dense* under *code* with a sync mark every *interval*."""
    lengths = code.lengths[dense]
    payload, total_bits = pack_codes(code.codes[dense], lengths)
    marked = np.arange(interval, dense.size, interval)
    sync = np.cumsum(lengths)[marked - 1].astype(np.uint32)
    return enc._serialize(
        code, dense.size, payload, total_bits, interval, sync
    )


_ROUTE_KINDS = ("runs", "laplace", "uniform", "escapes")
_ROUTE_BASE: dict = {}


def route_base(kind: str) -> tuple[HuffmanCode, np.ndarray]:
    """A code and 2**18 dense indices under it: ~2, ~5.5 and ~13 bits per
    symbol, and a skewed code whose rare symbols take the > 16-bit walk."""
    if kind not in _ROUTE_BASE:
        rng = np.random.default_rng(_ROUTE_KINDS.index(kind))
        n = 1 << 18
        if kind == "escapes":
            code = staircase_code(rng, 24)
            p = 2.0 ** -np.minimum(code.lengths, 12).astype(float)
            dense = rng.choice(code.lengths.size, n, p=p / p.sum())
        else:
            if kind == "runs":  # constant runs of zero-dominated values
                values = (rng.geometric(0.6, n) - 1) * rng.choice([-1, 1], n)
                stream = np.repeat(values, rng.geometric(0.3, n))[:n]
            elif kind == "laplace":
                stream = np.rint(rng.laplace(0, 8, n)).astype(np.int64)
            else:
                stream = rng.integers(0, 8192, n)
            code = HuffmanCode.from_stream(stream)
            dense = HuffmanEncoder._dense_indices(code.symbols, stream)
        _ROUTE_BASE[kind] = (code, dense)
    return _ROUTE_BASE[kind]


def crossover_symbols(code: HuffmanCode, dense: np.ndarray) -> int:
    """The longest prefix of *dense* the walk still takes."""
    ends = np.cumsum(code.lengths[dense])
    return int(
        np.searchsorted(ends, huffman_module._SYNC_WALK_MAX_BITS, "right")
    )


def kernel_verdicts(enc: HuffmanEncoder, blob: bytes) -> list:
    """What ``decode`` and each kernel make of *blob*: the decoded
    symbols or ``"rejected"`` — anything but ``ValueError`` propagates."""

    def verdict(run):
        try:
            return run()
        except ValueError:
            return "rejected"

    verdicts = [verdict(lambda: enc.decode(blob))]
    try:
        code, n_data, payload, total_bits, interval, sync = (
            enc._deserialize(blob)
        )
    except ValueError:
        return verdicts
    if not 0 < n_data <= total_bits <= 8 * len(payload):
        return verdicts  # decode() turns these away before any kernel
    parts = (code, n_data, payload, total_bits, interval, sync)
    kernels = [enc._decode_payload]
    if n_data > interval > 0:  # else the rounds are not bounded by the data
        kernels.append(enc._decode_payload_batched)
    for kernel in kernels:
        dense = verdict(lambda: kernel(*parts))
        verdicts.append(
            dense if isinstance(dense, str) else code.symbols[dense]
        )
    return verdicts


def assert_one_verdict(verdicts: list) -> None:
    first = verdicts[0]
    for other in verdicts[1:]:
        if isinstance(first, str) or isinstance(other, str):
            assert isinstance(first, str) and isinstance(other, str)
        else:
            np.testing.assert_array_equal(other, first)


class TestSyncTableIsChecked:
    """A sync table is verified on every route, not only the batched one."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.enc = HuffmanEncoder()
        self.stream = np.rint(rng.laplace(0, 8, 8192)).astype(np.int64)
        self.plan = self.enc.plan(self.stream)

    def serialize(self, n, interval, sync):
        code, dense = self.plan.code, self.plan.dense[:n]
        payload, total_bits = pack_codes(
            code.codes[dense], code.lengths[dense]
        )
        return self.enc._serialize(
            code, n, payload, total_bits, interval, np.asarray(sync, "<u4")
        )

    def test_oversized_table_on_a_one_block_stream_is_rejected(self):
        good = self.serialize(100, 256, [])
        np.testing.assert_array_equal(
            self.enc.decode(good), self.stream[:100]
        )
        for sync in ([5], [5, 9], list(range(1, 40))):
            with pytest.raises(ValueError, match="sync table"):
                self.enc.decode(self.serialize(100, 256, sync))

    def test_table_on_an_empty_stream_is_rejected(self):
        with pytest.raises(ValueError, match="sync table"):
            self.enc.decode(self.serialize(0, 256, [5]))

    def test_truncated_and_padded_tables_are_rejected(self):
        sync = self.plan.sync
        np.testing.assert_array_equal(
            self.enc.decode(self.serialize(8192, 256, sync)), self.stream
        )
        for bad in (sync[:-1], sync[1:], np.r_[sync, sync[-1] + 1]):
            with pytest.raises(ValueError, match="sync table"):
                self.enc.decode(self.serialize(8192, 256, bad))

    def test_absurd_interval_neither_hangs_nor_passes_a_table(self):
        # one block, whatever its claimed interval: the walk takes it
        blob = self.serialize(8192, 2**31, [])
        np.testing.assert_array_equal(self.enc.decode(blob), self.stream)
        with pytest.raises(ValueError, match="sync table"):
            self.enc.decode(self.serialize(8192, 2**31, [77]))

    @pytest.mark.parametrize("kind", ("laplace", "escapes"))
    def test_last_block_must_end_on_total_bits(self, kind):
        # no mark follows the last block: only the end of the payload
        # holds it, for the walk as for the batched rounds
        code, dense = route_base(kind)
        lengths = code.lengths[dense[:5000]]
        n = 4500 + int(np.flatnonzero(np.cumsum(lengths)[4500:] % 8 == 1)[0])
        dense = dense[: n + 1]
        payload, total_bits = pack_codes(
            code.codes[dense], code.lengths[dense]
        )
        sync = np.cumsum(code.lengths[dense])[255:-1:256].astype("<u4")
        for claimed in (total_bits, total_bits + 1, total_bits + 7):
            blob = self.enc._serialize(
                code, dense.size, payload, claimed, 256, sync
            )
            verdicts = kernel_verdicts(self.enc, blob)
            assert len(verdicts) == 3
            assert_one_verdict(verdicts)
            assert isinstance(verdicts[0], str) == (claimed != total_bits)

    def test_a_mark_off_its_symbol_is_rejected_by_the_walk(self):
        sync = self.plan.sync.copy()
        sync[7] += 1
        with pytest.raises(ValueError):
            self.enc.decode(self.serialize(8192, 256, sync))


class TestKernelRoutes:
    """Every route to the symbols of a format-2 stream agrees."""

    SIZES = (257, 4095, 4096, 4097, 8192, 16384, -1, 0, 1, 1 << 18)

    @pytest.mark.parametrize("kind", _ROUTE_KINDS)
    @pytest.mark.parametrize("size", SIZES)
    def test_all_routes_return_the_same_array(self, kind, size):
        code, dense = route_base(kind)
        if size <= 1:  # around the longest stream the walk still takes
            size += crossover_symbols(code, dense)
        dense = dense[:size]
        enc = HuffmanEncoder()
        blob = sync_blob(enc, code, dense, 256)
        parts = enc._deserialize(blob)
        assert parts[1] == size and parts[4] == 256
        assert parts[5].size == (size - 1) // 256
        np.testing.assert_array_equal(
            enc.decode(blob), code.symbols[dense]
        )
        for route in (
            enc._decode_payload(*parts),
            enc._decode_payload(*parts[:4]),
            enc._decode_payload_batched(*parts),
        ):
            np.testing.assert_array_equal(route, dense)

    @pytest.mark.parametrize("kind", _ROUTE_KINDS)
    def test_the_packed_payload_is_the_per_bit_kernels(self, kind):
        # the bits every route above decodes, against the one-byte-per-
        # bit kernel ``pack_codes`` replaced
        code, dense = route_base(kind)
        dense = dense[: 1 << 17]
        codes, lengths = code.codes[dense], code.lengths[dense]
        assert pack_codes(codes, lengths) == _reference_pack_codes(
            codes, lengths
        )

    @pytest.mark.parametrize("kind", _ROUTE_KINDS)
    def test_the_walk_takes_streams_up_to_the_crossover(
        self, kind, monkeypatch
    ):
        code, dense = route_base(kind)
        n = crossover_symbols(code, dense)
        enc = HuffmanEncoder()
        at, past = (
            sync_blob(enc, code, dense[:size], 256) for size in (n, n + 1)
        )
        assert enc._deserialize(at)[3] <= huffman_module._SYNC_WALK_MAX_BITS
        assert enc._deserialize(past)[3] > huffman_module._SYNC_WALK_MAX_BITS

        def unexpected(*args, **kwargs):
            raise AssertionError("wrong kernel for this stream")

        with monkeypatch.context() as patch:
            patch.setattr(
                HuffmanEncoder, "_decode_payload_batched", unexpected
            )
            enc.decode(at)
            with pytest.raises(AssertionError):
                enc.decode(past)
        monkeypatch.setattr(HuffmanEncoder, "_decode_payload", unexpected)
        enc.decode(past)

    @pytest.mark.parametrize("interval", (1, 2, 7, 256, 5000))
    def test_any_interval_a_writer_could_pick(self, interval):
        code, dense = route_base("laplace")
        dense = dense[:9001]
        enc = HuffmanEncoder()
        assert_one_verdict(
            [code.symbols[dense]]
            + kernel_verdicts(enc, sync_blob(enc, code, dense, interval))
        )


class TestNoDecodeCliff:
    """Work is sized to the stream — counted, not timed: a return to
    dispatch by format flag fails here deterministically."""

    @pytest.mark.parametrize("kind", ("runs", "laplace"))
    @pytest.mark.parametrize("n", (4096, 8192, 16384))
    def test_mid_size_streams_never_pay_the_batched_rounds(
        self, kind, n, monkeypatch
    ):
        code, dense = route_base(kind)
        enc = HuffmanEncoder()
        blob = enc.encode(code.symbols[dense[:n]])
        _, _, _, total_bits, interval, sync = enc._deserialize(blob)
        assert interval == 256 and sync.size == n // 256 - 1
        calls = []

        def counted(name):
            kernel = getattr(huffman_module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)

            monkeypatch.setattr(huffman_module, name, wrapper)

        def unexpected(*args, **kwargs):
            raise AssertionError("not on the mid-size route")

        counted("_chain_starts")
        counted("_block_orbits")
        monkeypatch.setattr(
            HuffmanEncoder, "_decode_payload_batched", unexpected
        )
        # positions are a range on this route: no fancy-index gather
        monkeypatch.setattr(huffman_module, "gather_window16", unexpected)
        np.testing.assert_array_equal(
            enc.decode(blob), code.symbols[dense[:n]]
        )
        windows = -(-(total_bits + 1) // huffman_module._WALK_WINDOW_BITS)
        assert 1 <= len(calls) <= windows + 1

    def test_large_streams_keep_the_batched_rounds(self, monkeypatch):
        code, dense = route_base("laplace")
        enc = HuffmanEncoder()
        stream = code.symbols[dense[: 1 << 18]]
        blob = enc.encode(stream)
        assert enc._deserialize(blob)[3] > 1 << 20

        def unexpected(*args, **kwargs):
            raise AssertionError("not on the large-stream route")

        monkeypatch.setattr(HuffmanEncoder, "_decode_payload", unexpected)
        np.testing.assert_array_equal(enc.decode(blob), stream)


class TestCorruptSyncStreams:
    """Detection does not depend on the kernel: for damaged format-2
    blobs ``decode``, the walk and the batched rounds all reject, or all
    return the same symbols — and nothing but ``ValueError`` escapes."""

    @staticmethod
    def draw_blob(rng: np.random.Generator, seed: int) -> bytes:
        enc = HuffmanEncoder()
        if seed % 3 == 0:  # as the encoder writes them
            kind = _ROUTE_KINDS[seed // 3 % 3]
            code, dense = route_base(kind)
            at = int(rng.integers(0, 200_000))
            n = int(rng.integers(4096, 9000))
            return enc.encode(code.symbols[dense[at : at + n]])
        if seed % 3 == 1:  # long codes among the blocks
            code = staircase_code(rng, int(rng.integers(17, 30)))
            p = 2.0 ** -np.minimum(code.lengths, 12).astype(float)
            dense = rng.choice(
                code.lengths.size, int(rng.integers(40, 3000)), p=p / p.sum()
            )
        else:
            code, dense = route_base(_ROUTE_KINDS[seed % 4])
            at = int(rng.integers(0, 200_000))
            dense = dense[at : at + int(rng.integers(40, 3000))]
        return sync_blob(enc, code, dense, int(rng.choice([8, 32, 64])))

    @staticmethod
    def damage(rng: np.random.Generator, blob: bytes, n_sync: int) -> bytes:
        out = bytearray(blob)
        table = 4 + (int.from_bytes(blob[:4], "big") & 0x7FFFFFFF)
        payload = table + 4 * n_sync
        mode = int(rng.integers(0, 9))
        if mode == 0:
            return bytes(out[: int(rng.integers(0, len(out)))])
        if mode <= 3:  # bit flips: header, sync table, payload
            lo, hi = [(0, table), (table, payload), (payload, len(out))][
                mode - 1
            ]
            for _ in range(int(rng.choice([1, 4]))):
                at = int(rng.integers(lo, max(hi, lo + 1)))
                out[min(at, len(out) - 1)] ^= 1 << int(rng.integers(0, 8))
            return bytes(out)
        sync = np.frombuffer(blob[table:payload], dtype="<u4").copy()
        if sync.size < 2:
            out[-1] ^= 1
            return bytes(out)
        i, j = rng.choice(sync.size, 2, replace=False)
        if mode == 4:
            sync[i], sync[j] = sync[j], sync[i]
        elif mode == 5:
            sync[i] = sync[j]
        elif mode == 6:
            sync[i] = int(sync[i]) + int(rng.choice([-1, 1]))
        elif mode == 7:  # past total_bits
            sync[-1] = 8 * (len(blob) - payload) + int(rng.integers(0, 99))
        else:  # a table one mark short, the payload moved up
            sync = sync[:-1]
        return bytes(out[:table]) + sync.tobytes() + bytes(out[payload:])

    @pytest.mark.parametrize("seed", range(120))
    def test_every_kernel_reaches_the_same_verdict(self, seed):
        rng = np.random.default_rng(2000 + seed)
        blob = self.draw_blob(rng, seed)
        enc = HuffmanEncoder()
        intact = kernel_verdicts(enc, blob)
        assert len(intact) == 3 and not isinstance(intact[0], str)
        assert_one_verdict(intact)
        n_sync = enc._deserialize(blob)[5].size
        for _ in range(12):
            assert_one_verdict(
                kernel_verdicts(enc, self.damage(rng, blob, n_sync))
            )


class TestDecodeTableCache:
    def test_forty_codes_stay_resident_within_the_bound(self, monkeypatch):
        cache = huffman_module._DecodeTableLRU()
        monkeypatch.setattr(huffman_module, "_DECODE_TABLE_CACHE", cache)
        enc = HuffmanEncoder()
        rng = np.random.default_rng(9)
        streams = [
            rng.integers(-k - 2, k + 3, 600) * (k + 1) for k in range(40)
        ]
        blobs = [enc.encode(stream) for stream in streams]
        peak = 0
        for _ in range(2):
            for blob, stream in zip(blobs, streams):
                np.testing.assert_array_equal(enc.decode(blob), stream)
                peak = max(peak, cache.nbytes)
        assert (cache.misses, cache.hits) == (40, 40)
        assert len(cache) == 40 and peak <= cache._max_bytes
        for sym_table, len_table in cache._entries.values():
            assert sym_table.dtype.kind == "u" and sym_table.itemsize <= 2
            assert not sym_table.flags.writeable
            assert not len_table.flags.writeable

    def test_eviction_is_by_bytes_held(self):
        table = np.zeros(1 << 16, dtype=np.uint16)
        cache = huffman_module._DecodeTableLRU(max_bytes=5 * table.nbytes)
        for key in range(9):
            cache.put(bytes([key]), (table, table[: 1 << 15]))
            assert cache.nbytes <= 5 * table.nbytes
        assert len(cache) == 3 and cache.get(bytes([8])) is not None
        assert cache.get(bytes([0])) is None
        cache.put(bytes([8]), (table,))  # replaced, not counted twice
        assert cache.nbytes == 4 * table.nbytes

    def test_wide_alphabets_get_wider_entries(self):
        enc = HuffmanEncoder()
        for n_symbols, dtype in ((200, np.uint8), (300, np.uint16)):
            stream = np.arange(n_symbols).repeat(2)
            code = HuffmanCode.from_stream(stream)
            assert enc._primary_tables(code)[0].dtype == dtype
            np.testing.assert_array_equal(
                enc.decode(enc.encode(stream)), stream
            )
