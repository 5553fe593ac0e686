"""Unit + property tests for the Huffman codec.

The vectorised kernels are checked against the loops they replaced,
kept here as oracles: the heap construction of the code lengths, the
per-symbol fill of the decode tables and the long-code index, and the
one-symbol-per-iteration walk of a sync-free payload.  Randomised
cases expand from integer seeds (as in ``tests/proptest.py``), so a
failure names the seed that reproduces it.
"""

import hashlib
import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor.bitstream import gamma_bit_lengths, pack_codes
from repro.compressor.encoders import huffman as huffman_module
from repro.compressor.encoders.huffman import (
    HuffmanCode,
    HuffmanEncoder,
    _canonical_codes,
    huffman_code_lengths,
)
from repro.utils.stats import entropy_bits, normalized_histogram
from tests.compressor.test_bitstream import _reference_pack_codes
from tests.conftest import case
from tests.oracle import (
    DECODE_MESSAGES,
    assert_same_verdict,
    assert_stack_as_alone,
    deserialize,
    huffman_routes,
    payload_bits,
    reference_long_code_index,
    reference_primary_tables,
    serialize,
    unlimited_blob,
    unlimited_code,
    with_codes,
)


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


def expanded(table: np.ndarray) -> np.ndarray:
    """A primary table of ``2 ** bits`` entries as the 16-bit table it
    stands for: each entry covers ``2 ** (16 - bits)`` window values."""
    return np.repeat(table, (1 << 16) // table.size)


def sync_free_blob(
    enc: HuffmanEncoder, code: HuffmanCode, dense: np.ndarray
) -> bytes:
    """Serialize *dense* indices under *code* with no sync table."""
    codes = _canonical_codes(code.lengths)
    payload, total_bits = pack_codes(codes[dense], code.lengths[dense])
    return serialize(enc, code, dense.size, payload, total_bits)


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


def brute_force_cost(counts: np.ndarray, limit: int) -> int:
    """The least ``sum(count * length)`` over every length vector of the
    present symbols that meets Kraft's inequality and *limit*."""
    weights = counts[counts > 0]
    grid = np.indices((limit,) * weights.size, dtype=np.int8)
    grid = grid.reshape(weights.size, -1) + 1
    kraft = np.sum(np.left_shift(1, limit - grid, dtype=np.int64), axis=0)
    return int((weights @ grid)[kraft <= 1 << limit].min())


def assert_limited_code(counts: np.ndarray, lengths: np.ndarray, limit: int):
    """A complete code of present symbols only, none past *limit*, no
    symbol longer than a rarer one."""
    present = counts > 0
    assert not lengths[~present].any()
    assert 1 <= lengths[present].min() and lengths.max() <= limit
    if present.sum() > 1:
        kraft = np.left_shift(1, limit - lengths[present]).sum()
        assert kraft == 1 << limit
    order = np.argsort(-counts[present], kind="stable")
    by_weight = counts[present][order], lengths[present][order]
    # a lighter symbol never gets a shorter code
    assert np.all(np.diff(by_weight[1])[np.diff(by_weight[0]) < 0] >= 0)


def draw_small_histogram(seed: int) -> tuple[np.ndarray, int]:
    """Counts of 2..8 present symbols (absent ones between) and a limit
    from the least feasible up to the longest the brute force spans."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    kind = seed % 4
    if kind == 0:  # Fibonacci-like: the Huffman code is as deep as it gets
        counts = np.cumsum(np.r_[1, 1, rng.integers(1, 3, n - 2)])
        counts = np.maximum.accumulate(counts) ** 2
    elif kind == 1:  # ties
        counts = rng.integers(1, 4, n)
    elif kind == 2:
        counts = 2 ** rng.integers(0, 10, n)
    else:
        counts = rng.integers(1, 1000, n)
    counts = np.insert(counts, rng.integers(0, n + 1, seed % 3), 0)
    rng.shuffle(counts)
    least = (n - 1).bit_length()
    longest = {8: 5, 7: 6, 6: 7}.get(n, n - 1)
    return counts, int(rng.integers(least, max(least, longest) + 1))


class TestLengthLimit:
    """``huffman_code_lengths(counts, limit)``: the optimal code of no
    length past the limit (package-merge when Huffman's goes past it)."""

    @pytest.mark.parametrize("seed", range(120))
    def test_cost_is_the_brute_force_optimum(self, seed):
        counts, limit = draw_small_histogram(seed)
        lengths = huffman_code_lengths(counts, limit=limit)
        assert_limited_code(counts, lengths, limit)
        assert int(counts @ lengths) == brute_force_cost(counts, limit)

    @pytest.mark.parametrize("seed", range(96))
    def test_a_code_that_fits_is_huffmans(self, seed):
        counts = draw_histogram(seed)
        unlimited = huffman_code_lengths(counts)
        longest = int(unlimited.max())
        for limit in (longest, longest + 1, 57):
            np.testing.assert_array_equal(
                huffman_code_lengths(counts, limit=limit), unlimited
            )
        least = max(int(np.count_nonzero(counts) - 1).bit_length(), 1)
        for limit in range(least, longest):  # Huffman's goes past these
            lengths = huffman_code_lengths(counts, limit=limit)
            assert_limited_code(counts, lengths, limit)
            assert counts @ lengths >= counts @ unlimited

    def test_deepest_supported_tree_under_a_16_bit_limit(self):
        fib = [1, 1]
        while len(fib) < 59:
            fib.append(fib[-1] + fib[-2])
        for counts in (np.array(fib[:58]), np.array(fib)):
            lengths = huffman_code_lengths(counts, limit=16)
            assert_limited_code(counts, lengths, 16)
        # all 2**16 symbols of a flat alphabet, and one more than fits
        flat = np.ones(1 << 16, dtype=np.int64)
        assert set(huffman_code_lengths(flat, limit=16).tolist()) == {16}
        with pytest.raises(ValueError, match="longer than 16 bits"):
            huffman_code_lengths(np.r_[flat, 1], limit=16)

    def test_plans_fit_the_primary_table(self, monkeypatch):
        """No plan of the 72 property cases (``FLAT_SECTIONS_SHA256``)
        or the six ledger workloads' fields has a code past 16 bits —
        nor the full ``codec_bulk`` field, whose unlimited codes take
        17."""
        from dataclasses import replace

        from repro.compressor import CompressionConfig, TiledCompressor
        from tests.compressor.test_model_cost_guards import _ledger_fields
        from tests.proptest import draw_case, resolved_config

        longest = []
        plan = HuffmanEncoder.plan

        def spy(self, stream, *args, **kwargs):
            out = plan(self, stream, *args, **kwargs)
            if out is not None:
                longest.append(int(out.code.lengths.max()))
            return out

        monkeypatch.setattr(HuffmanEncoder, "plan", spy)
        for seed in range(72):  # as the flat-sections pin frames them
            case = draw_case(seed)
            config = replace(
                resolved_config(case),
                tile_shape=None,
                adaptive=False,
                temporal=False,
            )
            TiledCompressor().compress(case.data, config)
        fields = _ledger_fields()
        for kind, shape, bound, tile, adaptive in (
            ("random_walk", (16, 16, 64), 1e-2, (16, 32, 256), False),
            ("random_walk", (32, 32, 256), 1e-2, (16, 32, 256), False),
            ("halo", (64, 64), 0.2, (32, 32), False),
            ("halo", (64, 64), 0.2, (32, 32), True),
            ("halo", (128, 128), 0.05, (128, 128), False),
            ("halo", (128, 128), 0.05, (32, 32), False),
            ("wave", (16, 16, 32), 2e-3, (16, 16, 32), False),
        ):
            field = fields.build(kind, shape, seed=3)[0]
            config = CompressionConfig(
                error_bound=bound, tile_shape=tile, adaptive=adaptive
            )
            TiledCompressor().compress(field, config)
        assert len(longest) > 80 and max(longest) <= 16


class TestHuffmanCodePrefixProperty:
    @given(st.lists(st.integers(1, 1000), min_size=2, max_size=64))
    @settings(max_examples=30)
    def test_codes_are_prefix_free(self, counts):
        symbols = np.arange(len(counts))
        stream = np.repeat(symbols, counts)
        code = with_codes(HuffmanEncoder().plan(stream).code)
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
        bits = payload_bits(enc, stream)
        # real payload is the container minus header; check consistency
        code = HuffmanEncoder().plan(stream).code
        dense = np.searchsorted(code.symbols, stream)
        assert bits == int(code.lengths[dense].sum())

    def test_compression_beats_raw_for_skewed_data(self):
        stream = np.zeros(10_000, dtype=np.int64)
        stream[::100] = 1
        enc = HuffmanEncoder()
        bits = payload_bits(enc, stream)
        assert bits < stream.size * 2  # far below 64-bit raw

    def test_size_near_entropy(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 16, size=50_000)
        _, probs = normalized_histogram(stream)
        h = entropy_bits(probs)
        enc = HuffmanEncoder()
        bits_per_symbol = payload_bits(enc, stream) / stream.size
        assert h <= bits_per_symbol <= h + 1.0


def reference_floor(symbols: np.ndarray, counts: np.ndarray) -> int:
    """The size floor of one histogram as computed a stream at a time
    before the stack pass: Shannon payload, exact header and sync
    table."""
    n = int(counts.sum())
    entropy_bits = float(np.sum(counts * np.log2(n / counts)) * (1 - 1e-9))
    interval, n_sync = huffman_module._sync_layout(n)
    longest = min(57, max(symbols.size - 1, 1))
    sync_bytes = 8 + 4 * n_sync if interval and n * longest < 1 << 32 else 0
    gaps = int(gamma_bit_lengths(np.diff(symbols)).sum())
    header_bits = 32 + 64 + gaps + 6 * symbols.size + 64 + 64
    return 4 + (header_bits + 7) // 8 + sync_bytes + int(entropy_bits) // 8


def stacked_floor(stream: np.ndarray) -> int:
    """The floor the stack pass finds for *stream* alone."""
    return huffman_module._histograms([np.asarray(stream, np.int64)])[0].floor


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
        floor = stacked_floor(stream)
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
        floor = stacked_floor(stream)
        assert 0 <= enc.plan(stream).container_bytes - floor <= 1

    def test_floor_counts_the_sync_table_exactly(self):
        # the same dyadic histogram, long enough for a sync table: the
        # floor stays within the payload's rounding, so its sync term is
        # the table's exact size, not merely a bound on it
        stream = np.repeat([0, 1, 2, 3], [2048, 1024, 512, 512])
        enc = HuffmanEncoder()
        plan = enc.plan(stream)
        assert plan.interval and plan.sync.size == 15
        floor = stacked_floor(stream)
        assert 0 <= plan.container_bytes - floor <= 1


# -- stacks: every member is its stream encoded alone ----------------------


def draw_stack(seed: int) -> tuple[list, list]:
    """A seeded stack of streams of every kind ``encode_stack`` routes
    apart, and which members are handed a ready plan."""
    rng = np.random.default_rng(seed)
    streams = []
    for _ in range(int(rng.integers(1, 10))):
        longer = [int(rng.integers(3, 700)), int(rng.integers(4096, 6000))]
        n = int(rng.choice([0, 1, 2, *longer]))
        kind = int(rng.integers(0, 7))
        if kind == 0:  # contiguous, negative symbols
            stream = rng.integers(-6, 7, n)
        elif kind == 1:  # zero-dominated, like quantization codes
            stream = (rng.geometric(0.6, n) - 1) * rng.choice([-1, 1], n)
        elif kind == 2:  # bytes, like lossless tokens
            stream = rng.integers(0, 256, n)
        elif kind == 3:  # sparse: counted by np.unique below 225
            # symbols (x 3), and indexed by searchsorted too (x 1009)
            stream = rng.integers(-150, 150, n) * int(rng.choice([3, 1009]))
        elif kind == 4:  # one symbol, far from zero
            stream = np.full(n, int(rng.integers(-(2**40), 2**40)))
        elif kind == 5:  # spans and gaps past 2**32
            stream = rng.integers(-(2**62), 2**62, n)
        else:  # a few far-apart symbols
            stream = rng.choice(rng.integers(-(2**50), 2**50, 5), n)
        streams.append(stream.astype(np.int64))
    return streams, (rng.random(len(streams)) < 0.3).tolist()


#: sha256 of the blobs ``encode_stack`` writes for the 40 stacks of
#: :func:`draw_stack` (each blob's length, big-endian u64, then its bytes)
STACK_SHA256 = (
    "fce24b2fb5e7fb9af6b5fb65d3a34ac974ee83c5b94a34805cddc9ce29ce4863"
)


def encode_drawn_stack(enc: HuffmanEncoder, seed: int) -> tuple:
    """The drawn streams, and their stack's ``encode_stack``."""
    streams, planned = draw_stack(seed)
    plans = [enc.plan(s) if p else None for s, p in zip(streams, planned)]
    return streams, lambda members: enc.encode_stack(members, plans)


class TestEncodeStackMembers:
    """The stack passes — counts, header sizes, floors, codewords,
    headers — give every member the bytes its stream gets alone."""

    @pytest.mark.parametrize("seed", range(40))
    def test_each_member_equals_its_stream_alone(self, seed):
        enc = HuffmanEncoder()
        streams, encode_stack = encode_drawn_stack(enc, seed)
        blobs = assert_stack_as_alone(encode_stack, streams, enc.encode)
        decoded = assert_stack_as_alone(enc.decode_stack, blobs, enc.decode)
        for array, stream in zip(decoded, streams):
            np.testing.assert_array_equal(array, stream)

    def test_mixed_corpus_bytes_are_pinned(self):
        enc = HuffmanEncoder()
        digest = hashlib.sha256()
        for seed in range(40):
            streams, encode_stack = encode_drawn_stack(enc, seed)
            for blob in encode_stack(streams):
                digest.update(len(blob).to_bytes(8, "big") + blob)
        assert digest.hexdigest() == STACK_SHA256

    @pytest.mark.parametrize("seed", range(40))
    def test_stacked_floors_equal_the_per_stream_formula(self, seed):
        streams, _ = draw_stack(seed)
        enc = HuffmanEncoder()
        histograms = huffman_module._histograms(streams)
        for i, (stream, histogram) in enumerate(zip(streams, histograms)):
            with case(member=i):
                if not stream.size:
                    assert histogram is None
                    continue
                symbols, counts = np.unique(stream, return_counts=True)
                np.testing.assert_array_equal(histogram.symbols, symbols)
                np.testing.assert_array_equal(histogram.counts, counts)
                assert histogram.floor == reference_floor(symbols, counts)
                assert histogram.floor <= enc.plan(stream).container_bytes


class TestSyncOffsets:
    """The marks are running sums of whole blocks; the cumulative sum of
    the stream they replaced is the reference."""

    @pytest.mark.parametrize("n", (1, 4095, 4096, 4097, 4352, 70_001))
    def test_marks_and_total_equal_the_cumulative_sum(self, n):
        lengths = np.random.default_rng(n).integers(1, 58, n)
        interval, sync, total_bits = HuffmanEncoder._sync_offsets(lengths)
        ends = np.cumsum(lengths)
        assert total_bits == int(ends[-1])
        assert interval == huffman_module._sync_layout(n)[0]
        marks = np.arange(interval, n, interval) if interval else []
        assert sync.dtype == np.uint32
        np.testing.assert_array_equal(sync, ends[np.asarray(marks, int) - 1])

    def test_a_payload_past_u32_offsets_has_no_table(self):
        lengths = np.full(4096, 1 << 20)
        interval, sync, total_bits = HuffmanEncoder._sync_offsets(lengths)
        assert (interval, sync.size, total_bits) == (0, 0, 1 << 32)


class TestWideAlphabets:
    """Spans and gaps past ``int64``: a span counts as sparse, a gap no
    header holds is refused by name — alone and in a stack alike."""

    NORMAL = np.array([1, 2])

    def test_a_span_past_int64_takes_the_sparse_count(self):
        enc = HuffmanEncoder()
        for wide in (np.array([0, 2**63 - 1]), np.array([-(2**63), -1])):
            got = assert_stack_as_alone(enc.encode_stack, [self.NORMAL, wide])
            np.testing.assert_array_equal(enc.decode(got[1]), wide)

    def test_a_gap_past_int64_is_refused(self):
        enc = HuffmanEncoder()
        for wide in (
            np.array([-(2**62), 2**62]),
            np.array([-(2**63), 2**63 - 1]),
        ):
            for route in (
                lambda: enc.plan(wide),
                lambda: enc.encode(wide),
                lambda: enc.encode_stack([self.NORMAL, wide]),
                lambda: enc.encode_stack([wide, self.NORMAL]),
            ):
                with pytest.raises(ValueError, match="gap exceeds 2\\*\\*63"):
                    route()


class TestSyncFreeWalk:
    """The pointer-doubling decode against the scalar walk it replaced."""

    @pytest.mark.parametrize("seed", range(60))
    def test_walk_equals_scalar_walk(self, seed):
        enc = HuffmanEncoder()
        stream = draw_small_stream(seed)
        blob = enc.encode(stream)
        _, n_data, _, _, interval, _ = deserialize(enc, blob)
        assert interval == 0 and n_data == stream.size
        routes = huffman_routes(enc, blob)
        assert "scalar walk" in routes
        verdict = assert_same_verdict(routes)
        np.testing.assert_array_equal(verdict, stream)

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
        verdict = assert_same_verdict(
            huffman_routes(enc, sync_free_blob(enc, code, dense))
        )
        np.testing.assert_array_equal(verdict, code.symbols[dense])

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
        """Bit flips and truncations: right bytes or ``ValueError``, the
        same on every route and the scalar walk — nothing else ever
        escapes.  ``TestDecodeStack`` decodes one blob of each seed
        among intact streams."""
        enc = HuffmanEncoder()
        for k, damaged in enumerate(damaged_blobs(seed)):
            with case(blob=k):
                assert_same_verdict(huffman_routes(enc, damaged))

    def test_multi_megabit_sync_free_blob_decodes_in_bounded_memory(
        self, long_code_walks
    ):
        """A legacy format-1 stream of any length walks fixed-size
        windows: beyond the output (and its symbol mapping) the decode
        holds a few bytes per payload byte, never tables per bit.  Its
        code has no length limit, so the walk escapes on the way."""
        rng = np.random.default_rng(11)
        stream = rng.geometric(0.5, 1_000_000) - 1
        enc = HuffmanEncoder()
        code, dense = unlimited_code(stream)
        payload, total_bits = pack_codes(
            code.codes[dense], code.lengths[dense]
        )
        assert total_bits > 1_500_000
        blob = serialize(enc, code, stream.size, payload, total_bits)
        del dense, payload
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
        assert long_code_walks


# -- format-2 (sync-table) streams: one verdict whichever kernel runs ---------


def sync_blob(
    enc: HuffmanEncoder, code: HuffmanCode, dense: np.ndarray, interval: int
) -> bytes:
    """Serialize *dense* under *code* with a sync mark every *interval*."""
    lengths = code.lengths[dense]
    payload, total_bits = pack_codes(
        _canonical_codes(code.lengths)[dense], lengths
    )
    marked = np.arange(interval, dense.size, interval)
    sync = np.cumsum(lengths)[marked - 1].astype(np.uint32)
    return serialize(
        enc, code, dense.size, payload, total_bits, interval, sync
    )


_ROUTE_KINDS = ("runs", "laplace", "uniform", "escapes")
_ROUTE_BASE: dict = {}


def route_base(kind: str) -> tuple[HuffmanCode, np.ndarray]:
    """A code and 2**18 dense indices under it: ~2, ~5.5 and ~13 bits per
    symbol, and a skewed code whose rare symbols take the > 16-bit walk.
    The codes have no length limit: the rarest ``laplace`` symbols take
    17 bits, as in v7 files written without the limit."""
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
            code, dense = unlimited_code(stream)
        _ROUTE_BASE[kind] = (code, dense)
    return _ROUTE_BASE[kind]


def crossover_symbols(code: HuffmanCode, dense: np.ndarray) -> int:
    """The longest prefix of *dense* the walk still takes."""
    ends = np.cumsum(code.lengths[dense])
    return int(
        np.searchsorted(ends, huffman_module._SYNC_WALK_MAX_BITS, "right")
    )


class TestSyncTableIsChecked:
    """A sync table is verified on every route, not only the batched one."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.enc = HuffmanEncoder()
        self.stream = np.rint(rng.laplace(0, 8, 8192)).astype(np.int64)
        self.plan = self.enc.plan(self.stream)

    def serialize(self, n, interval, sync):
        code, dense = with_codes(self.plan.code), self.plan.dense[:n]
        payload, total_bits = pack_codes(
            code.codes[dense], code.lengths[dense]
        )
        return serialize(
            self.enc, code, n, payload, total_bits, interval,
            np.asarray(sync, "<u4"),
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
        # one block, whatever its claimed interval: the cursor walk
        # takes it, held to end on total_bits
        blob = self.serialize(8192, 2**31, [])
        np.testing.assert_array_equal(self.enc.decode(blob), self.stream)
        with pytest.raises(ValueError, match="sync table"):
            self.enc.decode(self.serialize(8192, 2**31, [77]))

    @pytest.mark.parametrize("kind", ("laplace", "escapes"))
    def test_last_block_must_end_on_total_bits(self, kind, long_code_walks):
        # no mark follows the last block: only the end of the payload
        # holds it, for the walk as for the batched rounds.  The stream
        # opens on its code's longest symbol, so every route escapes
        code, dense = route_base(kind)
        dense = np.r_[code.lengths.argmax(), dense[:4999]]
        lengths = code.lengths[dense]
        n = 4500 + int(np.flatnonzero(np.cumsum(lengths)[4500:] % 8 == 1)[0])
        dense = dense[: n + 1]
        payload, total_bits = pack_codes(
            code.codes[dense], code.lengths[dense]
        )
        sync = np.cumsum(code.lengths[dense])[255:-1:256].astype("<u4")
        # and a table of one block, whatever interval it names
        for interval, marks in ((256, sync), (2**31, sync[:0])):
            for claimed in (total_bits, total_bits + 1, total_bits + 7):
                blob = serialize(
                    self.enc, code, dense.size, payload, claimed, interval,
                    marks,
                )
                routes = huffman_routes(self.enc, blob)
                assert ("_decode_payload_batched" if marks.size
                        else "_decode_alone") in routes
                verdict = assert_same_verdict(routes)
                assert isinstance(verdict, ValueError) == (
                    claimed != total_bits
                )
        assert long_code_walks

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
        parts = deserialize(enc, blob)
        assert parts[1] == size and parts[4] == 256
        assert parts[5].size == (size - 1) // 256
        routes = huffman_routes(enc, blob)
        routes["_decode_payload without marks"] = lambda: code.symbols[
            enc._decode_payload(*parts[:4])
        ]
        routes["encoded"] = lambda: code.symbols[dense]
        kernels = {"_decode_payload_batched", "_decode_payload without marks"}
        if code.lengths.max() <= 16:  # else the walk would escape
            kernels.add("stack walk")
        assert set(routes) == {"decode", "encoded", *kernels}
        assert_same_verdict(routes)

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
        limit = huffman_module._SYNC_WALK_MAX_BITS
        assert deserialize(enc, at)[3] <= limit < deserialize(enc, past)[3]

        def unexpected(*args, **kwargs):
            raise AssertionError("wrong kernel for this stream")

        with monkeypatch.context() as patch:
            patch.setattr(
                HuffmanEncoder, "_decode_payload_batched", unexpected
            )
            if code.lengths.max() <= 16:
                enc.decode(at)
            else:  # the rounds resolve a long code; the walk escapes
                with pytest.raises(AssertionError):
                    enc.decode(at)
            with pytest.raises(AssertionError):
                enc.decode(past)
        monkeypatch.setattr(HuffmanEncoder, "_decode_payload", unexpected)
        monkeypatch.setattr(HuffmanEncoder, "_walk_group", unexpected)
        enc.decode(past)

    @pytest.mark.parametrize("interval", (1, 2, 7, 256, 5000))
    def test_any_interval_a_writer_could_pick(self, interval):
        code, dense = route_base("laplace")
        dense = dense[:9001]
        enc = HuffmanEncoder()
        routes = huffman_routes(enc, sync_blob(enc, code, dense, interval))
        routes["encoded"] = lambda: code.symbols[dense]
        assert_same_verdict(routes)


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
        _, _, _, total_bits, interval, sync = deserialize(enc, blob)
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

        counted("_block_orbits")
        monkeypatch.setattr(
            HuffmanEncoder, "_decode_payload_batched", unexpected
        )
        monkeypatch.setattr(HuffmanEncoder, "_decode_payload", unexpected)
        # positions are a range on this route: no fancy-index gather
        monkeypatch.setattr(huffman_module, "gather_window16", unexpected)
        np.testing.assert_array_equal(
            enc.decode(blob), code.symbols[dense[:n]]
        )
        assert total_bits <= huffman_module._SYNC_WALK_MAX_BITS
        assert calls == ["_block_orbits"]  # the stack walk's one pass

    def test_large_streams_keep_the_batched_rounds(
        self, monkeypatch, long_code_walks
    ):
        code, dense = route_base("laplace")
        enc = HuffmanEncoder()
        stream = code.symbols[dense[: 1 << 18]]
        encoded = enc.encode(stream)
        # the stream as a writer with no length limit framed it: its
        # rarest symbols past the 16-bit primary table
        unlimited = unlimited_blob(enc, stream)
        longest = [
            deserialize(enc, blob)[0].lengths.max()
            for blob in (encoded, unlimited)
        ]
        assert longest[0] <= 16 < longest[1]
        for blob in (encoded, unlimited):
            assert deserialize(enc, blob)[3] > 1 << 20

        def unexpected(*args, **kwargs):
            raise AssertionError("not on the large-stream route")

        monkeypatch.setattr(HuffmanEncoder, "_decode_payload", unexpected)
        np.testing.assert_array_equal(enc.decode(encoded), stream)
        assert not long_code_walks
        np.testing.assert_array_equal(enc.decode(unlimited), stream)
        assert long_code_walks


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
        n_sync = deserialize(enc, blob)[5].size
        routes = huffman_routes(enc, blob)
        assert "_decode_payload_batched" in routes
        assert not isinstance(assert_same_verdict(routes), Exception)
        for k in range(12):
            damaged = self.damage(rng, blob, n_sync)
            with case(damage=k):
                assert_same_verdict(
                    huffman_routes(enc, damaged), messages=DECODE_MESSAGES
                )


def damaged_blobs(seed: int) -> list[bytes]:
    """Twelve bit-flipped or truncated copies of one short sync-free
    stream, drawn from *seed*."""
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
    out = []
    for _ in range(12):
        damaged = bytearray(blob)
        mode = int(rng.integers(0, 3))
        if mode == 0:
            damaged = damaged[: int(rng.integers(0, len(damaged)))]
        else:
            for _ in range(1 if mode == 1 else 4):
                at = int(rng.integers(0, len(damaged)))
                damaged[at] ^= 1 << int(rng.integers(0, 8))
        out.append(bytes(damaged))
    return out


_INTACT: list = []


def intact_blobs() -> list[tuple[bytes, np.ndarray]]:
    """35 short intact streams of every kind ``draw_small_stream`` has,
    each with its symbols."""
    if not _INTACT:
        enc = HuffmanEncoder()
        streams = [draw_small_stream(200 + i)[:64] for i in range(35)]
        _INTACT.extend((enc.encode(stream), stream) for stream in streams)
    return _INTACT


def one_pass(enc: HuffmanEncoder, blob: bytes) -> bool:
    """Whether the stack walk takes *blob*: more symbols than its sync
    interval (0 without a table), no code past the primary table, and
    one walk window long — or, with a table, ``_SYNC_WALK_MAX_BITS``."""
    code, n_data, _, total_bits, interval, _ = enc._parse([blob])[0]
    longest = (
        huffman_module._SYNC_WALK_MAX_BITS + 1
        if interval
        else huffman_module._WALK_WINDOW_BITS
    )
    return (
        n_data > interval
        and total_bits < longest
        and code.lengths.max() <= 16
    )


class TestDecodeStack:
    """A stack of streams decodes exactly as its streams do alone —
    arrays, dtypes and the first bad one's error."""

    def mixed(self) -> list[bytes]:
        rng = np.random.default_rng(41)
        enc = HuffmanEncoder()
        escapes = staircase_code(rng, 24)
        p = 2.0 ** -np.minimum(escapes.lengths, 12).astype(float)
        long_dense = rng.choice(escapes.lengths.size, 900, p=p / p.sum())
        long_dense[::50] = np.flatnonzero(escapes.lengths > 16)[0]
        widest = staircase_code(rng, 17)  # 16 bits the longest code
        p = 2.0 ** -widest.lengths.astype(float)
        legacy = rng.integers(0, 64, 20_000)
        small = enc.encode(rng.integers(-5, 6, 700))
        return [
            small,
            # an escape longer than 16 bits in a one-window stream
            sync_free_blob(enc, escapes, long_dense),
            enc.encode(np.zeros(0, dtype=np.int64)),  # empty
            enc.encode(np.full(300, -7)),  # one symbol, one bit each
            # a legacy format-1 stream several walk windows long
            sync_free_blob(
                enc,
                HuffmanEncoder().plan(legacy).code,
                HuffmanEncoder._dense_indices(np.arange(64), legacy),
            ),
            enc.encode(rng.integers(-20, 21, 9000)),  # a sync table
            small,  # an alphabet the stack has met
            enc.encode(rng.integers(0, 300, 800) * 100_003),  # sparse
            sync_free_blob(  # a table of 2 ** 16 entries
                enc,
                widest,
                rng.choice(widest.lengths.size, 500, p=p / p.sum()),
            ),
        ]

    def test_mixed_stack_equals_each_blob_alone(self, monkeypatch):
        cache = huffman_module._DecodeTableLRU()
        monkeypatch.setattr(huffman_module, "_DECODE_TABLE_CACHE", cache)
        enc = HuffmanEncoder()
        blobs = self.mixed()
        rng = np.random.default_rng(5)
        for cold in (True, False, True, False):
            if cold:  # every alphabet built by the stack itself
                cache.clear()
            order = rng.permutation(len(blobs))
            stack = [blobs[i] for i in order]
            assert_stack_as_alone(enc.decode_stack, stack, enc.decode)
        assert enc.decode_stack([]) == []

    def test_one_window_streams_take_one_pass(self, monkeypatch):
        # counted: every one-window sync-free stream of a stack and its
        # sync-table stream are walked by one pass, the cursor walk sees
        # the rest only
        enc = HuffmanEncoder()
        blobs = self.mixed() + [blob for blob, _ in intact_blobs()]
        walked, passes = [], []
        real_walk, real_group = enc._decode_payload, enc._walk_group

        def walk(*stream):
            walked.append(stream[1])
            return real_walk(*stream)

        def group(streams):
            passes.append(len(streams))
            return real_group(streams)

        monkeypatch.setattr(enc, "_decode_payload", walk)
        monkeypatch.setattr(enc, "_walk_group", group)
        enc.decode_stack(blobs)
        # the escape and the multi-window stream
        assert sorted(walked) == [900, 20_000]
        assert passes == [len(blobs) - 3]  # all but those and the empty one
        assert passes == [sum(one_pass(enc, blob) for blob in blobs)]

    def test_the_first_bad_blob_speaks_for_the_stack(self):
        # the later blob's header fails a pass the stack makes over every
        # header first: decoded alone, in order, the first bad one's own
        # error comes first
        enc = HuffmanEncoder()
        rng = np.random.default_rng(0)
        blob = enc.encode(rng.integers(-5, 6, 700))
        stack = [blob, blob[:-20], blob[:3]]
        assert_same_verdict(
            {
                "decode": lambda: enc.decode(stack[1]),
                "decode_stack": lambda: enc.decode_stack(stack)[1],
            },
            messages=("decode", "decode_stack"),
            match="payload truncated",
        )

    def test_a_stack_is_walked_in_bounded_groups(self, monkeypatch):
        monkeypatch.setattr(huffman_module, "_STACK_WALK_SIZE", 1 << 12)
        enc = HuffmanEncoder()
        blobs = [blob for blob, _ in intact_blobs()]
        blobs[9:9] = [self.mixed()[5]] * 2  # sync tables: a seed per mark
        passes = []
        real_group = enc._walk_group

        def group(streams):
            passes.append(len(streams))
            return real_group(streams)

        monkeypatch.setattr(enc, "_walk_group", group)
        assert_stack_as_alone(enc.decode_stack, blobs, enc.decode)
        # the stack's groups, then each blob's own pass
        stacked, alone = passes[: -len(blobs)], passes[-len(blobs) :]
        assert len(stacked) > 1 and sum(stacked) == len(blobs) == len(alone)
        assert all(one_pass(enc, blob) for blob in blobs)

    @pytest.mark.parametrize("seed", range(120))
    def test_a_damaged_blob_among_intact_ones(self, seed):
        """One damaged blob of ``test_corrupt_small_blobs_agree_with_
        scalar_verdict``'s seed in a stack of 35 intact streams: its
        own array or error and message on every route, and every intact
        stream's own symbols."""
        enc = HuffmanEncoder()
        rng = np.random.default_rng(seed)
        damaged = damaged_blobs(seed)[int(rng.integers(0, 12))]
        at = int(rng.integers(0, len(intact_blobs()) + 1))
        assert_same_verdict(
            huffman_routes(enc, damaged, intact_blobs(), at),
            messages=DECODE_MESSAGES,
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
        for sym_table, len_table, _ in cache._entries.values():
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

    def test_wide_alphabets_get_wider_entries(self, long_code_walks):
        # sized by the largest dense index, n_symbols - 1: the boundaries
        # of each entry type, on both sides.  No 16-bit code holds 65 537
        # symbols: that alphabet's code still escapes the primary table
        enc = HuffmanEncoder()
        for n_symbols, dtype in (
            (200, np.uint8),
            (256, np.uint8),
            (257, np.uint16),
            (300, np.uint16),
            (65536, np.uint16),
            (65537, np.uint32),
        ):
            stream = np.arange(n_symbols).repeat(2)
            code = HuffmanEncoder().plan(stream).code
            assert enc._primary_tables(code)[0].dtype == dtype
            np.testing.assert_array_equal(
                enc.decode(enc.encode(stream)), stream
            )
        assert long_code_walks


def draw_table_code(seed: int) -> HuffmanCode:
    """A code for the table builders: the optimal code of a seeded
    histogram, a wide near-uniform alphabet, a staircase past 16 bits,
    or lengths only a corrupt header holds (over- or undersubscribed)
    that still get canonical codewords."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:
        lengths = huffman_code_lengths(draw_histogram(seed))
    elif kind == 1:
        counts = rng.integers(1, 4, int(rng.integers(1000, 4000)))
        lengths = huffman_code_lengths(counts)
    elif kind == 2:
        return staircase_code(rng, int(rng.integers(17, 59)))
    else:
        lengths = rng.integers(0, 20, int(rng.integers(1, 40)))
    symbols = np.arange(lengths.size, dtype=np.int64) * 3 - 7
    return HuffmanCode(symbols, lengths, _canonical_codes(lengths))


class TestDecodeTables:
    """The table builders against the per-symbol loops they replaced."""

    @pytest.mark.parametrize("seed", range(200))
    def test_tables_equal_the_per_symbol_loop(self, seed, monkeypatch):
        cache = huffman_module._DecodeTableLRU()  # built here, not recalled
        monkeypatch.setattr(huffman_module, "_DECODE_TABLE_CACHE", cache)
        code = draw_table_code(seed)
        enc = HuffmanEncoder()
        sym_table, len_table, complete = enc._primary_tables(code)
        expected_sym, expected_len = reference_primary_tables(code)
        assert complete == expected_len.all()
        assert sym_table.dtype == np.min_scalar_type(code.lengths.size - 1)
        # 2 ** longest entries, capped at the 16-bit window
        bits = min(max(int(code.lengths.max()), 1), 16)
        assert sym_table.size == len_table.size == 1 << bits
        np.testing.assert_array_equal(expanded(sym_table), expected_sym)
        np.testing.assert_array_equal(expanded(len_table), expected_len)
        assert enc._long_code_index(code) == reference_long_code_index(code)

    def test_oversubscribed_lengths_build_in_bounded_memory(
        self, monkeypatch
    ):
        # a corrupt header can claim any number of 1-bit codes: the fill
        # stops at the end of the prefix space instead of repeating them
        # all (here 600 x 32768 entries, 39 MB)
        cache = huffman_module._DecodeTableLRU()
        monkeypatch.setattr(huffman_module, "_DECODE_TABLE_CACHE", cache)
        lengths = np.ones(600, dtype=np.int64)
        code = HuffmanCode(
            np.arange(600), lengths, _canonical_codes(lengths)
        )
        tracemalloc.start()
        try:
            tables = HuffmanEncoder()._primary_tables(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for table, expected in zip(tables, reference_primary_tables(code)):
            np.testing.assert_array_equal(expanded(table), expected)
        assert peak < 1 << 20

    @pytest.mark.parametrize("longest", range(17, 58))
    def test_long_code_index_equals_the_alphabet_loop(self, longest):
        # a staircase whose two longest codes are *longest* bits
        code = staircase_code(np.random.default_rng(longest), longest + 1)
        index = HuffmanEncoder()._long_code_index(code)
        assert index == reference_long_code_index(code)
        assert max(ln for ln, _ in index) == longest
        assert len(index) == int(np.sum(code.lengths > 16))
