"""Unit tests for the bit-level I/O layer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compressor import bitstream
from repro.compressor.bitstream import (
    BitReader,
    BitWriter,
    bits_to_bytes,
    build_bit_window,
    gamma_bit_lengths,
    gather_window16,
    pack_codes,
    slice_window16,
)


def _reference_pack_codes(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[bytes, int]:
    """The kernel ``pack_codes`` had before word assembly: one ``uint8``
    per output bit, scattered per code-length group.  Slow, obviously
    right, and the oracle every test below compares against."""
    codes = np.asarray(codes, dtype=np.uint64).ravel()
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if codes.size == 0:
        return b"", 0
    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])
    starts = ends - lengths
    flat = np.zeros(total_bits, dtype=np.uint8)
    present = np.flatnonzero(np.bincount(lengths, minlength=58))
    for ln in present:
        ln = int(ln)
        if ln == 0:
            continue
        idx = np.flatnonzero(lengths == ln)
        shifts = np.arange(ln - 1, -1, -1, dtype=np.uint64)
        offsets = np.arange(ln, dtype=np.int64)
        # Chunk the scatter to bound peak index memory to ~32 MB.
        chunk = max(1, (1 << 22) // ln)
        for lo in range(0, idx.size, chunk):
            sel = idx[lo : lo + chunk]
            bits = (codes[sel, None] >> shifts[None, :]) & np.uint64(1)
            pos = starts[sel, None] + offsets[None, :]
            flat[pos.ravel()] = bits.ravel().astype(np.uint8)
    return bits_to_bytes(flat), total_bits


def _random_codes(rng, lengths: np.ndarray) -> np.ndarray:
    """A uniformly random codeword of ``lengths[i]`` bits per entry."""
    lengths = np.asarray(lengths).astype(np.uint64)
    raw = rng.integers(0, 2**64, size=lengths.shape, dtype=np.uint64)
    # two shifts: a zero-length entry would otherwise shift by 64
    return (raw >> np.uint64(1)) >> (np.uint64(63) - lengths)


def _assert_matches_reference(codes, lengths, context=""):
    payload, total_bits = pack_codes(codes, lengths)
    expected, expected_bits = _reference_pack_codes(codes, lengths)
    assert total_bits == expected_bits, context
    assert payload == expected, context


class TestPackCodes:
    def test_single_code(self):
        payload, nbits = pack_codes(np.array([0b101]), np.array([3]))
        assert nbits == 3
        assert payload[0] >> 5 == 0b101

    def test_empty(self):
        payload, nbits = pack_codes(np.array([], dtype=np.uint64), np.array([]))
        assert payload == b""
        assert nbits == 0

    def test_concatenation_order(self):
        # 1-bit '1' then 2-bit '01' -> bits 101 -> byte 1010_0000
        payload, nbits = pack_codes(np.array([1, 1]), np.array([1, 2]))
        assert nbits == 3
        assert payload[0] == 0b10100000

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1]), np.array([1, 2]))

    def test_overlong_code_raises(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1]), np.array([60]))

    def test_longest_code_is_accepted(self):
        payload, nbits = pack_codes(np.array([2**57 - 1]), np.array([57]))
        assert nbits == 57
        assert payload == b"\xff" * 7 + b"\x80"
        with pytest.raises(ValueError, match="exceeds 57 bits"):
            pack_codes(np.array([1]), np.array([58]))

    def test_negative_length_raises_its_own_error(self):
        with pytest.raises(ValueError, match="codeword length -1"):
            pack_codes(np.array([1, 1]), np.array([3, -1]))

    def test_inputs_are_ravelled_after_the_shape_check(self):
        codes = np.array([[1, 2], [3, 0]])
        lengths = np.array([[1, 2], [2, 3]])
        assert pack_codes(codes, lengths) == pack_codes(
            codes.ravel(), lengths.ravel()
        )
        assert pack_codes(codes, lengths) == (b"\xd8", 8)
        with pytest.raises(ValueError, match="same shape"):
            pack_codes(codes, lengths.ravel())

    def test_code_wider_than_its_length_is_rejected(self):
        # the per-bit kernel truncated 0b111 to b"\xc0"; word assembly
        # would smear the extra bit into the previous codeword
        with pytest.raises(ValueError, match="do not fit"):
            pack_codes(np.array([0b111]), np.array([2]))
        with pytest.raises(ValueError, match="do not fit"):
            pack_codes(np.array([0, 0, 4, 0]), np.array([3, 3, 2, 3]))
        with pytest.raises(ValueError, match="do not fit"):
            pack_codes(np.array([-1]), np.array([57]))

    def test_zero_length_entries_are_skipped(self):
        assert pack_codes(np.array([0, 5, 0, 1, 0]), [0, 3, 0, 1, 0]) == (
            b"\xb0",
            4,
        )
        assert pack_codes(np.zeros(5, np.uint64), np.zeros(5, int)) == (
            b"",
            0,
        )
        for lengths in ([0, 0], [4, 0]):  # a zero-length code must be 0
            with pytest.raises(ValueError, match="do not fit"):
                pack_codes(np.array([0, 1]), np.array(lengths))

    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.integers(0, 2**20 - 1)),
            min_size=1,
            max_size=64,
        )
    )
    def test_total_bits_matches(self, items):
        lengths = np.array([ln for ln, _ in items])
        codes = np.array(
            [v & ((1 << ln) - 1) for ln, v in items], dtype=np.uint64
        )
        payload, nbits = pack_codes(codes, lengths)
        assert nbits == lengths.sum()
        assert len(payload) == (nbits + 7) // 8


def _draw_stream(seed: int):
    """Expand *seed* into one ``pack_codes`` input and its description."""
    rng = np.random.default_rng(seed)
    max_len = int(
        rng.choice([1, 2, 7, 8, 14, 15, 17, 28, 29, 40, 56, 57])
    )
    min_len = int(rng.integers(0, max_len + 1)) if rng.random() < 0.5 else 1
    n = int(rng.choice([1, 2, 3, 5, 63, 64, 65, 257, 1000, 4097]))
    lengths = rng.integers(min_len, max_len + 1, size=n)
    if rng.random() < 0.3:  # zero-length entries interleaved
        lengths[rng.random(n) < 0.4] = 0
    if rng.random() < 0.3:  # one long code among short ones: no fold
        lengths[int(rng.integers(n))] = max_len
    case = f"seed={seed} n={n} lengths in [{min_len}, {max_len}]"
    return _random_codes(rng, lengths), lengths, case


class TestWordAssemblyMatchesThePerBitKernel:
    """``pack_codes`` against the kernel it replaced, byte for byte.

    Seeded and deterministic: a failure names its seed, and
    ``_draw_stream(seed)`` rebuilds the input.
    """

    @pytest.mark.parametrize("seed", range(96))
    def test_seeded_streams(self, seed):
        codes, lengths, case = _draw_stream(seed)
        _assert_matches_reference(codes, lengths, case)

    @pytest.mark.parametrize("length", range(1, 58))
    @pytest.mark.parametrize("folded", (False, True))
    def test_every_length_at_every_offset(self, length, folded):
        """A codeword of each length starting at each offset mod 64:
        ending short of, on and past the word boundary, 57 bits at
        offset 63 among them."""
        rng = np.random.default_rng(length)
        # unfolded: a leading 57-bit code keeps the fold away, so the
        # position pass sees these offsets as they are; folded: no
        # filler is longer than the probe, so its length sets the folds
        lengths = [] if folded else [57]
        filler = length if folded else 57
        position, probes = sum(lengths), []
        for offset in range(64):
            gap = (offset - position) % 64
            lengths += [filler] * (gap // filler) + [gap % filler]
            probes.append(len(lengths))
            lengths.append(length)
            position += gap + length
        lengths = np.array(lengths)
        starts = np.cumsum(lengths) - lengths
        assert sorted(starts[probes] % 64) == list(range(64))
        codes = _random_codes(rng, lengths)
        codes[probes] |= np.uint64(1) | np.uint64(1 << (length - 1))
        _assert_matches_reference(codes, lengths, f"length {length}")

    @pytest.mark.parametrize("max_len", (1, 3, 4, 7, 8, 14, 15, 28, 29, 57))
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 1001))
    def test_both_sides_of_each_fold_threshold(self, max_len, n):
        """Odd counts carry their last codeword through every fold; one
        bit more than a threshold folds one time fewer."""
        rng = np.random.default_rng(1000 * max_len + n)
        lengths = rng.integers(1, max_len + 1, size=n)
        lengths[int(rng.integers(n))] = max_len
        _assert_matches_reference(
            _random_codes(rng, lengths), lengths, f"{max_len} bits x {n}"
        )
        lengths[:] = max_len  # a single-length stream
        codes = _random_codes(rng, lengths)
        _assert_matches_reference(codes, lengths, f"all {max_len} x {n}")
        codes[:] = (1 << max_len) - 1
        _assert_matches_reference(codes, lengths, f"ones {max_len} x {n}")

    def test_folds_follow_the_longest_codeword(self, monkeypatch):
        folds = []
        real = bitstream._fold_pairs
        monkeypatch.setattr(
            bitstream,
            "_fold_pairs",
            lambda c, ln: folds.append(c.size) or real(c, ln),
        )
        for max_len, expected in ((29, 0), (28, 1), (15, 1), (14, 2), (7, 3)):
            folds.clear()
            lengths = np.full(37, max_len)
            pack_codes(np.zeros(37, np.uint64), lengths)
            assert folds == [37, 19, 10][:expected], max_len

    @pytest.mark.parametrize("max_len", (1, 17, 57))
    def test_block_boundaries(self, max_len):
        """One symbol short of a block, a full block, one symbol into the
        next, and two blocks and a symbol."""
        block = bitstream._PACK_BLOCK
        rng = np.random.default_rng(max_len)
        lengths = rng.integers(1, max_len + 1, size=2 * block + 1)
        codes = _random_codes(rng, lengths)
        for n in (block - 1, block, block + 1, 2 * block + 1):
            _assert_matches_reference(codes[:n], lengths[:n], f"n={n}")

    @pytest.mark.parametrize("block", (1, 2, 3, 8, 13))
    @pytest.mark.parametrize("max_len", (5, 28, 29, 57))
    def test_codewords_straddle_the_word_two_blocks_share(
        self, block, max_len, monkeypatch
    ):
        """Tiny blocks put a boundary after every few symbols, at every
        bit offset: unfolded streams must straddle some of them."""
        monkeypatch.setattr(bitstream, "_PACK_BLOCK", block)
        rng = np.random.default_rng(100 * block + max_len)
        straddles = 0
        for n in (block - 1, block, block + 1, 2 * block + 1, 40 * block + 3):
            lengths = rng.integers(max(1, max_len - 9), max_len + 1, size=n)
            if n > 5:
                lengths[rng.integers(0, n, size=n // 5)] = 0
            _assert_matches_reference(
                _random_codes(rng, lengths), lengths, f"n={n}"
            )
            ends = np.cumsum(lengths)
            last = ends[block - 1 :: block]  # end of each block's last code
            width = lengths[block - 1 :: block]
            crosses = (last - 1) // 64 != (last - width) // 64
            straddles += int(np.sum(crosses & (width > 0)))
        if max_len > 28:
            assert straddles

    def test_blocks_of_nothing_but_zero_lengths(self, monkeypatch):
        monkeypatch.setattr(bitstream, "_PACK_BLOCK", 4)
        lengths = np.array([0] * 4 + [3, 0, 0, 9] + [0] * 8 + [57, 1])
        codes = _random_codes(np.random.default_rng(0), lengths)
        _assert_matches_reference(codes, lengths)

    def test_peak_memory_stays_below_the_per_bit_kernel(self):
        """By count, no timer: blocks keep the temporaries O(block), so
        the peak is the words and the output bytes — well below the
        per-bit kernel's (~50 bytes per symbol), where an unblocked
        word assembly sits above it (~75)."""
        rng = np.random.default_rng(21)
        lengths = rng.integers(1, 18, size=1 << 21)
        codes = _random_codes(rng, lengths)

        def traced(kernel):
            tracemalloc.start()
            try:
                packed = kernel(codes, lengths)
                return packed, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        packed, peak = traced(pack_codes)
        expected, reference_peak = traced(_reference_pack_codes)
        assert packed == expected
        assert peak <= reference_peak


class TestBitWriterReader:
    def test_roundtrip_scalar_fields(self):
        w = BitWriter()
        w.write(5, 4)
        w.write(1023, 10)
        w.write(0, 1)
        r = BitReader(w.getvalue(), nbits=w.nbits)
        assert r.read(4) == 5
        assert r.read(10) == 1023
        assert r.read(1) == 0

    def test_roundtrip_array(self):
        w = BitWriter()
        values = np.arange(17, dtype=np.uint64)
        w.write_array(values, 5)
        r = BitReader(w.getvalue())
        out = r.read_array(17, 5)
        np.testing.assert_array_equal(out, values)

    def test_write_value_too_large_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write(8, 3)
        # the full-width field checks its value like every other width
        writer = BitWriter()
        writer.write(2**64 - 1, 64)
        assert writer.getvalue() == b"\xff" * 8
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            writer.write(2**64, 64)

    def test_write_negative_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_read_past_end_raises(self):
        r = BitReader(b"\x00")
        with pytest.raises(EOFError):
            r.read(9)

    def test_read_array_past_end_raises(self):
        r = BitReader(b"\x00")
        with pytest.raises(EOFError):
            r.read_array(3, 4)

    def test_nbits_truncation(self):
        r = BitReader(b"\xff\xff", nbits=5)
        assert r.nbits == 5

    def test_nbits_exceeding_payload_raises(self):
        with pytest.raises(ValueError):
            BitReader(b"\xff", nbits=9)

    @given(st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=50))
    def test_array_roundtrip_random(self, values):
        w = BitWriter()
        w.write_array(np.array(values, dtype=np.uint64), 16)
        r = BitReader(w.getvalue())
        np.testing.assert_array_equal(
            r.read_array(len(values), 16), values
        )


class TestWholeFieldsMatchBitLoops:
    """Fields are packed whole; the per-bit loops they replaced are the
    oracle."""

    @pytest.mark.parametrize("seed", range(24))
    def test_write_and_read_equal_the_per_bit_loops(self, seed):
        rng = np.random.default_rng(seed)
        fields = []
        for _ in range(int(rng.integers(1, 12))):
            nbits = int(rng.choice([0, 1, 7, 8, 9, 32, 63, 64]))
            fields.append(
                (int.from_bytes(rng.bytes(8), "big") >> (64 - nbits), nbits)
            )
        writer = BitWriter()
        bits = []
        for value, nbits in fields:
            writer.write(value, nbits)
            bits += [(value >> (nbits - 1 - i)) & 1 for i in range(nbits)]
        assert writer.nbits == len(bits)
        assert writer.getvalue() == bits_to_bytes(np.array(bits, np.uint8))
        reader = BitReader(writer.getvalue(), nbits=writer.nbits)
        assert [reader.read(nbits) for _, nbits in fields] == [
            value for value, _ in fields
        ]
        assert reader.pos == len(bits)

    @pytest.mark.parametrize("seed", range(24))
    def test_gamma_array_equals_one_write_gamma_per_value(self, seed):
        rng = np.random.default_rng(seed)
        values = [
            int(rng.choice([1, 1, 2, 3, 1 << int(rng.integers(0, 63))]))
            + int(rng.integers(0, 2))
            for _ in range(int(rng.integers(1, 60)))
        ]
        one_by_one, whole = BitWriter(), BitWriter()
        one_by_one.write(5, 3)
        whole.write(5, 3)
        for value in values:
            one_by_one.write_gamma(value)
        whole.write_gamma_array(np.array(values, dtype=np.int64))
        assert whole.nbits == one_by_one.nbits
        assert whole.getvalue() == one_by_one.getvalue()
        assert gamma_bit_lengths(np.array(values)).tolist() == [
            2 * value.bit_length() - 1 for value in values
        ]
        reader = BitReader(whole.getvalue(), nbits=whole.nbits)
        assert reader.read(3) == 5
        assert reader.read_gamma_array(len(values)).tolist() == values

    def test_gamma_array_widest_value_and_empty(self):
        writer = BitWriter()
        writer.write_gamma_array(np.zeros(0, dtype=np.int64))
        assert writer.nbits == 0
        writer.write_gamma_array(np.array([2**64 - 1], dtype=np.uint64))
        assert writer.nbits == 127

    def test_gamma_array_rejects_values_below_one(self):
        with pytest.raises(ValueError):
            BitWriter().write_gamma_array(np.array([3, 0, 2]))
        with pytest.raises(ValueError):
            gamma_bit_lengths(np.array([-4]))


class TestWindow16:
    def test_window_values(self):
        # bits: 1010 1010 (one byte)
        r = BitReader(b"\xaa")
        window = r.window16()
        # window[0] packs bits 0..15: 1010101000000000
        assert window[0] == 0b1010101000000000
        assert window[1] == 0b0101010000000000

    def test_window_length(self):
        r = BitReader(b"\x00\x00")
        assert r.window16().size == 17  # nbits + 1


class TestRandomAccessWindow:
    def test_gather_reads_sixteen_bits_at_any_offset(self):
        payload = bytes([0b10110010, 0b01011100, 0b11100001, 0b00000110])
        bits = "".join(f"{byte:08b}" for byte in payload) + "0" * 16
        window = build_bit_window(payload)
        positions = np.arange(8 * len(payload) + 1)
        assert gather_window16(window, positions).tolist() == [
            int(bits[p : p + 16], 2) for p in positions
        ]

    def test_a_slice_equals_the_gather_over_the_same_range(self):
        """Every alignment of both ends mod 8, the zero padding at and
        past the last payload bit, and the empty range."""
        payload = np.random.default_rng(4).bytes(5)
        window = build_bit_window(payload)
        end = 8 * len(payload) + 1  # the end position is readable
        for lo in range(end):
            for hi in range(lo, end + 1):
                got = slice_window16(window, lo, hi)
                expected = gather_window16(window, np.arange(lo, hi))
                assert got.dtype == expected.dtype
                assert got.tolist() == expected.tolist()
        assert slice_window16(window, 7, 3).size == 0
        assert slice_window16(build_bit_window(b""), 0, 1).tolist() == [0]


class TestBitsToBytes:
    def test_padding(self):
        out = bits_to_bytes(np.array([1, 1, 1], dtype=np.uint8))
        assert out == b"\xe0"
