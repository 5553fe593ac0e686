"""Unit tests for the bit-level I/O layer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
