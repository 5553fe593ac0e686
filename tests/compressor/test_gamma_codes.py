"""Tests for the Elias-gamma fields of the bitstream layer.

Fields are written and read whole (``pack_values`` with gamma widths,
through ``test_bitstream.gamma_field`` / ``read_gamma``);
the one-value-at-a-time codec they replaced is the oracle
(``tests/compressor/test_bitstream.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor.bitstream import (
    bits_to_bytes,
    bits_word,
    pack_fields,
    read_field,
    read_gamma,
)
from tests.compressor.test_bitstream import (
    _bit_list,
    gamma_field,
    _reference_gamma_bits,
    _reference_read_gamma,
)


def _write(values) -> tuple[bytes, int]:
    """The gamma run of *values* as header bytes, and its width."""
    field = gamma_field(np.array(values, dtype=np.int64))
    return pack_fields([field]), field[1]


def _read_both(written: tuple[bytes, int], count: int) -> list:
    """The whole-field read, checked against the one-value loop."""
    data, nbits = written
    values, used = read_gamma(*bits_word(data, nbits), 0, count)
    bits, pos, expected = _bit_list(data, nbits), 0, []
    for _ in range(count):
        value, pos = _reference_read_gamma(bits, pos)
        expected.append(value)
    assert expected == values.tolist() and used == pos
    return values.tolist()


class TestEliasGamma:
    def test_one_is_single_bit(self):
        w = _write([1])
        assert w[1] == 1
        assert _read_both(w, 1) == [1]

    def test_known_codes(self):
        # gamma(2) = 010, gamma(3) = 011, gamma(4) = 00100
        for value, bits in ((2, 3), (3, 3), (4, 5), (7, 5), (8, 7)):
            w = _write([value])
            assert w[1] == bits, value
            reference = _reference_gamma_bits(value)
            assert w[0] == bits_to_bytes(np.array(reference, np.uint8))
            assert _read_both(w, 1) == [value]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_field(np.array([0]))
        with pytest.raises(ValueError):
            _reference_gamma_bits(0)

    def test_sequence_roundtrip(self):
        values = [1, 1, 5, 2, 100, 1, 65536, 3]
        assert _read_both(_write(values), len(values)) == values

    @pytest.mark.parametrize("count", (1, 2, 7, 8, 9, 64, 65, 1000))
    def test_runs_of_unit_values(self, count):
        # all ones: the one-comparison read, and runs around a wider value
        assert _read_both(_write([1] * count), count) == [1] * count
        values = [1] * count + [6] + [1] * count
        assert _read_both(_write(values), len(values)) == values

    def test_truncated_stream_raises(self):
        data, _ = _write([4])  # 5 bits
        with pytest.raises(EOFError):
            read_gamma(*bits_word(data, 3), 0, 1)
        with pytest.raises(EOFError):
            _reference_read_gamma(_bit_list(data, 3), 0)
        # a run of ones one value short of the count
        data, nbits = _write([1, 1, 1])
        with pytest.raises(EOFError):
            read_gamma(*bits_word(data, nbits), 0, 4)
        # a count no word can hold (a damaged header's) is refused
        # before its output is allocated: 2 ** 40 values are 8 TiB
        with pytest.raises(EOFError):
            read_gamma(*bits_word(data, nbits), 0, 1 << 40)

    @given(st.lists(st.integers(1, 2**30), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_roundtrip_property(self, values):
        assert _read_both(_write(values), len(values)) == values

    def test_interleaved_with_fixed_fields(self):
        field = gamma_field(np.array([9]))
        data = pack_fields([(5, 4), field, (2, 3)])
        word, nbits = bits_word(data, 4 + field[1] + 3)
        assert read_field(word, nbits, 0, 4) == 5
        values, used = read_gamma(word, nbits, 4, 1)
        assert values.tolist() == [9]
        assert read_field(word, nbits, 4 + used, 3) == 2
        bits = _bit_list(data, nbits)
        assert _reference_read_gamma(bits, 4) == (9, 4 + used)
