"""Tests for the Elias-gamma fields of the bitstream layer.

Fields are written and read whole (``write_gamma_array`` /
``read_gamma_array``); the one-value-at-a-time codec they replaced is
the oracle (``tests/compressor/test_bitstream.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor.bitstream import BitReader, BitWriter
from tests.compressor.test_bitstream import (
    _reference_read_gamma,
    _reference_write_gamma,
)


def _write(values) -> BitWriter:
    w = BitWriter()
    w.write_gamma_array(np.array(values, dtype=np.int64))
    return w


def _read_both(w: BitWriter, count: int) -> list:
    """The whole-field read, checked against the one-value loop."""
    values = BitReader(w.getvalue(), nbits=w.nbits).read_gamma_array(count)
    r = BitReader(w.getvalue(), nbits=w.nbits)
    assert [_reference_read_gamma(r) for _ in range(count)] == values.tolist()
    return values.tolist()


class TestEliasGamma:
    def test_one_is_single_bit(self):
        w = _write([1])
        assert w.nbits == 1
        assert _read_both(w, 1) == [1]

    def test_known_codes(self):
        # gamma(2) = 010, gamma(3) = 011, gamma(4) = 00100
        for value, bits in ((2, 3), (3, 3), (4, 5), (7, 5), (8, 7)):
            w = _write([value])
            assert w.nbits == bits, value
            reference = BitWriter()
            _reference_write_gamma(reference, value)
            assert w.getvalue() == reference.getvalue()
            assert _read_both(w, 1) == [value]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_gamma_array(np.array([0]))
        with pytest.raises(ValueError):
            _reference_write_gamma(BitWriter(), 0)

    def test_sequence_roundtrip(self):
        values = [1, 1, 5, 2, 100, 1, 65536, 3]
        assert _read_both(_write(values), len(values)) == values

    def test_truncated_stream_raises(self):
        w = _write([4])  # 5 bits
        with pytest.raises(EOFError):
            BitReader(w.getvalue(), nbits=3).read_gamma_array(1)
        with pytest.raises(EOFError):
            _reference_read_gamma(BitReader(w.getvalue(), nbits=3))

    @given(st.lists(st.integers(1, 2**30), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_roundtrip_property(self, values):
        assert _read_both(_write(values), len(values)) == values

    def test_interleaved_with_fixed_fields(self):
        w = BitWriter()
        w.write(5, 4)
        w.write_gamma_array(np.array([9]))
        w.write(2, 3)
        r = BitReader(w.getvalue(), nbits=w.nbits)
        assert r.read(4) == 5
        assert r.read_gamma_array(1).tolist() == [9]
        assert r.read(3) == 2
        r = BitReader(w.getvalue(), nbits=w.nbits)
        assert r.read(4) == 5
        assert _reference_read_gamma(r) == 9
        assert r.read(3) == 2
