"""Regression tests for the fixed crash/overflow bugs.

Each test encodes the failing-before behaviour: constant fields under
REL mode, empty inputs, the ``np.exp`` overflow in the bitrate
inversion, and raw ``IndexError`` escapes from truncated or corrupted
Huffman payloads.
"""

import warnings

import numpy as np
import pytest

from repro.compressor import CompressionConfig, ErrorBoundMode
from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.core.encoder_model import HuffmanAnchorModel
from tests.conftest import roundtrip
from tests.oracle import serialize, with_codes


def test_rel_mode_constant_field_roundtrips():
    """`ValueError: error_bound must be positive` on constant REL input."""
    data = np.full(1000, 6.5)
    cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-3)
    _, recon = roundtrip(data, cfg)
    np.testing.assert_array_equal(recon, data)


def test_empty_array_roundtrips():
    """`ValueError: cannot compress an empty array` on size-0 input."""
    data = np.zeros((0, 3), dtype=np.float32)
    result, recon = roundtrip(data, CompressionConfig())
    assert recon.shape == (0, 3)
    assert recon.dtype == np.float32
    assert result.compressed_bytes > 0


def test_bitrate_inversion_does_not_overflow_exp():
    """`RuntimeWarning: overflow encountered in exp` in the PCHIP
    extrapolation region of ``error_bound_for_bitrate`` (the inverse
    bitrate interpolation); the interpolant is now clamped and the
    result stays finite."""
    rng = np.random.default_rng(0)
    errors = np.exp(
        rng.uniform(np.log(1e-140), np.log(1e140), 4000)
    ) * rng.choice([-1, 1], 4000)
    model = HuffmanAnchorModel(errors)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for target in (1.2, 1.5, 2.0, 5.0):
            eb = model.error_bound_for_bitrate(target)
            assert np.isfinite(eb)


class TestHuffmanTruncationErrors:
    """Truncated/corrupted payloads raised raw IndexError from the
    decode window; they must surface as clean ValueError instead."""

    def _overrun_blob(self, encoder, sync: bool) -> bytes:
        # A stream whose tail bits, when corrupted, make the decoder
        # walk past the end of the payload.
        rng = np.random.default_rng(5)
        n = 20000 if sync else 2000
        stream = rng.integers(-1000, 1000, size=n)
        return encoder.encode(stream)

    @pytest.mark.parametrize("sync", [False, True])
    def test_corrupted_tail_never_indexerror(self, sync):
        encoder = HuffmanEncoder()
        if not sync:
            # force the legacy scalar path via a sync-free serialization
            rng = np.random.default_rng(5)
            stream = rng.integers(-1000, 1000, size=2000)
            code = with_codes(HuffmanEncoder().plan(stream).code)
            dense = np.searchsorted(code.symbols, stream)
            from repro.compressor.bitstream import pack_codes

            payload, total = pack_codes(
                code.codes[dense], code.lengths[dense]
            )
            blob = serialize(encoder, code, stream.size, payload, total)
        else:
            blob = self._overrun_blob(encoder, sync=True)
        for pos in range(len(blob) - 32, len(blob)):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0xFF
            try:
                encoder.decode(bytes(corrupted))
            except ValueError:
                pass  # the only acceptable failure mode

    def test_truncation_at_every_offset_never_indexerror(self):
        # sparse alphabet: large Elias-gamma deltas whose value bits sit
        # at the end of the header — truncating inside them must not
        # escape as IndexError from the vectorized gamma decode
        rng = np.random.default_rng(9)
        stream = np.concatenate(
            [
                rng.integers(0, 50, 280),
                rng.choice([10**9, 10**12, 10**15], 20),
            ]
        )
        blob = HuffmanEncoder().encode(stream)
        for cut in range(4, len(blob)):
            try:
                HuffmanEncoder().decode(blob[:cut])
            except ValueError:
                pass  # the only acceptable failure mode

    @pytest.mark.parametrize("cut", [1, 7, 64])
    def test_truncated_payload_clean_error(self, cut):
        encoder = HuffmanEncoder()
        rng = np.random.default_rng(6)
        blob = encoder.encode(rng.integers(0, 500, size=30000))
        with pytest.raises(ValueError):
            encoder.decode(blob[: len(blob) - cut])

    def test_overstated_n_data_rejected(self):
        # header claims more symbols than the payload can hold
        encoder = HuffmanEncoder()
        stream = np.arange(128)
        code = with_codes(HuffmanEncoder().plan(stream).code)
        dense = np.searchsorted(code.symbols, stream)
        from repro.compressor.bitstream import pack_codes

        payload, total = pack_codes(code.codes[dense], code.lengths[dense])
        blob = serialize(encoder, code, 10**9, payload, total)
        with pytest.raises(ValueError):
            encoder.decode(blob)
