"""Tests for the Huffman/RLE encoder models (Eqs. 1-8)."""

import numpy as np
import pytest

from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.core.encoder_model import (
    HuffmanAnchorModel,
    combined_bitrate,
    error_bound_for_bitrate_eq2,
    huffman_bitrate,
    p0_for_rle_ratio,
    rle_ratio,
)
from repro.core.histogram import build_code_histogram
from tests.oracle import payload_bits


def gaussian_errors(n=50_000, seed=0, sigma=1.0):
    return np.random.default_rng(seed).normal(0, sigma, n)


class TestEq1:
    def test_matches_real_huffman_within_one_bit(self):
        errors = gaussian_errors()
        for eb in (0.01, 0.1, 0.5):
            hist = build_code_histogram(errors, eb, correction=False)
            est = huffman_bitrate(hist)
            codes = np.rint(errors / (2 * eb)).astype(np.int64)
            real = payload_bits(HuffmanEncoder(), codes) / codes.size
            assert est == pytest.approx(real, abs=0.25)

    def test_one_bit_floor(self):
        errors = np.zeros(100)
        errors[0] = 10.0
        hist = build_code_histogram(errors, 1.0, correction=False)
        est = huffman_bitrate(hist)
        assert est >= 1.0 * hist.probs.max()  # zero code clamped to 1 bit

    def test_uniform_histogram_equals_entropy(self):
        rng = np.random.default_rng(1)
        errors = rng.uniform(-8, 8, 100_000)
        hist = build_code_histogram(errors, 0.5, correction=False)
        assert huffman_bitrate(hist) == pytest.approx(
            hist.entropy_bits(), rel=0.01
        )


class TestEq2:
    def test_halving_law(self):
        assert error_bound_for_bitrate_eq2(1e-3, 6.0, 5.0) == pytest.approx(
            2e-3
        )
        assert error_bound_for_bitrate_eq2(1e-3, 6.0, 8.0) == pytest.approx(
            0.25e-3
        )

    def test_identity(self):
        assert error_bound_for_bitrate_eq2(0.5, 4.0, 4.0) == 0.5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            error_bound_for_bitrate_eq2(0.0, 4.0, 3.0)
        with pytest.raises(ValueError):
            error_bound_for_bitrate_eq2(1.0, 4.0, 0.0)

    def test_law_holds_empirically_in_validity_region(self):
        # Doubling eb drops the estimated bit-rate by ~1 in the p0 < 0.5
        # regime (Eq. 3).
        errors = gaussian_errors(sigma=1.0)
        eb = 0.02
        b1 = huffman_bitrate(build_code_histogram(errors, eb, correction=False))
        b2 = huffman_bitrate(
            build_code_histogram(errors, 2 * eb, correction=False)
        )
        assert b1 - b2 == pytest.approx(1.0, abs=0.1)


class TestRleModel:
    def test_ratio_one_when_no_zeros(self):
        assert rle_ratio(0.0, 0.0) == 1.0

    def test_ratio_grows_with_p0(self):
        c1 = 32.0
        lo = rle_ratio(0.97, 0.9, c1)
        hi = rle_ratio(0.999, 0.99, c1)
        assert hi > lo >= 1.0

    def test_clamped_at_one(self):
        # moderate p0: runs shorter than the token cost -> no gain
        assert rle_ratio(0.5, 0.3, 32.0) == 1.0

    def test_invalid_p0(self):
        with pytest.raises(ValueError):
            rle_ratio(1.5, 0.5)

    def test_inverse_consistency(self):
        c1 = 32.0
        for target in (2.0, 5.0, 20.0):
            p0 = p0_for_rle_ratio(target, c1)
            # plugging back with P0 ~= p0 recovers the target
            achieved = 1.0 / (c1 * (1 - p0) * p0 + (1 - p0))
            assert achieved == pytest.approx(target, rel=0.02)

    def test_inverse_monotone(self):
        p_small = p0_for_rle_ratio(2.0)
        p_big = p0_for_rle_ratio(50.0)
        assert p_big > p_small

    def test_inverse_bounds(self):
        assert 0.0 <= p0_for_rle_ratio(1.0) <= 1.0
        with pytest.raises(ValueError):
            p0_for_rle_ratio(0.5)

    def test_matches_real_rle_with_calibrated_c1(self):
        # Eq. 4 with C1 calibrated to the *measured* per-run token cost
        # must reproduce the real zero-run coding gain.
        rng = np.random.default_rng(2)
        p0 = 0.99
        n = 200_000
        codes = np.where(
            rng.random(n) < p0, 0, rng.integers(1, 5, n)
        ).astype(np.int64)
        enc = HuffmanEncoder()
        bits_plain = payload_bits(enc, codes)
        from repro.compressor.encoders.rle import ZeroRunLengthEncoder

        tokens, stats = ZeroRunLengthEncoder().encode(codes)
        bits_rle = payload_bits(enc, tokens)
        real_ratio = bits_plain / max(bits_rle, 1)
        # calibrate C1: bits spent on run tokens divided by run count
        bits_nonzero = payload_bits(enc, codes[codes != 0])
        c1_measured = (bits_rle - bits_nonzero) / stats.n_runs
        hist = build_code_histogram(
            codes.astype(float), 0.25, correction=False
        )
        length0 = max(-np.log2(hist.p0), 1.0)
        b_huff = huffman_bitrate(hist)
        share0 = hist.p0 * length0 / b_huff
        ratio = rle_ratio(hist.p0, share0, c1_measured)
        assert ratio == pytest.approx(real_ratio, rel=0.3)


class TestCombinedBitrate:
    def test_no_gain_at_low_p0(self):
        errors = gaussian_errors()
        hist = build_code_histogram(errors, 0.01, correction=False)
        total, b_huff, ratio = combined_bitrate(hist)
        assert ratio == 1.0
        assert total == b_huff

    def test_gain_at_extreme_p0(self):
        rng = np.random.default_rng(3)
        errors = np.where(rng.random(100_000) < 0.995, 0.0, 10.0)
        hist = build_code_histogram(errors, 1.0, correction=False)
        total, b_huff, ratio = combined_bitrate(hist)
        assert ratio > 1.0
        assert total < b_huff


class TestAnchorModel:
    def test_forward_matches_direct_histogram(self):
        # The forward rate is the max of the Eq. 1 histogram branch and
        # the continuous fine-bin branch (h - log2(2 eb)).
        errors = gaussian_errors()
        model = HuffmanAnchorModel(errors)
        hist = build_code_histogram(errors, 0.1, correction=False)
        expected = max(
            huffman_bitrate(hist), model.continuous_bitrate(0.1)
        )
        assert model.bitrate(0.1) == pytest.approx(expected, rel=1e-6)

    def test_continuous_branch_matches_gaussian_theory(self):
        # Differential entropy of N(0, 1) is 0.5 log2(2 pi e).
        errors = gaussian_errors(100_000)
        model = HuffmanAnchorModel(errors)
        h_theory = 0.5 * np.log2(2 * np.pi * np.e)
        assert model._h_bits == pytest.approx(h_theory, abs=0.05)

    def test_continuous_branch_dominates_at_fine_bins(self):
        # With far fewer samples than occupied bins, the histogram
        # branch collapses and the continuous branch must take over.
        errors = gaussian_errors(500)
        model = HuffmanAnchorModel(errors)
        eb = 1e-6
        hist = build_code_histogram(errors, eb, correction=False)
        assert model.bitrate(eb) > huffman_bitrate(hist) + 5.0

    def test_inverse_high_rate_regime(self):
        errors = gaussian_errors()
        model = HuffmanAnchorModel(errors)
        target = 6.0
        eb = model.error_bound_for_bitrate(target)
        assert model.bitrate(eb) == pytest.approx(target, abs=0.4)

    def test_inverse_low_rate_regime(self):
        errors = gaussian_errors()
        model = HuffmanAnchorModel(errors)
        target = 1.3  # p0 > 0.5 territory
        eb = model.error_bound_for_bitrate(target)
        assert model.bitrate(eb) == pytest.approx(target, abs=0.4)

    def test_inverse_monotone(self):
        errors = gaussian_errors()
        model = HuffmanAnchorModel(errors)
        ebs = [model.error_bound_for_bitrate(b) for b in (6.0, 4.0, 2.0, 1.2)]
        assert all(b > a for a, b in zip(ebs, ebs[1:]))

    def test_saturates_at_one_bit(self):
        errors = gaussian_errors()
        model = HuffmanAnchorModel(errors)
        eb = model.error_bound_for_bitrate(0.9)
        # can't go below the Huffman floor; returns the saturating bound
        assert model.bitrate(eb) <= 1.3

    def test_empty_errors_raise(self):
        with pytest.raises(ValueError):
            HuffmanAnchorModel(np.array([]))

    def test_invalid_target_raises(self):
        model = HuffmanAnchorModel(gaussian_errors(1000))
        with pytest.raises(ValueError):
            model.error_bound_for_bitrate(0.0)
