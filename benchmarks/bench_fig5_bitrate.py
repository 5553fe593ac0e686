"""Figure 5: estimated vs measured bit-rate across the error-bound sweep.

Two series, as in the paper: Huffman-encoder-only bit-rate and the
overall (Huffman + lossless) bit-rate, each with the model estimate next
to the measurement, swept from the high-rate regime down past the Eq. 3
validity edge into anchor-interpolation territory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressor import CompressionConfig, TiledCompressor
from repro.core.accuracy import estimation_accuracy
from repro.core.model import RatioQualityModel
from repro.datasets import load_field
from repro.utils.tables import format_table

FRACTIONS = (3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3)


@pytest.fixture(scope="module")
def sweep():
    data = load_field("Miranda", "vx", size_scale=0.6)
    vrange = float(data.max() - data.min())
    sz = TiledCompressor()
    model = RatioQualityModel(predictor="lorenzo").fit(data)
    rows = []
    for frac in FRACTIONS:
        eb = vrange * frac
        est = model.estimate(eb)
        huff_only = sz.compress(
            data, CompressionConfig(error_bound=eb, lossless=None)
        )
        overall = sz.compress(
            data, CompressionConfig(error_bound=eb, lossless="zstd_like")
        )
        rows.append(
            (
                frac,
                est.huffman_bitrate,
                huff_only.huffman_bit_rate,
                est.bitrate,
                overall.bit_rate,
                est.p0,
            )
        )
    return rows


def test_fig5(benchmark, sweep, report):
    report(
        format_table(
            [
                "eb/range",
                "Huff est",
                "Huff meas",
                "overall est",
                "overall meas",
                "p0 est",
            ],
            sweep,
            float_spec=".3f",
            title=(
                "Figure 5: bit-rate estimation vs measurement (Miranda "
                "vx, Lorenzo).\nExpected shape: estimates track "
                "measurements above ~2 bits; Huffman floor at 1 bit."
            ),
        )
    )
    huff_est = np.array([r[1] for r in sweep])
    huff_meas = np.array([r[2] for r in sweep])
    all_est = np.array([r[3] for r in sweep])
    all_meas = np.array([r[4] for r in sweep])
    acc_huff = estimation_accuracy(huff_meas, huff_est)
    acc_all = estimation_accuracy(all_meas, all_est)
    report(
        f"Huffman bit-rate accuracy (Eq.20): {acc_huff:.4f} "
        f"(paper avg 94.8%)\noverall bit-rate accuracy: {acc_all:.4f} "
        f"(paper avg 93.5%)"
    )
    assert acc_huff > 0.9
    # the overall rate inherits the lossless-stage deviation at extreme
    # bounds (dual-quant codes are spatially correlated, so the real
    # dictionary coder beats the independence-based RLE model there)
    assert acc_all > 0.8

    data = load_field("Miranda", "vx", size_scale=0.4)
    model = RatioQualityModel().fit(data)
    vrange = float(data.max() - data.min())
    benchmark(lambda: model.estimate(vrange * 1e-3))
