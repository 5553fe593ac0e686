"""Ablation: Eq. 9 bin-transfer correction on/off (interpolation).

The correction transfers histogram mass between neighbouring bins to
mimic reconstructed-value prediction at high error bounds (p0 >= 0.8,
C2 = 0.1 for interpolation).  This ablation measures its effect on the
bit-rate estimation error against the real compressor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressor import CompressionConfig, TiledCompressor
from repro.core.accuracy import estimation_error
from repro.core.encoder_model import combined_bitrate
from repro.core.histogram import build_code_histogram
from repro.core.sampling import sample_prediction_errors
from repro.datasets import load_field
from repro.utils.tables import format_table

FRACTIONS = (3e-2, 0.08, 0.15, 0.3)


@pytest.fixture(scope="module")
def comparison():
    data = load_field("CESM", "TROP_Z", size_scale=0.5)
    vrange = float(data.max() - data.min())
    sz = TiledCompressor()
    sample = sample_prediction_errors(data, "interpolation", rate=0.01)
    rows = []
    errs = {True: [], False: []}
    meas_list = []
    for frac in FRACTIONS:
        eb = vrange * frac
        cfg = CompressionConfig(
            predictor="interpolation", error_bound=eb, lossless=None
        )
        measured = sz.compress(data, cfg).huffman_bit_rate
        meas_list.append(measured)
        estimates = {}
        for corrected in (True, False):
            hist = build_code_histogram(
                sample.errors,
                eb,
                predictor="interpolation",
                correction=corrected,
            )
            estimates[corrected] = combined_bitrate(hist)[1]
            errs[corrected].append(estimates[corrected])
        rows.append((frac, estimates[True], estimates[False], measured))
    return rows, errs, meas_list


def test_ablation_bintransfer(benchmark, comparison, report):
    rows, errs, measured = comparison
    report(
        format_table(
            ["eb/range", "est corrected", "est raw", "measured b/pt"],
            rows,
            float_spec=".3f",
            title=(
                "Ablation: Eq. 9 bin-transfer on/off, interpolation "
                "predictor (CESM TROP_Z, high-bound regime).\nExpected: "
                "the corrected histogram tracks the measured Huffman "
                "rate more closely where p0 >= 0.8."
            ),
        )
    )
    err_on = estimation_error(measured, errs[True])
    err_off = estimation_error(measured, errs[False])
    report(
        f"Eq.20 estimation error: corrected {100 * err_on:.2f}% vs "
        f"uncorrected {100 * err_off:.2f}%"
    )
    # the correction must not hurt, and generally helps, in its regime
    assert err_on <= err_off + 0.02

    data = load_field("CESM", "TROP_Z", size_scale=0.3)
    sample = sample_prediction_errors(data, "interpolation", rate=0.01)
    eb = float(data.max() - data.min()) * 0.1
    benchmark(
        lambda: build_code_histogram(
            sample.errors, eb, predictor="interpolation"
        )
    )
