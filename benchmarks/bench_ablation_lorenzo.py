"""Ablation: dual-quantization Lorenzo vs classic sequential Lorenzo.

DESIGN.md §3 substitutes cuSZ-style dual quantization for SZ's classic
reconstructed-value Lorenzo so the predictor is vectorizable.  This
ablation quantifies what the substitution changes: compression ratio and
zero-code probability on a representative field, at matched bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.predictors.lorenzo import (
    ClassicLorenzoPredictor,
    LorenzoPredictor,
)
from repro.datasets import load_field
from repro.utils.tables import format_table

FRACTIONS = (1e-3, 1e-2, 5e-2)


@pytest.fixture(scope="module")
def comparison():
    # classic Lorenzo is a Python loop, so keep the field small
    data = load_field("Hurricane", "TC", size_scale=0.22).astype(np.float64)
    vrange = float(data.max() - data.min())
    enc = HuffmanEncoder()
    rows = []
    for frac in FRACTIONS:
        eb = vrange * frac
        row = [frac]
        for predictor in (LorenzoPredictor(), ClassicLorenzoPredictor()):
            out = predictor.decompose(data, eb, 32768)
            plan = enc.plan(out.codes)
            bits = (plan.total_bits if plan else 0) / out.codes.size
            p0 = float(np.mean(out.codes == 0))
            row.extend([bits, p0])
        rows.append(tuple(row))
    return rows


def test_ablation_lorenzo(benchmark, comparison, report):
    report(
        format_table(
            [
                "eb/range",
                "dualquant b/pt",
                "dualquant p0",
                "classic b/pt",
                "classic p0",
            ],
            comparison,
            float_spec=".3f",
            title=(
                "Ablation: dual-quant vs classic Lorenzo (Hurricane TC)."
                "\nExpected: closely matching code statistics; the "
                "dual-quant path adds bounded lattice-rounding entropy."
            ),
        )
    )
    for row in comparison:
        _, dq_bits, dq_p0, cl_bits, cl_p0 = row
        assert abs(dq_bits - cl_bits) < 1.0  # within one bit/point
        assert abs(dq_p0 - cl_p0) < 0.15

    data = load_field("Hurricane", "TC", size_scale=0.3).astype(np.float64)
    eb = float(data.max() - data.min()) * 1e-3
    predictor = LorenzoPredictor()
    benchmark(lambda: predictor.decompose(data, eb, 32768))
