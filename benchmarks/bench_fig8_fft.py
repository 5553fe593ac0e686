"""Figure 8: FFT/power-spectrum degradation estimation (Nyx temperature).

The paper's data-specific analysis: predicted vs measured FFT quality
degradation under a high absolute error bound, showing the refined error
distribution (Eq. 11 / the exact dual-quant residual here) beating the
uniform-only assumption of prior work (Jin et al. HPDC'20).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.spectrum import (
    predicted_spectrum_relative_error,
    spectrum_relative_error,
)
from repro.compressor import CompressionConfig, TiledCompressor
from repro.core.model import RatioQualityModel
from repro.datasets import load_field
from repro.utils.tables import format_table

FRACTIONS = (1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.25)


@pytest.fixture(scope="module")
def sweep():
    data = load_field("Nyx", "temperature", size_scale=0.5)
    vrange = float(data.max() - data.min())
    sz = TiledCompressor()
    model = RatioQualityModel(predictor="lorenzo").fit(data)
    rows = []
    for frac in FRACTIONS:
        eb = vrange * frac
        recon = sz.compress(
            data, CompressionConfig(error_bound=eb), reconstruct=True
        ).reconstruction
        measured = spectrum_relative_error(
            data.astype(np.float64), recon.astype(np.float64)
        )
        var_uniform = model.error_variance(eb, refined=False)
        var_refined = model.error_variance(eb, refined=True)
        rows.append(
            (
                frac,
                predicted_spectrum_relative_error(data, var_uniform),
                predicted_spectrum_relative_error(data, var_refined),
                measured,
            )
        )
    return rows


def test_fig8(benchmark, sweep, report):
    report(
        format_table(
            ["eb/range", "uniform est", "refined est", "measured"],
            sweep,
            float_spec=".5f",
            title=(
                "Figure 8: mean relative P(k) degradation, Nyx "
                "temperature.\nExpected shape: refined estimate tracks "
                "the measurement at high bounds where the uniform "
                "assumption overshoots."
            ),
        )
    )
    uniform = np.array([r[1] for r in sweep])
    refined = np.array([r[2] for r in sweep])
    measured = np.array([r[3] for r in sweep])
    # at the highest bounds the refined model must be the closer one
    for i in (-1, -2):
        assert abs(np.log10(refined[i] / measured[i])) <= abs(
            np.log10(uniform[i] / measured[i])
        )
    # and within a factor ~3 of the measurement overall
    ratio = refined / measured
    assert np.all((ratio > 0.3) & (ratio < 3.5))

    data = load_field("Nyx", "temperature", size_scale=0.3)
    model = RatioQualityModel().fit(data)
    vrange = float(data.max() - data.min())
    benchmark(
        lambda: predicted_spectrum_relative_error(
            data, model.error_variance(vrange * 0.05)
        )
    )
