"""Figure 6: PSNR estimation — uniform-only vs refined error distribution.

The paper's Fig. 6 plots measured PSNR against the estimate from the
uniform error model (Eq. 10) and from the refined distribution (Eq. 11)
on the Nyx dark-matter density field, for both the interpolation and the
Lorenzo predictor.  The refined model matters under high error bounds,
where the true error concentrates far below the uniform eb^2/3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import psnr
from repro.compressor import CompressionConfig, TiledCompressor
from repro.core.accuracy import estimation_accuracy
from repro.core.model import RatioQualityModel
from repro.datasets import load_field
from repro.utils.tables import format_table

FRACTIONS = (1e-4, 1e-3, 1e-2, 3e-2, 0.1, 0.3)
PREDICTORS = ("interpolation", "lorenzo")


@pytest.fixture(scope="module")
def sweep():
    data = load_field("Nyx", "dark_matter_density", size_scale=0.5)
    vrange = float(data.max() - data.min())
    sz = TiledCompressor()
    rows = {}
    for predictor in PREDICTORS:
        model = RatioQualityModel(predictor=predictor).fit(data)
        series = []
        for frac in FRACTIONS:
            eb = vrange * frac
            cfg = CompressionConfig(predictor=predictor, error_bound=eb)
            recon = sz.compress(data, cfg, reconstruct=True).reconstruction
            series.append(
                (
                    frac,
                    model.estimate(eb, refined_distribution=False).psnr,
                    model.estimate(eb, refined_distribution=True).psnr,
                    psnr(data, recon),
                )
            )
        rows[predictor] = series
    return rows


def test_fig6(benchmark, sweep, report):
    for predictor, series in sweep.items():
        report(
            format_table(
                ["eb/range", "uniform est (Eq10)", "refined est", "measured"],
                series,
                float_spec=".2f",
                title=(
                    f"Figure 6 ({predictor}): PSNR estimation on Nyx "
                    "dark-matter density.\nExpected shape: both estimates "
                    "agree at low eb; only the refined model tracks the "
                    "measurement at high eb."
                ),
            )
        )
        measured = np.array([s[3] for s in series])
        uniform = np.array([s[1] for s in series])
        refined = np.array([s[2] for s in series])
        acc_uniform = estimation_accuracy(measured, uniform)
        acc_refined = estimation_accuracy(measured, refined)
        report(
            f"{predictor}: uniform accuracy {acc_uniform:.4f}, refined "
            f"accuracy {acc_refined:.4f} (paper avg 97.3%)"
        )
        assert acc_refined > 0.9
        assert acc_refined >= acc_uniform - 1e-9
        # at the highest bound the refined estimate must be closer
        assert abs(refined[-1] - measured[-1]) <= abs(
            uniform[-1] - measured[-1]
        )

    data = load_field("Nyx", "dark_matter_density", size_scale=0.3)
    model = RatioQualityModel().fit(data)
    vrange = float(data.max() - data.min())
    benchmark(lambda: model.estimate(vrange * 0.1).psnr)
