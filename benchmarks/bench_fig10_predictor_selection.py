"""Figure 10: rate-distortion curves per predictor + selection crossover.

Use-case 1 on RTM: the estimated rate-distortion curve of each predictor
against the measured curve, and the bit-rate where the preferred
predictor switches (the paper finds the model's predicted switch at 1.89
bits inside the measured bracket [1.47, 1.93]).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import psnr
from repro.compressor import CompressionConfig, TiledCompressor
from repro.core.accuracy import estimation_accuracy
from repro.datasets import load_field
from repro.usecases.predictor_selection import PredictorSelector
from repro.utils.tables import format_table

FRACTIONS = (1e-5, 1e-4, 1e-3, 1e-2, 5e-2)
PREDICTORS = ("lorenzo", "interpolation", "regression")


@pytest.fixture(scope="module")
def experiment():
    data = load_field("RTM", "snapshot_3000", size_scale=0.7)
    vrange = float(data.max() - data.min())
    sz = TiledCompressor()
    selector = PredictorSelector(PREDICTORS).fit(data)

    rows = []
    measured_curves = {}
    for predictor in PREDICTORS:
        series = []
        for frac in FRACTIONS:
            eb = vrange * frac
            est = selector.models[predictor].estimate(eb)
            cfg = CompressionConfig(predictor=predictor, error_bound=eb)
            result = sz.compress(data, cfg, reconstruct=True)
            recon = result.reconstruction
            meas_psnr = psnr(data, recon)
            rows.append(
                (
                    predictor,
                    frac,
                    est.bitrate,
                    result.bit_rate,
                    est.psnr,
                    meas_psnr,
                )
            )
            series.append((result.bit_rate, meas_psnr))
        measured_curves[predictor] = series
    crossover = selector.crossover_bitrate(
        "lorenzo", "interpolation", bitrate_range=(0.5, 12.0)
    )
    return data, selector, rows, measured_curves, crossover


def test_fig10(benchmark, experiment, report):
    data, selector, rows, measured_curves, crossover = experiment
    report(
        format_table(
            [
                "predictor",
                "eb/range",
                "bitrate est",
                "bitrate meas",
                "PSNR est",
                "PSNR meas",
            ],
            rows,
            float_spec=".2f",
            title=(
                "Figure 10: rate-distortion per predictor (RTM).\n"
                "Expected shape: estimated curves track measured; "
                "interpolation preferred at low bit-rates."
            ),
        )
    )
    report(
        f"model-predicted lorenzo/interpolation crossover bit-rate: "
        f"{crossover} (paper: 1.89 within measured [1.47, 1.93])"
    )
    # estimates accurate per predictor (the sparse RTM field is the
    # hardest case for the RLE-approximated lossless stage, hence the
    # looser rate threshold than Table II's averages)
    for predictor in PREDICTORS:
        sel = [r for r in rows if r[0] == predictor]
        acc_rate = estimation_accuracy(
            [r[3] for r in sel], [r[2] for r in sel]
        )
        acc_psnr = estimation_accuracy(
            [r[5] for r in sel], [r[4] for r in sel]
        )
        assert acc_rate > 0.6, predictor
        assert acc_psnr > 0.9, predictor

    # the model's low-rate choice is measured-near-optimal: its measured
    # PSNR at 1.5 bits/pt is within 1.5 dB of the best predictor's
    low_rate_choice = selector.select_for_bitrate(1.5).predictor
    measured_at_low = {}
    for predictor, series in measured_curves.items():
        rates = np.array([s[0] for s in series])
        psnrs = np.array([s[1] for s in series])
        order = np.argsort(rates)
        measured_at_low[predictor] = float(
            np.interp(1.5, rates[order], psnrs[order])
        )
    best = max(measured_at_low.values())
    assert measured_at_low[low_rate_choice] >= best - 1.5

    benchmark(lambda: selector.select_for_bitrate(2.0))
