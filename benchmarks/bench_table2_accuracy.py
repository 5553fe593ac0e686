"""Table II: per-field estimation accuracy across the full suite.

For every one of the 17 evaluated fields this regenerates the paper's
columns: sampling error (1% rate), Eq. 20 estimation error of the
Huffman-only bit-rate, of the lossless-stage gain (RLE approximation),
of the combined bit-rate, and of PSNR and SSIM.  SSIM is omitted for
the 1-D and 4-D fields, matching the dashes in the paper's table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import psnr, ssim_global
from repro.compressor import CompressionConfig, TiledCompressor
from repro.compressor.predictors import make_predictor
from repro.core.accuracy import estimation_error
from repro.core.model import RatioQualityModel
from repro.core.sampling import sample_prediction_errors
from repro.datasets import TABLE2_FIELDS, get_dataset
from repro.utils.tables import format_table

FRACTIONS = (1e-4, 1e-3, 1e-2, 5e-2)
SCALES = {1: 0.1, 2: 0.5, 3: 0.5, 4: 0.6}
SKIP_SSIM_DIMS = (1, 4)


def _evaluate_field(dataset: str, field: str) -> tuple:
    spec = get_dataset(dataset)
    data = spec.field(field).load(SCALES[spec.dims])
    vrange = float(data.max() - data.min())
    sz = TiledCompressor()
    model = RatioQualityModel(predictor="lorenzo").fit(data)

    pred = make_predictor("lorenzo")
    full_std = float(np.std(pred.prediction_errors(data.astype(np.float64))))
    sample = sample_prediction_errors(data, "lorenzo", rate=0.01)
    sample_err = (
        abs(float(np.std(sample.errors)) - full_std) / vrange
        if vrange
        else 0.0
    )

    huff_est, huff_meas = [], []
    ll_est, ll_meas = [], []
    total_est, total_meas = [], []
    psnr_est, psnr_meas = [], []
    ssim_est, ssim_meas = [], []
    for frac in FRACTIONS:
        eb = vrange * frac
        est = model.estimate(eb)
        result = sz.compress(
            data, CompressionConfig(error_bound=eb, lossless="zstd_like")
        )
        recon = sz.decompress(result.blob)
        huff_est.append(est.huffman_bitrate)
        huff_meas.append(result.huffman_bit_rate)
        ll_est.append(est.lossless_ratio)
        ll_meas.append(result.huffman_only / max(result.section_bytes["codes"], 1))
        total_est.append(est.bitrate)
        total_meas.append(result.bit_rate)
        psnr_est.append(est.psnr)
        psnr_meas.append(psnr(data, recon))
        if spec.dims not in SKIP_SSIM_DIMS:
            ssim_est.append(est.ssim)
            ssim_meas.append(ssim_global(data, recon))

    row = (
        dataset,
        field,
        f"{100 * sample_err:.2f}%",
        f"{100 * estimation_error(huff_meas, huff_est):.2f}%",
        f"{100 * estimation_error(ll_meas, ll_est):.2f}%",
        f"{100 * estimation_error(total_meas, total_est):.2f}%",
        f"{100 * estimation_error(psnr_meas, psnr_est):.2f}%",
        (
            f"{100 * estimation_error(ssim_meas, ssim_est):.2f}%"
            if ssim_est
            else "-"
        ),
    )
    numbers = (
        sample_err,
        estimation_error(huff_meas, huff_est),
        estimation_error(total_meas, total_est),
        estimation_error(psnr_meas, psnr_est),
    )
    return row, numbers


@pytest.fixture(scope="module")
def table():
    rows, numbers = [], []
    for dataset, field in TABLE2_FIELDS:
        row, nums = _evaluate_field(dataset, field)
        rows.append(row)
        numbers.append(nums)
    return rows, numbers


def test_table2(benchmark, table, report):
    rows, numbers = table
    arr = np.array(numbers)
    report(
        format_table(
            [
                "Dataset",
                "Field",
                "SampleErr",
                "HuffErr",
                "LosslessErr",
                "Huff+LLErr",
                "PSNRErr",
                "SSIMErr",
            ],
            rows,
            title=(
                "Table II: estimation errors per field (Eq. 20).\n"
                "Paper averages: sample 0.12%, Huffman 5.16%, lossless "
                "6.21%, Huff+LL 6.53%, PSNR 2.72%, SSIM 5.59%."
            ),
        )
    )
    report(
        "Averages: sample {:.2f}%  huffman {:.2f}%  total {:.2f}%  "
        "psnr {:.2f}%".format(*(100 * arr.mean(axis=0)))
    )
    # reproduce the headline claims in shape:
    assert arr[:, 0].mean() < 0.02  # sampling error well below 2%
    assert arr[:, 1].mean() < 0.15  # Huffman bit-rate error ~5-15%
    assert arr[:, 2].mean() < 0.15  # combined bit-rate error
    assert arr[:, 3].mean() < 0.08  # PSNR error lowest of all

    data = get_dataset("CESM").field("TS").load(0.3)
    model = RatioQualityModel().fit(data)
    vrange = float(data.max() - data.min())
    benchmark(lambda: model.estimate(vrange * 1e-3))
