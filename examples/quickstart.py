"""Quickstart: compress a scientific field and trust the model's forecast.

Demonstrates the core loop of the library:

1. generate (or load) a floating-point field;
2. fit the ratio-quality model with one 1% sampling pass;
3. ask it for the expected ratio/PSNR at a few bounds — no compression
   runs needed;
4. pick a bound, compress for real, and check the forecast.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import CompressionConfig, TiledCompressor
from repro.analysis import psnr
from repro.core import RatioQualityModel
from repro.datasets import load_field
from repro.utils import format_table


def main() -> None:
    # A Hurricane-Isabel-like 3-D weather field (synthetic stand-in).
    data = load_field("Hurricane", "U", size_scale=0.5)
    vrange = float(data.max() - data.min())
    print(f"field: {data.shape} float32, value range {vrange:.3f}\n")

    # One sampling pass answers everything about this (data, predictor).
    model = RatioQualityModel(predictor="lorenzo").fit(data)

    rows = []
    for rel in (1e-4, 1e-3, 1e-2):
        est = model.estimate(vrange * rel)
        rows.append((rel, est.error_bound, est.ratio, est.psnr, est.ssim))
    print(
        format_table(
            ["rel eb", "abs eb", "pred ratio", "pred PSNR", "pred SSIM"],
            rows,
            float_spec=".4g",
            title="model forecasts (no compression executed yet)",
        )
    )

    # Inverse query: what bound reaches a 10:1 ratio?
    eb = model.error_bound_for_ratio(10.0)
    print(f"\nbound for a predicted 10:1 ratio: {eb:.5g}")

    # Now compress for real and compare.
    sz = TiledCompressor()
    result = sz.compress(
        data, CompressionConfig(predictor="lorenzo", error_bound=eb)
    )
    recon = sz.decompress(result.blob)
    est = model.estimate(eb)
    print(
        f"measured ratio {result.ratio:.2f} (predicted {est.ratio:.2f}), "
        f"measured PSNR {psnr(data, recon):.2f} dB "
        f"(predicted {est.psnr:.2f} dB)"
    )
    max_err = float(np.max(np.abs(recon.astype(np.float64) - data)))
    print(f"max point-wise error {max_err:.5g} <= bound {eb:.5g}")


if __name__ == "__main__":
    main()
