"""Predictor selection: let the model pick the best-fit predictor.

Use-case 1 (§IV-A): each predictor (Lorenzo, interpolation, regression)
wins in a different region of the rate-distortion plane.  One sampling
pass per predictor yields the full estimated curves, the per-operating-
point winner, and the crossover bit-rate — at a fraction of the cost of
compressing under every candidate.

Run:  python examples/predictor_selection.py
"""

from __future__ import annotations

import numpy as np

from repro import CompressionConfig, TiledCompressor
from repro.analysis import psnr
from repro.datasets import load_field
from repro.usecases import PredictorSelector
from repro.utils import format_table


def main() -> None:
    data = load_field("RTM", "snapshot_3000", size_scale=0.6)
    vrange = float(data.max() - data.min())
    print(f"RTM snapshot: {data.shape}, value range {vrange:.4g}\n")

    selector = PredictorSelector(
        ("lorenzo", "interpolation", "regression")
    ).fit(data)

    # estimated rate-distortion curves
    rows = []
    for rel in (1e-5, 1e-4, 1e-3, 1e-2):
        eb = vrange * rel
        decision = selector.select_for_error_bound(eb)
        ests = decision.alternatives
        rows.append(
            (
                rel,
                ests["lorenzo"].bitrate,
                ests["interpolation"].bitrate,
                ests["regression"].bitrate,
                decision.predictor,
            )
        )
    print(
        format_table(
            ["rel eb", "lorenzo b/pt", "interp b/pt", "regr b/pt", "winner"],
            rows,
            float_spec=".3f",
            title="estimated bit-rate per predictor (fixed bound)",
        )
    )

    crossover = selector.crossover_bitrate(
        "lorenzo", "interpolation", bitrate_range=(0.5, 10.0)
    )
    print(f"\nlorenzo/interpolation crossover bit-rate: {crossover}")

    # validate the winner at one operating point with a real run
    target_rate = 2.0
    decision = selector.select_for_bitrate(target_rate)
    print(
        f"\nat {target_rate} bits/pt the model picks "
        f"{decision.predictor!r} (predicted PSNR "
        f"{decision.estimate.psnr:.2f} dB)"
    )
    sz = TiledCompressor()
    for name, model in selector.models.items():
        eb = model.error_bound_for_bitrate(target_rate)
        cfg = CompressionConfig(predictor=name, error_bound=eb)
        result = sz.compress(data, cfg)
        recon = sz.decompress(result.blob)
        print(
            f"  measured {name:14s}: {result.bit_rate:.2f} b/pt, "
            f"{psnr(data, recon):.2f} dB"
        )


if __name__ == "__main__":
    main()
