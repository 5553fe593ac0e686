"""Cosmology post-hoc analysis: choose a bound that preserves the science.

The Nyx use-case (§III-D4): a dark-matter density field feeds two
analyses — the matter power spectrum and a halo finder.  The model's
error-distribution estimate propagates into a predicted spectrum
degradation, letting us pick the largest bound whose predicted impact
stays under a tolerance, then the halo catalogue is checked to confirm
the choice preserved the halo population.

Run:  python examples/cosmology_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import CompressionConfig, TiledCompressor
from repro.analysis import (
    find_halos,
    halo_match_f1,
    predicted_spectrum_relative_error,
    spectrum_relative_error,
)
from repro.core import RatioQualityModel
from repro.datasets import load_field
from repro.utils import format_table

SPECTRUM_TOLERANCE = 0.01  # <=1% mean relative P(k) perturbation


def main() -> None:
    density = load_field("Nyx", "dark_matter_density", size_scale=0.5)
    vrange = float(density.max() - density.min())
    print(
        f"dark-matter density: {density.shape}, range {vrange:.4g}, "
        f"median {float(np.median(density)):.4g} (heavy-tailed)\n"
    )

    model = RatioQualityModel(predictor="lorenzo").fit(density)

    # sweep candidate bounds through the *predicted* spectrum impact
    rows = []
    chosen = None
    for rel in (1e-5, 1e-4, 1e-3, 1e-2):
        eb = vrange * rel
        est = model.estimate(eb)
        predicted = predicted_spectrum_relative_error(
            density, model.error_variance(eb)
        )
        rows.append((rel, est.ratio, est.psnr, predicted))
        if predicted <= SPECTRUM_TOLERANCE:
            chosen = eb
    print(
        format_table(
            ["rel eb", "pred ratio", "pred PSNR", "pred P(k) err"],
            rows,
            float_spec=".4g",
            title="predicted post-hoc impact per candidate bound",
        )
    )
    assert chosen is not None, "no candidate met the tolerance"
    print(
        f"\nlargest bound within {SPECTRUM_TOLERANCE:.0%} predicted "
        f"spectrum error: {chosen:.5g}"
    )

    # compress and verify both analyses
    sz = TiledCompressor()
    result = sz.compress(density, CompressionConfig(error_bound=chosen))
    recon = sz.decompress(result.blob)
    measured = spectrum_relative_error(
        density.astype(np.float64), recon.astype(np.float64)
    )
    print(
        f"compressed {result.ratio:.1f}x; measured spectrum error "
        f"{measured:.4%} (predicted "
        f"{predicted_spectrum_relative_error(density, model.error_variance(chosen)):.4%})"
    )

    threshold = float(np.percentile(density, 99.0))
    halos_ref = find_halos(density.astype(np.float64), threshold)
    halos_new = find_halos(recon.astype(np.float64), threshold)
    f1 = halo_match_f1(halos_ref, halos_new)
    print(
        f"halo finder: {len(halos_ref)} halos before, "
        f"{len(halos_new)} after, match F1 = {f1:.3f}"
    )


if __name__ == "__main__":
    main()
