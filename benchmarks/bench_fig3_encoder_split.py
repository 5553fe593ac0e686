"""Figure 3: Huffman vs optional-lossless compression ratio separation.

The paper's observation driving the encoder model: the Huffman stage
carries the compression ratio until it saturates near 1 bit/symbol; only
then does the optional lossless stage (Zstandard/Gzip there, zstd_like /
gzip_like here) contribute, and a zero-run RLE captures almost all of
that contribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressor import CompressionConfig, TiledCompressor
from repro.datasets import load_field
from repro.utils.tables import format_table

FRACTIONS = (1e-4, 1e-3, 1e-2, 5e-2, 0.15, 0.4, 0.8)


@pytest.fixture(scope="module")
def sweep():
    data = load_field("Hurricane", "U", size_scale=0.6)
    vrange = float(data.max() - data.min())
    sz = TiledCompressor()
    rows = []
    for frac in FRACTIONS:
        eb = vrange * frac
        sizes = {}
        for lossless in (None, "zstd_like", "gzip_like", "rle"):
            cfg = CompressionConfig(error_bound=eb, lossless=lossless)
            result = sz.compress(data, cfg)
            key = lossless or "huffman_only"
            sizes[key] = result.section_bytes["codes"]
            p0 = result.p0
        n = data.size
        rows.append(
            (
                frac,
                8.0 * sizes["huffman_only"] / n,
                8.0 * sizes["zstd_like"] / n,
                8.0 * sizes["gzip_like"] / n,
                8.0 * sizes["rle"] / n,
                p0,
            )
        )
    return rows


def test_fig3(benchmark, sweep, report):
    report(
        format_table(
            [
                "eb/range",
                "Huffman b/pt",
                "+zstd_like",
                "+gzip_like",
                "+rle",
                "p0",
            ],
            sweep,
            float_spec=".3f",
            title=(
                "Figure 3: encoder-stage bit-rates vs error bound "
                "(Hurricane U).\nExpected shape: lossless stages only "
                "improve on Huffman once it nears 1 bit/pt (p0 -> 1), "
                "and RLE captures most of that gain."
            ),
        )
    )
    # the modelled quantity: Huffman-only encoding of the codes
    data = load_field("Hurricane", "U", size_scale=0.3)
    sz = TiledCompressor()
    cfg = CompressionConfig(
        error_bound=float(data.max() - data.min()) * 1e-3, lossless=None
    )
    benchmark(lambda: sz.compress(data, cfg))

    # shape assertions: Huffman-only curve is flat once saturated
    huffman = np.array([row[1] for row in sweep])
    zstd = np.array([row[2] for row in sweep])
    assert huffman[-1] <= 1.4  # saturates near 1 bit/pt
    assert zstd[-1] < huffman[-1]  # lossless bites at the end
    assert zstd[0] == pytest.approx(huffman[0], rel=0.05)  # not earlier
