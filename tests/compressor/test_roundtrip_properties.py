"""Randomized round-trip properties over the full config space.

Each seed expands deterministically (``tests/proptest.py``) into one
compression scenario — dtype, prime-dimension shape of rank 0..4, bound
mode, predictor, lossless backend, chunking, tiling, adaptivity — and
asserts the round-trip bound, dtype/shape preservation, one-tile vs
flat-framed decode equivalence and region-decode consistency.

Adaptive cases additionally sweep the planner's fit-reuse spectrum
(``fit_clusters`` of None/0/1/4/12) and assert the planner-equivalence
properties: clustered and cache-replayed plans honour every per-tile
bound, meet the aggregate PSNR target, and decode identically to the
fresh plan's container.

Reproduce a reported failure with ``PROPTEST_SEED=<seed>``; widen the
sweep with ``PROPTEST_COUNT=<n>`` (tier-1 runs the first 72 seeds).
"""

import hashlib
import os
from dataclasses import replace

import pytest

from repro.compressor import TiledCompressor
from repro.compressor.container import TiledReader
from tests.proptest import draw_case, resolved_config, run_seed

if os.environ.get("PROPTEST_SEED"):
    SEEDS = [int(os.environ["PROPTEST_SEED"])]
else:
    SEEDS = list(range(int(os.environ.get("PROPTEST_COUNT", "72"))))


@pytest.mark.parametrize("seed", SEEDS)
def test_roundtrip_properties(seed):
    run_seed(seed)


#: sha256 over the five stage sections (each length-prefixed) of the
#: first 72 cases' flat configs, taken from the flat (v2) writer before
#: it was retired: a flat array's one-tile container holds them
FLAT_SECTIONS_SHA256 = (
    "e98a795daf13dce61622cf88589cc1c5cfdb8f9d167686e3baf64c680d6d243f"
)


def test_one_tile_containers_hold_the_flat_writers_sections():
    digest = hashlib.sha256()
    for seed in range(72):
        case = draw_case(seed)
        config = replace(
            resolved_config(case), tile_shape=None, adaptive=False, temporal=False
        )
        blob = TiledCompressor().compress(case.data, config).blob
        with TiledReader(blob) as reader:
            # an empty array has no tile; its flat sections were empty
            (sections,) = [reader.read_sections(t) for t in reader.tiles] or [
                [b""] * 5
            ]
        for section in sections:
            digest.update(len(section).to_bytes(8, "little"))
            digest.update(section)
    assert digest.hexdigest() == FLAT_SECTIONS_SHA256
