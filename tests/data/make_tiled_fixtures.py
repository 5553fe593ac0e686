"""Regenerate the tiled (v4), adaptive (v5) and temporal (v6) fixtures.

Run from the repo root::

    PYTHONPATH=src python tests/data/make_tiled_fixtures.py

Policy: the fixtures pin the *byte format*, so regeneration is only
legitimate alongside an intentional, version-bumped format change — an
innocent code change that alters these bytes is exactly the drift the
golden tests exist to catch.  The paired ``*_expected.npy`` arrays pin
the decoded values; they must never change for an already-released
container version.

The inputs are fully deterministic (fixed seeds, serial encoding), so a
regeneration without a format change is a byte-identical no-op *for
fixtures minted at the current revision*.  Older fixtures are frozen as
released and never overwritten by policy: ``pr3_v5_adaptive`` predates
the ``planner_stats`` header field (and the clustered fit-reuse
planner), so re-running this script would alter its bytes — it exists
precisely to prove those planner changes did not disturb decoding of
already-released v5 containers.  New planner behaviour is pinned by the
separate ``pr8_v5_clustered`` fixture instead.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from repro.compressor import (  # noqa: E402
    CompressionConfig,
    TemporalCompressor,
    TiledCompressor,
)
from repro.datasets.generators import (  # noqa: E402
    gaussian_random_field,
    lognormal_field,
)

DATA_DIR = os.path.dirname(os.path.abspath(__file__))


def smooth_field(shape, seed=1234, noise=0.05):
    """Mirror of tests/conftest.smooth_field (kept standalone)."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0, 3 * np.pi, n) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    field = np.ones(shape)
    for g in grids:
        field = field * np.sin(g + 0.3)
    field = field + noise * rng.standard_normal(shape)
    return field.astype(np.float32)


def hetero_field(shape=(96, 96), seed=7):
    bg = gaussian_random_field(shape, slope=4.0, seed=seed).astype(np.float64)
    hs = tuple(n // 2 for n in shape)
    halos = lognormal_field(hs, slope=2.0, seed=seed + 1, contrast=2.5)
    pad = tuple((n // 8, n - h - n // 8) for n, h in zip(shape, hs))
    return (bg + np.pad(0.5 * halos.astype(np.float64), pad)).astype(
        np.float32
    )


def write(name: str, blob: bytes, expected: np.ndarray) -> None:
    with open(os.path.join(DATA_DIR, f"{name}.rqsz"), "wb") as fh:
        fh.write(blob)
    np.save(os.path.join(DATA_DIR, f"{name}_expected.npy"), expected)
    print(f"{name}: {len(blob)} bytes, expected {expected.shape}")


def build():
    """Yield ``(name, input, blob, expected, reference)`` per fixture.

    ``reference`` is the decoded keyframe a temporal fixture needs,
    ``None`` otherwise.  The golden tests re-run this to pin the bytes
    the current revision writes for each fixture's input and config.
    """
    tc = TiledCompressor()

    # v4: edge tiles (prime-ish shape), chunked tile payloads, zstd
    data = smooth_field((21, 19)).astype(np.float64)
    config = CompressionConfig(
        error_bound=1e-3, tile_shape=(8, 8), chunk_size=128
    )
    result = tc.compress(data, config)
    yield "pr2_v4_tiled_zstd", data, result.blob, tc.decompress(
        result.blob
    ), None

    # v5: adaptive per-tile configs on a heterogeneous field.
    # FROZEN — minted before the planner_stats header field existed;
    # see the module docstring.  Kept here for provenance only.
    if not os.path.exists(os.path.join(DATA_DIR, "pr3_v5_adaptive.rqsz")):
        field = hetero_field()
        config = CompressionConfig(
            error_bound=1.0, tile_shape=(32, 32), adaptive=True
        )
        result = tc.compress(field, config)
        yield "pr3_v5_adaptive", field, result.blob, tc.decompress(
            result.blob
        ), None

    # v5 + clustered planner: fit reuse across tile clusters with the
    # drift-refit guard active, planner_stats recorded in the header
    field = hetero_field((128, 128), seed=11)
    config = CompressionConfig(
        error_bound=1.0,
        tile_shape=(32, 32),
        adaptive=True,
        fit_clusters=4,
    )
    result = tc.compress(field, config)
    yield "pr8_v5_clustered", field, result.blob, tc.decompress(
        result.blob
    ), None

    # v6: temporal delta against the decoded keyframe.  The next
    # snapshot drifts smoothly except one corner that is replaced with
    # an uncorrelated field, so the pinned tile_modes TOC mixes
    # temporal and spatial choices.
    kf = smooth_field((40, 40), seed=2024).astype(np.float64)
    nxt = kf + 0.02 * smooth_field((40, 40), seed=2025, noise=0.0).astype(
        np.float64
    )
    nxt[:16, :16] = lognormal_field(
        (16, 16), slope=2.0, seed=77, contrast=2.5
    ).astype(np.float64)
    config = CompressionConfig(error_bound=1e-3, tile_shape=(16, 16))
    temporal = TemporalCompressor()
    keyframe = temporal.compress_snapshot(kf, config)
    ref = temporal.decompress(keyframe.blob)
    delta = temporal.compress_snapshot(
        nxt, config, reference=ref, ref_id="pr9@v0", snapshot_index=1
    )
    yield "pr9_v6_temporal", nxt, delta.blob, temporal.decompress(
        delta.blob, reference=ref
    ), ref


def main() -> None:
    for name, _, blob, expected, reference in build():
        if reference is not None:
            np.save(os.path.join(DATA_DIR, f"{name}_ref.npy"), reference)
        write(name, blob, expected)


if __name__ == "__main__":
    main()
