"""Mint and check the tiled-container golden fixtures.

Run from the repo root::

    PYTHONPATH=src python tests/data/make_tiled_fixtures.py          # write
    PYTHONPATH=src python tests/data/make_tiled_fixtures.py --check  # CI

Policy: the fixtures pin the *byte format*, so regeneration is only
legitimate alongside an intentional, version-bumped format change — an
innocent code change that alters these bytes is exactly the drift the
golden tests exist to catch.  The paired ``*_expected.npy`` arrays pin
the decoded values; they must never change for an already-released
container version.

Two kinds of fixture live here:

* **frozen** (``FROZEN``) — containers of the formats no writer
  produces any more (v4 ``pr2_v4_tiled_zstd``, v5 ``pr3_v5_adaptive`` /
  ``pr8_v5_clustered``, v6 ``pr9_v6_temporal``), kept byte for byte as
  released.  This script never writes them; ``--check`` only decodes
  them against their ``*_expected.npy``.
* **current** (:func:`build`) — ``pr23_v7_uniform`` / ``_adaptive`` /
  ``_temporal``, the v7 frame minted from the *same inputs and configs*
  as the frozen pr2 / pr8 / pr9 fixtures.  They carry no expected array
  of their own: v7 moved framing, not one stage byte, so each must
  decode to the frozen twin's ``*_expected.npy`` exactly.  The inputs
  are fully deterministic (fixed seeds, serial encoding), so ``--check``
  regenerates them in memory and fails on any byte that differs from
  the stored file (an input that another NumPy build synthesises
  last-bit differently is reported and skipped: it pins nothing).
"""

import hashlib
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


#: current fixture -> (frozen twin whose input, config and decoded
#: array it shares, sha256 of that input on the minting NumPy build)
TWINS = {
    "pr23_v7_uniform": (
        "pr2_v4_tiled_zstd",
        "86d9e97268afe6a5d10049d5d327957b56db4c624350ff3b8828bb7d7fe6ca6c",
    ),
    "pr23_v7_adaptive": (
        "pr8_v5_clustered",
        "3ddb4e5940d7ef981a42cd0ee737e5f2ec9f1435c849f4c9fd2ac0832ea4f5dc",
    ),
    "pr23_v7_temporal": (
        "pr9_v6_temporal",
        "8723621414aee059102e6f789097ca7aade905c5b15814ef8b5a8204af195b68",
    ),
}
FROZEN = ["pr3_v5_adaptive"] + [twin for twin, _ in TWINS.values()]


def build():
    """Yield ``(name, input, blob, expected, reference)`` per current fixture.

    ``reference`` is the decoded keyframe a temporal fixture needs,
    ``None`` otherwise; ``expected`` is what this revision decodes the
    blob to.  The golden tests re-run this to pin the bytes the current
    revision writes for each fixture's input and config.
    """
    tc = TiledCompressor()

    # edge tiles (prime-ish shape), chunk_size set, zstd — the input and
    # config of the frozen v4 ``pr2_v4_tiled_zstd``
    data = smooth_field((21, 19)).astype(np.float64)
    config = CompressionConfig(
        error_bound=1e-3, tile_shape=(8, 8), chunk_size=128
    )
    result = tc.compress(data, config)
    yield "pr23_v7_uniform", data, result.blob, tc.decompress(
        result.blob
    ), None

    # adaptive + clustered planner: fit reuse across tile clusters with
    # the drift-refit guard active, planner_stats recorded in the header
    # — the frozen v5 ``pr8_v5_clustered``.  (``pr3_v5_adaptive``,
    # ``hetero_field()`` under ``error_bound=1.0, tile_shape=(32, 32),
    # adaptive=True``, predates planner_stats and has no twin.)
    field = hetero_field((128, 128), seed=11)
    config = CompressionConfig(
        error_bound=1.0,
        tile_shape=(32, 32),
        adaptive=True,
        fit_clusters=4,
    )
    result = tc.compress(field, config)
    yield "pr23_v7_adaptive", field, result.blob, tc.decompress(
        result.blob
    ), None

    # temporal delta against the decoded keyframe.  The next snapshot
    # drifts smoothly except one corner that is replaced with an
    # uncorrelated field, so the pinned tile_modes TOC mixes temporal
    # and spatial choices — the frozen v6 ``pr9_v6_temporal``
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
    yield "pr23_v7_temporal", nxt, delta.blob, temporal.decompress(
        delta.blob, reference=ref
    ), ref


def _stored(name: str, suffix: str = ".rqsz"):
    path = os.path.join(DATA_DIR, name + suffix)
    if suffix == ".npy":
        return np.load(path)
    with open(path, "rb") as fh:
        return fh.read()


def check() -> list[str]:
    """Every way the stored fixtures differ from what they should be."""
    problems = []
    for name in FROZEN:
        reference = (
            _stored(name + "_ref", ".npy")
            if os.path.exists(os.path.join(DATA_DIR, name + "_ref.npy"))
            else None
        )
        decoded = TiledCompressor().decompress(
            _stored(name), reference=reference
        )
        expected = _stored(name + "_expected", ".npy")
        if decoded.dtype != expected.dtype or not np.array_equal(
            decoded, expected
        ):
            problems.append(f"{name}: frozen fixture decodes differently")
    for name, data, blob, expected, _ in build():
        twin, input_sha = TWINS[name]
        if not np.array_equal(expected, _stored(twin + "_expected", ".npy")):
            problems.append(f"{name}: decodes differently from {twin}")
        raw = np.ascontiguousarray(data).tobytes()
        if hashlib.sha256(raw).hexdigest() != input_sha:
            print(f"{name}: input differs on this NumPy build, bytes skipped")
        elif blob != _stored(name):
            problems.append(f"{name}: regenerated bytes differ from the file")
    return problems


def main() -> None:
    if sys.argv[1:] == ["--check"]:
        problems = check()
        print("\n".join(problems) or "fixtures: ok")
        sys.exit(1 if problems else 0)
    for name, _, blob, expected, _ in build():
        with open(os.path.join(DATA_DIR, f"{name}.rqsz"), "wb") as fh:
            fh.write(blob)
        print(f"{name}: {len(blob)} bytes, decodes to {expected.shape}")


if __name__ == "__main__":
    main()
