"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

SEED = 1234


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(SEED)


def smooth_field(shape: tuple[int, ...], seed: int = SEED, noise: float = 0.05):
    """A smooth sinusoidal field plus mild noise (compresses well)."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0, 3 * np.pi, n) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    field = np.ones(shape)
    for g in grids:
        field = field * np.sin(g + 0.3)
    field = field + noise * rng.standard_normal(shape)
    return field.astype(np.float32)


@pytest.fixture
def field_1d() -> np.ndarray:
    return smooth_field((4096,))


@pytest.fixture
def field_2d() -> np.ndarray:
    return smooth_field((48, 64))


@pytest.fixture
def field_3d() -> np.ndarray:
    return smooth_field((24, 24, 24))


def assert_error_bounded(
    original: np.ndarray, reconstructed: np.ndarray, error_bound: float
) -> None:
    """Assert the point-wise bound holds, allowing dtype-cast slack.

    The compressor guarantees the bound in float64; casting the
    reconstruction back to the original dtype may add up to one ULP of
    the stored values.
    """
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    ulp = 0.0
    if np.asarray(reconstructed).dtype == np.float32:
        ulp = float(np.max(np.abs(b))) * float(np.finfo(np.float32).eps)
    max_err = float(np.max(np.abs(a - b))) if a.size else 0.0
    tolerance = error_bound * (1 + 1e-9) + ulp
    assert max_err <= tolerance, (
        f"error bound violated: max err {max_err:.3e} > "
        f"eb {error_bound:.3e} (+ulp {ulp:.3e})"
    )


def adopt_container(root, name: str, blob: bytes) -> None:
    """Make *blob* dataset *name* of the store directory *root*.

    Writes the container file and a minimal (pre-chain style) manifest
    entry, so an :class:`repro.service.store.ArrayStore` opened on
    *root* serves a container it did not encode — a golden fixture, or
    one crafted to be wrong.
    """
    import json
    import os

    from repro.compressor.container import TiledReader

    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, f"{name}.rqsz"), "wb") as fh:
        fh.write(blob)
    with TiledReader(blob) as reader:
        entry = {
            "file": f"{name}.rqsz",
            "shape": reader.header["shape"],
            "dtype": reader.header["dtype"],
            "tile_shape": reader.header["tile_shape"],
        }
    with open(os.path.join(root, "store.json"), "w") as fh:
        json.dump({"datasets": {name: entry}}, fh)
