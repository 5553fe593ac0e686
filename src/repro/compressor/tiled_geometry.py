"""Tile-grid and hyperslab geometry shared by the tiled subsystem.

Pure index-space helpers — no I/O, no codec state — used by
:class:`repro.compressor.tiled.TiledCompressor`, the adaptive planner
(:mod:`repro.compressor.adaptive`), the serving store and the chunked
storage layer (:mod:`repro.storage.hdf5sim`).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "tile_grid",
    "iter_tiles",
    "normalize_region",
    "intersect_extent",
    "intersecting_tiles",
    "extent_slices",
    "copy_overlap",
    "parse_region_text",
    "format_region",
]


def tile_grid(
    shape: Sequence[int], tile_shape: Sequence[int]
) -> tuple[int, ...]:
    """Number of tiles along each axis (ceiling division)."""
    if len(tile_shape) != len(shape):
        raise ValueError(
            f"tile shape {tuple(tile_shape)} does not match array "
            f"dimensionality {tuple(shape)}"
        )
    if any(t < 1 for t in tile_shape):
        raise ValueError("tile dimensions must be positive")
    return tuple((n + t - 1) // t for n, t in zip(shape, tile_shape))


def iter_tiles(
    shape: Sequence[int], tile_shape: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every tile's ``(start, stop)`` extents, in C order.

    Edge tiles are clipped to the array bounds, so stops never exceed
    the shape.
    """
    tile_grid(shape, tile_shape)  # validates rank/positivity
    dims = list(zip(map(int, shape), map(int, tile_shape)))
    starts = [range(0, n, t) for n, t in dims]
    stops = [[min(a + t, n) for a in range(0, n, t)] for n, t in dims]
    return zip(itertools.product(*starts), itertools.product(*stops))


def extent_slices(
    start: Sequence[int], stop: Sequence[int]
) -> tuple[slice, ...]:
    """The index expression selecting the extent ``start``..``stop``."""
    return tuple(slice(a, b) for a, b in zip(start, stop))


def normalize_region(
    region: Sequence[slice | int] | slice | int,
    shape: Sequence[int],
) -> tuple[slice, ...]:
    """Resolve *region* to per-axis ``slice(start, stop)`` with step 1.

    Accepts slices with non-negative (or ``None``) endpoints and
    integers (kept as width-1 slices, so dimensionality is preserved;
    negative integers index from the end, numpy style).  Missing
    trailing axes default to the full extent.

    Slices with a step other than 1 or with negative endpoints raise
    ``ValueError``: a region describes a contiguous hyperslab of a
    (possibly huge, remote) container, where a reversed, strided or
    end-relative slice is far more likely a caller bug than an intent
    the tile reader could serve.
    """
    if isinstance(region, (slice, int)):
        region = (region,)
    region = tuple(region)
    if len(region) > len(shape):
        raise ValueError(
            f"region has {len(region)} axes but the array has {len(shape)}"
        )
    region = region + (slice(None),) * (len(shape) - len(region))
    out: list[slice] = []
    for axis, (item, n) in enumerate(zip(region, shape)):
        if isinstance(item, (int, np.integer)):
            item = int(item)
            if item < -n or item >= n:
                raise IndexError(
                    f"index {item} out of bounds for axis {axis} "
                    f"with size {n}"
                )
            start = item + n if item < 0 else item
            out.append(slice(start, start + 1))
            continue
        if not isinstance(item, slice):
            raise ValueError(
                f"region axis {axis} must be a slice or an integer, "
                f"got {type(item).__name__}"
            )
        if item.step not in (None, 1):
            raise ValueError(
                f"region slices must have step 1; axis {axis} has "
                f"step {item.step!r}"
            )
        for name, endpoint in (("start", item.start), ("stop", item.stop)):
            if endpoint is None:
                continue
            if not isinstance(endpoint, (int, np.integer)):
                raise ValueError(
                    f"region slice {name} on axis {axis} must be an "
                    f"integer or None, got {type(endpoint).__name__}"
                )
            if endpoint < 0:
                raise ValueError(
                    f"region slices must have non-negative endpoints; "
                    f"axis {axis} has {name} {int(endpoint)}"
                )
        start = 0 if item.start is None else min(int(item.start), n)
        stop = n if item.stop is None else min(int(item.stop), n)
        out.append(slice(start, max(start, stop)))
    return tuple(out)


def parse_region_text(text: str) -> tuple:
    """Parse ``"0:32,16:48,:"`` into per-axis slices (ints stay ints).

    The textual hyperslab form shared by the CLI (``--region``) and the
    serving subsystem's ``slab`` query parameter.  Raises ``ValueError``
    on malformed input; bounds are validated later by
    :func:`normalize_region` against a concrete shape.
    """
    items: list = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            bounds = part.split(":")
            if len(bounds) != 2:
                raise ValueError(f"invalid region {text!r}")
            try:
                start = int(bounds[0]) if bounds[0] else None
                stop = int(bounds[1]) if bounds[1] else None
            except ValueError:
                raise ValueError(f"invalid region {text!r}") from None
            items.append(slice(start, stop))
        else:
            try:
                items.append(int(part))
            except ValueError:
                raise ValueError(f"invalid region {text!r}") from None
    return tuple(items)


def format_region(region: Sequence[slice | int] | slice | int) -> str:
    """Inverse of :func:`parse_region_text` (accepts ints and slices)."""
    if isinstance(region, (slice, int, np.integer)):
        region = (region,)
    parts: list[str] = []
    for item in region:
        if isinstance(item, (int, np.integer)):
            parts.append(str(int(item)))
            continue
        if not isinstance(item, slice):
            raise ValueError(
                f"region items must be slices or ints, "
                f"got {type(item).__name__}"
            )
        if item.step not in (None, 1):
            raise ValueError("region slices must have step 1")
        start = "" if item.start is None else str(int(item.start))
        stop = "" if item.stop is None else str(int(item.stop))
        parts.append(f"{start}:{stop}")
    if not parts:
        raise ValueError("region must have at least one axis")
    return ",".join(parts)


def copy_overlap(
    out: np.ndarray,
    region: Sequence[slice],
    tile: np.ndarray,
    tile_start: Sequence[int],
    overlap: Sequence[slice],
) -> None:
    """Paste a decoded tile's overlap into the output hyperslab.

    ``overlap`` is in global coordinates (as returned by
    :func:`intersect_extent`); this shifts it into the tile's local
    frame on the read side and the region's frame on the write side.
    Shared by every region-assembling reader (tiled containers and the
    serving subsystem).
    """
    tile_slc = tuple(
        slice(o.start - a, o.stop - a)
        for o, a in zip(overlap, tile_start)
    )
    out_slc = tuple(
        slice(o.start - r.start, o.stop - r.start)
        for o, r in zip(overlap, region)
    )
    out[out_slc] = tile[tile_slc]


def intersect_extent(
    start: Sequence[int],
    stop: Sequence[int],
    region: Sequence[slice],
) -> tuple[slice, ...] | None:
    """Overlap of a tile extent with a normalized region.

    Returns global-coordinate slices of the overlap, or ``None`` when
    the tile and the region are disjoint.
    """
    overlap: list[slice] = []
    for a, b, r in zip(start, stop, region):
        lo, hi = max(a, r.start), min(b, r.stop)
        if lo >= hi:
            return None
        overlap.append(slice(lo, hi))
    return tuple(overlap)


def intersecting_tiles(records, region: Sequence[slice]) -> list[tuple]:
    """``(record, overlap)`` for every tile record that meets *region*.

    *records* carry ``start``/``stop`` extents (a container's TOC
    records) and keep their order; ``overlap`` is what
    :func:`intersect_extent` returns for the record.  What every
    region-assembling reader decodes, and nothing else.
    """
    return [
        (record, overlap)
        for record in records
        for overlap in [intersect_extent(record.start, record.stop, region)]
        if overlap is not None
    ]
