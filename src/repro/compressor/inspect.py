"""Machine-readable description of any RQSZ container.

:func:`describe_container` turns a blob/path into the JSON-friendly
dict behind ``repro inspect`` — container version, header fields, and
for tiled containers the tile map with per-tile byte extents and the
adaptive per-tile codec choices.  The serving subsystem's
``stat`` endpoint returns exactly this structure, so the CLI and the
HTTP API cannot drift apart.
"""

from __future__ import annotations

import os
from typing import BinaryIO

from repro.compressor.container import SECTION_NAMES, TiledReader

__all__ = ["describe_container"]


def describe_container(
    source: bytes | str | os.PathLike | BinaryIO,
    verify: bool = False,
) -> dict:
    """Describe any RQSZ container (v2-v7).

    Returns the parsed header plus ``section_bytes`` (a flat v2/v3
    blob) or ``tile_map`` (tile extents — derived ones in v7 — payload
    sizes, for adaptive containers the per-tile configs with an
    ``adaptive`` roll-up, and for temporal ones each tile's
    temporal/spatial choice with a ``temporal`` roll-up).
    Tiled descriptions carry an ``integrity`` block: the declared
    checksum algorithm and the verification state — ``"verified"`` /
    ``"unknown"`` from header+TOC alone, upgraded by ``verify=True``
    to a full read of every tile payload, which also splits the file
    into ``tile_map.stage_bytes`` (what the codec stages produced) and
    ``framing_bytes`` (everything else).  Raises
    :class:`~repro.compressor.container.ContainerFormatError` (a
    ``ValueError``) for anything that is not a well-formed container,
    including checksum mismatches.
    """
    # described from header + TOC alone: a path goes to TiledReader's
    # random-access reads instead of slurping a potentially huge file
    with TiledReader(source) as reader:
        header = dict(reader.header)
        if reader.flat:
            (record,) = reader.tiles
            header["section_bytes"] = {
                name: len(section)
                for name, section in zip(
                    SECTION_NAMES, reader.read_sections(record)
                )
            }
            return header
        state = reader.verify_tiles() if verify else reader.checksum_state
        header["integrity"] = {
            "checksums": reader.checksum_algorithm,
            "state": state,
            "deep": bool(verify),
        }
        sizes = [t.size for t in reader.tiles]
        tiles = []
        for t in reader.tiles:
            entry = {
                "start": list(t.start),
                "stop": list(t.stop),
                "offset": t.offset,
                "size": t.size,
            }
            if t.config is not None:
                entry["config"] = t.config
            if reader.temporal:
                entry["temporal"] = bool(t.temporal)
            tiles.append(entry)
        header["tile_map"] = {
            "n_tiles": len(reader.tiles),
            "payload_bytes": sum(sizes),
            "tile_bytes_min": min(sizes, default=0),
            "tile_bytes_max": max(sizes, default=0),
            "tiles": tiles,
        }
        configs = [t.config for t in reader.tiles if t.config]
        if configs:
            counts: dict = {}
            for cfg in configs:
                predictor = cfg.get("predictor", "?")
                counts[predictor] = counts.get(predictor, 0) + 1
            bounds = [
                cfg["error_bound"]
                for cfg in configs
                if "error_bound" in cfg
            ]
            header["tile_map"]["adaptive"] = {
                "predictor_counts": counts,
                "error_bound_min": min(bounds, default=None),
                "error_bound_max": max(bounds, default=None),
            }
        if verify:
            sections = map(reader.read_sections, reader.tiles)
            stage = sum(len(s) for tile in sections for s in tile)
            header["tile_map"]["stage_bytes"] = stage
            header["tile_map"]["framing_bytes"] = reader.nbytes - stage
        if reader.temporal:
            n_temporal = sum(1 for t in reader.tiles if t.temporal)
            header["tile_map"]["temporal"] = {
                "temporal_tiles": n_temporal,
                "spatial_tiles": len(reader.tiles) - n_temporal,
            }
    return header
