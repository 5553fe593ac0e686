"""Temporal delta compression for snapshot streams (v6 container).

The paper's in-situ use case dumps a *time series* of simulation
snapshots.  Successive snapshots are strongly correlated, so predicting
snapshot *t* from snapshot *t−1* usually leaves a much cheaper residual
than spatial prediction alone — but not everywhere: advection fronts,
re-meshing or chaotic regions can make the temporal residual *worse*
than the tile's own spatial structure.

:class:`TemporalCompressor` therefore works per tile:

* the **temporal** candidate encodes ``tile_t − decoded(tile_{t−1})``
  under the snapshot's absolute bound;
* the **spatial** candidate encodes the tile's samples directly, as the
  tiled compressor would.

The reference is always the *decoded* previous snapshot, so the bound
telescopes: ``|recon_t − tile_t| = |residual' − residual| ≤ eb``
independently of chain depth — no drift accumulates.  The choice
between the candidates is driven by the paper's rate-quality model
(:class:`repro.core.model.RatioQualityModel`): both candidates are
fitted at a low sampling rate and the one whose estimated bit-rate at
the allocated bound is lower wins (tiny tiles, where sampling is
meaningless, simply encode both and keep the smaller payload).

On disk a delta snapshot is a **v6** container: the familiar tiled
frame, plus a ``tile_modes`` map in the TOC (1 = temporal residual,
0 = spatial) and header fields ``ref_snapshot`` / ``snapshot_index`` /
``temporal_stats`` so tooling (``repro inspect --json``) can show how
the stream was encoded.  Keyframes — snapshots with no reference — are
plain v4 containers and anchor random access: a chain of deltas decodes
by walking back to the nearest keyframe.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Sequence

import numpy as np

from repro.compressor import container
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.container import TiledReader, TiledWriter, TileRecord
from repro.compressor.sz import SZCompressor
from repro.compressor.tiled import TiledCompressor, TiledResult
from repro.compressor.tiled_geometry import (
    copy_overlap,
    intersect_extent,
    iter_tiles,
    normalize_region,
)
from repro.core.model import RatioQualityModel
from repro.utils.stats import value_range
from repro.utils.timer import StageTimes, Timer

__all__ = [
    "TemporalCompressor",
    "TemporalResult",
    "TemporalStats",
]

#: below this many samples the rate model's sampling pass is noise —
#: encode both candidates and keep the smaller payload instead
_MIN_MODEL_TILE = 64


@dataclass
class TemporalStats:
    """Deterministic per-snapshot counters of the temporal/spatial choice.

    Stored in the v6 header as ``temporal_stats`` (the ``planner_stats``
    idiom), so ``repro inspect --json`` can show how a snapshot was
    encoded without decoding it.
    """

    #: tiles in the snapshot
    tiles: int = 0
    #: tiles encoded as temporal residuals
    temporal_tiles: int = 0
    #: tiles that fell back to spatial prediction
    spatial_tiles: int = 0
    #: temporal tiles whose residual was already within the bound
    #: (quantizes to all zeros — the cheapest possible tile)
    trivial_tiles: int = 0
    #: tiles decided by comparing rate-quality model estimates
    model_decisions: int = 0
    #: tiles decided by encoding both candidates (tiny tiles / fit
    #: failures), keeping the smaller measured payload
    measured_decisions: int = 0

    def to_json(self) -> dict:
        return {
            "tiles": self.tiles,
            "temporal_tiles": self.temporal_tiles,
            "spatial_tiles": self.spatial_tiles,
            "trivial_tiles": self.trivial_tiles,
            "model_decisions": self.model_decisions,
            "measured_decisions": self.measured_decisions,
        }


@dataclass
class TemporalResult:
    """Outcome of one snapshot compression (keyframe or delta)."""

    n_points: int
    original_bytes: int
    compressed_bytes: int
    tile_shape: tuple[int, ...]
    tiles: list[TileRecord]
    keyframe: bool
    blob: bytes | None = None
    times: StageTimes = field(default_factory=StageTimes)
    #: id of the reference snapshot (``None`` for keyframes)
    ref_snapshot: str | None = None
    #: choice counters (``None`` for keyframes)
    stats: TemporalStats | None = None

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def ratio(self) -> float:
        return self.original_bytes / self.compressed_bytes

    @property
    def bit_rate(self) -> float:
        if self.n_points == 0:
            return 0.0
        return 8.0 * self.compressed_bytes / self.n_points


class TemporalCompressor:
    """Snapshot-stream front-end: temporal deltas over the tiled codec.

    ``workers`` / ``backend`` configure the tiled compressor used for
    keyframes and for full spatial fallbacks; per-tile delta encoding
    itself is sequential (the decision logic is the bottleneck, not the
    codec).  ``sample_rate`` / ``seed`` parameterize the rate-quality
    model fits that drive the temporal/spatial choice.
    """

    def __init__(
        self,
        workers: int | None = None,
        codec: SZCompressor | None = None,
        backend: str | None = None,
        sample_rate: float = 0.05,
        seed: int | None = 0,
    ) -> None:
        self._codec = codec or SZCompressor()
        self._tiled = TiledCompressor(
            workers=workers, codec=codec, backend=backend
        )
        self._sample_rate = float(sample_rate)
        self._seed = seed

    # -- compression -----------------------------------------------------------

    def compress_snapshot(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        reference: np.ndarray | None = None,
        ref_id: str | None = None,
        snapshot_index: int = 0,
        out: str | os.PathLike | BinaryIO | None = None,
    ) -> TemporalResult:
        """Compress one snapshot of a stream.

        With ``reference=None`` the snapshot is a **keyframe**: it
        delegates to the tiled compressor (v4 container) and decodes
        standalone.  With a reference — the *decoded* previous snapshot
        — each tile encodes either the temporal residual against the
        reference or its own samples, whichever the rate-quality model
        prices cheaper at the bound, and the result is a v6 container
        whose header records ``ref_id`` / ``snapshot_index``.

        ``config.mode`` must be ``ABS`` or ``REL`` (enforced by
        :class:`CompressionConfig` when ``temporal=True``); ``REL``
        resolves against the *current* snapshot's value range, matching
        the flat pipeline's per-array semantics.
        """
        if not hasattr(data, "ndim"):
            data = np.asarray(data)
        if config.mode is ErrorBoundMode.PW_REL:
            raise ValueError(
                "temporal delta mode supports ABS and REL bounds only"
            )
        spatial_config = replace(config, temporal=False)
        if reference is None:
            return self._keyframe(data, spatial_config, out)
        reference = np.asarray(reference)
        if reference.shape != data.shape:
            raise ValueError(
                f"reference shape {reference.shape} does not match "
                f"snapshot shape {data.shape}"
            )
        abs_eb = (
            float(config.error_bound)
            if config.mode is ErrorBoundMode.ABS
            else float(config.error_bound) * value_range(data)
        )
        if data.size == 0 or abs_eb <= 0:
            # empty or constant-range REL snapshots are stored exactly
            # by the spatial path; a delta buys nothing
            return self._keyframe(data, spatial_config, out)
        return self._delta(
            data,
            spatial_config,
            reference,
            abs_eb,
            ref_id,
            snapshot_index,
            out,
        )

    def _keyframe(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        out: str | os.PathLike | BinaryIO | None,
    ) -> TemporalResult:
        result: TiledResult = self._tiled.compress(data, config, out=out)
        return TemporalResult(
            n_points=result.n_points,
            original_bytes=result.original_bytes,
            compressed_bytes=result.compressed_bytes,
            tile_shape=result.tile_shape,
            tiles=result.tiles,
            keyframe=True,
            blob=result.blob,
            times=result.times,
        )

    def _delta(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        reference: np.ndarray,
        abs_eb: float,
        ref_id: str | None,
        snapshot_index: int,
        out: str | os.PathLike | BinaryIO | None,
    ) -> TemporalResult:
        tile_shape = TiledCompressor._resolve_tile_shape(
            data.shape, config
        )
        times = StageTimes()
        # per-tile configs run the flat codec directly: strip the tiled
        # fields and pin the resolved absolute bound
        tile_cfg = replace(
            config,
            tile_shape=None,
            adaptive=False,
            parallel_backend=None,
            fit_clusters=None,
            plan_cache=None,
            mode=ErrorBoundMode.ABS,
            error_bound=abs_eb,
        )
        # residuals are structureless noise around zero; the Lorenzo
        # predictor is the cheap robust choice for them regardless of
        # which spatial predictor the stream is configured with
        residual_cfg = replace(tile_cfg, predictor="lorenzo")

        stats = TemporalStats()
        encoded: list[tuple[tuple, tuple, bytes, bool]] = []
        with Timer() as t:
            for start, stop in iter_tiles(data.shape, tile_shape):
                slc = tuple(slice(a, b) for a, b in zip(start, stop))
                tile = np.ascontiguousarray(data[slc])
                payload, temporal = self._encode_tile(
                    tile,
                    np.ascontiguousarray(reference[slc]),
                    tile_cfg,
                    residual_cfg,
                    abs_eb,
                    stats,
                )
                stats.tiles += 1
                if temporal:
                    stats.temporal_tiles += 1
                else:
                    stats.spatial_tiles += 1
                encoded.append((start, stop, payload, temporal))
        times.add("encode_tiles", t.elapsed)

        header = {
            "shape": list(data.shape),
            "dtype": data.dtype.str,
            "tile_shape": list(tile_shape),
            "predictor": config.predictor,
            "mode": config.mode.value,
            "error_bound": config.error_bound,
            "lossless": config.lossless,
            "chunk_size": config.chunk_size,
            "quant_radius": config.quant_radius,
            "temporal": True,
            "ref_snapshot": ref_id,
            "snapshot_index": int(snapshot_index),
            "abs_eb": abs_eb,
            "temporal_stats": stats.to_json(),
        }

        sink, close_sink = TiledCompressor._open_sink(out)
        try:
            writer = TiledWriter(
                sink, header, version=container.VERSION_TEMPORAL
            )
            with Timer() as t:
                for start, stop, payload, temporal in encoded:
                    writer.add_tile(
                        start, stop, payload, temporal=temporal
                    )
            times.add("io", t.elapsed)
            total = writer.finish()
        finally:
            if close_sink:
                sink.close()

        blob = sink.getvalue() if isinstance(sink, io.BytesIO) else None
        return TemporalResult(
            n_points=int(data.size),
            original_bytes=int(data.nbytes),
            compressed_bytes=total,
            tile_shape=tile_shape,
            tiles=writer.tiles,
            keyframe=False,
            blob=blob,
            times=times,
            ref_snapshot=ref_id,
            stats=stats,
        )

    def _encode_tile(
        self,
        tile: np.ndarray,
        ref_tile: np.ndarray,
        tile_cfg: CompressionConfig,
        residual_cfg: CompressionConfig,
        abs_eb: float,
        stats: TemporalStats,
    ) -> tuple[bytes, bool]:
        """Encode one tile; returns ``(payload, is_temporal)``."""
        residual = self._residual(tile, ref_tile)
        if residual is None:
            # residual not representable in the dtype (integer
            # overflow risk): spatial encoding is always safe
            return self._codec.compress(tile, tile_cfg).blob, False
        if float(np.max(np.abs(residual))) <= abs_eb:
            # the reference alone already satisfies the bound: the
            # residual quantizes to all zeros — nothing can beat it
            stats.trivial_tiles += 1
            return self._codec.compress(residual, residual_cfg).blob, True
        choice = self._model_choice(tile, residual, tile_cfg, abs_eb)
        if choice is None:
            # tiny tile or degenerate fit: measure both candidates
            stats.measured_decisions += 1
            t_blob = self._codec.compress(residual, residual_cfg).blob
            s_blob = self._codec.compress(tile, tile_cfg).blob
            if len(t_blob) <= len(s_blob):
                return t_blob, True
            return s_blob, False
        stats.model_decisions += 1
        if choice:
            return self._codec.compress(residual, residual_cfg).blob, True
        return self._codec.compress(tile, tile_cfg).blob, False

    @staticmethod
    def _residual(
        tile: np.ndarray, ref_tile: np.ndarray
    ) -> np.ndarray | None:
        """``tile − reference`` in the tile's dtype, or ``None``.

        Float residuals round at worst by an ULP (absorbed by the
        decoder-side slack every float codec already carries); integer
        residuals can overflow the dtype, so those tiles decline the
        temporal candidate.
        """
        if not np.issubdtype(tile.dtype, np.floating):
            return None
        diff = tile.astype(np.float64) - ref_tile.astype(np.float64)
        return diff.astype(tile.dtype)

    def _model_choice(
        self,
        tile: np.ndarray,
        residual: np.ndarray,
        tile_cfg: CompressionConfig,
        abs_eb: float,
    ) -> bool | None:
        """Rate-model verdict: ``True`` = temporal, ``None`` = measure.

        Fits the paper's rate-quality model on both candidates at a low
        sampling rate and compares the estimated bit-rates at the
        allocated bound — the snippet-2 predictor-comparison idiom,
        applied per tile.
        """
        if tile.size < _MIN_MODEL_TILE:
            return None
        try:
            temporal_rate = (
                RatioQualityModel(
                    predictor="lorenzo",
                    sample_rate=self._sample_rate,
                    radius=tile_cfg.quant_radius,
                    use_lossless=tile_cfg.lossless is not None,
                    seed=self._seed,
                )
                .fit(residual)
                .bitrate(abs_eb)
            )
            spatial_rate = (
                RatioQualityModel(
                    predictor=tile_cfg.predictor,
                    sample_rate=self._sample_rate,
                    radius=tile_cfg.quant_radius,
                    use_lossless=tile_cfg.lossless is not None,
                    seed=self._seed,
                )
                .fit(tile)
                .bitrate(abs_eb)
            )
        except (ValueError, ZeroDivisionError, FloatingPointError):
            return None
        if not (
            np.isfinite(temporal_rate) and np.isfinite(spatial_rate)
        ):
            return None
        return bool(temporal_rate <= spatial_rate)

    # -- decompression ---------------------------------------------------------

    def decompress(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        reference: np.ndarray | None = None,
        workers: int | None = None,
    ) -> np.ndarray:
        """Decode a full snapshot.

        Keyframes (flat or v4/v5 containers) decode standalone; v6
        delta snapshots require ``reference`` — the *decoded* snapshot
        the container's ``ref_snapshot`` header names.
        """
        if not self._is_temporal(source):
            return self._tiled.decompress(source, workers=workers)
        with TiledReader(source) as reader:
            shape = tuple(reader.header["shape"])
            region = tuple(slice(0, n) for n in shape)
            return self._decode_tiles(reader, region, reference)

    def decompress_region(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        region: Sequence[slice | int] | slice | int,
        reference: np.ndarray | None = None,
        workers: int | None = None,
    ) -> np.ndarray:
        """Decode only the hyperslab *region* of a snapshot.

        For v6 delta snapshots ``reference`` must cover the full
        snapshot shape (only the region's tiles of it are read).
        """
        if not self._is_temporal(source):
            return self._tiled.decompress_region(
                source, region, workers=workers
            )
        with TiledReader(source) as reader:
            shape = tuple(reader.header["shape"])
            return self._decode_tiles(
                reader, normalize_region(region, shape), reference
            )

    @staticmethod
    def combine(
        residual: np.ndarray, ref_tile: np.ndarray
    ) -> np.ndarray:
        """Reconstruct a tile from its decoded residual + reference tile.

        Pure elementwise float64 addition cast back to the tile dtype —
        deterministic across executor backends, so chain decodes stay
        byte-identical however the payloads were decoded.
        """
        return (
            residual.astype(np.float64) + ref_tile.astype(np.float64)
        ).astype(residual.dtype)

    def _decode_tiles(
        self,
        reader: TiledReader,
        region: tuple[slice, ...],
        reference: np.ndarray | None,
    ) -> np.ndarray:
        dtype = np.dtype(reader.header["dtype"])
        shape = tuple(reader.header["shape"])
        needs_ref = any(record.temporal for record in reader.tiles)
        if needs_ref and reference is None:
            raise ValueError(
                "temporal (v6) snapshot needs its decoded reference "
                f"snapshot {reader.header.get('ref_snapshot')!r}"
            )
        if reference is not None and tuple(reference.shape) != shape:
            raise ValueError(
                f"reference shape {tuple(reference.shape)} does not "
                f"match snapshot shape {shape}"
            )
        out_shape = tuple(r.stop - r.start for r in region)
        out = np.zeros(out_shape, dtype=dtype)
        for record in reader.tiles:
            overlap = intersect_extent(record.start, record.stop, region)
            if overlap is None:
                continue
            tile = self._codec.decompress(reader.read_tile(record))
            if record.temporal:
                slc = tuple(
                    slice(a, b)
                    for a, b in zip(record.start, record.stop)
                )
                tile = self.combine(
                    tile, np.ascontiguousarray(reference[slc])
                )
            copy_overlap(out, region, tile, record.start, overlap)
        return out

    @staticmethod
    def _is_temporal(
        source: bytes | str | os.PathLike | BinaryIO,
    ) -> bool:
        """True when *source* is a v6 container (cheap header sniff)."""
        probe = len(container.MAGIC) + 1
        if isinstance(source, (bytes, bytearray, memoryview)):
            head = bytes(source[:probe])
        elif isinstance(source, (str, os.PathLike)):
            with open(source, "rb") as fh:
                head = fh.read(probe)
        else:
            pos = source.tell()
            head = source.read(probe)
            source.seek(pos)
        return (
            len(head) == probe
            and head[: len(container.MAGIC)] == container.MAGIC
            and head[len(container.MAGIC)] == container.VERSION_TEMPORAL
        )
