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
fitted from one sampling pass over all same-shaped tiles of the
snapshot and the one whose estimated bit-rate at the allocated bound is
lower wins (tiny tiles, where sampling is meaningless, simply encode
both and keep the smaller payload).

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
from repro.core.sampling import iter_tile_batches
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

#: points per shared model pass.  A pass gathers two 2^d-neighbour
#: float64 stencil tables per sampled point, for the tile and for its
#: residual, so the batch — not the snapshot — bounds that memory: at
#: most 2 * 2 * 2^d * 8 B per point (small tiles are sampled whole),
#: 8 MB in 3-D.  Measured on 8192-point tiles, a pass of four tiles is
#: within 1 ms per put of a pass of all of them
_MODEL_BATCH_POINTS = 1 << 15


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
    #: the decoded snapshot — what ``decompress(blob, reference)``
    #: returns — when ``compress_snapshot`` was asked to surface it and
    #: every tile's codec could; ``None`` otherwise
    reconstruction: np.ndarray | None = None

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
    itself is sequential.  The temporal/spatial choice costs less than
    the encodes it steers: tiles are grouped by shape and every group
    is sampled once for both candidates of all its tiles
    (:meth:`RatioQualityModel.fit_stack`), then each tile's two rates
    are read off that pass.  ``sample_rate`` / ``seed`` parameterize
    those fits; note that :data:`repro.core.sampling.MIN_SAMPLES`
    floors the sample at 4096 points, so on an 8192-point tile the
    nominal 5 % is an effective 50 %.
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
        reconstruct: bool = False,
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

        With ``reconstruct`` the result also carries the decoded
        snapshot (``result.reconstruction``), assembled from what the
        predict-quantize stage of every tile already holds — residual
        tiles pass through the same :meth:`combine` the reader uses.
        """
        if not hasattr(data, "ndim"):
            data = np.asarray(data)
        if config.mode is ErrorBoundMode.PW_REL:
            raise ValueError(
                "temporal delta mode supports ABS and REL bounds only"
            )
        spatial_config = replace(config, temporal=False)
        if reference is None:
            return self._keyframe(data, spatial_config, out, reconstruct)
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
            return self._keyframe(data, spatial_config, out, reconstruct)
        return self._delta(
            data,
            spatial_config,
            reference,
            abs_eb,
            ref_id,
            snapshot_index,
            out,
            reconstruct,
        )

    def _keyframe(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        out: str | os.PathLike | BinaryIO | None,
        reconstruct: bool,
    ) -> TemporalResult:
        result: TiledResult = self._tiled.compress(
            data, config, out=out, reconstruct=reconstruct
        )
        return TemporalResult(
            n_points=result.n_points,
            original_bytes=result.original_bytes,
            compressed_bytes=result.compressed_bytes,
            tile_shape=result.tile_shape,
            tiles=result.tiles,
            keyframe=True,
            blob=result.blob,
            times=result.times,
            reconstruction=result.reconstruction,
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
        reconstruct: bool,
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

        extents = list(iter_tiles(data.shape, tile_shape))
        stats = TemporalStats(tiles=len(extents))
        # per tile: (payload, decoded tile or None, is_temporal)
        encoded: list[tuple[bytes, np.ndarray | None, bool]] = [
            None
        ] * len(extents)

        def encode(array, cfg, ref_tile=None):
            result = self._codec.compress(array, cfg, reconstruct=reconstruct)
            tile = result.reconstruction
            if tile is not None and ref_tile is not None:
                tile = self.combine(tile, ref_tile)
            return result.blob, tile, ref_tile is not None

        with Timer() as t:
            if np.issubdtype(data.dtype, np.floating):
                # same-shaped tiles share one model pass (edge tiles of
                # a non-divisible grid form their own groups)
                for (indices, tiles), (_, refs) in zip(
                    iter_tile_batches(data, extents, _MODEL_BATCH_POINTS),
                    iter_tile_batches(
                        reference, extents, _MODEL_BATCH_POINTS
                    ),
                ):
                    # float residuals round at worst by an ULP, absorbed
                    # by the decoder-side slack every float codec carries
                    residuals = (tiles - refs).astype(data.dtype)
                    tiles = tiles.astype(data.dtype)
                    verdicts = self._choose(
                        tiles, residuals, tile_cfg, abs_eb, stats
                    )
                    for k, index in enumerate(indices):
                        candidates = []
                        if verdicts[k] is not False:
                            candidates.append(
                                encode(residuals[k], residual_cfg, refs[k])
                            )
                        if verdicts[k] is not True:
                            candidates.append(encode(tiles[k], tile_cfg))
                        # a measured decision keeps the smaller payload
                        # (the temporal one on a tie)
                        encoded[index] = min(
                            candidates, key=lambda c: len(c[0])
                        )
            else:
                # integer residuals can overflow the dtype, so those
                # tiles decline the temporal candidate: spatial
                # encoding is always safe
                for index, (start, stop) in enumerate(extents):
                    slc = tuple(slice(a, b) for a, b in zip(start, stop))
                    encoded[index] = encode(
                        np.ascontiguousarray(data[slc]), tile_cfg
                    )
        stats.temporal_tiles = sum(temporal for _, _, temporal in encoded)
        stats.spatial_tiles = stats.tiles - stats.temporal_tiles
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
                for (start, stop), (payload, _, temporal) in zip(
                    extents, encoded
                ):
                    writer.add_tile(
                        start, stop, payload, temporal=temporal
                    )
            times.add("io", t.elapsed)
            total = writer.finish()
        finally:
            if close_sink:
                sink.close()

        reconstruction = None
        if reconstruct and all(tile is not None for _, tile, _ in encoded):
            reconstruction = np.empty(data.shape, dtype=data.dtype)
            for (start, stop), (_, tile, _) in zip(extents, encoded):
                reconstruction[
                    tuple(slice(a, b) for a, b in zip(start, stop))
                ] = tile

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
            reconstruction=reconstruction,
        )

    def _choose(
        self,
        tiles: np.ndarray,
        residuals: np.ndarray,
        tile_cfg: CompressionConfig,
        abs_eb: float,
        stats: TemporalStats,
    ) -> list[bool | None]:
        """Verdict per member of two ``(k, *tile_shape)`` stacks.

        ``True`` = temporal, ``False`` = spatial, ``None`` = encode both
        and keep the smaller (tiny tile or degenerate fit).  Fits the
        paper's rate-quality model on both candidates and compares the
        estimated bit-rates at the allocated bound — the snippet-2
        predictor-comparison idiom, for all tiles of one shape from one
        sampling pass.
        """
        verdicts: list[bool | None] = [None] * len(tiles)
        axes = tuple(range(1, residuals.ndim))
        # the reference alone already satisfies the bound: the residual
        # quantizes to all zeros — nothing can beat it
        trivial = np.max(np.abs(residuals), axis=axes) <= abs_eb
        stats.trivial_tiles += int(trivial.sum())
        for k in np.flatnonzero(trivial):
            verdicts[k] = True
        undecided = np.flatnonzero(~trivial)
        if tiles[0].size >= _MIN_MODEL_TILE and undecided.size:
            candidates = [
                ("lorenzo", residuals[undecided]),
                (tile_cfg.predictor, tiles[undecided]),
            ]
            if tile_cfg.predictor == "lorenzo":
                candidates = [
                    ("lorenzo", np.concatenate([c for _, c in candidates]))
                ]
            rates = [
                rate
                for predictor, stack in candidates
                for rate in self._model_rates(
                    stack, predictor, tile_cfg, abs_eb
                )
            ]
            for k, temporal_rate, spatial_rate in zip(
                undecided, rates, rates[undecided.size :]
            ):
                if temporal_rate is not None and spatial_rate is not None:
                    verdicts[k] = bool(temporal_rate <= spatial_rate)
        decided = sum(verdict is not None for verdict in verdicts)
        stats.measured_decisions += len(verdicts) - decided
        stats.model_decisions += decided - int(trivial.sum())
        return verdicts

    def _model_rates(
        self,
        stack: np.ndarray,
        predictor: str,
        tile_cfg: CompressionConfig,
        abs_eb: float,
    ) -> list[float | None]:
        """Estimated bit-rate of every member of *stack* at *abs_eb*.

        ``None`` where the model has no finite answer.  A failed batch
        fit is retried member by member, so one degenerate tile costs
        only itself the model's verdict.
        """
        degenerate = (ValueError, ZeroDivisionError, FloatingPointError)
        try:
            models = RatioQualityModel.fit_stack(
                stack,
                predictor=predictor,
                sample_rate=self._sample_rate,
                radius=tile_cfg.quant_radius,
                use_lossless=tile_cfg.lossless is not None,
                seed=self._seed,
            )
        except degenerate:
            if len(stack) == 1:
                return [None]
            return [
                self._model_rates(
                    stack[k : k + 1], predictor, tile_cfg, abs_eb
                )[0]
                for k in range(len(stack))
            ]
        rates: list[float | None] = []
        for model in models:
            try:
                rate = model.bitrate(abs_eb)
            except degenerate:
                rate = float("nan")
            rates.append(rate if np.isfinite(rate) else None)
        return rates

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
