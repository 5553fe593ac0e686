"""Temporal delta compression for snapshot streams.

The paper's in-situ use case dumps a *time series* of simulation
snapshots.  Successive snapshots are strongly correlated, so predicting
snapshot *t* from snapshot *t−1* usually leaves a much cheaper residual
than spatial prediction alone — but not everywhere: advection fronts,
re-meshing or chaotic regions can make the temporal residual *worse*
than the tile's own spatial structure.

:class:`TemporalCompressor` is that policy and nothing else — the
tile loop, the container writer and every decode belong to
:class:`repro.compressor.tiled.TiledCompressor`, which it feeds one job
per tile.  It works per tile:

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

On disk a delta snapshot is the familiar tiled (v7) frame whose header
says ``temporal``: a ``tile_modes`` map in the TOC (1 = temporal
residual, 0 = spatial) and header fields ``ref_snapshot`` /
``snapshot_index`` / ``temporal_stats`` so tooling (``repro inspect
--json``) can show how the stream was encoded.  Keyframes — snapshots
with no reference — are plain (or adaptive) tiled containers and anchor
random access: a chain of deltas decodes by walking back to the nearest
keyframe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from repro.compressor.adaptive import AdaptivePlanner
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.executor import get_executor
from repro.compressor.plan_cache import PlannerCache
from repro.compressor.sz import SZCompressor
from repro.compressor.tiled import TiledCompressor, TiledResult, TileJob
from repro.compressor.tiled_geometry import extent_slices, iter_tiles
from repro.core.model import RatioQualityModel
from repro.core.sampling import iter_tile_batches
from repro.utils.stats import value_range

__all__ = [
    "TemporalCompressor",
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

    Stored in a delta's header as ``temporal_stats`` (the ``planner_stats``
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


class TemporalCompressor:
    """Snapshot-stream front-end: the temporal/spatial policy.

    Encoding, framing and every decode belong to the tiled compressor
    this one drives (:attr:`tiled`, built from ``workers`` /
    ``backend`` / ``codec`` and the ``planner`` / ``plan_cache`` that
    adaptive keyframes plan with); what lives here is what is temporal:
    the snapshot's absolute bound, the per-tile choice between residual
    and samples, and its counters.  Delta tiles encode on the calling
    thread.  The temporal/spatial choice costs less than the encodes it
    steers: tiles are grouped by shape and every group is sampled once
    for both candidates of all its tiles
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
        planner: AdaptivePlanner | None = None,
        plan_cache: PlannerCache | str | os.PathLike | None = None,
    ) -> None:
        #: the tiled compressor keyframes are written by, deltas are
        #: framed by and everything is decoded by
        self.tiled = TiledCompressor(
            workers=workers,
            codec=codec,
            planner=planner,
            backend=backend,
            plan_cache=plan_cache,
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
    ) -> TiledResult:
        """Compress one snapshot of a stream.

        With ``reference=None`` the snapshot is a **keyframe**: it
        delegates to the tiled compressor and decodes
        standalone.  With a reference — the *decoded* previous
        snapshot — each tile encodes either the temporal residual
        against the reference or its own samples, whichever the
        rate-quality model prices cheaper at the bound, and the result
        is a temporal container whose header records ``ref_id`` /
        ``snapshot_index`` (``result.keyframe`` is false and
        ``result.stats`` counts the choices).

        ``config.mode`` must be ``ABS`` or ``REL`` (enforced by
        :class:`CompressionConfig` when ``temporal=True``); ``REL``
        resolves against the *current* snapshot's value range, matching
        the per-array semantics of every other compress.

        With ``reconstruct`` the result also carries the decoded
        snapshot (``result.reconstruction``), assembled from what the
        predict-quantize stage of every tile already holds — residual
        tiles pass through the same :func:`~repro.compressor.tiled.combine`
        the readers use.
        """
        if not hasattr(data, "ndim"):
            data = np.asarray(data)
        if config.mode is ErrorBoundMode.PW_REL:
            raise ValueError(
                "temporal delta mode supports ABS and REL bounds only"
            )
        config = replace(config, temporal=False)
        abs_eb = 0.0
        if reference is not None:
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
            # no reference; or an empty or constant-range REL snapshot,
            # which the spatial path stores exactly: a delta buys nothing
            return self.tiled.compress(
                data, config, out=out, reconstruct=reconstruct
            )

        tile_shape = self.tiled._resolve_tile_shape(data.shape, config)
        extents = list(iter_tiles(data.shape, tile_shape))
        stats = TemporalStats(tiles=len(extents))

        def header_extra(temporal_flags: list[bool]) -> dict:
            stats.temporal_tiles = sum(temporal_flags)
            stats.spatial_tiles = stats.tiles - stats.temporal_tiles
            return {
                "temporal": True,
                "ref_snapshot": ref_id,
                "snapshot_index": int(snapshot_index),
                "abs_eb": abs_eb,
                "temporal_stats": stats.to_json(),
            }

        delta = self.tiled._encode_tiles(
            data,
            config,
            tile_shape,
            self._delta_jobs(data, reference, extents, config, abs_eb, stats),
            header_extra,
            out,
            reconstruct,
            get_executor("serial", 1),
        )
        return replace(delta, keyframe=False, ref_snapshot=ref_id, stats=stats)

    def _delta_jobs(
        self,
        data: np.ndarray,
        reference: np.ndarray,
        extents: list,
        config: CompressionConfig,
        abs_eb: float,
        stats: TemporalStats,
    ) -> Iterator[TileJob]:
        """One encode job per tile: the candidates the choice left open.

        Jobs come a shape group at a time, not in TOC order (the encode
        loop restores it); the residual candidate, where there is one,
        comes first, so it keeps a measured tie.
        """
        # per-tile configs run the stage codec directly, under the
        # resolved absolute bound
        tile_cfg = config.per_tile(mode=ErrorBoundMode.ABS, error_bound=abs_eb)
        # residuals are structureless noise around zero; the Lorenzo
        # predictor is the cheap robust choice for them regardless of
        # which spatial predictor the stream is configured with
        residual_cfg = replace(tile_cfg, predictor="lorenzo")
        if not np.issubdtype(data.dtype, np.floating):
            # integer residuals can overflow the dtype, so those tiles
            # decline the temporal candidate: spatial encoding is
            # always safe
            for index, (start, stop) in enumerate(extents):
                samples = data[extent_slices(start, stop)]
                yield TileJob(index, start, stop, [(samples, tile_cfg, None)])
            return
        # same-shaped tiles share one model pass (edge tiles of a
        # non-divisible grid form their own groups)
        for (indices, tiles), (_, refs) in zip(
            iter_tile_batches(data, extents, _MODEL_BATCH_POINTS),
            iter_tile_batches(reference, extents, _MODEL_BATCH_POINTS),
        ):
            # float residuals round at worst by an ULP, absorbed by the
            # decoder-side slack every float codec carries
            residuals = (tiles - refs).astype(data.dtype)
            tiles = tiles.astype(data.dtype)
            verdicts = self._choose(tiles, residuals, tile_cfg, abs_eb, stats)
            for k, index in enumerate(indices):
                candidates = []
                if verdicts[k] is not False:
                    candidates.append((residuals[k], residual_cfg, refs[k]))
                if verdicts[k] is not True:
                    candidates.append((tiles[k], tile_cfg, None))
                yield TileJob(index, *extents[index], candidates)

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
    ) -> np.ndarray:
        """Decode a full snapshot.

        Keyframes (any container but a delta) decode standalone;
        delta snapshots require ``reference`` — the *decoded* snapshot
        the container's ``ref_snapshot`` header names.
        """
        return self.tiled.decompress(source, reference=reference)

    def decompress_region(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        region: Sequence[slice | int] | slice | int,
        reference: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode only the hyperslab *region* of a snapshot.

        For delta snapshots ``reference`` must cover the full
        snapshot shape (only the region's tiles of it are read).
        """
        return self.tiled.decompress_region(source, region, reference=reference)
