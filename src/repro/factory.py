"""Shared construction of compressors, configs and ratio-quality models.

The study harness and all three use cases need the same plumbing — a
predictor name, an error-bound mode, sampling parameters and codec
knobs, threaded through to ``CompressionConfig``, ``SZCompressor`` /
``TiledCompressor`` and ``RatioQualityModel`` constructors.  Before this
module each of them carried its own copy of that kwargs forwarding;
:class:`CodecFactory` holds it once.

Usage::

    factory = CodecFactory(predictor="interpolation", sample_rate=0.02)
    model = factory.fit_model(data)
    result = factory.compressor().compress(
        data, factory.config(error_bound=1e-3)
    )
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.compressor import (
    AdaptivePlanner,
    CompressionConfig,
    ErrorBoundMode,
    SZCompressor,
    TemporalCompressor,
    TiledCompressor,
)
from repro.core.model import DEFAULT_SAMPLE_RATE, RatioQualityModel

__all__ = ["CodecFactory"]


@dataclass(frozen=True)
class CodecFactory:
    """One place for the (predictor, mode, codec, sampling) settings.

    Immutable; derive variants with :meth:`with_predictor` or
    ``dataclasses.replace``.
    """

    predictor: str = "lorenzo"
    mode: ErrorBoundMode = ErrorBoundMode.ABS
    lossless: str | None = "zstd_like"
    chunk_size: int | None = None
    tile_shape: tuple[int, ...] | None = None
    adaptive: bool = False
    workers: int | None = None
    #: execution backend for the parallel hot paths ("serial",
    #: "thread", "process"; None keeps the compressors' defaults)
    parallel_backend: str | None = None
    sample_rate: float = DEFAULT_SAMPLE_RATE
    seed: int | None = 0
    #: adaptive-planning fit-reuse cap (None keeps the planner default,
    #: 0 fits every tile individually)
    fit_clusters: int | None = None
    #: path of a file-backed cross-snapshot plan cache (None disables)
    plan_cache: str | None = None
    #: compress snapshot streams as temporal deltas
    temporal: bool = False
    #: every Nth snapshot of a chain is a keyframe, bounding the chain
    #: depth random access has to decode
    keyframe_interval: int = 4

    # -- codec construction ----------------------------------------------------

    def config(self, error_bound: float, **overrides) -> CompressionConfig:
        """A :class:`CompressionConfig` at *error_bound*.

        Keyword *overrides* replace individual config fields (e.g. a
        per-call ``predictor`` or ``tile_shape``).
        """
        base = CompressionConfig(
            predictor=self.predictor,
            mode=self.mode,
            error_bound=float(error_bound),
            lossless=self.lossless,
            chunk_size=self.chunk_size,
            tile_shape=self.tile_shape,
            adaptive=self.adaptive,
            parallel_backend=self.parallel_backend,
            fit_clusters=self.fit_clusters,
            plan_cache=self.plan_cache,
            temporal=self.temporal,
        )
        return replace(base, **overrides) if overrides else base

    def compressor(self) -> SZCompressor:
        """The flat staged-pipeline compressor."""
        return SZCompressor(
            workers=self.workers, backend=self.parallel_backend
        )

    def tiled_compressor(self) -> TiledCompressor:
        """The tiled out-of-core compressor.

        The factory's sampling settings parameterize the adaptive
        planner, so ``adaptive`` runs sample at the rate/seed every
        other model in the study uses; the factory's
        ``parallel_backend``/``workers`` pick the execution backend
        tiles (and the planner's per-tile fits) fan out on.
        """
        return self.temporal_compressor().tiled

    def temporal_compressor(self) -> TemporalCompressor:
        """The snapshot stream delta compressor.

        The factory's sampling settings drive the per-tile
        temporal-vs-spatial rate-model comparison, and the planner and
        plan cache of the tiled compressor its keyframes go through.
        """
        return TemporalCompressor(
            workers=self.workers,
            backend=self.parallel_backend,
            sample_rate=self.sample_rate,
            seed=self.seed,
            planner=AdaptivePlanner(
                sample_rate=self.sample_rate, seed=self.seed
            ),
            plan_cache=self.plan_cache,
        )

    def array_store(self, root, cache=None) -> "ArrayStore":
        """An :class:`repro.service.store.ArrayStore` rooted at *root*.

        Datasets put into the store compress through this factory's
        tiled compressor, so adaptive planning samples at the factory's
        rate/seed and encoding uses its worker count.
        """
        from repro.service.store import ArrayStore

        return ArrayStore(
            root,
            cache=cache,
            workers=self.workers,
            factory=self,
            parallel_backend=self.parallel_backend,
            keyframe_interval=self.keyframe_interval,
        )

    # -- model construction ----------------------------------------------------

    def model(self, **overrides) -> RatioQualityModel:
        """An unfitted :class:`RatioQualityModel` with these settings."""
        kwargs = dict(
            predictor=self.predictor,
            mode=self.mode,
            sample_rate=self.sample_rate,
            seed=self.seed,
        )
        kwargs.update(overrides)
        return RatioQualityModel(**kwargs)

    def fit_model(self, data: np.ndarray, **overrides) -> RatioQualityModel:
        """Fit a model on *data* (the one-time sampling pass)."""
        return self.model(**overrides).fit(data)

    # -- variants --------------------------------------------------------------

    def with_predictor(self, predictor: str) -> "CodecFactory":
        """A copy of this factory for a different predictor."""
        return replace(self, predictor=predictor)
