"""Shared construction of compressors, configs and ratio-quality models.

The study harness and all three use cases need the same plumbing — a
codec configuration, sampling parameters and runtime settings, threaded
through to ``CompressionConfig``, ``TiledCompressor`` and
``RatioQualityModel`` constructors.  Before this module each of them
carried its own copy of that kwargs forwarding; :class:`CodecFactory`
holds it once.

Usage::

    factory = CodecFactory(
        base=CompressionConfig(predictor="interpolation"), sample_rate=0.02
    )
    model = factory.fit_model(data)
    result = factory.tiled_compressor().compress(
        data, factory.config(error_bound=1e-3)
    )
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.compressor import (
    AdaptivePlanner,
    CompressionConfig,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.adaptive import DEFAULT_FIT_CLUSTERS
from repro.core.model import DEFAULT_SAMPLE_RATE, RatioQualityModel

__all__ = ["CodecFactory"]


@dataclass(frozen=True)
class CodecFactory:
    """One place for the (config, runtime, sampling) settings.

    Immutable; derive variants with :meth:`with_predictor` or
    ``dataclasses.replace``.
    """

    #: the configs built here, but for their error bound: predictor,
    #: mode, lossless stage, tiling, adaptive planning, temporal deltas
    base: CompressionConfig = CompressionConfig()
    #: width and execution backend ("serial", "thread", "process";
    #: None: the thread backend) of the compressors built here
    workers: int | None = None
    parallel_backend: str | None = None
    sample_rate: float = DEFAULT_SAMPLE_RATE
    seed: int | None = 0
    #: the adaptive planner's fit-reuse cap (0 fits every tile)
    fit_clusters: int = DEFAULT_FIT_CLUSTERS
    #: path of the compressors' file-backed cross-snapshot plan cache
    #: (None disables)
    plan_cache: str | None = None
    #: every Nth snapshot of a chain is a keyframe, bounding the chain
    #: depth random access has to decode
    keyframe_interval: int = 4

    # -- codec construction ----------------------------------------------------

    def config(self, error_bound: float, **overrides) -> CompressionConfig:
        """``base`` at *error_bound*, keyword *overrides* replacing
        fields (e.g. a per-call ``predictor``).  How it runs is the
        compressor's (:meth:`tiled_compressor`)."""
        return replace(self.base, error_bound=float(error_bound), **overrides)

    def tiled_compressor(self) -> TiledCompressor:
        """The compressor: tiled out-of-core (``tile_shape`` unset: one
        whole-array tile).

        The factory's sampling settings and ``fit_clusters``
        parameterize the adaptive planner, so ``adaptive`` runs sample
        at the rate/seed every other model in the study uses, and plan
        through ``plan_cache``; ``parallel_backend``/``workers`` pick
        the execution backend tiles (and the planner's per-tile fits)
        fan out on.
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
                sample_rate=self.sample_rate,
                seed=self.seed,
                fit_clusters=self.fit_clusters,
            ),
            plan_cache=self.plan_cache,
        )

    # -- model construction ----------------------------------------------------

    def model(self, **overrides) -> RatioQualityModel:
        """An unfitted :class:`RatioQualityModel` with these settings."""
        kwargs = dict(
            predictor=self.base.predictor,
            mode=self.base.mode,
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
        return replace(self, base=self.base.with_predictor(predictor))
