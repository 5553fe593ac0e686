"""Compression configuration: error-bound modes and compressor settings.

Prediction-based error-bounded lossy compressors (the SZ family) expose an
*error-bound mode* plus a numeric bound.  The three modes the paper uses:

``ABS``
    Point-wise absolute bound: ``|x - x'| <= eb``.
``REL``
    Value-range relative bound: ``|x - x'| <= eb * (max(D) - min(D))``.
``PW_REL``
    Point-wise relative bound: ``|x - x'| <= eb * |x|``, implemented via a
    logarithmic transform before compression (Liang et al., CLUSTER'18),
    which turns the point-wise relative bound into an absolute bound in
    log space.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from repro.utils.stats import value_range

__all__ = [
    "ErrorBoundMode",
    "CompressionConfig",
    "DEFAULT_QUANT_RADIUS",
]

# Default half-width of the quantization code alphabet: codes lie in
# [-radius, radius]; values whose code falls outside are stored verbatim
# ("unpredictable" data in SZ terminology).  SZ uses 2^15 by default.
DEFAULT_QUANT_RADIUS = 32768


class ErrorBoundMode(enum.Enum):
    """User-facing error-bound modes."""

    ABS = "abs"
    REL = "rel"
    PW_REL = "pw_rel"


@dataclass(frozen=True)
class CompressionConfig:
    """Immutable settings for one compression run.

    Parameters
    ----------
    predictor:
        One of ``"lorenzo"``, ``"interpolation"``, ``"regression"``.
    mode:
        Error-bound mode (see :class:`ErrorBoundMode`).
    error_bound:
        The bound value; its meaning depends on ``mode``.
    quant_radius:
        Half-width of the quantization code alphabet.
    lossless:
        Name of the optional lossless stage applied after Huffman:
        ``"zstd_like"``, ``"gzip_like"``, ``"rle"`` or ``None``.
    lorenzo_levels:
        Order of the Lorenzo predictor (1 or 2).
    regression_block:
        Block edge length for the regression predictor (paper: 6).
    chunk_size:
        When set, the quantization-code stream is split into blocks of
        this many symbols, each independently Huffman + lossless coded
        (container format v3).  Blocks encode/decode in parallel when the
        compressor is constructed with ``workers > 1``.  ``None`` keeps
        the single-stream v2 container.
    tile_shape:
        When set, :class:`repro.compressor.tiled.TiledCompressor` splits
        the array into tiles of this shape and writes the tiled (v7)
        container (out-of-core streaming, region-of-interest decode).
        Ignored by the flat :class:`~repro.compressor.sz.SZCompressor`.
    parallel_backend:
        Runtime execution hint, **not** part of the on-disk format:
        which :mod:`repro.compressor.executor` backend the chunked and
        tiled hot paths should fan work out on — ``"serial"``,
        ``"thread"`` or ``"process"`` (``None`` keeps each
        compressor's own default).  Never serialized into container
        headers; two configs differing only here produce byte-identical
        containers.
    adaptive:
        When set (tiled compression only), the model-driven planner
        (:class:`repro.compressor.adaptive.AdaptivePlanner`) assigns
        every tile its own predictor, error bound and quantizer radius
        at the aggregate quality the uniform config would achieve, and
        the TOC palette records the choices per tile.  ``predictor``
        and ``error_bound`` then act as the nominal starting point.
        Requires an ``ABS`` or ``REL`` mode (the planner works in the
        value domain).
    fit_clusters:
        Adaptive-planning hint, **not** part of the on-disk format:
        maximum number of tile clusters the planner fits models for
        (statistically similar tiles share one fit; a drift guard
        re-fits outliers).  ``0`` disables clustering (one fit per
        tile); ``None`` keeps the planner's own default.  Like
        ``parallel_backend``, never serialized into container headers.
    plan_cache:
        Adaptive-planning hint, **not** part of the on-disk format:
        path of a file-backed :class:`repro.compressor.plan_cache.
        PlannerCache` the planner reuses cross-snapshot plans through.
        ``None`` disables caching.  Never serialized into container
        headers.
    temporal:
        When set (tiled compression only), snapshots compress as
        *temporal deltas*: each tile is predicted from the decoded
        matching tile of a reference snapshot, falling back to spatial
        prediction per tile when the rate-quality model says the
        residual costs more bits (see
        :class:`repro.compressor.temporal.TemporalCompressor`).
        Requires an ``ABS`` or ``REL`` mode and is mutually exclusive
        with ``adaptive``.
    """

    predictor: str = "lorenzo"
    mode: ErrorBoundMode = ErrorBoundMode.ABS
    error_bound: float = 1e-3
    quant_radius: int = DEFAULT_QUANT_RADIUS
    lossless: str | None = "zstd_like"
    lorenzo_levels: int = 1
    regression_block: int = 6
    chunk_size: int | None = None
    tile_shape: tuple[int, ...] | None = None
    adaptive: bool = False
    parallel_backend: str | None = None
    fit_clusters: int | None = None
    plan_cache: str | None = None
    temporal: bool = False

    _KNOWN_PREDICTORS = ("lorenzo", "interpolation", "regression")
    _KNOWN_LOSSLESS = ("zstd_like", "gzip_like", "rle", None)
    _KNOWN_BACKENDS = ("serial", "thread", "process", None)

    def __post_init__(self) -> None:
        if self.predictor not in self._KNOWN_PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"expected one of {self._KNOWN_PREDICTORS}"
            )
        if self.lossless not in self._KNOWN_LOSSLESS:
            raise ValueError(
                f"unknown lossless stage {self.lossless!r}; "
                f"expected one of {self._KNOWN_LOSSLESS}"
            )
        if not isinstance(self.mode, ErrorBoundMode):
            raise TypeError("mode must be an ErrorBoundMode")
        if not (math.isfinite(self.error_bound) and self.error_bound > 0):
            raise ValueError("error_bound must be positive and finite")
        if self.quant_radius < 2:
            raise ValueError("quant_radius must be at least 2")
        if self.lorenzo_levels not in (1, 2):
            raise ValueError("lorenzo_levels must be 1 or 2")
        if self.regression_block < 2:
            raise ValueError("regression_block must be at least 2")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be positive (or None)")
        if self.tile_shape is not None:
            tile_shape = tuple(int(t) for t in self.tile_shape)
            if not tile_shape or any(t < 1 for t in tile_shape):
                raise ValueError(
                    "tile_shape must be a non-empty tuple of positive ints"
                )
            # normalize list/iterable inputs so equality and hashing work
            object.__setattr__(self, "tile_shape", tile_shape)
        if self.adaptive and self.mode is ErrorBoundMode.PW_REL:
            raise ValueError(
                "adaptive tiling supports ABS and REL bounds only"
            )
        if self.temporal:
            if self.mode is ErrorBoundMode.PW_REL:
                raise ValueError(
                    "temporal delta mode supports ABS and REL bounds only"
                )
            if self.adaptive:
                raise ValueError(
                    "temporal delta mode and adaptive tiling are "
                    "mutually exclusive"
                )
        if self.parallel_backend not in self._KNOWN_BACKENDS:
            raise ValueError(
                f"unknown parallel backend {self.parallel_backend!r}; "
                f"expected one of {self._KNOWN_BACKENDS}"
            )
        if self.fit_clusters is not None:
            fit_clusters = int(self.fit_clusters)
            if fit_clusters < 0:
                raise ValueError(
                    "fit_clusters must be non-negative (0 disables "
                    "clustering) or None"
                )
            object.__setattr__(self, "fit_clusters", fit_clusters)
        if self.plan_cache is not None:
            # normalize PathLike inputs so equality and hashing work
            object.__setattr__(
                self, "plan_cache", os.fspath(self.plan_cache)
            )

    def absolute_bound(self, data: np.ndarray) -> float:
        """Resolve the *absolute* bound this config implies on *data*.

        ``ABS`` returns the bound unchanged; ``REL`` scales it by the value
        range; ``PW_REL`` returns the absolute bound in the log-transformed
        domain, ``log1p(eb)``, which guarantees ``|x'/x - 1| <= eb`` for
        positive values after the inverse transform.
        """
        if self.mode is ErrorBoundMode.ABS:
            return float(self.error_bound)
        if self.mode is ErrorBoundMode.REL:
            return float(self.error_bound) * value_range(data)
        # PW_REL: bound in log space.  |log x' - log x| <= log(1+eb)
        # implies x' / x in [1/(1+eb), 1+eb], i.e. the point-wise relative
        # error is within eb on the upper side and eb/(1+eb) on the lower.
        return float(np.log1p(self.error_bound))

    def per_tile(self, **pinned) -> "CompressionConfig":
        """This config as the flat codec encoding one tile sees it.

        Per-tile configs execute *inside* executor tasks: the tiling
        fields are stripped AND the parallel and planning hints, or
        every worker would recursively spin up its own executor for
        the tile's inner (chunked) encode, or re-enter the planner.
        *pinned* fields (a resolved bound, a tile's planned choice)
        replace the caller's.
        """
        return replace(
            self,
            tile_shape=None,
            adaptive=False,
            parallel_backend=None,
            fit_clusters=None,
            plan_cache=None,
            **pinned,
        )

    def with_error_bound(self, error_bound: float) -> "CompressionConfig":
        """Return a copy with a different bound (used by optimizers)."""
        return replace(self, error_bound=error_bound)

    def with_predictor(self, predictor: str) -> "CompressionConfig":
        """Return a copy with a different predictor."""
        return replace(self, predictor=predictor)
