"""Per-tile adaptive configuration planning (model-driven, palettized).

The paper's rate-quality model answers "what would this config cost?"
without running the compressor; this module turns that into an *online
per-region autotuner*.  For every tile of a tiled compression run the
planner drives the §IV-C rate-distortion machinery
(:class:`~repro.core.optimizer.PartitionOptimizer`) to assign each tile
its own codec configuration — error bound, predictor and quantizer
radius — at matched aggregate quality.
:class:`~repro.compressor.tiled.TiledCompressor` encodes the resulting
heterogeneous tiles into the tiled container, whose TOC records every
tile's parameters.

The planning pipeline, per :meth:`AdaptivePlanner.plan` call:

1. **Vectorized stats pass** — one batched sweep
   (:func:`~repro.core.sampling.batch_tile_stats`) computes every
   tile's min/max/mean/std/gradient-energy at once: the global value
   range for ``REL`` bounds, the clustering signatures, and the
   fingerprint the cross-snapshot plan cache re-validates against.
2. **Cluster + fit** — tiles are clustered by quantized stat signature
   and one :class:`~repro.core.model.RatioQualityModel` per candidate
   predictor is fitted per *cluster representative* instead of per
   tile (``fit_clusters``; ``0`` restores one fit per tile).  Fits fan
   out over an executor backend exactly like before.
3. **Refit guard** — every tile's *exact* dual-quantization
   residual-variance curve over the bound grid comes from one batched
   pass (:func:`~repro.core.model.batch_residual_curves`); a tile
   whose RMS quantization residual deviates from its cluster
   representative's by more than ``refit_tolerance`` (in units of the
   bound, over the inner allocation window) gets its own individual
   fit, so sharing never silently degrades an outlier tile's plan.
4. **Allocate bounds** — a Lagrangian sweep over the log-spaced bound
   grid minimises predicted total bits subject to the aggregate PSNR
   the *uniform* nominal config would achieve.  The MSE table is the
   exact per-tile residual curve from step 3; the bitrate table is the
   cluster model's estimate sweep, computed once per cluster rather
   than once per tile.
5. **Select per-tile predictor + radius** — at each tile's *allocated*
   bound the candidates are ranked by predicted Huffman-stage bits
   plus predictor side overhead plus outlier cost (the lossless-stage
   term is deliberately excluded: its run-length approximation is
   replayed exactly only for Lorenzo).  Tiles sharing a cluster model
   and an allocated bound share one ranking, memoized.

Plans can also be *reused across snapshots*: with a
:class:`~repro.compressor.plan_cache.PlannerCache` attached, step 1's
fingerprint is checked against the cached plan's and a close-enough
snapshot skips steps 2-5 entirely; drifted stats fall back to fresh
planning (and refresh the entry).  Reuse never weakens the per-point
guarantee — the compressor enforces whatever per-tile bound the plan
records — it only trades bitrate/PSNR optimality, which the drift
guard bounds.

Bound semantics: ``ABS`` bounds pass through; ``REL`` bounds are
resolved against the *global* value range first (exactly like the
uniform tiled path).  Every tile still honours its own recorded
absolute bound — the per-point guarantee moves from the nominal bound
to the per-tile bound, which the allocation keeps within
``span`` (default 16x) of nominal and the TOC records per tile.
``PW_REL`` planning is rejected: the planner works in the value domain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.executor import (
    CodecExecutor,
    carve_buffer,
    resolve_executor,
)
from repro.compressor.plan_cache import (
    PlannerCache,
    planner_config_hash,
    stats_fingerprint,
)
from repro.compressor.tiled_geometry import iter_tiles
from repro.core.model import (
    OUTLIER_BITS,
    RatioQualityModel,
    batch_residual_curves,
)
from repro.core.optimizer import PartitionOptimizer
from repro.core.sampling import TileStatsBatch, batch_tile_stats

__all__ = [
    "AdaptivePlanner",
    "AdaptivePlan",
    "TileChoice",
    "PlanStats",
]

#: Tiles smaller than this fall back to the nominal config: a handful of
#: points cannot support a meaningful histogram fit, and the bits at
#: stake are dominated by the per-tile container header anyway.
MIN_PLAN_POINTS = 64

#: Smallest selectable quantizer radius.  Keeps a healthy alphabet even
#: when the predicted code spread collapses to a few bins.
MIN_QUANT_RADIUS = 256

#: Safety factor between the predicted maximum |code| and the chosen
#: radius, absorbing sampling error so the radius never turns predicted
#: in-range codes into verbatim outliers.
RADIUS_MARGIN = 4

#: Default cap on the number of fit clusters: enough signature buckets
#: to separate background / feature / edge regions of typical fields
#: while keeping the fit count (and the bitrate-table estimate sweep)
#: an order of magnitude below the tile count.
DEFAULT_FIT_CLUSTERS = 12

#: Refit-guard tolerance: maximum mismatch between a tile's exact RMS
#: quantization residual and its cluster representative's, in units of
#: the error bound (``|sqrt(mse_i) - sqrt(mse_rep)| / eb``, bounded by
#: ``1/sqrt(3)`` per construction), before the tile gets its own fit
#: instead of the shared cluster model.  Checked over the inner bound
#: window ``[eb/sqrt(span), eb*sqrt(span)]`` — the region allocations
#: land in; at the grid extremes every tile either saturates the
#: quantizer noise or quantizes to almost nothing, and sharing is
#: harmless either way.
REFIT_TOLERANCE = 0.1


@dataclass(frozen=True)
class TileChoice:
    """One tile's model-selected codec parameters plus estimates."""

    start: tuple[int, ...]
    stop: tuple[int, ...]
    predictor: str
    error_bound: float
    quant_radius: int
    est_bitrate: float
    est_mse: float

    def to_json(self) -> dict:
        """The ``config`` dict stored in the TOC palette."""
        return {
            "predictor": self.predictor,
            "error_bound": self.error_bound,
            "quant_radius": self.quant_radius,
        }


@dataclass(frozen=True)
class PlanStats:
    """Planner work accounting for one :meth:`AdaptivePlanner.plan` call.

    The counters are deterministic functions of ``(data, config,
    planner, cache state)`` — they go into the container header and
    surface through ``repro inspect`` — while ``plan_seconds`` is a
    wall-clock measurement that stays runtime-only (and is excluded
    from equality, so plans from different backends still compare
    equal).
    """

    tiles_planned: int
    tiles_modeled: int
    clusters: int
    fits_performed: int
    refits: int
    #: plan provenance: ``"disabled"`` (no cache attached), ``"miss"``,
    #: ``"drift"`` (stale entry, freshly re-planned) or ``"hit"``
    cache: str
    plan_seconds: float | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        """Deterministic counters only (container-header safe)."""
        return {
            "tiles_planned": self.tiles_planned,
            "tiles_modeled": self.tiles_modeled,
            "clusters": self.clusters,
            "fits_performed": self.fits_performed,
            "refits": self.refits,
            "cache": self.cache,
        }


def _json_float(value: float) -> float | None:
    """JSON-safe float: NaN/inf map to None (RFC-8259 has no tokens)."""
    value = float(value)
    return value if np.isfinite(value) else None


def _from_json_float(value, default: float) -> float:
    return default if value is None else float(value)


@dataclass(frozen=True)
class AdaptivePlan:
    """Per-tile assignment produced by :class:`AdaptivePlanner`."""

    tile_shape: tuple[int, ...]
    nominal_bound: float
    target_psnr: float
    value_range: float
    choices: tuple[TileChoice, ...]
    est_bitrate: float
    est_psnr: float
    #: work accounting for the planning run (None for plans built
    #: through code paths that do not track it)
    stats: PlanStats | None = None

    @property
    def n_tiles(self) -> int:
        """Number of planned tiles."""
        return len(self.choices)

    def predictor_counts(self) -> dict[str, int]:
        """How many tiles chose each predictor."""
        counts: dict[str, int] = {}
        for choice in self.choices:
            counts[choice.predictor] = counts.get(choice.predictor, 0) + 1
        return counts

    def config_for(
        self, base: CompressionConfig, index: int
    ) -> CompressionConfig:
        """The concrete per-tile config for ``choices[index]``."""
        choice = self.choices[index]
        return base.per_tile(
            predictor=choice.predictor,
            mode=ErrorBoundMode.ABS,
            error_bound=choice.error_bound,
            quant_radius=choice.quant_radius,
        )

    # -- cache serialization ----------------------------------------------

    def to_payload(self) -> dict:
        """JSON-safe dict for :class:`PlannerCache` storage."""
        return {
            "tile_shape": list(self.tile_shape),
            "nominal_bound": float(self.nominal_bound),
            "target_psnr": _json_float(self.target_psnr),
            "value_range": float(self.value_range),
            "est_bitrate": _json_float(self.est_bitrate),
            "est_psnr": _json_float(self.est_psnr),
            "choices": [
                {
                    "start": list(c.start),
                    "stop": list(c.stop),
                    "predictor": c.predictor,
                    "error_bound": float(c.error_bound),
                    "quant_radius": int(c.quant_radius),
                    "est_bitrate": _json_float(c.est_bitrate),
                    "est_mse": _json_float(c.est_mse),
                }
                for c in self.choices
            ],
        }

    @staticmethod
    def from_payload(payload: dict) -> "AdaptivePlan":
        """Rebuild a plan from :meth:`to_payload` output.

        Raises ``ValueError``/``KeyError``/``TypeError`` on
        structurally corrupt payloads — callers treat that as a cache
        miss and drop the entry.
        """
        choices = []
        for raw in payload["choices"]:
            bound = float(raw["error_bound"])
            radius = int(raw["quant_radius"])
            if bound <= 0 or radius < 2:
                raise ValueError("corrupt cached tile choice")
            choices.append(
                TileChoice(
                    start=tuple(int(v) for v in raw["start"]),
                    stop=tuple(int(v) for v in raw["stop"]),
                    predictor=str(raw["predictor"]),
                    error_bound=bound,
                    quant_radius=radius,
                    est_bitrate=_from_json_float(
                        raw["est_bitrate"], float("nan")
                    ),
                    est_mse=_from_json_float(
                        raw["est_mse"], float("nan")
                    ),
                )
            )
        return AdaptivePlan(
            tile_shape=tuple(int(t) for t in payload["tile_shape"]),
            nominal_bound=float(payload["nominal_bound"]),
            target_psnr=_from_json_float(
                payload["target_psnr"], float("inf")
            ),
            value_range=float(payload["value_range"]),
            choices=tuple(choices),
            est_bitrate=_from_json_float(
                payload["est_bitrate"], float("nan")
            ),
            est_psnr=_from_json_float(payload["est_psnr"], float("inf")),
        )


class AdaptivePlanner:
    """Model-driven per-tile configuration search.

    Parameters
    ----------
    predictors:
        Candidate predictors ranked per tile.  Each ``plan`` call adds
        the config's own predictor to the candidates (it is the
        nominal starting point, never silently dropped), and
        ``"lorenzo"`` is always fitted even when absent from the
        candidates, because the bound allocation runs on its exact
        replay model.
    sample_rate:
        Sampling coverage per tile for the model fits (tiles below the
        global sampling floor are covered exhaustively).
    span:
        Half-width of the per-tile bound search, as a factor of the
        nominal bound: allocated bounds lie in ``[eb/span, eb*span]``.
    grid_points:
        Log-spaced bound-grid resolution (odd keeps the nominal bound
        exactly on the grid).  The default trades a slightly coarser
        allocation for a small TOC config palette: tiles can only
        land on ``grid_points`` distinct bounds.
    seed:
        Sampling RNG seed (fits are deterministic).
    fit_clusters:
        Default cap on the number of tile clusters sharing one model
        fit (``config.fit_clusters`` overrides per run; ``0`` fits
        every tile individually).
    refit_tolerance:
        Drift guard for shared fits — see the module docstring.
    cache:
        Default :class:`~repro.compressor.plan_cache.PlannerCache` for
        cross-snapshot plan reuse (``plan(cache=...)`` overrides).
    """

    def __init__(
        self,
        predictors: Sequence[str] = ("lorenzo", "interpolation"),
        sample_rate: float = 0.05,
        span: float = 16.0,
        grid_points: int = 17,
        seed: int | None = 0,
        fit_clusters: int = DEFAULT_FIT_CLUSTERS,
        refit_tolerance: float = REFIT_TOLERANCE,
        cache: PlannerCache | None = None,
    ) -> None:
        if not predictors:
            raise ValueError("need at least one candidate predictor")
        if span < 1.0:
            raise ValueError("span must be at least 1")
        if grid_points < 3:
            raise ValueError("grid_points must be at least 3")
        if fit_clusters < 0:
            raise ValueError("fit_clusters must be non-negative")
        if refit_tolerance < 0:
            raise ValueError("refit_tolerance must be non-negative")
        self.predictors = tuple(dict.fromkeys(predictors))
        self.sample_rate = sample_rate
        self.span = float(span)
        # odd grid => geomspace midpoint lands exactly on the nominal
        # bound, so the uniform baseline plan is representable
        self.grid_points = grid_points | 1
        self.seed = seed
        self.fit_clusters = int(fit_clusters)
        self.refit_tolerance = float(refit_tolerance)
        self.cache = cache

    # -- public API --------------------------------------------------------

    def plan(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        tile_shape: Sequence[int],
        executor: CodecExecutor | None = None,
        cache: PlannerCache | None = None,
        dataset: str | None = None,
    ) -> AdaptivePlan | None:
        """Plan per-tile configs for compressing *data* under *config*.

        *data* may be a memmap; the vectorized passes materialize
        bounded batches of tiles, never the whole array.  *executor*
        fans the cluster-representative model fits out across a
        :mod:`repro.compressor.executor` backend — under the process
        backend, tiles travel to workers through shared memory and
        only the small fitted models are pickled back; fits are
        deterministic given ``(tile, seed)``, so the plan is identical
        across backends.  *cache* (or the planner's default cache)
        enables cross-snapshot plan reuse keyed by *dataset*; see the
        module docstring.  Raises for ``PW_REL`` configs (the planner
        works in the value domain) and for empty arrays.  Returns
        ``None`` when there is nothing to plan — a ``REL`` bound on a
        constant field, whose zero value range demands exact storage;
        the uniform tiled path handles that case already.
        """
        t_start = time.perf_counter()
        if config.mode is ErrorBoundMode.PW_REL:
            raise ValueError(
                "adaptive planning supports ABS and REL bounds only"
            )
        if not hasattr(data, "ndim"):
            data = np.asarray(data)
        if data.size == 0:
            raise ValueError("cannot plan an empty array")
        tile_shape = tuple(int(t) for t in tile_shape)
        extents = list(iter_tiles(data.shape, tile_shape))

        # the config's predictor is always a candidate (and the
        # small-tile fallback): it is the nominal starting point the
        # user asked for, not something the planner may silently drop
        candidates = tuple(
            dict.fromkeys((config.predictor,) + self.predictors)
        )
        fit_predictors = tuple(dict.fromkeys(("lorenzo",) + candidates))

        stats = batch_tile_stats(data, extents)
        value_range = stats.value_range
        if config.mode is ErrorBoundMode.REL:
            abs_eb = config.error_bound * value_range
            if abs_eb <= 0:
                return None
        else:
            abs_eb = float(config.error_bound)

        cache = cache if cache is not None else self.cache
        cache_status = "disabled"
        config_hash = fingerprint = None
        key = dataset if dataset else "_anon"
        if cache is not None:
            config_hash = planner_config_hash(config, self)
            fingerprint = stats_fingerprint(stats)
            payload, cache_status = cache.fetch(
                key, config_hash, data.shape, tile_shape, fingerprint
            )
            if payload is not None:
                plan = self._plan_from_cache(payload, extents)
                if plan is not None:
                    return replace(
                        plan,
                        stats=PlanStats(
                            tiles_planned=len(extents),
                            tiles_modeled=sum(
                                1
                                for c in plan.choices
                                if np.isfinite(c.est_bitrate)
                            ),
                            clusters=0,
                            fits_performed=0,
                            refits=0,
                            cache="hit",
                            plan_seconds=time.perf_counter() - t_start,
                        ),
                    )
                cache.mark_rejected(key)
                cache_status = "miss"

        plan = self._plan_fresh(
            data,
            config,
            tile_shape,
            extents,
            stats,
            candidates,
            fit_predictors,
            abs_eb,
            value_range,
            executor,
            cache_status,
            t_start,
        )
        if cache is not None:
            cache.store(
                key,
                config_hash,
                data.shape,
                tile_shape,
                fingerprint,
                plan.to_payload(),
            )
        return plan

    # -- pipeline stages ---------------------------------------------------

    def _plan_from_cache(
        self, payload: dict, extents: list
    ) -> AdaptivePlan | None:
        """Rebuild and validate a cached plan against the tile grid."""
        try:
            plan = AdaptivePlan.from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None
        if [(c.start, c.stop) for c in plan.choices] != extents:
            return None
        return plan

    def _plan_fresh(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        tile_shape: tuple[int, ...],
        extents: list,
        stats: TileStatsBatch,
        candidates: tuple[str, ...],
        fit_predictors: tuple[str, ...],
        abs_eb: float,
        value_range: float,
        executor: CodecExecutor | None,
        cache_status: str,
        t_start: float,
    ) -> AdaptivePlan:
        """Steps 2-5: cluster, fit, guard, allocate, select."""
        n_tiles = len(extents)
        modeled = [
            int(i)
            for i in np.flatnonzero(stats.sizes >= MIN_PLAN_POINTS)
        ]
        fallback = candidates[0]

        fit_clusters = (
            config.fit_clusters
            if config.fit_clusters is not None
            else self.fit_clusters
        )

        clusters: list[list[int]] = []
        reps: list[int] = []
        refits: list[int] = []
        own_models: dict[int, dict[str, RatioQualityModel]] = {}
        bounds = {i: abs_eb for i in range(n_tiles)}
        selections: dict = {}
        target_psnr = float("inf")
        est_bits = float("nan")
        est_psnr = float("inf")
        if modeled:
            clusters = _cluster_tiles(stats, modeled, fit_clusters)
            reps = [_representative(stats, members) for members in clusters]
            rep_models = self._fit_extent_models(
                data, [extents[r] for r in reps], fit_predictors, executor
            )
            tile_cluster = {
                i: c for c, members in enumerate(clusters) for i in members
            }

            grid = np.geomspace(
                abs_eb / self.span, abs_eb * self.span, self.grid_points
            )
            curves = batch_residual_curves(data, extents, grid)

            # refit guard: exact residual curves are cheap for every
            # tile, so shared fits are checked, not trusted.  Compared
            # as RMS residual in bound units over the inner window —
            # see REFIT_TOLERANCE.
            inner = max(np.sqrt(self.span), 1.0)
            window = (grid >= abs_eb / inner) & (grid <= abs_eb * inner)
            rms = np.sqrt(curves[:, window]) / grid[window]
            for c, members in enumerate(clusters):
                rep_rms = rms[reps[c]]
                for i in members:
                    if i == reps[c]:
                        continue
                    dev = float(np.max(np.abs(rms[i] - rep_rms)))
                    if dev > self.refit_tolerance:
                        refits.append(i)
            if refits:
                own_fitted = self._fit_extent_models(
                    data,
                    [extents[i] for i in refits],
                    fit_predictors,
                    executor,
                )
                own_models = dict(zip(refits, own_fitted))

            # allocation tables: exact per-tile MSE rows + per-cluster
            # (or per-refit-tile) bitrate rows
            cluster_bits = np.stack(
                [
                    rep_models[c]["lorenzo"].bitrate_curve(grid)
                    for c in range(len(clusters))
                ]
            )
            bitrates = np.empty((len(modeled), grid.size))
            for row, i in enumerate(modeled):
                own = own_models.get(i)
                if own is not None:
                    bitrates[row] = own["lorenzo"].bitrate_curve(grid)
                else:
                    bitrates[row] = cluster_bits[tile_cluster[i]]
            optimizer = PartitionOptimizer.from_tables(
                grid,
                bitrates,
                curves[modeled],
                stats.sizes[modeled],
                value_range,
            )
            uniform = optimizer.uniform_plan(abs_eb)
            opt_plan = optimizer.minimize_bits_for_psnr(
                uniform.aggregate_psnr
            )
            target_psnr = uniform.aggregate_psnr
            est_bits = opt_plan.total_bits
            est_psnr = opt_plan.aggregate_psnr
            log_grid = np.log(grid)
            for i, bound in zip(modeled, opt_plan.error_bounds):
                # 9 significant digits keep the TOC config palette
                # compact while leaving the bound unchanged at any
                # meaningful precision; the rounded value is what the
                # tiles are actually encoded under, so TOC, tile
                # headers and plan agree exactly.
                j = int(np.argmin(np.abs(log_grid - np.log(bound))))
                bounds[i] = float(f"{bound:.9g}")
                owner = ("tile", i) if i in own_models else (
                    "cluster",
                    tile_cluster[i],
                )
                selections[i] = (owner, j)

        choices = []
        selection_memo: dict = {}
        for i, (start, stop) in enumerate(extents):
            if i not in selections:
                choices.append(
                    TileChoice(
                        start=start,
                        stop=stop,
                        predictor=fallback,
                        error_bound=abs_eb,
                        quant_radius=config.quant_radius,
                        est_bitrate=float("nan"),
                        est_mse=float("nan"),
                    )
                )
                continue
            owner, j = selections[i]
            memo_key = (owner, j)
            if memo_key not in selection_memo:
                models = (
                    own_models[owner[1]]
                    if owner[0] == "tile"
                    else rep_models[owner[1]]
                )
                predictor, est, hist = self._select_predictor(
                    models, bounds[i], candidates
                )
                selection_memo[memo_key] = (
                    predictor,
                    est,
                    self._select_radius(hist, config.quant_radius),
                )
            predictor, est, radius = selection_memo[memo_key]
            choices.append(
                TileChoice(
                    start=start,
                    stop=stop,
                    predictor=predictor,
                    error_bound=bounds[i],
                    quant_radius=radius,
                    est_bitrate=float(est.bitrate),
                    est_mse=float(est.error_variance),
                )
            )
        return AdaptivePlan(
            tile_shape=tile_shape,
            nominal_bound=float(abs_eb),
            target_psnr=float(target_psnr),
            value_range=float(value_range),
            choices=tuple(choices),
            est_bitrate=float(est_bits),
            est_psnr=float(est_psnr),
            stats=PlanStats(
                tiles_planned=n_tiles,
                tiles_modeled=len(modeled),
                clusters=len(clusters),
                fits_performed=len(reps) + len(refits),
                refits=len(refits),
                cache=cache_status,
                plan_seconds=time.perf_counter() - t_start,
            ),
        )

    def _fit_extent_models(
        self,
        data: np.ndarray,
        extents: list[tuple[tuple[int, ...], tuple[int, ...]]],
        fit_predictors: tuple[str, ...],
        executor: CodecExecutor | None = None,
    ) -> list[dict[str, RatioQualityModel] | None]:
        """Fit candidate models for the given tile extents.

        With a parallel *executor* the fits — one sampling pass per
        candidate predictor per tile — run as executor tasks over
        batches of tiles staged in a shared input buffer; fits are
        deterministic given ``(tile, seed)``, so the resulting models
        are identical to the serial ones.
        """
        executor = executor or resolve_executor("serial", 1)
        if executor.workers <= 1 or len(extents) <= 1:
            models: list[dict[str, RatioQualityModel] | None] = []
            for start, stop in extents:
                slc = tuple(slice(a, b) for a, b in zip(start, stop))
                tile = np.ascontiguousarray(data[slc])
                fitted, _, _ = _fit_models(
                    tile, fit_predictors, self.sample_rate, self.seed
                )
                models.append(fitted)
            return models

        models = []
        itemsize = data.dtype.itemsize
        # bounded staging, like tile encoding: a few batches of raw
        # tiles in flight, never the whole (possibly memmapped) array
        batch_tiles = max(1, executor.workers) * 2
        for pos in range(0, len(extents), batch_tiles):
            batch = extents[pos : pos + batch_tiles]
            arena, offsets = carve_buffer(
                executor,
                [
                    itemsize * int(np.prod([b - a for a, b in zip(start, stop)]))
                    for start, stop in batch
                ],
            )
            try:
                items = []
                for (start, stop), offset in zip(batch, offsets):
                    shape = tuple(b - a for a, b in zip(start, stop))
                    nbytes = int(np.prod(shape)) * itemsize
                    view = (
                        arena.array[offset : offset + nbytes]
                        .view(data.dtype)
                        .reshape(shape)
                    )
                    view[...] = data[
                        tuple(slice(a, b) for a, b in zip(start, stop))
                    ]
                    items.append(
                        (
                            offset,
                            shape,
                            data.dtype.str,
                            fit_predictors,
                            self.sample_rate,
                            self.seed,
                        )
                    )
                fitted = executor.run_batch(
                    _fit_tile_task, items, input=arena
                )
            finally:
                arena.release()
            for tile_models, _, _ in fitted:
                models.append(tile_models)
        return models

    def _select_predictor(
        self,
        models: dict[str, RatioQualityModel],
        error_bound: float,
        candidates: tuple[str, ...],
    ):
        """Rank candidates at the tile's allocated bound.

        The score is predicted Huffman-stage bits + predictor side
        overhead + outlier cost; see the module docstring for why the
        lossless-stage estimate is excluded from the comparison.
        Returns ``(predictor, estimate, histogram)`` of the winner so
        the caller never re-queries the model at the same bound.
        """
        best = None
        for predictor in candidates:
            model = models[predictor]
            est, hist = model._estimate_with_histogram(error_bound)
            score = (
                est.huffman_bitrate
                + model.side_overhead_bits
                + hist.outlier_fraction * OUTLIER_BITS
            )
            if best is None or score < best[0]:
                best = (score, predictor, est, hist)
        assert best is not None
        return best[1], best[2], best[3]

    @staticmethod
    def _select_radius(hist, cap: int) -> int:
        """Smallest power-of-two radius covering the predicted alphabet."""
        max_code = int(np.max(np.abs(hist.symbols))) if hist.n_bins else 1
        radius = MIN_QUANT_RADIUS
        while radius < min(cap, RADIUS_MARGIN * max(1, max_code)):
            radius *= 2
        return min(radius, cap) if cap >= 2 else cap


def _cluster_tiles(
    stats: TileStatsBatch,
    modeled: list[int],
    max_clusters: int,
) -> list[list[int]]:
    """Group modeled tiles by quantized stat signature.

    The signature quantizes each tile's (std, range, sqrt gradient
    energy) on a log2 lattice — normalized by the global value range so
    the grouping is scale-invariant — plus a coarse mean bucket and the
    tile shape (models are only shared between same-shaped tiles: side
    overhead and sampling coverage depend on the shape).  The lattice
    is coarsened until the cluster count fits ``max_clusters`` (a
    target, not a hard cap: tiles of genuinely different character
    never share a bucket).  ``max_clusters <= 0`` disables sharing —
    every tile becomes its own cluster, restoring one fit per tile.
    """
    if max_clusters <= 0:
        return [[i] for i in modeled]
    scale = stats.value_range or 1.0
    shapes = [
        tuple(b - a for a, b in zip(start, stop))
        for start, stop in stats.extents
    ]
    feats = np.stack(
        [
            np.log2(np.maximum(stats.stds / scale, 1e-12)),
            np.log2(np.maximum(stats.ranges / scale, 1e-12)),
            np.log2(
                np.maximum(np.sqrt(stats.grad_energy) / scale, 1e-12)
            ),
        ]
    )
    mean_norm = stats.means / scale
    width = 0.5
    while True:
        buckets: dict[tuple, list[int]] = {}
        q = np.floor(feats / width).astype(np.int64)
        qmean = np.floor(mean_norm / (2.0 * width)).astype(np.int64)
        for i in modeled:
            sig = (shapes[i], q[0, i], q[1, i], q[2, i], qmean[i])
            buckets.setdefault(sig, []).append(i)
        if len(buckets) <= max_clusters or width > 64:
            return list(buckets.values())
        width *= 2.0


def _representative(stats: TileStatsBatch, members: list[int]) -> int:
    """The member whose stats sit closest to the cluster median."""
    if len(members) == 1:
        return members[0]
    idx = np.asarray(members)
    scale = stats.value_range or 1.0
    feats = np.stack(
        [
            np.log2(np.maximum(stats.stds[idx] / scale, 1e-12)),
            np.log2(np.maximum(stats.ranges[idx] / scale, 1e-12)),
            np.log2(
                np.maximum(
                    np.sqrt(stats.grad_energy[idx]) / scale, 1e-12
                )
            ),
            stats.means[idx] / scale,
        ],
        axis=1,
    )
    distance = np.abs(feats - np.median(feats, axis=0)).sum(axis=1)
    # argmin ties break to the first (lowest tile index): deterministic
    return int(idx[int(np.argmin(distance))])


def _fit_models(
    tile: np.ndarray,
    fit_predictors: tuple[str, ...],
    sample_rate: float,
    seed: int | None,
) -> tuple[dict[str, RatioQualityModel] | None, float, float]:
    """Fit one tile's candidate models: ``(models_or_None, min, max)``.

    The single implementation behind both the serial loop and the
    executor task — the serial and parallel plans must stay
    *identical*, so the fit itself lives in exactly one place.  Tiles
    below :data:`MIN_PLAN_POINTS` return ``None`` (nominal-config
    fallback).
    """
    lo = float(np.min(tile))
    hi = float(np.max(tile))
    if tile.size < MIN_PLAN_POINTS:
        return None, lo, hi
    models = {
        predictor: RatioQualityModel(
            predictor=predictor,
            sample_rate=sample_rate,
            seed=seed,
        ).fit(tile)
        for predictor in fit_predictors
    }
    return models, lo, hi


def _fit_tile_task(item, inp, out):
    """Executor task: fit the candidate models for one staged tile.

    ``item`` is ``(offset, shape, dtype_str, fit_predictors,
    sample_rate, seed)``; the tile samples live in the batch input
    buffer (zero-copy shared-memory view under the process backend).
    Fitted :class:`~repro.core.model.RatioQualityModel` objects hold
    only the small sampled summaries, so the pickled result stays
    modest.
    """
    offset, shape, dtype_str, fit_predictors, sample_rate, seed = item
    dtype = np.dtype(dtype_str)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    tile = inp[offset : offset + nbytes].view(dtype).reshape(shape)
    return _fit_models(tile, fit_predictors, sample_rate, seed)
