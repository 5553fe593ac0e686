"""Multi-partition error-bound optimization (§IV-C machinery).

A dataset is often a collection of partitions (snapshots, ranks, blocks)
analysed together; fine-grained tuning assigns each partition its own
error bound.  With per-partition ratio-quality models the allocation is
a classic rate-distortion problem which we solve with a Lagrangian sweep:
for multiplier ``lam`` every partition independently minimises

    bits_i(eb) + lam * n_i * mse_i(eb)

over a shared log-spaced error-bound grid; bisecting ``lam`` meets either
a global quality target (minimise bits s.t. aggregate PSNR >= target) or
a global bit budget (maximise quality s.t. total bits <= budget).
Aggregate PSNR uses the size-weighted mean MSE over partitions against
the global value range — exactly how the stacked-image analysis of the
RTM use-case evaluates quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import RatioQualityModel

__all__ = ["PartitionPlan", "PartitionOptimizer"]


@dataclass(frozen=True)
class PartitionPlan:
    """Optimized per-partition assignment."""

    error_bounds: tuple[float, ...]
    bitrates: tuple[float, ...]
    mses: tuple[float, ...]
    total_bits: float
    aggregate_psnr: float

    @property
    def mean_bitrate(self) -> float:
        """Size-weighted mean bits/point implied by total_bits."""
        return self.total_bits


class PartitionOptimizer:
    """Allocate error bounds across fitted per-partition models."""

    def __init__(
        self,
        models: list[RatioQualityModel],
        grid_points: int = 40,
        eb_span: tuple[float, float] | None = None,
        value_range: float | None = None,
    ) -> None:
        if not models:
            raise ValueError("need at least one partition model")
        for m in models:
            if m.sample is None:
                raise RuntimeError("all models must be fitted first")
        self.models = models
        self.sizes = np.array(
            [m.sample.n_total for m in models], dtype=np.float64
        )
        # Aggregate PSNR is defined against the *global* value range.  The
        # per-partition maximum is only a lower bound on it (partitions of
        # a gradient each see a fraction of the full span), so callers
        # that know the true range pass it explicitly — the per-tile
        # adaptive planner does.
        if value_range is not None and value_range < 0:
            raise ValueError("value_range must be non-negative")
        self.value_range = (
            float(value_range)
            if value_range is not None
            else max(m.sample.value_range for m in models)
        )
        self._build_grid(grid_points, eb_span)

    @classmethod
    def from_tables(
        cls,
        grid: np.ndarray,
        bitrates: np.ndarray,
        mses: np.ndarray,
        sizes: np.ndarray,
        value_range: float,
    ) -> "PartitionOptimizer":
        """Build an optimizer from precomputed (bitrate, mse) tables.

        The per-model ``estimate()`` sweep of ``_build_grid`` is the
        dominant cost of adaptive planning; callers that already hold
        the tables — the vectorized adaptive planner computes exact MSE
        curves for all tiles in one batched pass and shares bitrate
        rows across clustered tiles — construct directly.  ``bitrates``
        and ``mses`` are ``(n_partitions, len(grid))``; ``sizes`` holds
        the per-partition point counts the aggregate weighting uses.
        """
        self = cls.__new__(cls)
        self.models = None
        self.grid = np.asarray(grid, dtype=np.float64)
        self.bitrates = np.asarray(bitrates, dtype=np.float64)
        self.mses = np.asarray(mses, dtype=np.float64)
        self.sizes = np.asarray(sizes, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must be a 1-d array of >= 2 bounds")
        expected = (self.sizes.size, self.grid.size)
        if self.bitrates.shape != expected or self.mses.shape != expected:
            raise ValueError(
                "bitrate/mse tables must be (n_partitions, len(grid))"
            )
        if self.sizes.size == 0:
            raise ValueError("need at least one partition")
        if value_range < 0:
            raise ValueError("value_range must be non-negative")
        self.value_range = float(value_range)
        return self

    @property
    def n_partitions(self) -> int:
        """Number of partitions the tables cover."""
        return int(self.sizes.size)

    def _build_grid(
        self, grid_points: int, eb_span: tuple[float, float] | None
    ) -> None:
        """Precompute per-partition (bitrate, mse) tables over an eb grid."""
        if eb_span is None:
            scale = max(self.value_range, 1e-30)
            eb_span = (scale * 1e-8, scale * 0.2)
        lo, hi = eb_span
        if lo <= 0 or hi <= lo:
            raise ValueError("invalid error-bound span")
        self.grid = np.geomspace(lo, hi, grid_points)
        self.bitrates = np.zeros((len(self.models), grid_points))
        self.mses = np.zeros((len(self.models), grid_points))
        for i, model in enumerate(self.models):
            curve = model.estimate_curve(self.grid)
            self.bitrates[i] = [est.bitrate for est in curve]
            self.mses[i] = [est.error_variance for est in curve]

    # -- Lagrangian machinery ------------------------------------------------

    def _choose(self, lam: float) -> np.ndarray:
        """Per-partition grid index minimising bits + lam * mse.

        Exact cost ties break towards the *larger* error bound (fewer
        bits), which matters for near-constant partitions whose cost is
        flat across the grid.
        """
        weights = self.sizes / self.sizes.sum()
        cost = (
            self.bitrates * weights[:, None]
            + lam * self.mses * weights[:, None]
        )
        reversed_argmin = np.argmin(cost[:, ::-1], axis=1)
        return cost.shape[1] - 1 - reversed_argmin

    def _evaluate(self, choice: np.ndarray) -> tuple[float, float]:
        """(weighted mean bitrate, aggregate PSNR) for a grid choice."""
        weights = self.sizes / self.sizes.sum()
        rows = np.arange(self.n_partitions)
        mean_bits = float(np.sum(weights * self.bitrates[rows, choice]))
        mean_mse = float(np.sum(weights * self.mses[rows, choice]))
        if mean_mse <= 0 or self.value_range <= 0:
            # zero MSE, or a constant field whose PSNR is ill-defined:
            # treat as perfect, matching RatioQualityModel.estimate
            psnr = float("inf")
        else:
            psnr = float(
                10.0 * np.log10(self.value_range**2 / mean_mse)
            )
        return mean_bits, psnr

    def _plan(self, choice: np.ndarray) -> PartitionPlan:
        rows = np.arange(self.n_partitions)
        bits, psnr = self._evaluate(choice)
        return PartitionPlan(
            error_bounds=tuple(float(self.grid[j]) for j in choice),
            bitrates=tuple(float(b) for b in self.bitrates[rows, choice]),
            mses=tuple(float(m) for m in self.mses[rows, choice]),
            total_bits=bits,
            aggregate_psnr=psnr,
        )

    # -- public solvers ------------------------------------------------------

    def minimize_bits_for_psnr(self, target_psnr: float) -> PartitionPlan:
        """Smallest mean bit-rate with aggregate PSNR >= *target_psnr*."""
        lo, hi = 1e-12, 1e30
        best: np.ndarray | None = None
        for _ in range(80):
            lam = np.sqrt(lo * hi)
            choice = self._choose(lam)
            _, psnr = self._evaluate(choice)
            if psnr >= target_psnr:
                best = choice
                hi = lam  # quality surplus: push towards fewer bits
            else:
                lo = lam
        if best is None:
            # Even the finest grid point misses the target: take it.
            best = np.zeros(self.n_partitions, dtype=np.int64)
        return self._plan(best)

    def maximize_psnr_for_bits(self, bit_budget: float) -> PartitionPlan:
        """Best aggregate PSNR with mean bit-rate <= *bit_budget*."""
        lo, hi = 1e-12, 1e30
        best: np.ndarray | None = None
        for _ in range(80):
            lam = np.sqrt(lo * hi)
            choice = self._choose(lam)
            bits, _ = self._evaluate(choice)
            if bits <= bit_budget:
                best = choice
                lo = lam  # budget slack: push towards more quality
            else:
                hi = lam
        if best is None:
            best = np.full(
                self.n_partitions, self.grid.size - 1, dtype=np.int64
            )
        return self._plan(best)

    def uniform_plan(self, error_bound: float) -> PartitionPlan:
        """Baseline: the same error bound for every partition."""
        j = int(np.argmin(np.abs(np.log(self.grid) - np.log(error_bound))))
        choice = np.full(self.n_partitions, j, dtype=np.int64)
        return self._plan(choice)
