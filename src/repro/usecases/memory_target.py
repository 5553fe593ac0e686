"""Use-case 2: memory compression with a target ratio (§IV-B, Fig. 11).

Applications that keep compressed data resident (GPU memory staging,
burst buffers) assign each array a byte budget.  The model turns the
budget into an error bound directly — no trials — with the paper's 20%
headroom (optimize towards 80% of the budget so estimation uncertainty
rarely overflows).  Two policies:

* *soft* (default): one round; an overflow is reported, not fixed (the
  paper's GPU case, where spilled data migrates to the host);
* *strict*: overflowing arrays are re-optimized against the measured
  ratio and recompressed until they fit (the paper's second strategy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressor import CompressionConfig, TiledResult
from repro.factory import CodecFactory

__all__ = ["MemoryBudgetCompressor", "BudgetReport"]

#: Optimize towards this fraction of the assigned budget (paper: 80%).
DEFAULT_TARGET_FRACTION = 0.8


@dataclass
class BudgetReport:
    """Outcome of one budgeted compression."""

    budget_bytes: int
    target_bytes: int
    result: TiledResult
    error_bound: float
    rounds: int

    @property
    def fits(self) -> bool:
        """True when the compressed blob is within the assigned budget."""
        return self.result.compressed_bytes <= self.budget_bytes

    @property
    def utilization(self) -> float:
        """Compressed size relative to the assigned budget."""
        return self.result.compressed_bytes / self.budget_bytes


class MemoryBudgetCompressor:
    """Compress arrays into fixed byte budgets using the model."""

    def __init__(
        self,
        predictor: str = "lorenzo",
        target_fraction: float = DEFAULT_TARGET_FRACTION,
        strict: bool = False,
        max_rounds: int = 4,
        sample_rate: float = 0.01,
        seed: int | None = 0,
        factory: CodecFactory | None = None,
    ) -> None:
        if not 0 < target_fraction <= 1:
            raise ValueError("target_fraction must be within (0, 1]")
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        self.factory = factory or CodecFactory(
            CompressionConfig(predictor=predictor), sample_rate=sample_rate,
            seed=seed,
        )
        self.target_fraction = target_fraction
        self.strict = strict
        self.max_rounds = max_rounds
        self._tiled = self.factory.tiled_compressor()

    def compress(self, data: np.ndarray, budget_bytes: int) -> BudgetReport:
        """Compress *data* to fit *budget_bytes*.

        The model picks the bound for ``target_fraction * budget``; in
        strict mode, overflows trigger re-optimization rounds against the
        measured size.
        """
        data = np.asarray(data)
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        model = self.factory.fit_model(data)
        target_bytes = int(budget_bytes * self.target_fraction)
        target_bitrate = 8.0 * target_bytes / data.size
        eb = model.error_bound_for_bitrate(target_bitrate)
        result = self._compress_at(data, eb)
        rounds = 1
        while (
            self.strict
            and result.compressed_bytes > budget_bytes
            and rounds < self.max_rounds
        ):
            # Second-round optimization (§IV-B): scale the rate target by
            # the measured overshoot and recompress.
            overshoot = result.compressed_bytes / target_bytes
            target_bitrate /= overshoot * 1.05
            eb = model.error_bound_for_bitrate(target_bitrate)
            result = self._compress_at(data, eb)
            rounds += 1
        return BudgetReport(
            budget_bytes=int(budget_bytes),
            target_bytes=target_bytes,
            result=result,
            error_bound=eb,
            rounds=rounds,
        )

    def compress_group(
        self, arrays: list[np.ndarray], total_budget_bytes: int
    ) -> list[BudgetReport]:
        """Share one budget across arrays, proportional to raw size."""
        if not arrays:
            return []
        total = sum(int(a.nbytes) for a in arrays)
        reports: list[BudgetReport] = []
        for array in arrays:
            share = int(total_budget_bytes * array.nbytes / total)
            reports.append(self.compress(array, max(share, 1)))
        return reports

    def _compress_at(self, data: np.ndarray, eb: float) -> TiledResult:
        return self._tiled.compress(data, self.factory.config(eb))
