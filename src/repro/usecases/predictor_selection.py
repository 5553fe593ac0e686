"""Use-case 1: adaptive predictor selection (§IV-A, Fig. 10).

One 1% sampling pass per predictor gives the full estimated
rate-distortion curve of each; the selector then answers "which predictor
wins at this error bound / bit-rate?" and locates the crossover bit-rate
where the preference switches — the decision the paper validates on RTM
(interpolation below ~1.9 bits/point, Lorenzo above).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import RatioQualityModel, RQEstimate
from repro.factory import CodecFactory

__all__ = ["PredictorSelector", "SelectionDecision"]

DEFAULT_CANDIDATES = ("lorenzo", "interpolation", "regression")


@dataclass(frozen=True)
class SelectionDecision:
    """The selector's answer for one operating point."""

    predictor: str
    estimate: RQEstimate
    alternatives: dict[str, RQEstimate]


class PredictorSelector:
    """Fit one ratio-quality model per candidate predictor."""

    def __init__(
        self,
        candidates=DEFAULT_CANDIDATES,
        sample_rate: float = 0.01,
        seed: int | None = 0,
        factory: CodecFactory | None = None,
    ) -> None:
        if not candidates:
            raise ValueError("need at least one candidate predictor")
        self.candidates = tuple(candidates)
        self.factory = factory or CodecFactory(
            sample_rate=sample_rate, seed=seed
        )
        self.models: dict[str, RatioQualityModel] = {}

    def fit(self, data: np.ndarray) -> "PredictorSelector":
        """One-time sampling for every candidate."""
        for name in self.candidates:
            self.models[name] = self.factory.with_predictor(
                name
            ).fit_model(data)
        return self

    def _require_fit(self) -> None:
        if not self.models:
            raise RuntimeError("call fit(data) first")

    # -- selection ------------------------------------------------------------

    def select_for_error_bound(self, error_bound: float) -> SelectionDecision:
        """Best predictor at a fixed bound: lowest estimated bit-rate.

        At a fixed bound all predictors deliver the same worst-case
        error, so the rate decides.
        """
        self._require_fit()
        estimates = {
            name: model.estimate(error_bound)
            for name, model in self.models.items()
        }
        best = min(estimates, key=lambda name: estimates[name].bitrate)
        return SelectionDecision(best, estimates[best], estimates)

    def select_for_bitrate(self, target_bitrate: float) -> SelectionDecision:
        """Best predictor at a fixed rate: highest estimated PSNR."""
        self._require_fit()
        estimates: dict[str, RQEstimate] = {}
        for name, model in self.models.items():
            eb = model.error_bound_for_bitrate(target_bitrate)
            estimates[name] = model.estimate(eb)
        best = max(estimates, key=lambda name: estimates[name].psnr)
        return SelectionDecision(best, estimates[best], estimates)

    def rate_distortion_curves(
        self, error_bounds
    ) -> dict[str, list[RQEstimate]]:
        """Estimated RD curve per candidate over an error-bound sweep."""
        self._require_fit()
        return {
            name: model.estimate_curve(error_bounds)
            for name, model in self.models.items()
        }

    def crossover_bitrate(
        self,
        first: str,
        second: str,
        bitrate_range: tuple[float, float] = (0.5, 16.0),
        steps: int = 64,
    ) -> float | None:
        """Bit-rate where the preferred predictor flips between the two.

        Scans the range on a geometric grid comparing predicted PSNR at
        equal bit-rate; returns the geometric midpoint of the first
        bracketing pair, or ``None`` when one predictor dominates
        throughout.
        """
        self._require_fit()
        for name in (first, second):
            if name not in self.models:
                raise KeyError(f"predictor {name!r} was not fitted")
        grid = np.geomspace(*bitrate_range, steps)
        signs: list[float] = []
        for bitrate in grid:
            eb1 = self.models[first].error_bound_for_bitrate(float(bitrate))
            eb2 = self.models[second].error_bound_for_bitrate(float(bitrate))
            p1 = self.models[first].estimate(eb1).psnr
            p2 = self.models[second].estimate(eb2).psnr
            signs.append(p1 - p2)
        for i in range(1, len(signs)):
            if signs[i - 1] == 0 or signs[i - 1] * signs[i] < 0:
                return float(np.sqrt(grid[i - 1] * grid[i]))
        return None
