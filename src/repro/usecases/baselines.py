"""Trial-and-error baselines the paper compares against (§V-D/F).

``trial-and-error`` = actually compress (and decompress, when quality is
needed) under every candidate configuration and pick the best — the
approach the ratio-quality model replaces.  Two flavours appear in the
evaluation:

* the *traditional* offline method: profile every candidate error bound
  on every snapshot ahead of time and choose one worst-case bound that
  satisfies the quality target everywhere (Liebig's barrel);
* the *in-situ TAE* method: per snapshot, try every candidate bound
  online, then compress with the best one.

All entry points record wall-clock stage breakdowns so the benchmarks
can regenerate the paper's overhead comparisons (Figs. 9 and 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.analysis.metrics import psnr
from repro.compressor import CompressionConfig, TiledCompressor

__all__ = [
    "TrialPoint",
    "TrialAndErrorResult",
    "trial_and_error_sweep",
    "tae_select_error_bound",
    "offline_worst_case_error_bound",
]


@dataclass(frozen=True)
class TrialPoint:
    """One measured (error bound, bit-rate, PSNR) triple."""

    error_bound: float
    bit_rate: float
    ratio: float
    psnr: float


@dataclass
class TrialAndErrorResult:
    """Outcome of a trial-and-error search."""

    chosen_error_bound: float
    points: list[TrialPoint]
    #: seconds per stage (a :func:`repro.obs.record`)
    times: dict[str, float] = field(default_factory=dict)


def trial_and_error_sweep(
    data: np.ndarray,
    config: CompressionConfig,
    error_bounds,
    measure_quality: bool = True,
) -> TrialAndErrorResult:
    """Compress under every candidate bound; record rate (and PSNR).

    Each trial is the paper's: a compress, and with *measure_quality* a
    decompress of the container plus the PSNR.  The per-stage
    compressor timings are recorded into the result's ``times`` so
    overhead benchmarks can split prediction / Huffman / lossless cost
    exactly as Fig. 9 does.
    """
    tiled = TiledCompressor()
    points: list[TrialPoint] = []
    with obs.record() as times:
        for eb in error_bounds:
            cfg = config.with_error_bound(float(eb))
            result = tiled.compress(data, cfg)
            quality = float("nan")
            if measure_quality:
                with obs.span("decompress_analyze"):
                    recon = tiled.decompress(result.blob)
                    quality = psnr(data, recon)
            points.append(
                TrialPoint(
                    error_bound=float(eb),
                    bit_rate=result.bit_rate,
                    ratio=result.ratio,
                    psnr=quality,
                )
            )
    chosen = points[-1].error_bound if points else float("nan")
    return TrialAndErrorResult(chosen, points, times)


def tae_select_error_bound(
    data: np.ndarray,
    config: CompressionConfig,
    error_bounds,
    target_psnr: float,
) -> TrialAndErrorResult:
    """In-situ TAE: the largest candidate bound meeting *target_psnr*.

    Falls back to the smallest candidate when none qualifies.
    """
    sweep = trial_and_error_sweep(data, config, error_bounds)
    qualifying = [p for p in sweep.points if p.psnr >= target_psnr]
    if qualifying:
        chosen = max(qualifying, key=lambda p: p.error_bound)
    else:
        chosen = min(sweep.points, key=lambda p: p.error_bound)
    sweep.chosen_error_bound = chosen.error_bound
    return sweep


def offline_worst_case_error_bound(
    snapshots: list[np.ndarray],
    config: CompressionConfig,
    error_bounds,
    target_psnr: float,
) -> TrialAndErrorResult:
    """Traditional offline method: one bound that fits *all* snapshots.

    Every candidate is profiled on every snapshot; the chosen bound is
    the largest whose PSNR meets the target on its worst snapshot.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    per_bound_worst: dict[float, float] = {}
    all_points: list[TrialPoint] = []
    with obs.record() as times:
        for snapshot in snapshots:
            sweep = trial_and_error_sweep(snapshot, config, error_bounds)
            obs.add(sweep.times)
            all_points.extend(sweep.points)
            for point in sweep.points:
                worst = per_bound_worst.get(point.error_bound, float("inf"))
                per_bound_worst[point.error_bound] = min(worst, point.psnr)
    qualifying = [
        eb for eb, worst in per_bound_worst.items() if worst >= target_psnr
    ]
    chosen = max(qualifying) if qualifying else min(per_bound_worst)
    return TrialAndErrorResult(chosen, all_points, times)
