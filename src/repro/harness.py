"""Offline rate-distortion study harness (a Foresight-style toolkit).

The paper contrasts its in-situ model against offline benchmark suites
(VizAly-Foresight) that sweep compressor configurations over datasets
and tabulate rate/quality.  This module provides that substrate: a
declarative study over (field x predictor x error bound) cells that
records, for every cell, the model's estimates next to the measured
values, plus per-column Eq. 20 accuracy summaries and CSV export.

Used by the Table II benchmark and available to downstream users for
their own datasets::

    study = RateDistortionStudy(
        fields={"my_field": my_array},
        predictors=("lorenzo", "interpolation"),
        relative_bounds=(1e-4, 1e-3, 1e-2),
    )
    results = study.run()
    print(study.summary(results))
    study.to_csv(results, "study.csv")
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from repro import obs
from repro.analysis.metrics import psnr, ssim_global
from repro.compressor import CompressionConfig
from repro.core.accuracy import estimation_accuracy
from repro.factory import CodecFactory
from repro.utils.tables import format_table

__all__ = ["StudyCell", "RateDistortionStudy"]


@dataclass(frozen=True)
class StudyCell:
    """One (field, predictor, bound) measurement with its estimates."""

    field: str
    predictor: str
    relative_bound: float
    error_bound: float
    est_bitrate: float
    meas_bitrate: float
    est_ratio: float
    meas_ratio: float
    est_psnr: float
    meas_psnr: float
    est_ssim: float
    meas_ssim: float
    compress_seconds: float
    model_seconds: float


class RateDistortionStudy:
    """Sweep (field x predictor x bound) and tabulate model vs measured."""

    def __init__(
        self,
        fields: dict[str, np.ndarray],
        predictors=("lorenzo",),
        relative_bounds=(1e-4, 1e-3, 1e-2),
        measure_quality: bool = True,
        lossless: str | None = "zstd_like",
        factory: CodecFactory | None = None,
    ) -> None:
        if not fields:
            raise ValueError("need at least one field")
        if not predictors or not relative_bounds:
            raise ValueError("need predictors and bounds")
        self.fields = fields
        self.predictors = tuple(predictors)
        self.relative_bounds = tuple(relative_bounds)
        self.measure_quality = measure_quality
        self.factory = factory or CodecFactory(
            base=CompressionConfig(lossless=lossless)
        )

    def run(self) -> list[StudyCell]:
        """Execute the full sweep; returns one cell per combination.

        Every cell compresses through the factory's compressor — one
        whole-array tile, or the ``tile_shape`` grid of its base config
        (``adaptive`` planned when set) — so studies measure the
        container the deployment would actually write.
        """
        tiled = self.factory.tiled_compressor()
        cells: list[StudyCell] = []
        for name, data in self.fields.items():
            data = np.asarray(data)
            vrange = float(data.max()) - float(data.min())
            for predictor in self.predictors:
                factory = self.factory.with_predictor(predictor)
                with obs.span("fit") as fit:
                    model = factory.fit_model(data)
                for rel in self.relative_bounds:
                    eb = vrange * rel
                    with obs.span("estimate") as estimate:
                        est = model.estimate(eb)
                    config = factory.config(eb)
                    with obs.span("compress") as compress:
                        result = tiled.compress(data, config)
                    if self.measure_quality:
                        recon = tiled.decompress(result.blob)
                        meas_psnr = psnr(data, recon)
                        meas_ssim = ssim_global(data, recon)
                    else:
                        meas_psnr = meas_ssim = float("nan")
                    cells.append(
                        StudyCell(
                            field=name,
                            predictor=predictor,
                            relative_bound=rel,
                            error_bound=eb,
                            est_bitrate=est.bitrate,
                            meas_bitrate=result.bit_rate,
                            est_ratio=est.ratio,
                            meas_ratio=result.ratio,
                            est_psnr=est.psnr,
                            meas_psnr=meas_psnr,
                            est_ssim=est.ssim,
                            meas_ssim=meas_ssim,
                            compress_seconds=compress.elapsed,
                            model_seconds=fit.elapsed + estimate.elapsed,
                        )
                    )
        return cells

    # -- reporting ------------------------------------------------------------

    @staticmethod
    def accuracy(cells: list[StudyCell]) -> dict[str, float]:
        """Eq. 20 accuracy per estimated quantity over all cells."""
        if not cells:
            raise ValueError("no cells to summarise")
        out: dict[str, float] = {}
        pairs = {
            "bitrate": ("meas_bitrate", "est_bitrate"),
            "ratio": ("meas_ratio", "est_ratio"),
            "psnr": ("meas_psnr", "est_psnr"),
            "ssim": ("meas_ssim", "est_ssim"),
        }
        for key, (meas_attr, est_attr) in pairs.items():
            meas = np.array([getattr(c, meas_attr) for c in cells])
            est = np.array([getattr(c, est_attr) for c in cells])
            keep = np.isfinite(meas) & np.isfinite(est) & (est != 0)
            if keep.sum() >= 2:
                out[key] = estimation_accuracy(meas[keep], est[keep])
        return out

    def summary(self, cells: list[StudyCell]) -> str:
        """Human-readable study table plus accuracy footer."""
        rows = [
            (
                c.field,
                c.predictor,
                c.relative_bound,
                c.est_bitrate,
                c.meas_bitrate,
                c.est_psnr,
                c.meas_psnr,
            )
            for c in cells
        ]
        table = format_table(
            [
                "field",
                "predictor",
                "rel eb",
                "est b/pt",
                "meas b/pt",
                "est PSNR",
                "meas PSNR",
            ],
            rows,
            float_spec=".3f",
            title="rate-distortion study",
        )
        acc = self.accuracy(cells)
        footer = "  ".join(
            f"{k} acc {v:.3f}" for k, v in sorted(acc.items())
        )
        return f"{table}\n{footer}"

    @staticmethod
    def to_csv(cells: list[StudyCell], path: str) -> None:
        """Write the cells to a CSV file."""
        if not cells:
            raise ValueError("no cells to write")
        fieldnames = list(asdict(cells[0]).keys())
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for cell in cells:
                writer.writerow(asdict(cell))
