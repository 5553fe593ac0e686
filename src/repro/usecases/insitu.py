"""Use-case 3: in-situ compression optimization (§IV-C, Figs. 12-13).

Two flavours of fine-grained error-bound tuning:

* :class:`PartitionTuner` — a dataset made of partitions analysed
  together (the RTM stacked image over timesteps): jointly choose
  per-partition bounds that minimise bits at a given aggregate quality
  or maximise quality within a bit budget (Fig. 12's +ratio / +quality
  trade-offs against a uniform bound);

* :class:`SnapshotPipeline` — a stream of snapshots, each compressed as
  it is produced: fit the model on the snapshot, derive the bound for
  the target PSNR, compress (Fig. 13, vs. the offline worst-case bound).

The pipeline compresses through whatever codec its
:class:`~repro.factory.CodecFactory` describes: the flat pipeline by
default, the tiled/adaptive compressor when the factory carries a
``tile_shape``, and the temporal snapshot stream delta mode (v6) when
the factory sets ``temporal`` — keyframes at the factory's
``keyframe_interval``, every other snapshot encoded against the decoded
previous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import psnr
from repro.compressor import CompressionResult
from repro.core.optimizer import PartitionOptimizer, PartitionPlan
from repro.factory import CodecFactory
from repro.utils.timer import StageTimes, Timer

__all__ = ["PartitionTuner", "TunedCompression", "SnapshotPipeline", "SnapshotRecord"]


@dataclass
class TunedCompression:
    """Per-partition plan plus measured outcomes."""

    plan: PartitionPlan
    results: list[CompressionResult]
    measured_psnr: float
    measured_bitrate: float


class PartitionTuner:
    """Joint per-partition error-bound optimization."""

    def __init__(
        self,
        predictor: str = "lorenzo",
        sample_rate: float = 0.01,
        grid_points: int = 40,
        seed: int | None = 0,
        factory: CodecFactory | None = None,
    ) -> None:
        self.factory = factory or CodecFactory(
            predictor=predictor, sample_rate=sample_rate, seed=seed
        )
        self.predictor = self.factory.predictor
        self.sample_rate = self.factory.sample_rate
        self.grid_points = grid_points
        self.seed = self.factory.seed
        self.partitions: list[np.ndarray] = []
        self.optimizer: PartitionOptimizer | None = None
        self._sz = self.factory.compressor()

    def fit(self, partitions: list[np.ndarray]) -> "PartitionTuner":
        """Fit one model per partition and build the optimizer grid."""
        if not partitions:
            raise ValueError("need at least one partition")
        self.partitions = [np.asarray(p) for p in partitions]
        models = [self.factory.fit_model(p) for p in self.partitions]
        self.optimizer = PartitionOptimizer(
            models, grid_points=self.grid_points
        )
        return self

    def _require_fit(self) -> PartitionOptimizer:
        if self.optimizer is None:
            raise RuntimeError("call fit(partitions) first")
        return self.optimizer

    def compress_for_psnr(self, target_psnr: float) -> TunedCompression:
        """Minimise bits subject to aggregate PSNR >= target."""
        plan = self._require_fit().minimize_bits_for_psnr(target_psnr)
        return self._execute(plan)

    def compress_for_bitrate(self, bit_budget: float) -> TunedCompression:
        """Maximise aggregate PSNR within a mean bits/point budget."""
        plan = self._require_fit().maximize_psnr_for_bits(bit_budget)
        return self._execute(plan)

    def compress_uniform(self, error_bound: float) -> TunedCompression:
        """Baseline: one bound for all partitions (the paper's strawman)."""
        plan = self._require_fit().uniform_plan(error_bound)
        return self._execute(plan)

    def _execute(self, plan: PartitionPlan) -> TunedCompression:
        results: list[CompressionResult] = []
        sq_err_sum = 0.0
        bits_sum = 0.0
        n_sum = 0
        vrange = 0.0
        for partition, eb in zip(self.partitions, plan.error_bounds):
            config = self.factory.config(eb)
            result, recon = self._sz.roundtrip(partition, config)
            results.append(result)
            diff = partition.astype(np.float64) - recon.astype(np.float64)
            sq_err_sum += float(np.sum(diff**2))
            bits_sum += 8.0 * result.compressed_bytes
            n_sum += partition.size
            vrange = max(
                vrange,
                float(partition.max()) - float(partition.min()),
            )
        mse = sq_err_sum / n_sum
        measured_psnr = (
            float("inf")
            if mse == 0
            else float(10.0 * np.log10(vrange**2 / mse))
        )
        return TunedCompression(
            plan=plan,
            results=results,
            measured_psnr=measured_psnr,
            measured_bitrate=bits_sum / n_sum,
        )


@dataclass
class SnapshotRecord:
    """One snapshot's in-situ decision and measured outcome."""

    index: int
    error_bound: float
    bit_rate: float
    ratio: float
    psnr: float
    times: StageTimes = field(default_factory=StageTimes)
    #: False for temporal-delta snapshots (v6); True otherwise
    keyframe: bool = True
    #: per-tile choice counts of temporal-delta snapshots
    temporal_tiles: int = 0
    spatial_tiles: int = 0


class SnapshotPipeline:
    """Streaming in-situ optimization: one decision per snapshot.

    The factory picks the codec path: flat (default), tiled/adaptive
    (``tile_shape`` set), or temporal snapshot stream deltas
    (``temporal`` set — each non-keyframe snapshot encodes against the
    *decoded* previous snapshot, exactly what a chained in-situ dump
    replays).
    """

    def __init__(
        self,
        target_psnr: float,
        predictor: str = "lorenzo",
        sample_rate: float = 0.01,
        seed: int | None = 0,
        factory: CodecFactory | None = None,
    ) -> None:
        self.target_psnr = target_psnr
        self.factory = factory or CodecFactory(
            predictor=predictor, sample_rate=sample_rate, seed=seed
        )
        self.predictor = self.factory.predictor
        self.sample_rate = self.factory.sample_rate
        self.seed = self.factory.seed
        self._sz = self.factory.compressor()
        # tiled, adaptive and temporal streams write tiled containers:
        # a temporal factory's compressor takes the reference as well
        self._tiled = (
            self.factory.temporal_compressor()
            if self.factory.temporal
            else self.factory.tiled_compressor()
            if self.factory.tile_shape is not None
            else None
        )
        #: decoded previous snapshot — the temporal reference
        self._last_recon: np.ndarray | None = None
        self.records: list[SnapshotRecord] = []

    def process(self, snapshot: np.ndarray) -> SnapshotRecord:
        """Fit, pick the bound for the PSNR target, compress, measure."""
        snapshot = np.asarray(snapshot)
        index = len(self.records)
        times = StageTimes()
        with Timer() as t:
            model = self.factory.fit_model(snapshot)
            eb = model.error_bound_for_psnr(self.target_psnr)
        times.add("optimize", t.elapsed)

        config = self.factory.config(eb)
        keyframe = True
        temporal_tiles = spatial_tiles = 0
        if self._tiled is None:
            result = self._sz.compress(snapshot, config, reconstruct=True)
        elif not self.factory.temporal:
            result = self._tiled.compress(
                snapshot, config, dataset="insitu-stream", reconstruct=True
            )
        else:
            interval = max(1, self.factory.keyframe_interval)
            reference = (
                self._last_recon if index % interval != 0 else None
            )
            result = self._tiled.compress_snapshot(
                snapshot,
                config,
                reference=reference,
                ref_id=f"snapshot-{index - 1}"
                if reference is not None
                else None,
                snapshot_index=index,
                reconstruct=True,
            )
            keyframe = result.keyframe
            if result.stats is not None:
                temporal_tiles = result.stats.temporal_tiles
                spatial_tiles = result.stats.spatial_tiles
        times.merge(result.times)
        # the encode surfaces what a decode of the blob returns (the
        # factory's stock stages always can), so measuring the achieved
        # quality — and keeping the next delta's reference — costs no
        # decode
        recon = result.reconstruction
        with Timer() as t:
            quality = psnr(snapshot, recon)
        times.add("verify", t.elapsed)
        self._last_recon = recon

        record = SnapshotRecord(
            index=index,
            error_bound=float(eb),
            bit_rate=result.bit_rate,
            ratio=result.ratio,
            psnr=quality,
            times=times,
            keyframe=keyframe,
            temporal_tiles=temporal_tiles,
            spatial_tiles=spatial_tiles,
        )
        self.records.append(record)
        return record
