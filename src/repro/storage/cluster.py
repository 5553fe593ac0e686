"""Calibrated parallel data-dumping simulator (§V-F, Figs. 13-14).

The paper measures snapshot dumping on 8 nodes / 128 ranks with parallel
HDF5 over MPI-IO.  Without a cluster, we reproduce the *comparison* —
Traditional vs in-situ trial-and-error (TAE) vs model-based optimization
— with a simulator whose inputs are measured on this machine:

* per-strategy *optimization* and *compression* throughput come from real
  single-process runs (bytes/second, profiled by
  :class:`ThroughputProfile`);
* per-rank compression runs in parallel, so its wall-clock is the
  slowest rank;
* I/O is a shared parallel file system: write time =
  ``total_bytes / aggregate_bandwidth + latency`` — compressed bytes come
  from real compression of the actual snapshot.

The relative standing of the three strategies is then driven by exactly
the two quantities the paper identifies: how many compression passes the
optimizer costs, and how many bytes the chosen bound writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.compressor import CompressionConfig, TiledCompressor
from repro.core.model import RatioQualityModel
from repro.usecases.baselines import tae_select_error_bound

__all__ = [
    "ClusterSpec",
    "ThroughputProfile",
    "DumpReport",
    "ClusterSimulator",
]


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated cluster."""

    n_nodes: int = 8
    ranks_per_node: int = 16
    aggregate_write_bandwidth: float = 2.0e9  # bytes/s to the PFS
    write_latency: float = 0.05  # per collective write, seconds

    @property
    def n_ranks(self) -> int:
        """Total MPI ranks."""
        return self.n_nodes * self.ranks_per_node

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.ranks_per_node < 1:
            raise ValueError("cluster must have at least one rank")
        if self.aggregate_write_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.write_latency < 0:
            raise ValueError("latency cannot be negative")


@dataclass
class ThroughputProfile:
    """Measured single-process throughputs (bytes/second).

    ``compress`` is the end-to-end compressor throughput;
    ``model_optimize`` the ratio-quality fit+solve throughput;
    ``tae_trial`` the cost of one trial (compress + decompress +
    quality evaluation) used by the TAE strategy.
    """

    compress: float
    model_optimize: float
    tae_trial: float

    @classmethod
    def measure(
        cls,
        sample: np.ndarray,
        config: CompressionConfig,
        target_psnr: float = 60.0,
        repeats: int = 1,
    ) -> "ThroughputProfile":
        """Profile the three throughputs on *sample* data.

        ``repeats`` keeps the best (minimum) elapsed time per stage
        across that many passes: one-shot timings on small samples are
        dominated by scheduler noise, which would skew every simulated
        dump time calibrated from the profile.
        """
        tiled = TiledCompressor()
        nbytes = float(np.asarray(sample).nbytes)

        best_comp = best_model = best_trial = float("inf")
        for _ in range(max(1, repeats)):
            with obs.span("compress") as t_comp:
                tiled.compress(sample, config)
            with obs.span("model_optimize") as t_model:
                model = RatioQualityModel(
                    predictor=config.predictor
                ).fit(sample)
                model.error_bound_for_psnr(target_psnr)
            with obs.span("tae_trial") as t_trial:
                tae_select_error_bound(
                    sample, config, [config.error_bound], target_psnr
                )
            best_comp = min(best_comp, t_comp.elapsed)
            best_model = min(best_model, t_model.elapsed)
            best_trial = min(best_trial, t_trial.elapsed)
        return cls(
            compress=nbytes / max(best_comp, 1e-9),
            model_optimize=nbytes / max(best_model, 1e-9),
            tae_trial=nbytes / max(best_trial, 1e-9),
        )


@dataclass
class DumpReport:
    """Simulated dump of one snapshot under one strategy."""

    strategy: str
    snapshot_index: int
    error_bound: float
    compressed_bytes: int
    #: modelled seconds per stage: optimize, compress, io
    times: dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """End-to-end dump time (optimize + compress + I/O)."""
        return sum(self.times.values())


class ClusterSimulator:
    """Simulate per-snapshot dumping for the three strategies."""

    def __init__(
        self,
        spec: ClusterSpec,
        profile: ThroughputProfile,
        config: CompressionConfig,
    ) -> None:
        self.spec = spec
        self.profile = profile
        self.config = config
        self._tiled = TiledCompressor()

    # -- strategy primitives ------------------------------------------------------

    def _rank_bytes(self, snapshot: np.ndarray) -> float:
        """Bytes each rank holds (snapshot split evenly across ranks)."""
        return float(np.asarray(snapshot).nbytes) / self.spec.n_ranks

    def _compressed_bytes(self, snapshot: np.ndarray, eb: float) -> int:
        config = self.config.with_error_bound(float(eb))
        return self._tiled.compress(snapshot, config).compressed_bytes

    def _io_time(self, compressed_bytes: int) -> float:
        return (
            compressed_bytes / self.spec.aggregate_write_bandwidth
            + self.spec.write_latency
        )

    def _compress_time(self, snapshot: np.ndarray) -> float:
        # All ranks compress simultaneously; slowest rank bounds the
        # wall-clock.  Even splits make every rank the critical path.
        return self._rank_bytes(snapshot) / self.profile.compress

    def _report(
        self,
        strategy: str,
        snapshot: np.ndarray,
        index: int,
        eb: float,
        optimize: float,
    ) -> DumpReport:
        """Price a dump: *optimize* seconds, then compress and write at *eb*."""
        size = self._compressed_bytes(snapshot, eb)
        times = {
            "optimize": optimize,
            "compress": self._compress_time(snapshot),
            "io": self._io_time(size),
        }
        return DumpReport(strategy, index, eb, size, times)

    # -- strategies ------------------------------------------------------------

    def dump_traditional(
        self, snapshot: np.ndarray, index: int, fixed_error_bound: float
    ) -> DumpReport:
        """Traditional: precomputed offline bound; no online optimization."""
        return self._report(
            "traditional", snapshot, index, fixed_error_bound, 0.0
        )

    def dump_tae(
        self,
        snapshot: np.ndarray,
        index: int,
        candidates,
        target_psnr: float,
    ) -> DumpReport:
        """In-situ TAE: try every candidate online, then compress."""
        # one pass over *candidates*: the sweep and the pricing read it
        candidates = list(candidates)
        eb = tae_select_error_bound(
            snapshot, self.config, candidates, target_psnr
        ).chosen_error_bound
        rank_bytes = self._rank_bytes(snapshot)
        optimize = len(candidates) * rank_bytes / self.profile.tae_trial
        return self._report("tae", snapshot, index, eb, optimize)

    def dump_model(
        self, snapshot: np.ndarray, index: int, target_psnr: float
    ) -> DumpReport:
        """Model-based: one sampling pass + analytic bound per snapshot."""
        model = RatioQualityModel(predictor=self.config.predictor).fit(
            snapshot
        )
        eb = model.error_bound_for_psnr(target_psnr)
        optimize = self._rank_bytes(snapshot) / self.profile.model_optimize
        return self._report("model", snapshot, index, eb, optimize)

    def baseline_raw_dump_time(self, snapshot: np.ndarray) -> float:
        """Dump time without any compression (the paper's 29.4 s line)."""
        return self._io_time(int(np.asarray(snapshot).nbytes))
