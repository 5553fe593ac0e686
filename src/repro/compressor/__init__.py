"""SZ3-like prediction-based error-bounded lossy compressor.

The substrate the ratio-quality model describes, organized as a staged
pipeline: predictors (Lorenzo / interpolation / regression), a
linear-scaling quantizer, Huffman coding and optional lossless
back-ends, composed from the stage objects
(:mod:`repro.compressor.stages`) by the per-tile
:class:`repro.compressor.sz.SZCompressor` codec; the byte formats live
in :mod:`repro.compressor.container`;
:class:`repro.compressor.tiled.TiledCompressor` is the one front end —
tiled out-of-core streaming with region-of-interest decode, a flat
array being one tile; and
:class:`repro.compressor.adaptive.AdaptivePlanner` turns the
ratio-quality model into a per-tile configuration autotuner.
"""

from repro.compressor.adaptive import (
    AdaptivePlan,
    AdaptivePlanner,
    PlanStats,
    TileChoice,
)
from repro.compressor.config import (
    DEFAULT_QUANT_RADIUS,
    CompressionConfig,
    ErrorBoundMode,
)
from repro.compressor.executor import (
    BACKENDS,
    CodecExecutor,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    make_executor,
)
from repro.compressor.plan_cache import PlannerCache
from repro.compressor.sz import SZCompressor
from repro.compressor.temporal import TemporalCompressor, TemporalStats
from repro.compressor.tiled import TiledCompressor, TiledResult

__all__ = [
    "CompressionConfig",
    "ErrorBoundMode",
    "DEFAULT_QUANT_RADIUS",
    "SZCompressor",
    "TiledCompressor",
    "TiledResult",
    "TemporalCompressor",
    "TemporalStats",
    "AdaptivePlanner",
    "AdaptivePlan",
    "PlanStats",
    "PlannerCache",
    "TileChoice",
    "BACKENDS",
    "CodecExecutor",
    "ExecutorError",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "get_executor",
]
