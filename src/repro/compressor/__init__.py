"""SZ3-like prediction-based error-bounded lossy compressor.

The substrate the ratio-quality model describes, organized as a staged
pipeline: predictors (Lorenzo / interpolation / regression), a
linear-scaling quantizer, Huffman coding and optional lossless
back-ends, composed behind small stage interfaces
(:mod:`repro.compressor.stages`) by the flat
:class:`repro.compressor.sz.SZCompressor` facade; the byte formats live
in :mod:`repro.compressor.container`;
:class:`repro.compressor.tiled.TiledCompressor` layers tiled
out-of-core streaming with region-of-interest decode on top; and
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
from repro.compressor.quantizer import LinearQuantizer, QuantizedBlock
from repro.compressor.sz import CompressionResult, SZCompressor, StageSizes
from repro.compressor.temporal import TemporalCompressor, TemporalStats
from repro.compressor.tiled import TiledCompressor, TiledResult

__all__ = [
    "CompressionConfig",
    "ErrorBoundMode",
    "DEFAULT_QUANT_RADIUS",
    "LinearQuantizer",
    "QuantizedBlock",
    "SZCompressor",
    "CompressionResult",
    "StageSizes",
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
