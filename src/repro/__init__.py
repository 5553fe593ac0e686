"""repro — ratio-quality modeling for prediction-based lossy compression.

Reproduction of Jin et al., "Improving Prediction-Based Lossy Compression
Dramatically via Ratio-Quality Modeling" (ICDE 2022).

Public entry points:

* :class:`repro.compressor.TiledCompressor` — the SZ3-like compressor
  (every array, tiled or one whole tile).
* :class:`repro.core.RatioQualityModel` — the analytical model.
* :mod:`repro.datasets` — synthetic stand-ins for the paper's datasets.
* :mod:`repro.usecases` — predictor selection, memory targeting, in-situ
  optimization.
* :mod:`repro.storage` — HDF5-like container and cluster I/O simulator.
"""

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    SZCompressor,
    TiledCompressor,
)
from repro.factory import CodecFactory
from repro.harness import RateDistortionStudy

__version__ = "1.1.0"

__all__ = [
    "CompressionConfig",
    "ErrorBoundMode",
    "SZCompressor",
    "TiledCompressor",
    "CodecFactory",
    "RateDistortionStudy",
    "__version__",
]
