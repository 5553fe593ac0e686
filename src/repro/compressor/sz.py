"""The end-to-end prediction-based lossy compressor (SZ3-like pipeline).

:class:`SZCompressor` is a facade over the staged pipeline in
:mod:`repro.compressor.stages`::

    transform → predict/quantize → entropy-encode → container

The transform and prediction stages sit behind small interfaces
(:class:`TransformStage`, :class:`PredictionStage`) and can be swapped
via the constructor; the byte formats live in
:mod:`repro.compressor.container`.  Decompression inverts every stage
and, by construction, honours the configured error bound.

The flat container written is **v2**, one Huffman(+lossless) code
payload (see :mod:`container` for the layouts); **v3**, whose code
stream was split into independently coded blocks, is still read.  The
tiled (v7) container is produced by
:class:`repro.compressor.tiled.TiledCompressor`, which drives this
facade per tile and is the one place work runs in parallel.

Degenerate inputs take a trivial container: empty arrays round-trip to
the correct shape/dtype, and constant fields under ``REL`` mode (whose
value range — hence absolute bound — collapses to zero) are stored as a
single value and reconstruct exactly.  Both still carry the full header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.compressor import container
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.predictors.base import PredictorOutput
from repro.compressor.stages import (
    EncodedCodes,
    HuffmanEntropyStage,
    PredictionStage,
    PredictorStage,
    PwRelLogTransform,
    TransformStage,
)
from repro.utils.timer import StageTimes, Timer

__all__ = ["SZCompressor", "CompressionResult", "StageSizes"]


@dataclass(frozen=True)
class StageSizes:
    """Byte sizes of the container sections (header included)."""

    header: int
    codes: int
    huffman_only: int
    outliers: int
    side: int
    signs: int

    @property
    def total(self) -> int:
        """Container size in bytes, derived from the writer's layout."""
        return (
            container.flat_overhead(self.header)
            + self.codes
            + self.outliers
            + self.side
            + self.signs
        )


@dataclass
class CompressionResult:
    """Outcome of one compression run.

    ``blob`` is the decodable container; the remaining fields are the
    measurements the paper's evaluation plots (bit-rate, ratio, zero-code
    fraction p0, stage breakdowns).
    """

    blob: bytes
    n_points: int
    original_bytes: int
    sizes: StageSizes
    p0: float
    n_outliers: int
    times: StageTimes = field(default_factory=StageTimes)
    #: what ``decompress(blob)`` returns, when ``compress`` was asked to
    #: surface it and the prediction stage could; ``None`` otherwise
    reconstruction: np.ndarray | None = None

    @property
    def compressed_bytes(self) -> int:
        """Container size in bytes."""
        return len(self.blob)

    @property
    def ratio(self) -> float:
        """Compression ratio (original / compressed)."""
        return self.original_bytes / self.compressed_bytes

    @property
    def bit_rate(self) -> float:
        """Bits per data point of the full container."""
        if self.n_points == 0:
            return 0.0
        return 8.0 * self.compressed_bytes / self.n_points

    @property
    def huffman_bit_rate(self) -> float:
        """Bits per point of the Huffman-coded quantization codes only."""
        if self.n_points == 0:
            return 0.0
        return 8.0 * self.sizes.huffman_only / self.n_points


class SZCompressor:
    """Facade composing the transform, prediction and entropy stages.

    Everything runs on the calling thread.  Pass alternative transform
    or prediction stages to swap parts of the pipeline.
    """

    def __init__(
        self,
        *,
        transform: TransformStage | None = None,
        prediction: PredictionStage | None = None,
    ) -> None:
        self._transform = transform or PwRelLogTransform()
        self._prediction = prediction or PredictorStage()
        self._entropy = HuffmanEntropyStage()

    # -- public API ------------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        reconstruct: bool = False,
    ) -> CompressionResult:
        """Compress *data* under *config*; returns blob plus measurements.

        :meth:`encode_stages` wrapped in a flat container.  With
        ``reconstruct`` the result also carries
        ``result.reconstruction`` — bit for bit what
        ``decompress(result.blob)`` returns, taken from the
        predict-quantize stage instead of a decode (``None`` when the
        prediction stage cannot surface it).
        """
        data = np.asarray(data)
        times = StageTimes()
        header, sections, reconstruction, (p0, n_outliers, huffman_only) = (
            self.encode_stages(data, config, reconstruct, times)
        )
        with Timer() as t:
            blob, header_len = container.write_flat(
                header, sections, container.VERSION_SINGLE
            )
        times.add("serialize", t.elapsed)
        return CompressionResult(
            blob=blob,
            n_points=int(data.size),
            original_bytes=data.nbytes,
            sizes=StageSizes(
                header=header_len,
                codes=len(sections[0]),
                huffman_only=huffman_only,
                outliers=len(sections[1]) + len(sections[2]),
                side=len(sections[3]),
                signs=len(sections[4]),
            ),
            p0=p0,
            n_outliers=n_outliers,
            times=times,
            reconstruction=reconstruction,
        )

    def encode_stages(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        reconstruct: bool = False,
        times: StageTimes | None = None,
    ) -> tuple[dict, list[bytes], np.ndarray | None, tuple[float, int, int]]:
        """Encode *data* without a container around it.

        Returns ``(header, sections, reconstruction, measures)``: the
        fields a flat header would hold, the five stage sections in
        :data:`container.SECTION_NAMES` order, what ``compress`` would
        surface, and ``(p0, n_outliers, huffman_only)``.  The per-tile
        contract of the tiled compressor.
        """
        data = np.asarray(data)
        times = times if times is not None else StageTimes()
        # 0-d arrays compress as their single element; the header's empty
        # shape list restores the original dimensionality.
        core = data.reshape(1) if data.ndim == 0 else data
        abs_eb = 0.0
        if data.size:
            with Timer() as t:
                work, transform_meta, signs_payload = self._transform.forward(
                    core, config
                )
                abs_eb = config.absolute_bound(core)
            times.add("transform", t.elapsed)
        extra: dict = {}
        if abs_eb <= 0:
            # degenerate input, no stage bytes: an empty array, or a REL
            # bound on a constant field — the value range is zero, so
            # the bound demands exact reconstruction: store the value
            abs_eb, transform_meta, signs_payload = 0.0, {}, b""
            output = PredictorOutput(
                codes=np.zeros(0, dtype=np.int64),
                outlier_positions=np.zeros(0, dtype=np.int64),
                outlier_values=np.zeros(0, dtype=np.float64),
            )
            encoded, p0 = EncodedCodes(b"", 0), 1.0
            if data.size:
                extra["constant"] = float(core.flat[0])
            reconstruction = (
                np.full(data.shape, extra.get("constant", 0), dtype=data.dtype)
                if reconstruct
                else None
            )
        else:
            with Timer() as t:
                output = self._prediction.decompose(
                    work, config, abs_eb, reconstruct
                )
            times.add("predict_quantize", t.elapsed)
            encoded = self._entropy.encode(output.codes, config, times)
            p0 = (
                float(np.count_nonzero(output.codes == 0) / output.codes.size)
                if output.codes.size
                else 1.0
            )
            reconstruction = None
            if output.reconstruction is not None:
                # the tail of decode_stages(), on the encoder's own values
                reconstruction = (
                    self._transform.inverse(
                        output.reconstruction,
                        {"transform": transform_meta, "shape": list(data.shape)},
                        signs_payload,
                    )
                    .reshape(data.shape)
                    .astype(data.dtype)
                )
        header = {
            "predictor": config.predictor,
            "mode": config.mode.value,
            "error_bound": config.error_bound,
            "abs_eb": abs_eb,
            "quant_radius": config.quant_radius,
            "lossless": config.lossless,
            "lorenzo_levels": config.lorenzo_levels,
            "regression_block": config.regression_block,
            # no knob left sets it; dropping the key is a format change
            "chunk_size": None,
            "shape": list(data.shape),
            "dtype": data.dtype.str,
            "predictor_meta": output.meta,
            "outlier_kind": (
                "codes" if output.outlier_values.dtype == np.int64 else "values"
            ),
            "transform": transform_meta,
            **extra,
        }
        sections = [
            encoded.payload,
            output.outlier_positions.astype(np.int64).tobytes(),
            output.outlier_values.tobytes(),
            output.side_payload,
            signs_payload,
        ]
        return (
            header,
            sections,
            reconstruction,
            (p0, output.n_outliers, encoded.huffman_only),
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        """Decompress a flat (v2/v3) container."""
        header, sections = container.read_flat(blob)
        if header["container_version"] == container.VERSION_CHUNKED:
            header["chunked"] = True
        return self.decode_stages(header, sections)

    def decode_stages(
        self, header: dict, sections: Sequence[bytes]
    ) -> np.ndarray:
        """The array :meth:`encode_stages` turned into *header*, *sections*.

        *header* may come from anywhere (a flat container, a tiled one's
        resolved tile parameters + the grid's ``shape``/``dtype``), so a
        code stream that is not the one ``shape`` needs is refused.
        ``chunked`` in it marks a v3 codes section.
        """
        shape = tuple(header["shape"])
        dtype = np.dtype(header["dtype"])
        n_points = math.prod(shape)
        if n_points == 0:
            return np.zeros(shape, dtype=dtype)
        if "constant" in header:
            return np.full(shape, header["constant"], dtype=dtype)

        config = self._config_from_header(header)
        codes_payload, pos_b, val_b, side, signs = sections

        codes = self._entropy.decode(
            codes_payload, config, chunked=bool(header.get("chunked"))
        )
        # every point has a code but the interpolation predictor's anchors
        anchor_shape = header["predictor_meta"].get("anchor_shape", [0])
        if not isinstance(anchor_shape, list):
            raise container.ContainerFormatError("corrupt anchor_shape")
        n_codes = n_points - math.prod(anchor_shape)
        if codes.size != n_codes:
            raise container.ContainerFormatError(
                f"corrupt code stream: {codes.size} codes, {dtype} "
                f"{shape} takes {n_codes}"
            )

        out_dtype = np.int64 if header["outlier_kind"] == "codes" else np.float64
        output = PredictorOutput(
            codes=codes,
            outlier_positions=np.frombuffer(pos_b, dtype=np.int64),
            outlier_values=np.frombuffer(val_b, dtype=out_dtype),
            side_payload=side,
            meta=header["predictor_meta"],
        )
        core_shape = shape if shape else (1,)
        work = self._prediction.reconstruct(
            output, core_shape, header["abs_eb"], config
        )
        del codes, output  # spent: the tile-sized code stream is freed here
        data = self._transform.inverse(work, header, signs)
        return data.reshape(shape).astype(dtype, copy=False)

    def roundtrip(
        self, data: np.ndarray, config: CompressionConfig
    ) -> tuple[CompressionResult, np.ndarray]:
        """Compress then decompress; returns ``(result, reconstruction)``."""
        result = self.compress(data, config)
        return result, self.decompress(result.blob)

    @staticmethod
    def _config_from_header(header: dict) -> CompressionConfig:
        return CompressionConfig(
            predictor=header["predictor"],
            mode=ErrorBoundMode(header["mode"]),
            error_bound=header["error_bound"],
            quant_radius=header["quant_radius"],
            lossless=header["lossless"],
            lorenzo_levels=header["lorenzo_levels"],
            regression_block=header["regression_block"],
        )
