"""The end-to-end prediction-based lossy compressor (SZ3-like pipeline).

:class:`SZCompressor` is a facade over the staged pipeline in
:mod:`repro.compressor.stages`::

    transform → predict/quantize → entropy-encode → container

Each stage sits behind a small interface (:class:`TransformStage`,
:class:`PredictionStage`, :class:`EntropyStage`) and can be swapped via
the constructor; the byte formats live in
:mod:`repro.compressor.container`.  Decompression inverts every stage
and, by construction, honours the configured error bound.

Two flat container versions are written (see :mod:`container` for the
layouts): **v2** with a single Huffman(+lossless) code payload, and
**v3** — written when ``config.chunk_size`` is set and the stream
exceeds it — whose code stream is split into fixed-size blocks that
encode and decode in parallel when the compressor is constructed with
``workers > 1``.  The tiled **v4** container is produced by
:class:`repro.compressor.tiled.TiledCompressor`, which drives this
facade per tile.

Degenerate inputs take a trivial container: empty arrays round-trip to
the correct shape/dtype, and constant fields under ``REL`` mode (whose
value range — hence absolute bound — collapses to zero) are stored as a
single value and reconstruct exactly.  Both still carry the full header.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compressor import container
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.predictors.base import PredictorOutput
from repro.compressor.stages import (
    EncodedCodes,
    EntropyStage,
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

    ``workers`` sets the default parallelism for chunked (v3)
    containers and ``backend`` picks the execution backend the blocks
    fan out on — ``"serial"``, ``"thread"`` (historical default) or
    ``"process"`` (shared-memory process pool; see
    :mod:`repro.compressor.executor`).  ``None``/1 workers keeps
    everything on the calling thread.  Pass alternative stage
    implementations to swap parts of the pipeline (a custom ``entropy``
    stage owns its own parallelism, so ``backend`` then only serves as
    the default for configs carrying ``parallel_backend``).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        backend: str | None = None,
        transform: TransformStage | None = None,
        prediction: PredictionStage | None = None,
        entropy: EntropyStage | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer or None")
        self._workers = workers or 1
        self._backend = backend
        self._transform = transform or PwRelLogTransform()
        self._prediction = prediction or PredictorStage()
        self._entropy = entropy or HuffmanEntropyStage(
            workers=workers, backend=backend
        )

    @property
    def entropy_releases_gil(self) -> bool:
        """Whether the entropy stage can run GIL-free (thread scaling)."""
        return bool(getattr(self._entropy, "releases_gil", False))

    # -- public API ------------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        reconstruct: bool = False,
    ) -> CompressionResult:
        """Compress *data* under *config*; returns blob plus measurements.

        With ``reconstruct`` the result also carries
        ``result.reconstruction`` — bit for bit what
        ``decompress(result.blob)`` returns, taken from the
        predict-quantize stage instead of a decode (``None`` when the
        prediction stage cannot surface it).
        """
        data = np.asarray(data)
        original_bytes = data.nbytes
        times = StageTimes()
        # 0-d arrays compress as their single element; the header's empty
        # shape list restores the original dimensionality.
        core = data.reshape(1) if data.ndim == 0 else data

        if data.size == 0:
            return self._trivial_result(
                data, config, times, reconstruct=reconstruct
            )

        with Timer() as t:
            work, transform_meta, signs_payload = self._transform.forward(
                core, config
            )
            abs_eb = config.absolute_bound(core)
        times.add("transform", t.elapsed)

        if abs_eb <= 0:
            # REL bound on a constant field: the value range is zero, so
            # the bound demands exact reconstruction — store the value.
            return self._trivial_result(
                data,
                config,
                times,
                constant=float(core.flat[0]),
                reconstruct=reconstruct,
            )

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
        with Timer() as t:
            blob, sizes = self._assemble(
                data,
                config,
                abs_eb,
                output,
                encoded,
                transform_meta,
                signs_payload,
            )
        times.add("serialize", t.elapsed)

        reconstruction = None
        if output.reconstruction is not None:
            # the tail of decompress(), on the encoder's own values
            reconstruction = (
                self._transform.inverse(
                    output.reconstruction,
                    {"transform": transform_meta, "shape": list(data.shape)},
                    signs_payload,
                )
                .reshape(data.shape)
                .astype(data.dtype)
            )
        return CompressionResult(
            blob=blob,
            n_points=int(data.size),
            original_bytes=original_bytes,
            sizes=sizes,
            p0=p0,
            n_outliers=output.n_outliers,
            times=times,
            reconstruction=reconstruction,
        )

    def decompress(
        self, blob: bytes, workers: int | None = None
    ) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`.

        ``workers`` overrides the constructor's parallelism for chunked
        (v3) containers.
        """
        header, sections = container.read_flat(blob)
        version = header["container_version"]
        shape = tuple(header["shape"])
        dtype = np.dtype(header["dtype"])
        n_points = int(np.prod(shape)) if shape else 1
        if n_points == 0:
            return np.zeros(shape, dtype=dtype)
        if "constant" in header:
            return np.full(shape, header["constant"], dtype=dtype)

        config = self._config_from_header(header)
        codes_payload, pos_b, val_b, side, signs = sections

        codes = self._entropy.decode(
            codes_payload,
            config,
            chunked=version == container.VERSION_CHUNKED,
            workers=workers,
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
        data = self._transform.inverse(work, header, signs)
        return data.reshape(shape).astype(dtype)

    def roundtrip(
        self, data: np.ndarray, config: CompressionConfig
    ) -> tuple[CompressionResult, np.ndarray]:
        """Compress then decompress; returns ``(result, reconstruction)``."""
        result = self.compress(data, config)
        return result, self.decompress(result.blob)

    # -- trivial containers ----------------------------------------------------

    def _trivial_result(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        times: StageTimes,
        constant: float | None = None,
        reconstruct: bool = False,
    ) -> CompressionResult:
        """Container for degenerate inputs (empty or constant-under-REL)."""
        output = PredictorOutput(
            codes=np.zeros(0, dtype=np.int64),
            outlier_positions=np.zeros(0, dtype=np.int64),
            outlier_values=np.zeros(0, dtype=np.float64),
        )
        extra = {} if constant is None else {"constant": constant}
        with Timer() as t:
            blob, sizes = self._assemble(
                data,
                config,
                0.0,
                output,
                EncodedCodes(b"", 0, 0),
                {},
                b"",
                extra_header=extra,
            )
        times.add("serialize", t.elapsed)
        return CompressionResult(
            blob=blob,
            n_points=int(data.size),
            original_bytes=data.nbytes,
            sizes=sizes,
            p0=1.0,
            n_outliers=0,
            times=times,
            reconstruction=(
                np.full(
                    data.shape,
                    0 if constant is None else constant,
                    dtype=data.dtype,
                )
                if reconstruct
                else None
            ),
        )

    # -- container assembly ----------------------------------------------------

    def _assemble(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        abs_eb: float,
        output: PredictorOutput,
        encoded: EncodedCodes,
        transform_meta: dict,
        signs_payload: bytes,
        extra_header: dict | None = None,
    ) -> tuple[bytes, StageSizes]:
        outlier_kind = (
            "codes" if output.outlier_values.dtype == np.int64 else "values"
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
            "chunk_size": config.chunk_size,
            "shape": list(data.shape),
            "dtype": np.asarray(data).dtype.str,
            "predictor_meta": output.meta,
            "outlier_kind": outlier_kind,
            "transform": transform_meta,
        }
        if extra_header:
            header.update(extra_header)
        pos_b = output.outlier_positions.astype(np.int64).tobytes()
        val_b = output.outlier_values.tobytes()
        sections = [
            encoded.payload,
            pos_b,
            val_b,
            output.side_payload,
            signs_payload,
        ]
        version = (
            container.VERSION_CHUNKED
            if encoded.chunked
            else container.VERSION_SINGLE
        )
        blob, header_len = container.write_flat(header, sections, version)
        sizes = StageSizes(
            header=header_len,
            codes=len(encoded.payload),
            huffman_only=encoded.huffman_only,
            outliers=len(pos_b) + len(val_b),
            side=len(output.side_payload),
            signs=len(signs_payload),
        )
        return blob, sizes

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
            chunk_size=header.get("chunk_size"),
        )
