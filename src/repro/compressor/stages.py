"""Composable pipeline stages: transform → predict/quantize → entropy.

:class:`~repro.compressor.sz.SZCompressor` is a thin facade over three
stage objects, each behind a small interface so alternatives can be
swapped in without touching the facade or the container layer:

* :class:`TransformStage` — an invertible pre-transform of the raw
  values (the PW_REL log transform, or the identity);
* :class:`PredictionStage` — turns the (transformed) array into integer
  quantization codes plus outliers, and back;
* :class:`EntropyStage` — losslessly encodes the code stream, either as
  one payload (v2) or as independently coded fixed-size blocks (v3)
  that encode/decode in parallel across a pluggable
  :class:`repro.compressor.executor.CodecExecutor` backend (serial,
  thread, or shared-memory process pool).

Container serialization is *not* a stage object: the byte formats live
in :mod:`repro.compressor.container` and the facade calls them directly.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass

import numpy as np

from repro.compressor import container
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.encoders.lossless import get_lossless_backend
from repro.compressor.executor import (
    CodecExecutor,
    resolve_executor,
    worker_state,
)
from repro.compressor.predictors import make_predictor
from repro.compressor.predictors.base import PredictorOutput
from repro.compressor.transform import inverse_log_transform, log_transform
from repro.utils.timer import StageTimes, Timer

__all__ = [
    "TransformStage",
    "PwRelLogTransform",
    "PredictionStage",
    "PredictorStage",
    "EntropyStage",
    "HuffmanEntropyStage",
    "EncodedCodes",
    "gil_capped_encode_executor",
    "warn_gil_encode_cap",
]


# -- transform stage -----------------------------------------------------------


class TransformStage(abc.ABC):
    """Invertible value-domain transform applied before prediction."""

    @abc.abstractmethod
    def forward(
        self, data: np.ndarray, config: CompressionConfig
    ) -> tuple[np.ndarray, dict, bytes]:
        """Transform *data*; returns ``(work, meta, signs_payload)``.

        ``meta`` is recorded in the container header under
        ``"transform"``; ``signs_payload`` is stored as its own section.
        """

    @abc.abstractmethod
    def inverse(
        self, work: np.ndarray, header: dict, signs_payload: bytes
    ) -> np.ndarray:
        """Invert :meth:`forward` using the stored header/payload."""


class PwRelLogTransform(TransformStage):
    """Log transform for PW_REL mode; identity for ABS/REL.

    Liang et al. (CLUSTER'18): a point-wise relative bound becomes an
    absolute bound in log space.
    """

    def forward(
        self, data: np.ndarray, config: CompressionConfig
    ) -> tuple[np.ndarray, dict, bytes]:
        if config.mode is not ErrorBoundMode.PW_REL:
            return np.asarray(data, dtype=np.float64), {}, b""
        return log_transform(data)

    def inverse(
        self, work: np.ndarray, header: dict, signs_payload: bytes
    ) -> np.ndarray:
        if not header.get("transform", {}).get("pw_rel"):
            return work
        shape = tuple(header["shape"]) or (1,)
        return inverse_log_transform(work, shape, signs_payload)


# -- prediction/quantization stage ---------------------------------------------


class PredictionStage(abc.ABC):
    """Decompose values into quantization codes + outliers, and back."""

    @abc.abstractmethod
    def decompose(
        self,
        work: np.ndarray,
        config: CompressionConfig,
        abs_eb: float,
        reconstruct: bool = False,
    ) -> PredictorOutput:
        """Predict + quantize *work* under the absolute bound.

        With ``reconstruct`` the output should also carry what
        :meth:`reconstruct` will return for it
        (``PredictorOutput.reconstruction``); a stage that cannot
        surface it leaves the field ``None``.
        """

    @abc.abstractmethod
    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        abs_eb: float,
        config: CompressionConfig,
    ) -> np.ndarray:
        """Invert :meth:`decompose` (returns ``float64``)."""


class PredictorStage(PredictionStage):
    """Dispatches to the configured predictor (Lorenzo/interp/regression)."""

    @staticmethod
    def make_predictor(config: CompressionConfig):
        """Instantiate the predictor the config names."""
        if config.predictor == "lorenzo":
            return make_predictor("lorenzo", order=config.lorenzo_levels)
        if config.predictor == "interpolation":
            return make_predictor("interpolation")
        return make_predictor("regression", block=config.regression_block)

    def decompose(
        self,
        work: np.ndarray,
        config: CompressionConfig,
        abs_eb: float,
        reconstruct: bool = False,
    ) -> PredictorOutput:
        predictor = self.make_predictor(config)
        return predictor.decompose(
            work, abs_eb, config.quant_radius, reconstruct
        )

    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        abs_eb: float,
        config: CompressionConfig,
    ) -> np.ndarray:
        predictor = self.make_predictor(config)
        return predictor.reconstruct(output, shape, abs_eb)


# -- entropy-coding stage ------------------------------------------------------


@dataclass(frozen=True)
class EncodedCodes:
    """Encoded code stream plus the accounting the measurements need."""

    payload: bytes
    huffman_only: int
    n_chunks: int

    @property
    def chunked(self) -> bool:
        """True when the payload uses the v3 chunked framing."""
        return self.n_chunks > 0


class EntropyStage(abc.ABC):
    """Lossless coding of the quantization-code stream."""

    @abc.abstractmethod
    def encode(
        self,
        codes: np.ndarray,
        config: CompressionConfig,
        times: StageTimes | None = None,
    ) -> EncodedCodes:
        """Encode *codes*; chunked framing when the config asks for it."""

    @abc.abstractmethod
    def decode(
        self,
        payload: bytes,
        config: CompressionConfig,
        chunked: bool,
        workers: int | None = None,
    ) -> np.ndarray:
        """Invert :meth:`encode` back to the flat ``int64`` code stream."""


#: emitted once per process when a GIL-bound encode is asked to fan out
#: over threads; the fan-out is capped to serial instead
_GIL_CAP_MESSAGE = (
    "the entropy stage cannot release the GIL, so thread-backend "
    "encode fan-out (workers>1) would run slower than serial; capping "
    "encode to one thread — use the 'process' backend for real "
    "multi-core encode scaling"
)
_gil_cap_warned = False


def warn_gil_encode_cap() -> None:
    """Warn (once per process) that thread encode fan-out was capped."""
    global _gil_cap_warned
    if not _gil_cap_warned:
        _gil_cap_warned = True
        warnings.warn(_GIL_CAP_MESSAGE, RuntimeWarning, stacklevel=3)


def gil_capped_encode_executor(
    executor: CodecExecutor, releases_gil: bool
) -> CodecExecutor:
    """Cap a thread executor to serial for GIL-bound *encode* work.

    Decoding keeps its thread fan-out (the batched table decode spends
    most of its time in NumPy kernels); encoding through pure-Python
    Huffman/LZ77 loops under contention is measurably *slower* than
    serial, so a thread backend that cannot release the GIL silently
    wasting cores is replaced by the serial executor, with a one-time
    warning.
    """
    if (
        executor.name == "thread"
        and executor.workers > 1
        and not releases_gil
    ):
        warn_gil_encode_cap()
        return resolve_executor("serial", 1)
    return executor


def _encode_chunk_task(item, inp, out):
    """Executor task: Huffman(+lossless) encode one code block.

    ``item`` is ``(lo, hi, lossless)``; the int64 code stream lives in
    the batch input buffer (a zero-copy shared-memory view under the
    process backend).  Returns ``(payload, huffman_len)`` — compressed
    bytes, so the pickled result is small.
    """
    lo, hi, lossless = item
    codes = inp.view(np.int64)[lo:hi]
    huffman_payload = worker_state().huffman.encode(codes)
    payload = (
        get_lossless_backend(lossless).compress(huffman_payload)
        if lossless is not None
        else huffman_payload
    )
    return payload, len(huffman_payload)


def _decode_chunk_task(item, inp, out):
    """Executor task: decode one v3 block into the shared output buffer.

    ``item`` is ``(index, blob, chunk, lossless)``; the decoded symbols
    are written at ``index * chunk`` of the preallocated int64 output
    region, so no arrays are pickled back.  Returns the symbol count.
    """
    index, blob, chunk, lossless = item
    if lossless is not None:
        blob = get_lossless_backend(lossless).decompress(blob)
    decoded = worker_state().huffman.decode(blob)
    if decoded.size > chunk:
        raise ValueError(
            "corrupt chunked codes section: block decodes to "
            f"{decoded.size} symbols, expected at most {chunk}"
        )
    lo = index * chunk
    out.view(np.int64)[lo : lo + decoded.size] = decoded
    return int(decoded.size)


def _decode_chunk_pickled_task(item, inp, out):
    """Executor task: decode one block, returning the array itself.

    Fallback for payloads whose block size is unknown (no output
    region can be preallocated); the decoded array travels back via
    pickle under the process backend.
    """
    blob, lossless = item
    if lossless is not None:
        blob = get_lossless_backend(lossless).decompress(blob)
    return worker_state().huffman.decode(blob)


class HuffmanEntropyStage(EntropyStage):
    """Huffman + optional lossless back-end, with parallel v3 blocks.

    ``workers`` sets the default parallel width for chunked payloads
    and ``backend`` picks the executor (``"serial"``/``"thread"``/
    ``"process"``; ``None`` resolves to the thread backend, or
    ``config.parallel_backend`` when one is set).  Because this stage
    holds the GIL, thread-backend *encode* fan-out is capped to serial
    with a one-time warning — only decode fans out over threads.
    ``decode`` may override the width per call.  An explicit
    ``executor`` wins over both knobs (tests inject e.g. a
    spawn-method process pool).
    """

    #: the hot loops (Huffman tree walk, LZ77 token scan) are pure
    #: Python/NumPy and hold the GIL; thread-backend *encode* fan-out
    #: is therefore capped (see :func:`gil_capped_encode_executor`)
    releases_gil = False

    def __init__(
        self,
        workers: int | None = None,
        backend: str | None = None,
        executor: CodecExecutor | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer or None")
        self._huffman = HuffmanEncoder()
        # None is preserved (not coerced to 1): an explicit backend
        # with no width resolves to the machine's default_workers()
        self._workers = workers
        self._backend = backend
        self._executor = executor

    @property
    def workers(self) -> int:
        """Default parallel width."""
        return self._workers or 1

    def _executor_for(
        self,
        config: CompressionConfig,
        workers: int | None = None,
    ) -> CodecExecutor:
        backend = self._backend or config.parallel_backend
        effective = workers if workers is not None else self._workers
        return resolve_executor(backend, effective, self._executor)

    def encode(
        self,
        codes: np.ndarray,
        config: CompressionConfig,
        times: StageTimes | None = None,
    ) -> EncodedCodes:
        times = times if times is not None else StageTimes()
        chunk = config.chunk_size
        if not chunk or codes.size <= chunk:
            with Timer() as t:
                huffman_payload = self._huffman.encode(codes)
            times.add("huffman", t.elapsed)
            payload = huffman_payload
            if config.lossless is not None:
                with Timer() as t:
                    backend = get_lossless_backend(config.lossless)
                    payload = backend.compress(huffman_payload)
                times.add("lossless", t.elapsed)
            return EncodedCodes(payload, len(huffman_payload), 0)

        executor = gil_capped_encode_executor(
            self._executor_for(config), self.releases_gil
        )
        codes = np.ascontiguousarray(
            np.asarray(codes, dtype=np.int64).ravel()
        )
        items = [
            (lo, min(lo + chunk, codes.size), config.lossless)
            for lo in range(0, codes.size, chunk)
        ]
        with Timer() as t:
            buffer = executor.wrap_input(codes)
            try:
                encoded = executor.run_batch(
                    _encode_chunk_task, items, input=buffer
                )
            finally:
                buffer.release()
        times.add("encode_chunks", t.elapsed)

        payload = container.write_chunked_codes([p for p, _ in encoded])
        huffman_only = sum(h for _, h in encoded)
        return EncodedCodes(payload, huffman_only, len(encoded))

    def decode(
        self,
        payload: bytes,
        config: CompressionConfig,
        chunked: bool,
        workers: int | None = None,
    ) -> np.ndarray:
        if not chunked:
            return self._huffman.decode(
                self._unwrap_lossless(payload, config)
            )
        blobs = container.read_chunked_codes(payload)
        executor = self._executor_for(config, workers)
        if executor.workers <= 1 or len(blobs) <= 1:
            parts = [
                self._huffman.decode(self._unwrap_lossless(b, config))
                for b in blobs
            ]
            return (
                np.concatenate(parts)
                if parts
                else np.zeros(0, dtype=np.int64)
            )

        chunk = config.chunk_size
        if not chunk:
            # block size unknown: no output region to preallocate, so
            # decoded arrays come back through the executor directly
            parts = executor.run_batch(
                _decode_chunk_pickled_task,
                [(blob, config.lossless) for blob in blobs],
            )
            return np.concatenate(parts)

        output = executor.output_buffer(len(blobs) * chunk * 8)
        try:
            counts = executor.run_batch(
                _decode_chunk_task,
                [
                    (i, blob, chunk, config.lossless)
                    for i, blob in enumerate(blobs)
                ],
                output=output,
            )
            decoded = output.array.view(np.int64)
            if all(c == chunk for c in counts[:-1]):
                # the writer fills every block but the last, so the
                # symbols are already contiguous in the buffer
                total = (len(counts) - 1) * chunk + counts[-1]
                return decoded[:total].copy()
            return np.concatenate(
                [
                    decoded[i * chunk : i * chunk + c]
                    for i, c in enumerate(counts)
                ]
            )
        finally:
            output.release()

    @staticmethod
    def _unwrap_lossless(
        payload: bytes, config: CompressionConfig
    ) -> bytes:
        if config.lossless is None:
            return payload
        return get_lossless_backend(config.lossless).decompress(payload)
