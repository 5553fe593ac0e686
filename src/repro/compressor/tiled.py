"""Tiled out-of-core compression with region-of-interest decode.

:class:`TiledCompressor` splits an N-d field into tiles (configurable
``config.tile_shape``), drives the flat :class:`SZCompressor` pipeline
once per tile, and writes the v4 tiled container described in
:mod:`repro.compressor.container`.  Because tiles are encoded one batch
at a time and streamed straight to the sink, peak memory is bounded by
a few tiles — the input may be a ``np.memmap``/``np.load(mmap_mode=...)``
array far larger than RAM.  Tiles are mutually independent, so a batch
encodes in parallel across a thread pool (``workers``).

Reading is random-access: :meth:`TiledCompressor.decompress_region`
seeks to, reads and decodes *only* the tiles intersecting the requested
hyperslab — the access pattern HDF5+H5Z-SZ deployments serve.  The
``tiles_decoded`` / ``last_tiles_decoded`` counters expose exactly how
many tiles each call touched.

When ``config.adaptive`` is set the compressor first runs the
model-driven planner (:class:`repro.compressor.adaptive.
AdaptivePlanner`), encodes every tile under its own selected
(predictor, bound, radius) and writes the **v5** container whose TOC
records each tile's parameters; see :mod:`repro.compressor.adaptive`
for the planning pipeline and its bound semantics.

Error-bound semantics of the uniform path match the flat pipeline
exactly:

* ``ABS`` and ``PW_REL`` bounds are data-independent (the latter in log
  space), so tiles compress under the user's config directly;
* ``REL`` scales the bound by the *global* value range, which a first
  streaming min/max pass resolves before any tile is encoded — a naive
  per-tile range would silently tighten or loosen the bound per tile.
"""

from __future__ import annotations

import io
import os
import threading
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from repro.compressor import container
from repro.compressor.adaptive import AdaptivePlan, AdaptivePlanner
from repro.compressor.plan_cache import PlannerCache
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.container import TiledReader, TiledWriter, TileRecord
from repro.compressor.executor import (
    CodecExecutor,
    carve_buffer,
    resolve_executor,
    worker_state,
)
from repro.compressor.stages import gil_capped_encode_executor
from repro.compressor.sz import SZCompressor
from repro.compressor.tiled_geometry import (
    copy_overlap,
    intersect_extent,
    iter_tiles,
    normalize_region,
    tile_grid,
)
from repro.utils.timer import StageTimes, Timer

__all__ = [
    "TiledCompressor",
    "TiledResult",
    "iter_tiles",
    "tile_grid",
    "normalize_region",
    "intersect_extent",
]


# -- results -------------------------------------------------------------------


@dataclass
class TiledResult:
    """Outcome of one tiled compression run."""

    n_points: int
    original_bytes: int
    compressed_bytes: int
    tile_shape: tuple[int, ...]
    tiles: list[TileRecord]
    blob: bytes | None = None
    times: StageTimes = field(default_factory=StageTimes)
    #: the per-tile assignment, for adaptive (v5) runs only
    plan: AdaptivePlan | None = None
    #: the decoded array — what ``decompress`` returns for the
    #: container — when ``compress`` was asked to surface it and every
    #: tile's codec could; ``None`` otherwise
    reconstruction: np.ndarray | None = None

    @property
    def n_tiles(self) -> int:
        """Number of tiles in the container."""
        return len(self.tiles)

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


# -- the tiled compressor ------------------------------------------------------


class TiledCompressor:
    """Out-of-core tiled front-end over the flat SZ pipeline.

    ``workers`` bounds both the encode parallelism *and* the number of
    tiles materialized at once, so peak memory stays at a few tiles.
    ``backend`` picks the execution backend tiles fan out on —
    ``"serial"``, ``"thread"`` or ``"process"`` (shared-memory process
    pool; see :mod:`repro.compressor.executor`); ``None`` resolves to
    the thread backend (or ``config.parallel_backend`` when set).
    Note that thread-backend *encode* fan-out is capped to serial
    whenever the per-tile codec's entropy stage cannot release the GIL
    — the stock stage cannot — with a one-time warning; decode keeps
    its thread fan-out.  ``codec`` swaps the per-tile compressor (any
    :class:`SZCompressor`-compatible facade; serial/thread backends
    only — process workers rebuild the stock codec).

    Decoding is **thread-safe**: every decode call works on local state
    only (the stage objects are stateless and :class:`TiledReader`
    serializes its seek+read pairs), so one compressor — or one shared
    reader — may serve concurrent region decodes.  The
    ``tiles_decoded`` / ``last_tiles_decoded`` counters are updated
    under a lock; under concurrency ``last_tiles_decoded`` reflects
    whichever call finished most recently.
    """

    def __init__(
        self,
        workers: int | None = None,
        codec: SZCompressor | None = None,
        planner: AdaptivePlanner | None = None,
        backend: str | None = None,
        plan_cache: PlannerCache | str | os.PathLike | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer or None")
        # None is preserved: an explicit backend with no width resolves
        # to the machine's default_workers() (see executor.get_executor)
        self._workers = workers
        # a caller-supplied codec travels inside work items, which the
        # process backend would have to pickle (stage objects hold
        # executors); its workers rebuild the *default* codec instead,
        # so custom codecs are restricted to serial/thread
        self._custom_codec = codec is not None
        self._codec = codec or SZCompressor()
        self._planner = planner or AdaptivePlanner()
        self._backend = backend
        # a path means the shared file-backed cache for that path; an
        # object is used as-is (e.g. one in-memory cache per service)
        self._plan_cache = (
            PlannerCache.at_path(plan_cache)
            if isinstance(plan_cache, (str, os.PathLike))
            else plan_cache
        )
        self._counter_lock = threading.Lock()
        #: tiles decoded since construction (all decode calls)
        self.tiles_decoded = 0
        #: tiles decoded by the most recent decode call
        self.last_tiles_decoded = 0

    def _executor_for(
        self,
        config: CompressionConfig | None = None,
        workers: int | None = None,
    ) -> CodecExecutor:
        backend = self._backend or (
            config.parallel_backend if config is not None else None
        )
        effective = workers if workers is not None else self._workers
        executor = resolve_executor(backend, effective)
        if executor.name == "process" and self._custom_codec:
            raise ValueError(
                "the process backend re-creates the default per-tile "
                "codec in every worker and cannot ship a custom codec "
                "object; use backend='thread' or 'serial' with custom "
                "codecs"
            )
        return executor

    def _count_decoded(self, n_tiles: int) -> None:
        with self._counter_lock:
            self.last_tiles_decoded = n_tiles
            self.tiles_decoded += n_tiles

    # -- compression -----------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        out: str | os.PathLike | BinaryIO | None = None,
        dataset: str | None = None,
        reconstruct: bool = False,
    ) -> TiledResult:
        """Tile-compress *data* into a v4 container.

        ``out`` may be a path or binary file object to stream the
        container to (bounded memory); ``None`` builds the blob in
        memory and returns it in ``result.blob``.  *data* may be any
        array-like, including a ``np.memmap`` over a file that does not
        fit in RAM.

        With ``config.adaptive`` set (and a non-empty array) the
        model-driven planner assigns every tile its own predictor,
        bound and quantizer radius, and the container is written as v5
        with the choices recorded in the TOC (``result.plan`` carries
        the full assignment).  ``dataset`` names the array for the
        cross-snapshot plan cache (the compressor's ``plan_cache`` or
        ``config.plan_cache``): successive snapshots of the same
        dataset reuse the previous plan when their tile statistics
        have not drifted.

        With ``reconstruct`` the result also carries the decoded array
        (``result.reconstruction``): each tile task writes what its
        predict-quantize stage reconstructed into the output region a
        decode task would fill, so no tile is decoded to obtain it.
        It holds the whole array in memory, unlike the encode itself.
        """
        if not hasattr(data, "ndim"):
            data = np.asarray(data)
        if data.ndim == 0:
            raise ValueError(
                "tiled compression needs at least one dimension; "
                "use SZCompressor for scalars"
            )
        tile_shape = self._resolve_tile_shape(data.shape, config)
        times = StageTimes()

        plan: AdaptivePlan | None = None
        per_tile: list[tuple[CompressionConfig, dict]] | None = None
        version = container.VERSION_TILED
        if config.adaptive and data.size > 0:
            cache = self._plan_cache
            if cache is None and config.plan_cache is not None:
                cache = PlannerCache.at_path(config.plan_cache)
            with Timer() as t:
                # None = nothing to plan (REL bound on a constant
                # field); the uniform path below stores it exactly
                plan = self._planner.plan(
                    data,
                    config,
                    tile_shape,
                    executor=self._executor_for(config),
                    cache=cache,
                    dataset=dataset,
                )
            times.add("plan", t.elapsed)
        if plan is not None:
            # per-tile configs travel into executor tasks: strip the
            # tiling fields AND the parallel hint, or every worker
            # would recursively spin up its own executor for the
            # tile's inner (chunked) encode
            base = replace(
                config,
                tile_shape=None,
                adaptive=False,
                parallel_backend=None,
                fit_clusters=None,
                plan_cache=None,
            )
            per_tile = [
                (plan.config_for(base, i), choice.to_json())
                for i, choice in enumerate(plan.choices)
            ]
            header_extra = {
                "adaptive": True,
                "nominal_abs_eb": plan.nominal_bound,
                # degenerate plans (e.g. zero aggregate MSE) have an
                # infinite PSNR target; JSON has no Infinity token, so
                # the on-disk header stores null to stay RFC-8259 clean
                "target_psnr": (
                    plan.target_psnr
                    if np.isfinite(plan.target_psnr)
                    else None
                ),
            }
            if plan.stats is not None:
                # deterministic counters only: wall-clock timing would
                # break byte-identical re-encodes (plan_seconds stays
                # on the runtime PlanStats object)
                header_extra["planner_stats"] = plan.stats.to_json()
            version = container.VERSION_ADAPTIVE
            tile_config = base
        else:
            with Timer() as t:
                tile_config, header_extra = self._resolve_tile_config(
                    data, config, tile_shape
                )
            times.add("scan", t.elapsed)

        header = {
            "shape": list(data.shape),
            "dtype": data.dtype.str,
            "tile_shape": list(tile_shape),
            "predictor": config.predictor,
            "mode": config.mode.value,
            "error_bound": config.error_bound,
            "lossless": config.lossless,
            "chunk_size": config.chunk_size,
            "quant_radius": config.quant_radius,
            **header_extra,
        }

        executor = gil_capped_encode_executor(
            self._executor_for(config),
            getattr(self._codec, "entropy_releases_gil", False),
        )
        reconstruction = (
            np.empty(data.shape, dtype=data.dtype) if reconstruct else None
        )
        sink, close_sink = self._open_sink(out)
        try:
            writer = TiledWriter(sink, header, version=version)
            with Timer() as t:
                surfaced = self._encode_tiles(
                    data,
                    tile_config,
                    tile_shape,
                    writer,
                    times,
                    per_tile,
                    executor,
                    reconstruction,
                )
            times.add("encode_tiles", t.elapsed)
            total = writer.finish()
        finally:
            if close_sink:
                sink.close()

        blob = sink.getvalue() if isinstance(sink, io.BytesIO) else None
        return TiledResult(
            n_points=int(data.size),
            original_bytes=int(data.nbytes),
            compressed_bytes=total,
            tile_shape=tile_shape,
            tiles=writer.tiles,
            blob=blob,
            times=times,
            plan=plan,
            reconstruction=reconstruction if surfaced else None,
        )

    def _encode_tiles(
        self,
        data: np.ndarray,
        tile_config: CompressionConfig,
        tile_shape: tuple[int, ...],
        writer: TiledWriter,
        times: StageTimes,
        per_tile: list[tuple[CompressionConfig, dict]] | None = None,
        executor: CodecExecutor | None = None,
        reconstruction: np.ndarray | None = None,
    ) -> bool:
        """Encode tiles batch-by-batch; at most ``workers`` tiles live.

        ``per_tile`` (adaptive runs) supplies each tile's own config
        plus the TOC ``config`` dict, in ``iter_tiles`` order.  Each
        batch is staged into one executor input buffer (a shared-memory
        arena under the process backend, which workers view without
        copying), so peak memory stays at one batch of raw tiles plus
        their compressed payloads.

        A *reconstruction* array is filled with the decoded tiles, each
        task writing its own into an output buffer laid out like the
        input arena; returns whether every tile was surfaced.
        """
        executor = executor or resolve_executor(None, self._workers)
        itemsize = data.dtype.itemsize
        ship_codec = self._codec if self._custom_codec else None
        surfaced = reconstruction is not None
        for batch in _batched(
            enumerate(iter_tiles(data.shape, tile_shape)),
            max(executor.workers, 1),
        ):
            sizes = [
                itemsize * int(np.prod([b - a for a, b in zip(start, stop)]))
                for _, (start, stop) in batch
            ]
            arena, offsets = carve_buffer(executor, sizes)
            decoded = (
                carve_buffer(executor, sizes, kind="output")[0]
                if surfaced
                else None
            )
            try:
                items = []
                views = []
                for (index, (start, stop)), offset in zip(batch, offsets):
                    shape = tuple(b - a for a, b in zip(start, stop))
                    nbytes = int(np.prod(shape)) * itemsize
                    slc = tuple(
                        slice(a, b) for a, b in zip(start, stop)
                    )
                    view = (
                        arena.array[offset : offset + nbytes]
                        .view(data.dtype)
                        .reshape(shape)
                    )
                    view[...] = data[slc]
                    views.append((slc, slice(offset, offset + nbytes), shape))
                    cfg = (
                        per_tile[index][0]
                        if per_tile is not None
                        else tile_config
                    )
                    items.append(
                        (offset, shape, data.dtype.str, cfg, ship_codec)
                    )
                results = executor.run_batch(
                    _compress_tile_task, items, input=arena, output=decoded
                )
                surfaced = surfaced and all(done for _, done in results)
                if surfaced:
                    for slc, extent, shape in views:
                        reconstruction[slc] = (
                            decoded.array[extent]
                            .view(data.dtype)
                            .reshape(shape)
                        )
            finally:
                arena.release()
                if decoded is not None:
                    decoded.release()
            with Timer() as t:
                for (index, (start, stop)), (payload, _) in zip(
                    batch, results
                ):
                    writer.add_tile(
                        start,
                        stop,
                        payload,
                        config=(
                            per_tile[index][1]
                            if per_tile is not None
                            else None
                        ),
                    )
            times.add("io", t.elapsed)
        return surfaced

    @staticmethod
    def _resolve_tile_shape(
        shape: tuple[int, ...], config: CompressionConfig
    ) -> tuple[int, ...]:
        tile_shape = config.tile_shape
        if tile_shape is None:
            # default: one tile covering the array (still a valid v4
            # container, just without partial-decode benefits)
            return tuple(max(1, n) for n in shape)
        tile_grid(shape, tile_shape)  # validates rank/positivity
        return tuple(
            int(max(1, min(t, n))) for t, n in zip(tile_shape, shape)
        )

    def _resolve_tile_config(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        tile_shape: tuple[int, ...],
    ) -> tuple[CompressionConfig, dict]:
        """Per-tile config with data-independent bound, plus header extras.

        The parallel hint is stripped along with the tiling fields:
        per-tile configs execute *inside* executor tasks, which must
        never recursively resolve another executor.
        """
        base = replace(
            config,
            tile_shape=None,
            adaptive=False,
            parallel_backend=None,
            fit_clusters=None,
            plan_cache=None,
        )
        if config.mode is not ErrorBoundMode.REL or data.size == 0:
            return base, {}
        # REL: one streaming pass over the tiles resolves the global
        # value range without materializing the array.
        lo, hi = np.inf, -np.inf
        for start, stop in iter_tiles(data.shape, tile_shape):
            tile = data[tuple(slice(a, b) for a, b in zip(start, stop))]
            lo = min(lo, float(np.min(tile)))
            hi = max(hi, float(np.max(tile)))
        abs_eb = config.error_bound * (hi - lo)
        if abs_eb <= 0:
            # constant field: every tile is constant too; the per-tile
            # REL path stores each as an exact trivial container.
            return base, {"value_range": [lo, hi]}
        return (
            replace(base, mode=ErrorBoundMode.ABS, error_bound=abs_eb),
            {"value_range": [lo, hi]},
        )

    @staticmethod
    def _open_sink(
        out: str | os.PathLike | BinaryIO | None,
    ) -> tuple[BinaryIO, bool]:
        if out is None:
            return io.BytesIO(), False
        if isinstance(out, (str, os.PathLike)):
            return open(out, "wb"), True
        return out, False

    # -- decompression ---------------------------------------------------------

    def decompress(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        workers: int | None = None,
    ) -> np.ndarray:
        """Decode a full array from a v4 container (or flat v2/v3 blob)."""
        flat = self._as_flat_blob(source)
        if flat is not None:
            return self._codec.decompress(flat, workers=workers)
        with TiledReader(source) as reader:
            self._reject_temporal(reader)
            shape = tuple(reader.header["shape"])
            region = tuple(slice(0, n) for n in shape)
            return self._decode_tiles(reader, region, workers)

    def decompress_region(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        region: Sequence[slice | int] | slice | int,
        workers: int | None = None,
    ) -> np.ndarray:
        """Decode only the hyperslab *region*.

        Only the tiles intersecting the region are read from the source
        and decoded (see ``last_tiles_decoded``).  The result has the
        region's shape; an empty intersection yields an empty array.
        Flat v2/v3 blobs are supported via a full decode + slice.
        """
        flat = self._as_flat_blob(source)
        if flat is not None:
            data = self._codec.decompress(flat, workers=workers)
            self._count_decoded(1)
            return np.ascontiguousarray(
                data[normalize_region(region, data.shape)]
            )
        with TiledReader(source) as reader:
            self._reject_temporal(reader)
            shape = tuple(reader.header["shape"])
            return self._decode_tiles(
                reader, normalize_region(region, shape), workers
            )

    def _decode_tiles(
        self,
        reader: TiledReader,
        region: tuple[slice, ...],
        workers: int | None,
    ) -> np.ndarray:
        """Decode the tiles intersecting *region* on the executor.

        The parent reads the (compressed, small) tile payloads and
        ships them as work items; workers decode each tile straight
        into a preallocated output buffer — a shared-memory region
        under the process backend, so decoded samples are never
        pickled — and the parent assembles the hyperslab from the
        buffer views.
        """
        dtype = np.dtype(reader.header["dtype"])
        out_shape = tuple(r.stop - r.start for r in region)
        out = np.zeros(out_shape, dtype=dtype)
        hits = [
            (record, overlap)
            for record in reader.tiles
            for overlap in [
                intersect_extent(record.start, record.stop, region)
            ]
            if overlap is not None
        ]
        executor = self._executor_for(None, workers)

        if executor.workers <= 1 or len(hits) <= 1:
            for record, overlap in hits:
                tile = self._codec.decompress(reader.read_tile(record))
                copy_overlap(out, region, tile, record.start, overlap)
            self._count_decoded(len(hits))
            return out

        ship_codec = self._codec if self._custom_codec else None
        buffer, offsets = carve_buffer(
            executor,
            [
                int(np.prod(record.shape)) * dtype.itemsize
                for record, _ in hits
            ],
            kind="output",
        )
        try:
            items = [
                (
                    reader.read_tile(record),
                    offset,
                    record.shape,
                    dtype.str,
                    ship_codec,
                )
                for (record, _), offset in zip(hits, offsets)
            ]
            executor.run_batch(_decode_tile_task, items, output=buffer)
            for (record, overlap), offset in zip(hits, offsets):
                nbytes = int(np.prod(record.shape)) * dtype.itemsize
                tile = (
                    buffer.array[offset : offset + nbytes]
                    .view(dtype)
                    .reshape(record.shape)
                )
                copy_overlap(out, region, tile, record.start, overlap)
        finally:
            buffer.release()

        self._count_decoded(len(hits))
        return out

    @staticmethod
    def _reject_temporal(reader: TiledReader) -> None:
        """Refuse v6 snapshots whose tiles need a decoded reference."""
        if reader.version == container.VERSION_TEMPORAL and any(
            record.temporal for record in reader.tiles
        ):
            raise ValueError(
                "temporal (v6) snapshot needs its decoded reference "
                "snapshot; use TemporalCompressor.decompress(source, "
                "reference=...)"
            )

    @staticmethod
    def _as_flat_blob(
        source: bytes | str | os.PathLike | BinaryIO,
    ) -> bytes | None:
        """Return the full blob when *source* is a flat v2/v3 container."""
        if isinstance(source, (bytes, bytearray, memoryview)):
            blob = bytes(source)
            if not container.is_tiled_version(
                container.container_version(blob)
            ):
                return blob
            return None
        if isinstance(source, (str, os.PathLike)):
            with open(source, "rb") as fh:
                head = fh.read(len(container.MAGIC) + 1)
                if (
                    len(head) > len(container.MAGIC)
                    and head[: len(container.MAGIC)] == container.MAGIC
                    and not container.is_tiled_version(
                        head[len(container.MAGIC)]
                    )
                ):
                    return head + fh.read()
            return None
        pos = source.tell()
        head = source.read(len(container.MAGIC) + 1)
        source.seek(pos)
        if (
            len(head) > len(container.MAGIC)
            and head[: len(container.MAGIC)] == container.MAGIC
            and not container.is_tiled_version(head[len(container.MAGIC)])
        ):
            return source.read()
        return None


def _compress_tile_task(item, inp, out):
    """Executor task: compress one tile staged in the input arena.

    ``item`` is ``(offset, shape, dtype_str, config, codec)``; the tile
    samples live in the batch input buffer (zero-copy shared-memory
    view under the process backend).  ``codec`` is ``None`` for the
    stock pipeline — the worker's own rebuilt
    :class:`~repro.compressor.sz.SZCompressor` encodes the tile — and
    the caller's codec object on the serial/thread backends, where no
    pickling happens.  Returns ``(blob, surfaced)``: given an output
    region, the tile's reconstruction is written at the same offset of
    it (where :func:`_decode_tile_task` would put the decode), and
    ``surfaced`` says whether the codec had one to write.
    """
    offset, shape, dtype_str, config, codec = item
    dtype = np.dtype(dtype_str)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    tile = inp[offset : offset + nbytes].view(dtype).reshape(shape)
    codec = codec if codec is not None else worker_state().codec
    result = codec.compress(tile, config, reconstruct=out is not None)
    surfaced = result.reconstruction is not None
    if surfaced:
        view = out[offset : offset + nbytes].view(dtype).reshape(shape)
        view[...] = result.reconstruction
    return result.blob, surfaced


def _decode_tile_task(item, inp, out):
    """Executor task: decode one tile into the shared output buffer.

    ``item`` is ``(blob, offset, shape, dtype_str, codec)``; the
    decoded samples are written at ``offset`` of the preallocated
    output region, so nothing array-sized is pickled back.
    """
    blob, offset, shape, dtype_str, codec = item
    codec = codec if codec is not None else worker_state().codec
    tile = codec.decompress(blob)
    if tuple(tile.shape) != tuple(shape):
        raise ValueError(
            f"corrupt tiled container: tile decodes to shape "
            f"{tuple(tile.shape)}, TOC records {tuple(shape)}"
        )
    dtype = np.dtype(dtype_str)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    view = out[offset : offset + nbytes].view(dtype).reshape(shape)
    view[...] = tile
    return None


def _batched(iterable: Iterable, size: int) -> Iterator[list]:
    """Yield lists of up to *size* items (itertools.batched, py<3.12)."""
    batch: list = []
    for item in iterable:
        batch.append(item)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch
