"""Tiled out-of-core compression with region-of-interest decode.

:class:`TiledCompressor` splits an N-d field into tiles (configurable
``config.tile_shape``), runs the :class:`SZCompressor` stages once per
tile, and writes the tiled (v7) container described in
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
(predictor, bound, radius) and the container's TOC records each tile's
parameters in a palette; see :mod:`repro.compressor.adaptive` for the
planning pipeline and its bound semantics.

This module is the only one that knows how a tiled container's tiles
are encoded, written, decoded and assembled.  Every writer — uniform,
adaptive, and the temporal policy of
:mod:`repro.compressor.temporal` — hands :class:`TileJob` s to one loop
(:meth:`TiledCompressor._encode_tiles`); every reader — this class,
the serving store, the chunked storage layer — turns a tile payload
into samples through :func:`decode_tile`.

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
import itertools
import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.compressor import container
from repro.compressor.adaptive import AdaptivePlan, AdaptivePlanner
from repro.compressor.plan_cache import PlannerCache
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.container import (
    ContainerFormatError,
    TiledReader,
    TiledWriter,
    TileRecord,
)
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
    extent_slices,
    intersect_extent,
    intersecting_tiles,
    iter_tiles,
    normalize_region,
    tile_grid,
)
from repro.utils.timer import StageTimes, Timer

__all__ = [
    "TiledCompressor",
    "TiledResult",
    "TileJob",
    "decode_tile",
    "decode_tile_task",
    "combine",
    "iter_tiles",
    "tile_grid",
    "normalize_region",
    "intersect_extent",
]


# -- results -------------------------------------------------------------------


@dataclass
class TiledResult:
    """Outcome of one tiled compression run (array or chain snapshot)."""

    n_points: int
    original_bytes: int
    compressed_bytes: int
    tile_shape: tuple[int, ...]
    tiles: list[TileRecord]
    blob: bytes | None = None
    times: StageTimes = field(default_factory=StageTimes)
    #: the per-tile assignment, for adaptive runs only
    plan: AdaptivePlan | None = None
    #: the decoded array — what ``decompress`` returns for the
    #: container — when the compress was asked to surface it and every
    #: tile's codec could; ``None`` otherwise
    reconstruction: np.ndarray | None = None
    #: ``False`` for a temporal delta snapshot, which decodes only
    #: against its reference; ``True`` for everything standalone
    keyframe: bool = True
    #: id of the reference snapshot (deltas only)
    ref_snapshot: str | None = None
    #: the temporal/spatial choice counters (deltas only), a
    #: :class:`repro.compressor.temporal.TemporalStats`
    stats: object | None = None

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


# -- the per-tile contract -----------------------------------------------------


class TileJob(NamedTuple):
    """One tile of the encode loop: where it goes, what may fill it."""

    #: position in ``iter_tiles`` order, the order the TOC keeps
    index: int
    start: tuple[int, ...]
    stop: tuple[int, ...]
    #: candidate encodings ``(samples, per-tile config, reference tile)``
    #: — a reference tile marks *samples* as the residual against it.
    #: The one of the fewest stage bytes is kept, the first on a tie
    candidates: list[tuple[np.ndarray, CompressionConfig, np.ndarray | None]]
    #: the tile's TOC ``config`` record (adaptive containers)
    toc_config: dict | None = None


def combine(residual: np.ndarray, ref_tile: np.ndarray) -> np.ndarray:
    """Reconstruct a tile from its decoded residual + reference tile.

    Pure elementwise float64 addition cast back to the tile dtype —
    deterministic across executor backends, so chain decodes stay
    byte-identical however the payloads were decoded.
    """
    return (
        residual.astype(np.float64) + ref_tile.astype(np.float64)
    ).astype(residual.dtype)


def decode_tile(
    payload: bytes,
    shape: Sequence[int],
    dtype: np.dtype,
    codec: SZCompressor | None = None,
    ref_tile: np.ndarray | None = None,
    params: dict | None = None,
) -> np.ndarray:
    """The tile a TOC record of *shape* and *dtype* names, from *payload*.

    The one way a tile payload becomes samples, for every reader: the
    *codec* (default: this process's stock one) decodes it — a v7
    payload's sections under the record's *params* and its own
    ``meta``, a legacy payload (no *params*) as the flat container it
    is — the result must be exactly what the record describes — a
    payload that decodes to anything else, or not at all, raises
    :class:`ContainerFormatError` instead of being cropped or broadcast
    into place, which no payload checksum can catch — and a temporal
    tile (*ref_tile* given) is the decoded residual combined with its
    reference tile.
    """
    codec = codec if codec is not None else worker_state().codec
    if params is None:
        tile = codec.decompress(payload)
    else:
        meta, sections = container.unpack_tile(payload)
        try:
            tile = codec.decode_stages(
                dict(params, **meta, shape=shape, dtype=np.dtype(dtype).str),
                sections,
            )
        except ContainerFormatError:
            raise
        # parameters are of their types (checked at open and in meta):
        # a missing one, or values and lengths no encoder wrote
        except (ValueError, LookupError) as exc:
            raise ContainerFormatError(
                f"corrupt tiled container: tile does not decode under "
                f"its recorded parameters ({exc!r})"
            ) from exc
    if tuple(tile.shape) != tuple(shape) or tile.dtype != dtype:
        raise ContainerFormatError(
            f"corrupt tiled container: tile decodes to {tile.dtype} "
            f"{tuple(tile.shape)}, TOC records {np.dtype(dtype)} "
            f"{tuple(shape)}"
        )
    return tile if ref_tile is None else combine(tile, ref_tile)


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
        """Tile-compress *data* into a tiled (v7) container.

        ``out`` may be a path or binary file object to stream the
        container to (bounded memory); ``None`` builds the blob in
        memory and returns it in ``result.blob``.  *data* may be any
        array-like, including a ``np.memmap`` over a file that does not
        fit in RAM.

        With ``config.adaptive`` set (and a non-empty array) the
        model-driven planner assigns every tile its own predictor,
        bound and quantizer radius, and the TOC's palette records the
        choices (``result.plan`` carries the full assignment).
        ``dataset`` names the array for the cross-snapshot plan cache
        (the compressor's ``plan_cache`` or ``config.plan_cache``):
        successive snapshots of the same dataset reuse the previous
        plan when their tile statistics have not drifted.

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
            # each tile's own config plus its TOC record
            per_tile = [
                (plan.config_for(config, i), choice.to_json())
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
        else:
            with Timer() as t:
                tile_config, header_extra = self._resolve_tile_config(
                    data, config, tile_shape
                )
            times.add("scan", t.elapsed)
            per_tile = itertools.repeat((tile_config, None))

        jobs = (
            TileJob(
                index,
                start,
                stop,
                [(data[extent_slices(start, stop)], own_config, None)],
                toc_config,
            )
            for index, ((start, stop), (own_config, toc_config)) in enumerate(
                zip(iter_tiles(data.shape, tile_shape), per_tile)
            )
        )
        executor = gil_capped_encode_executor(
            self._executor_for(config),
            getattr(self._codec, "entropy_releases_gil", False),
        )
        encoded = self._encode_tiles(
            data,
            config,
            tile_shape,
            jobs,
            header_extra,
            out,
            reconstruct,
            executor,
            times,
        )
        return replace(encoded, plan=plan)

    def _encode_tiles(
        self,
        data: np.ndarray,
        config: CompressionConfig,
        tile_shape: tuple[int, ...],
        jobs: Iterable[TileJob],
        header_extra: dict | Callable[[list[bool]], dict],
        out: str | os.PathLike | BinaryIO | None,
        reconstruct: bool,
        executor: CodecExecutor,
        times: StageTimes,
    ) -> TiledResult:
        """The one tile loop: encode *jobs*, write the container.

        Every tiled container — uniform, adaptive, temporal — is framed
        here: the header is *config*'s global settings plus
        *header_extra* (``temporal`` in it makes room for the per-tile
        mode bits), each job becomes one TOC tile (``temporal`` where
        the kept candidate was a residual, a palette entry where the
        job names a ``toc_config``), and with
        *reconstruct* the decoded array is assembled from what the
        encodes surfaced.  Tiles stream to the sink as they are
        encoded, so peak memory stays at one batch — unless
        *header_extra* is a callable: a header that records how the
        encodes turned out (it is given every tile's temporal flag, in
        TOC order) cannot be written before the last of them.
        """
        reconstruction = (
            np.empty(data.shape, dtype=data.dtype) if reconstruct else None
        )
        surfaced = True
        with Timer() as t:
            encoded = self._encode_jobs(
                jobs, data.dtype, executor, reconstruction
            )
            if callable(header_extra):
                encoded = list(encoded)
                header_extra = header_extra(
                    [temporal for *_, temporal, _ in encoded]
                )
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
            close_sink = isinstance(out, (str, os.PathLike))
            if close_sink:
                sink = open(out, "wb")
            else:
                sink = io.BytesIO() if out is None else out
            try:
                writer = TiledWriter(sink, header)
                for job, params, sections, temporal, tile_surfaced in encoded:
                    surfaced = surfaced and tile_surfaced
                    with Timer() as io_timer:
                        writer.add_stages(
                            job.start,
                            job.stop,
                            params,
                            sections,
                            config=job.toc_config,
                            temporal=temporal,
                        )
                    times.add("io", io_timer.elapsed)
                total = writer.finish()
            finally:
                if close_sink:
                    sink.close()
        times.add("encode_tiles", t.elapsed)

        return TiledResult(
            n_points=int(data.size),
            original_bytes=int(data.nbytes),
            compressed_bytes=total,
            tile_shape=tile_shape,
            tiles=writer.tiles,
            blob=sink.getvalue() if isinstance(sink, io.BytesIO) else None,
            times=times,
            reconstruction=reconstruction if surfaced else None,
        )

    def _encode_jobs(
        self,
        jobs: Iterable[TileJob],
        dtype: np.dtype,
        executor: CodecExecutor,
        reconstruction: np.ndarray | None,
    ) -> Iterator[tuple[TileJob, dict, list[bytes], bool, bool]]:
        """Encode *jobs* batch-by-batch; at most ``workers`` jobs live.

        Yields ``(job, params, sections, temporal, surfaced)`` in TOC order,
        whatever order the jobs arrive in.  Each batch is staged into
        one executor input buffer (a shared-memory arena under the
        process backend, which workers view without copying), every
        candidate in a slot of its own, so peak memory stays at one
        batch of raw tiles plus their compressed payloads.

        A *reconstruction* array is filled with the decoded tiles, each
        task writing its own into an output buffer laid out like the
        input arena (a residual meets its reference tile here, through
        the :func:`combine` the readers use); ``surfaced`` says whether
        the tile's codec had one to write.
        """
        ship_codec = self._codec if self._custom_codec else None
        # encoded tiles whose predecessors in TOC order are still to come
        waiting: dict[int, tuple] = {}
        emitted = 0
        for batch in _batched(jobs, max(executor.workers, 1)):
            slots = [slot for job in batch for slot in job.candidates]
            sizes = [
                dtype.itemsize * math.prod(samples.shape)
                for samples, _, _ in slots
            ]
            arena, offsets = carve_buffer(executor, sizes)
            decoded = (
                carve_buffer(executor, sizes, kind="output")[0]
                if reconstruction is not None
                else None
            )
            try:
                items = []
                for (samples, cfg, _), offset in zip(slots, offsets):
                    _slot(arena.array, offset, samples.shape, dtype)[...] = samples
                    items.append(
                        (offset, samples.shape, dtype.str, cfg, ship_codec)
                    )
                results = executor.run_batch(
                    _compress_tile_task, items, input=arena, output=decoded
                )
                first = 0
                for job in batch:
                    # a job's candidates sit side by side.  Kept: the one
                    # of the fewest stage bytes, the first of equals — a
                    # tile's parameters are not counted: its kind's are
                    # recorded once, and what meta is left after that
                    # only the writer knows
                    own = range(first, first + len(job.candidates))
                    first = own.stop
                    slot = min(
                        own, key=lambda slot: sum(map(len, results[slot][1]))
                    )
                    params, sections, surfaced = results[slot]
                    samples, _, ref_tile = slots[slot]
                    if surfaced:
                        tile = _slot(
                            decoded.array, offsets[slot], samples.shape, dtype
                        )
                        reconstruction[extent_slices(job.start, job.stop)] = (
                            tile if ref_tile is None else combine(tile, ref_tile)
                        )
                    waiting[job.index] = (
                        job, params, sections, ref_tile is not None, surfaced
                    )
            finally:
                arena.release()
                if decoded is not None:
                    decoded.release()
            while emitted in waiting:
                yield waiting.pop(emitted)
                emitted += 1

    @staticmethod
    def _resolve_tile_shape(
        shape: tuple[int, ...], config: CompressionConfig
    ) -> tuple[int, ...]:
        tile_shape = config.tile_shape
        if tile_shape is None:
            # default: one tile covering the array (still a valid tiled
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
        """Per-tile config with data-independent bound, plus header extras."""
        base = config.per_tile()
        if config.mode is not ErrorBoundMode.REL or data.size == 0:
            return base, {}
        # REL: one streaming pass over the tiles resolves the global
        # value range without materializing the array.
        lo, hi = np.inf, -np.inf
        for start, stop in iter_tiles(data.shape, tile_shape):
            tile = data[extent_slices(start, stop)]
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

    # -- decompression ---------------------------------------------------------

    def decompress(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        workers: int | None = None,
        reference: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode a full array from any RQSZ container (v2–v7).

        A temporal delta snapshot needs ``reference`` — the *decoded*
        snapshot its ``ref_snapshot`` header names; everything else
        decodes standalone and ignores it.
        """
        return self._decode(source, None, workers, reference)

    def decompress_region(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        region: Sequence[slice | int] | slice | int,
        workers: int | None = None,
        reference: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode only the hyperslab *region*.

        Only the tiles intersecting the region are read from the source
        and decoded (see ``last_tiles_decoded``).  The result has the
        region's shape; an empty intersection yields an empty array.
        Flat v2/v3 blobs are supported via a full decode + slice.  For
        a temporal delta snapshot ``reference`` must cover the full snapshot
        shape (only the region's tiles of it are read).
        """
        return self._decode(source, region, workers, reference)

    def _decode(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        region: Sequence[slice | int] | slice | int | None,
        workers: int | None,
        reference: np.ndarray | None,
    ) -> np.ndarray:
        """*region* (``None``: everything) of the container at *source*."""
        if not container.is_tiled_version(container.peek_version(source)):
            data = self._codec.decompress(
                container.read_blob(source), workers=workers
            )
            if region is None:
                return data
            self._count_decoded(1)
            return np.ascontiguousarray(
                data[normalize_region(region, data.shape)]
            )
        with TiledReader(source) as reader:
            shape = tuple(reader.header["shape"])
            return self._decode_tiles(
                reader,
                normalize_region(() if region is None else region, shape),
                workers,
                reference,
            )

    def _decode_tiles(
        self,
        reader: TiledReader,
        region: tuple[slice, ...],
        workers: int | None,
        reference: np.ndarray | None,
    ) -> np.ndarray:
        """Decode the tiles intersecting *region* on the executor.

        The parent reads the (compressed, small) tile payloads and
        ships them as work items; workers decode each tile straight
        into a preallocated output buffer — a shared-memory region
        under the process backend, so decoded samples are never
        pickled — and the parent assembles the hyperslab from the
        buffer views.  Temporal tiles travel with the matching tile of
        *reference*.
        """
        dtype = np.dtype(reader.header["dtype"])
        shape = tuple(reader.header["shape"])
        if any(record.temporal for record in reader.tiles):
            if reference is None:
                raise ValueError(
                    "temporal snapshot needs its decoded reference "
                    f"snapshot {reader.header.get('ref_snapshot')!r}: "
                    "pass reference=, as TemporalCompressor.decompress "
                    "documents"
                )
            if tuple(reference.shape) != shape:
                raise ValueError(
                    f"reference shape {tuple(reference.shape)} does not "
                    f"match snapshot shape {shape}"
                )

        def ref_tile(record: TileRecord) -> np.ndarray | None:
            if not record.temporal:
                return None
            return np.ascontiguousarray(
                reference[extent_slices(record.start, record.stop)]
            )

        out = np.zeros(tuple(r.stop - r.start for r in region), dtype=dtype)
        hits = intersecting_tiles(reader.tiles, region)
        executor = self._executor_for(None, workers)

        if executor.workers <= 1 or len(hits) <= 1:
            for record, overlap in hits:
                tile = decode_tile(
                    reader.read_tile(record),
                    record.shape,
                    dtype,
                    self._codec,
                    ref_tile(record),
                    record.params,
                )
                copy_overlap(out, region, tile, record.start, overlap)
        else:
            ship_codec = self._codec if self._custom_codec else None
            buffer, offsets = carve_buffer(
                executor,
                [
                    math.prod(record.shape) * dtype.itemsize
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
                        ref_tile(record),
                        record.params,
                    )
                    for (record, _), offset in zip(hits, offsets)
                ]
                executor.run_batch(decode_tile_task, items, output=buffer)
                for (record, overlap), offset in zip(hits, offsets):
                    tile = _slot(buffer.array, offset, record.shape, dtype)
                    copy_overlap(out, region, tile, record.start, overlap)
            finally:
                buffer.release()
        self._count_decoded(len(hits))
        return out


def _compress_tile_task(item, inp, out):
    """Executor task: compress one tile staged in the input arena.

    ``item`` is ``(offset, shape, dtype_str, config, codec)``; the tile
    samples live in the batch input buffer (zero-copy shared-memory
    view under the process backend).  ``codec`` is ``None`` for the
    stock pipeline — the worker's own rebuilt
    :class:`~repro.compressor.sz.SZCompressor` encodes the tile — and
    the caller's codec object on the serial/thread backends, where no
    pickling happens.  Returns ``(params, sections, surfaced)``, the
    codec's ``encode_stages`` output: given an output region, the
    tile's reconstruction is written at the same offset of it (where
    :func:`decode_tile_task` would put the decode), and ``surfaced``
    says whether the codec had one to write.
    """
    offset, shape, dtype_str, config, codec = item
    dtype = np.dtype(dtype_str)
    codec = codec if codec is not None else worker_state().codec
    params, sections, reconstruction, _ = codec.encode_stages(
        _slot(inp, offset, shape, dtype), config, reconstruct=out is not None
    )
    surfaced = reconstruction is not None
    if surfaced:
        _slot(out, offset, shape, dtype)[...] = reconstruction
    return params, sections, surfaced


def decode_tile_task(item, inp, out):
    """Executor task: :func:`decode_tile` into the shared output buffer.

    ``item`` is ``(payload, offset, shape, dtype_str, codec, ref_tile,
    params)``, the last three ``None`` for the worker's stock codec, a
    spatial tile and a legacy payload; the decoded samples are written
    at ``offset`` of the preallocated output region, so nothing
    array-sized is pickled back.
    """
    payload, offset, shape, dtype_str, codec, ref_tile, params = item
    dtype = np.dtype(dtype_str)
    _slot(out, offset, shape, dtype)[...] = decode_tile(
        payload, shape, dtype, codec, ref_tile, params
    )
    return None


def _slot(
    buffer: np.ndarray, offset: int, shape: Sequence[int], dtype: np.dtype
) -> np.ndarray:
    """The *shape* array of *dtype* that starts *offset* bytes into *buffer*."""
    nbytes = math.prod(shape) * dtype.itemsize
    return buffer[offset : offset + nbytes].view(dtype).reshape(shape)


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
