"""The one compressor front end: tiled, out-of-core, region decode.

:class:`TiledCompressor` is how every array is compressed.  It splits
an N-d field into tiles (``config.tile_shape``; ``None`` makes the
whole array one tile), runs the :class:`SZCompressor` stages once per
stack of same-shape, same-config tiles, and writes the tiled (v7)
container described in
:mod:`repro.compressor.container`.  Because tiles are encoded one batch
at a time and streamed straight to the sink, peak memory is bounded by
a few stacks — the input may be a ``np.memmap``/``np.load(mmap_mode=...)``
array far larger than RAM.  Tiles are mutually independent — the only
unit of parallel work — so a batch encodes and decodes across an
executor's workers (``workers``).

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
(:meth:`TiledCompressor._encode_tiles`); every reader — this class
(and through it the chunked storage layer), the serving store — turns
tile payloads into samples through :func:`decode_records`, which cuts
a read into stacks, one per worker, each decoded by
:func:`decode_tiles`, which entropy-decodes a stack of tiles at once
and reconstructs it a predictor pass per shape.

Error-bound semantics of the uniform path are the stage codec's on the
whole array:

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
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro import obs
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
    BACKENDS,
    CodecExecutor,
    carve_buffer,
    get_executor,
    worker_state,
)
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

__all__ = [
    "TiledCompressor",
    "TiledResult",
    "TileJob",
    "decode_tiles",
    "decode_records",
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
    """Outcome of one compression run (array or chain snapshot): the
    container and what the paper's evaluation plots, over all tiles."""

    n_points: int
    original_bytes: int
    compressed_bytes: int
    tile_shape: tuple[int, ...]
    tiles: list[TileRecord]
    blob: bytes | None = None
    #: quantization codes, and how many of them are zero
    n_codes: int = 0
    n_zero_codes: int = 0
    #: unpredictable points stored verbatim
    n_outliers: int = 0
    #: bytes of the Huffman-coded code streams before the lossless stage
    huffman_only: int = 0
    #: stage bytes per :data:`~repro.compressor.container.SECTION_NAMES`
    section_bytes: dict[str, int] = field(default_factory=dict)
    #: the per-tile assignment, for adaptive runs only
    plan: AdaptivePlan | None = None
    #: the decoded array — what ``decompress`` returns for the
    #: container — when the compress was asked to surface it; ``None``
    #: otherwise
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

    @property
    def p0(self) -> float:
        """Fraction of zero quantization codes (1.0 when none exist)."""
        return self.n_zero_codes / self.n_codes if self.n_codes else 1.0

    @property
    def huffman_bit_rate(self) -> float:
        """Bits per point of the Huffman-coded quantization codes only."""
        if self.n_points == 0:
            return 0.0
        return 8.0 * self.huffman_only / self.n_points


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
    byte-identical however the payloads were decoded.  Every reader,
    and the encode loop's reconstruction, meets a temporal residual
    with its reference tile here, after the decode.
    """
    return (
        residual.astype(np.float64) + ref_tile.astype(np.float64)
    ).astype(residual.dtype)


def decode_tiles(
    payloads: Sequence[bytes],
    shapes: Sequence[Sequence[int]],
    dtype: np.dtype,
    codec: SZCompressor | None = None,
    *,
    params: Sequence[dict],
) -> list[np.ndarray]:
    """The tiles TOC records of *shapes* and *dtype* name, as one stack.

    The *codec* (default: this process's stock one) decodes each v7
    payload's sections under its record's *params* and its own
    ``meta`` — a legacy payload arrives re-framed by
    :class:`~repro.compressor.container.TiledReader` — and all their
    code streams at once (:meth:`SZCompressor.decode_stack`).  Each
    result must be exactly what its record describes: a payload that
    decodes to anything else, or not at all, raises
    :class:`ContainerFormatError` instead of being cropped or
    broadcast into place, which no payload checksum can catch.  A
    temporal tile decodes to its residual, which the reader combines
    with its reference tile (:func:`combine`).  A stack that raises is
    decoded again one tile at a time, so the error is the first bad
    tile's own.
    """
    codec = codec if codec is not None else worker_state().codec
    try:
        return _decode_stack(payloads, shapes, dtype, codec, params)
    except Exception:
        # whatever a stack raises, its tiles decoded alone, in order,
        # raise the first bad one's own error
        if len(payloads) <= 1:
            raise
        return [
            _decode_stack([payload], [shape], dtype, codec, [tile_params])[0]
            for payload, shape, tile_params in zip(payloads, shapes, params)
        ]


def _decode_stack(
    payloads: Sequence[bytes],
    shapes: Sequence[Sequence[int]],
    dtype: np.dtype,
    codec: SZCompressor,
    params: Sequence[dict],
) -> list[np.ndarray]:
    """:func:`decode_tiles` but the fallback."""
    dtype = np.dtype(dtype)
    tiles = []
    for payload, shape, tile_params in zip(payloads, shapes, params):
        meta, sections = container.unpack_tile(payload)
        tiles.append(
            (
                dict(tile_params, **meta, shape=shape, dtype=dtype.str),
                sections,
            )
        )
    try:
        decoded = codec.decode_stack(tiles)
    except ContainerFormatError:
        raise
    # parameters are of their types (checked at open and in meta):
    # a missing one, or values and lengths no encoder wrote
    except (ValueError, LookupError) as exc:
        raise ContainerFormatError(
            f"corrupt tiled container: tile does not decode under "
            f"its recorded parameters ({exc!r})"
        ) from exc
    for tile, shape in zip(decoded, shapes):
        if tuple(tile.shape) != tuple(shape) or tile.dtype != dtype:
            raise ContainerFormatError(
                f"corrupt tiled container: tile decodes to {tile.dtype} "
                f"{tuple(tile.shape)}, TOC records {dtype} "
                f"{tuple(shape)}"
            )
    return decoded


# -- the tiled compressor ------------------------------------------------------


class TiledCompressor:
    """Out-of-core tiled front end over the :class:`SZCompressor` stages.

    The compressor is where a run's execution is set, once, for every
    compress and decode it does.  ``workers`` bounds both the
    parallelism *and* what is materialized at once — a stack of tiles
    per worker — so peak memory stays at a few stacks.  ``backend``
    picks the execution backend tiles fan out on — one of
    :data:`repro.compressor.executor.BACKENDS` (``"process"`` is a
    shared-memory process pool); ``None`` resolves to the thread
    backend.  An unknown name is refused here.  Encode and decode fan
    out alike.  ``planner`` plans adaptive configs (its
    ``fit_clusters`` caps model fits), and ``plan_cache`` — a
    :class:`PlannerCache` or the path of a file-backed one — lets it
    replay the plan of an earlier snapshot of the same dataset.
    ``codec`` swaps the per-tile compressor: any
    :class:`SZCompressor`-compatible facade, which encodes stacks of
    same-shape, same-config tiles (``encode_stack``) and decodes stacks
    of tiles (``decode_stack``); serial/thread backends only — process
    workers rebuild the stock codec.

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
        if backend is not None and backend not in BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; expected one of "
                f"{BACKENDS}"
            )
        # None is preserved: an explicit backend with no width resolves
        # to the machine's default_workers() (see executor.get_executor)
        self._workers = workers
        # a caller-supplied codec travels inside work items, which the
        # process backend would have to pickle; its workers rebuild the
        # *default* codec instead, so custom codecs are restricted to
        # serial/thread
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

    def _executor(self) -> CodecExecutor:
        executor = get_executor(self._backend, self._workers)
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

        Any array compresses here: with ``config.tile_shape`` unset the
        whole array — a 0-d one too — is one tile.  ``out`` may be a path or binary file object to stream the
        container to (bounded memory); ``None`` builds the blob in
        memory and returns it in ``result.blob``.  *data* may be any
        array-like, including a ``np.memmap`` over a file that does not
        fit in RAM.

        With ``config.adaptive`` set (and a non-empty array) the
        model-driven planner assigns every tile its own predictor,
        bound and quantizer radius, and the TOC's palette records the
        choices (``result.plan`` carries the full assignment).
        ``dataset`` names the array for the compressor's cross-snapshot
        ``plan_cache``: successive snapshots of the same dataset reuse
        the previous plan when their tile statistics have not drifted.

        With ``reconstruct`` the result also carries the decoded array
        (``result.reconstruction``): each tile task writes what its
        predict-quantize stage reconstructed into the output region a
        decode task would fill, so no tile is decoded to obtain it.
        It holds the whole array in memory, unlike the encode itself.
        """
        if not hasattr(data, "ndim"):
            data = np.asarray(data)
        tile_shape = self._resolve_tile_shape(data.shape, config)

        plan: AdaptivePlan | None = None
        if config.adaptive and data.size > 0:
            with obs.span("plan"):
                # None = nothing to plan (REL bound on a constant
                # field); the uniform path below stores it exactly
                plan = self._planner.plan(
                    data,
                    config,
                    tile_shape,
                    executor=self._executor(),
                    cache=self._plan_cache,
                    dataset=dataset,
                )
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
                # break byte-identical re-encodes (the ``plan`` span
                # times it)
                header_extra["planner_stats"] = plan.stats.to_json()
        else:
            with obs.span("scan"):
                tile_config, header_extra = self._resolve_tile_config(
                    data, config, tile_shape
                )
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
        encoded = self._encode_tiles(
            data,
            config,
            tile_shape,
            jobs,
            header_extra,
            out,
            reconstruct,
            self._executor(),
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
    ) -> TiledResult:
        """The one tile loop: encode *jobs*, write the container.

        Every tiled container — uniform, adaptive, temporal — is framed
        here: the header is *config*'s global settings plus
        *header_extra* (``temporal`` in it makes room for the per-tile
        mode bits), each job becomes one TOC tile (``temporal`` where
        the kept candidate was a residual, a palette entry where the
        job names a ``toc_config``), and with
        *reconstruct* the decoded array is assembled from what the
        encodes hold; the kept encodes' measures are totalled
        into the result, and every encode's stage times into the
        active :func:`repro.obs.record`, beside ``io``, the writer's
        share.  Tiles stream to the sink as they are
        encoded, so peak memory stays at one batch — unless
        *header_extra* is a callable: a header that records how the
        encodes turned out (it is given every tile's temporal flag, in
        TOC order) cannot be written before the last of them.
        """
        reconstruction = (
            np.empty(data.shape, dtype=data.dtype) if reconstruct else None
        )
        totals: Counter = Counter()  # encode_stack's measures, over tiles
        section_bytes = dict.fromkeys(container.SECTION_NAMES, 0)
        encoded = self._encode_jobs(jobs, data.dtype, executor, reconstruction)
        if callable(header_extra):
            encoded = list(encoded)
            header_extra = header_extra(
                [temporal for *_, temporal in encoded]
            )
        header = {
            "shape": list(data.shape),
            "dtype": data.dtype.str,
            "tile_shape": list(tile_shape),
            "predictor": config.predictor,
            "mode": config.mode.value,
            "error_bound": config.error_bound,
            "lossless": config.lossless,
            # no knob left sets it; dropping the key is a format change
            "chunk_size": None,
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
            for job, params, sections, measures, temporal in encoded:
                totals.update(measures)
                for name, section in zip(container.SECTION_NAMES, sections):
                    section_bytes[name] += len(section)
                with obs.span("io"):
                    writer.add_stages(
                        job.start,
                        job.stop,
                        params,
                        sections,
                        config=job.toc_config,
                        temporal=temporal,
                    )
            total = writer.finish()
        finally:
            if close_sink:
                sink.close()

        return TiledResult(
            n_points=int(data.size),
            original_bytes=int(data.nbytes),
            compressed_bytes=total,
            tile_shape=tile_shape,
            tiles=writer.tiles,
            blob=sink.getvalue() if isinstance(sink, io.BytesIO) else None,
            section_bytes=section_bytes,
            reconstruction=reconstruction,
            **totals,
        )

    def _encode_jobs(
        self,
        jobs: Iterable[TileJob],
        dtype: np.dtype,
        executor: CodecExecutor,
        reconstruction: np.ndarray | None,
    ) -> Iterator[tuple[TileJob, dict, list[bytes], dict, bool]]:
        """Encode *jobs* batch-by-batch (:func:`_job_batches`).

        Yields ``(job, params, sections, measures, temporal)``
        in TOC order, whatever order the jobs arrive in; every encode's
        stage times, kept or not, are added to the active record.  Each
        batch is staged into one executor input buffer (a shared-memory
        arena under the process backend, which workers view without
        copying), every candidate in a slot of its own, so peak memory
        stays at one batch of raw tiles plus their compressed payloads.
        Its candidates of one shape and config encode as stacks cut by
        :func:`_stacks`, each an executor item.

        A *reconstruction* array is filled with the decoded tiles, each
        task writing its own into an output buffer laid out like the
        input arena (a residual meets its reference tile here, through
        the :func:`combine` the readers use).
        """
        ship_codec = self._codec if self._custom_codec else None
        ways = max(executor.workers, 1)
        # encoded tiles whose predecessors in TOC order are still to come
        waiting: dict[int, tuple] = {}
        emitted = 0
        for batch in _job_batches(jobs, ways):
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
                groups: dict[tuple, list[int]] = {}
                for k, ((samples, cfg, _), offset) in enumerate(zip(slots, offsets)):
                    _slot(arena.array, offset, samples.shape, dtype)[...] = samples
                    groups.setdefault((samples.shape, cfg), []).append(k)
                stacks, items = [], []
                for (shape, cfg), members in groups.items():
                    points = [math.prod(shape)] * len(members)
                    for part in _stacks(points, ways):
                        stacks.append(members[part])
                        offs = [offsets[k] for k in members[part]]
                        items.append((offs, shape, dtype.str, cfg, ship_codec))
                results: list = [None] * len(slots)
                for stack, (encodes, times) in zip(
                    stacks,
                    executor.run_batch(
                        _compress_tile_task, items, input=arena, output=decoded
                    ),
                ):
                    obs.add(times)
                    for k, encode in zip(stack, encodes):
                        results[k] = encode
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
                    params, sections, measures = results[slot]
                    samples, _, ref_tile = slots[slot]
                    if reconstruction is not None:
                        tile = _slot(
                            decoded.array, offsets[slot], samples.shape, dtype
                        )
                        reconstruction[extent_slices(job.start, job.stop)] = (
                            tile if ref_tile is None else combine(tile, ref_tile)
                        )
                    temporal = ref_tile is not None
                    waiting[job.index] = (
                        job, params, sections, measures, temporal
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
            tile_lo, tile_hi = float(np.min(tile)), float(np.max(tile))
            if not (math.isfinite(tile_lo) and math.isfinite(tile_hi)):
                raise ValueError("data must be finite (no NaN/Inf)")
            lo, hi = min(lo, tile_lo), max(hi, tile_hi)
        abs_eb = config.error_bound * (hi - lo)
        if not math.isfinite(abs_eb):
            raise ValueError(
                f"value range [{lo!r}, {hi!r}] overflows float64: a REL "
                "bound cannot scale by it"
            )
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
        reference: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode a full array from any RQSZ container (v2–v7).

        A temporal delta snapshot needs ``reference`` — the *decoded*
        snapshot its ``ref_snapshot`` header names; everything else
        decodes standalone and ignores it.
        """
        with TiledReader(source) as reader:
            return self._decode_tiles(reader, (), reference)

    def decompress_region(
        self,
        source: bytes | str | os.PathLike | BinaryIO,
        region: Sequence[slice | int] | slice | int,
        reference: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode only the hyperslab *region*.

        Only the tiles intersecting the region are read from the source
        and decoded (see ``last_tiles_decoded``).  The result has the
        region's shape; an empty intersection yields an empty array.
        A flat v2/v3 blob is one tile, decoded whole.  For
        a temporal delta snapshot ``reference`` must cover the full snapshot
        shape (only the region's tiles of it are read).
        """
        with TiledReader(source) as reader:
            return self._decode_tiles(reader, region, reference)

    def _decode_tiles(
        self,
        reader: TiledReader,
        region: Sequence[slice | int] | slice | int,
        reference: np.ndarray | None,
    ) -> np.ndarray:
        """Decode the tiles intersecting *region* on the executor.

        The tiles go through :func:`decode_records` — serially one
        stack after another, each copied into the region before the
        next decodes; under a pool one stack per worker — and the
        parent assembles the hyperslab from what it hands over, each
        temporal residual combined (:func:`combine`) with the matching
        tile of *reference* first.  A region that is exactly one tile's extent
        (a whole one-tile container) is that tile as decoded, not a
        copy.
        """
        dtype = np.dtype(reader.header["dtype"])
        shape = tuple(reader.header["shape"])
        region = normalize_region(region, shape)
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

        hits = intersecting_tiles(reader.tiles, region)
        records = [record for record, _ in hits]
        executor = self._executor()
        codec = self._codec if self._custom_codec else None

        def combined(i: int, tile: np.ndarray) -> np.ndarray:
            record = records[i]
            if not record.temporal:
                return tile
            extent = extent_slices(record.start, record.stop)
            return combine(tile, reference[extent])

        # the region is one tile's extent: the answer is that tile
        if [region] == [extent_slices(r.start, r.stop) for r in records]:
            tiles: list[np.ndarray] = []
            decode_records(
                executor, records, dtype, reader.read_tile,
                lambda i, tile: tiles.append(combined(i, tile)), codec,
            )
            self._count_decoded(1)
            return tiles[0]

        out = np.zeros(tuple(r.stop - r.start for r in region), dtype=dtype)

        def place(i: int, tile: np.ndarray) -> None:
            record, overlap = hits[i]
            copy_overlap(out, region, combined(i, tile), record.start, overlap)

        decode_records(executor, records, dtype, reader.read_tile, place, codec)
        self._count_decoded(len(hits))
        return out


def decode_records(
    executor: CodecExecutor,
    records: Sequence[TileRecord],
    dtype: np.dtype,
    read: Callable[[TileRecord], bytes],
    take: Callable[[int, np.ndarray], None],
    codec: SZCompressor | None = None,
) -> None:
    """Decode the tiles *records* name in stacks; ``take(i, tile)`` each,
    in record order.

    The one decode route of every region reader — this module's
    :class:`TiledCompressor` and the serving store.  *read* gives a
    record's payload; *codec* ``None`` is the stock one.  A temporal
    record's tile is its residual, which the reader combines with its
    reference tile (:func:`combine`): no worker is sent one.  The
    records are cut into stacks by :func:`_stacks`.  On a serial
    executor (or for one record) each stack decodes inline through
    :func:`decode_tiles` and its tiles are handed over — the decode's
    own arrays — before
    the next stack decodes, so peak memory is one stack's.  On a pool
    the payloads are read here and each worker gets one stack, a
    :func:`decode_tile_task` item that decodes into a shared output
    buffer (shared memory under the process backend, so decoded
    samples are never pickled) and whose stage times are added to the
    active record; *take* then gets views into that buffer, valid only
    during the call.  What raises is
    :func:`decode_tiles`' error: a stack's first bad tile's own.
    """
    dtype = np.dtype(dtype)
    sizes = [math.prod(record.shape) for record in records]
    if executor.workers <= 1 or len(records) <= 1:
        for part in _stacks(sizes, 1):
            stack = records[part]
            tiles = decode_tiles(
                [read(record) for record in stack],
                [record.shape for record in stack],
                dtype,
                codec,
                params=[record.params for record in stack],
            )
            for i, tile in enumerate(tiles, start=part.start):
                take(i, tile)
            del tiles, tile  # not held while the next stack decodes
        return
    buffer, offsets = carve_buffer(
        executor, [size * dtype.itemsize for size in sizes], kind="output"
    )
    try:
        items = []
        for part in _stacks(sizes, executor.workers):
            stack = records[part]
            items.append(
                (
                    [read(record) for record in stack],
                    offsets[part],
                    [record.shape for record in stack],
                    dtype.str,
                    codec,
                    [record.params for record in stack],
                )
            )
        decodes = executor.run_batch(decode_tile_task, items, output=buffer)
        for times in decodes:
            obs.add(times)
        for i, (record, offset) in enumerate(zip(records, offsets)):
            take(i, _slot(buffer.array, offset, record.shape, dtype))
    finally:
        buffer.release()


#: points a stack holds at most (512 KiB of ``float64``): reads decode
#: and writes encode their tiles in stacks of up to this many — a larger
#: tile alone — so peak memory is a stack's.  Encode stacks of 2**16
#: points beat 2**14 on 32x32 to 128x128 tiles; two 2**17-point tiles
#: lost by stacking
_STACK_POINTS = 1 << 16


def _stacks(sizes: Sequence[int], ways: int) -> list[slice]:
    """The runs of consecutive tiles, of *sizes* points each, that code
    as one stack: at most :data:`_STACK_POINTS` points (or one larger
    tile), and fewer still cut *ways* ways, one stack per worker of a
    pool."""
    limit = min(_STACK_POINTS, -(-sum(sizes) // ways))
    starts, held = [], 0
    for i, size in enumerate(sizes):
        if not starts or held + size > limit:
            starts.append(i)
            held = 0
        held += size
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(sizes)])]


def _compress_tile_task(item, inp, out):
    """Executor task: compress one stack of tiles staged in the input arena.

    ``item`` is ``(offsets, shape, dtype_str, config, codec)``: tiles of
    *shape* at *offsets* of the batch input buffer (zero-copy
    shared-memory views under the process backend), all encoded under
    *config*.  ``codec`` is ``None`` for the stock pipeline — the
    worker's own rebuilt :class:`~repro.compressor.sz.SZCompressor`
    encodes the stack — and the caller's codec object on the
    serial/thread backends, where no pickling happens.  Returns
    ``(encodes, times)``: per tile ``(params, sections, measures)`` from
    the codec's ``encode_stack``, and the :func:`repro.obs.record` it
    ran in — its own on every backend, which the tile loop adds to the
    caller's once.  Given an output region, each tile's reconstruction
    is written at its offset of it (where :func:`decode_tile_task`
    would put the decode).  A stack that raises is encoded again one
    tile at a time, so the error is the first bad tile's own.
    """
    offsets, shape, dtype_str, config, codec = item
    dtype = np.dtype(dtype_str)
    codec = codec if codec is not None else worker_state().codec
    tiles = [_slot(inp, offset, shape, dtype) for offset in offsets]
    with obs.record() as times:
        try:
            encodes = codec.encode_stack(tiles, config, out is not None)
        except Exception:
            if len(tiles) == 1:
                raise
            encodes = [
                codec.encode_stack([tile], config, out is not None)[0]
                for tile in tiles
            ]
    if out is not None:
        for offset, (_, _, reconstruction, _) in zip(offsets, encodes):
            _slot(out, offset, shape, dtype)[...] = reconstruction
    return [(p, s, m) for p, s, _, m in encodes], times


def decode_tile_task(item, inp, out):
    """Executor task: :func:`decode_tiles` into the shared output buffer.

    ``item`` is ``(payloads, offsets, shapes, dtype_str, codec,
    params)``, one entry per tile of the stack but the codec — ``None``
    for the worker's stock one — and the dtype.  The decoded samples
    of each tile are written at its ``offset`` of the preallocated
    output region, so nothing array-sized is pickled back.  Returns
    the :func:`repro.obs.record` the decode ran in, as
    :func:`_compress_tile_task` does.
    """
    payloads, offsets, shapes, dtype_str, codec, params = item
    dtype = np.dtype(dtype_str)
    with obs.record() as times:
        tiles = decode_tiles(payloads, shapes, dtype, codec, params=params)
    for offset, shape, tile in zip(offsets, shapes, tiles):
        _slot(out, offset, shape, dtype)[...] = tile
    return times


def _slot(
    buffer: np.ndarray, offset: int, shape: Sequence[int], dtype: np.dtype
) -> np.ndarray:
    """The *shape* array of *dtype* that starts *offset* bytes into *buffer*."""
    nbytes = math.prod(shape) * dtype.itemsize
    return buffer[offset : offset + nbytes].view(dtype).reshape(shape)


def _job_batches(jobs: Iterable[TileJob], ways: int) -> Iterator[list]:
    """Lists of consecutive *jobs*: each closes once it holds at least
    *ways* jobs and :data:`_STACK_POINTS` candidate points per way, or
    the jobs run out."""
    batch: list = []
    points = 0
    for job in jobs:
        batch.append(job)
        points += sum(math.prod(slot[0].shape) for slot in job.candidates)
        if len(batch) >= ways and points >= ways * _STACK_POINTS:
            yield batch
            batch, points = [], 0
    if batch:
        yield batch
