"""The six ledger workloads and the scenario every one of them runs.

A workload is one parameterisation of a single scenario — the path a
field takes through the system, ``compress -> container -> store ->
HTTP -> client array`` — so every workload reports every metric.  What
differs is where the time goes: field kind and size, tile shape,
adaptive or uniform planning, cache size against working set, and the
mix of reads and writes (see ``README.md`` for the table).

One *round* is: a codec cycle in this process (compress to a container
file, full decode, region decodes, model fit + estimate), then writes
and reads over HTTP against the ``repro serve`` subprocess.  Every
operation's output is verified, in every round.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass, replace
from time import perf_counter, thread_time

import numpy as np

import fields
from calibrate import Elapsed, SpeedMeter
from serving import ServerProcess, peak_rss_mb as process_peak_rss_mb
from spans import Tracer

from repro.analysis.metrics import psnr
from repro.compressor import (
    CompressionConfig,
    PlannerCache,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.container import TiledReader
from repro.factory import CodecFactory
from repro.service.cache import TileLRUCache
from repro.service.client import ArrayClient
from repro.service.store import ArrayStore

__all__ = ["Workload", "WORKLOADS", "Scenario", "LocalService", "OpFailed"]


@dataclass(frozen=True)
class Workload:
    """One named parameterisation of the scenario."""

    name: str
    why: str
    #: field builder in :mod:`fields`, full and ``--quick`` shapes
    field: str
    shape: tuple[int, ...]
    quick_shape: tuple[int, ...]
    error_bound: float
    tile: tuple[int, ...]
    #: edge lengths of the region decodes and served windows: whole
    #: tiles, or less than one (see ``Scenario._windows``)
    window: tuple[int, ...]
    #: served window reads of the resident dataset, per round
    reads: int
    adaptive: bool = False
    #: ``repro serve --cache-mb``
    cache_mb: float = 64.0
    #: region decodes from the container file, per round
    regions: int = 3
    #: > 0: each round appends this many time steps as a snapshot chain
    #: (``put_snapshot`` + read-after-write) instead of one plain put
    chain: int = 0
    keyframe_interval: int = 4
    #: small datasets put at set-up so the manifest is not trivial
    prefill: int = 0


WORKLOADS = [
    Workload(
        name="codec_bulk",
        why="1 MB random-walk field in two 512 KB tiles at a fine bound: "
        "per-byte kernels (predict-quantize, Huffman, LZ77) dominate, "
        "per-tile cost is negligible",
        field="random_walk",
        shape=(32, 32, 256),
        quick_shape=(16, 16, 64),
        error_bound=1e-2,
        tile=(16, 32, 256),
        window=(16, 16, 64),
        reads=20,
    ),
    Workload(
        name="codec_small_tiles",
        why="halo field in 36 tiles of 32x32: per-tile fixed cost "
        "dominates (Huffman plan and code lengths, table rebuild, TOC "
        "and CRC per tile)",
        field="halo",
        shape=(192, 192),
        quick_shape=(64, 64),
        error_bound=0.2,
        tile=(32, 32),
        window=(96, 96),
        reads=20,
    ),
    Workload(
        name="codec_adaptive",
        why="the codec_small_tiles field planned adaptively per tile: "
        "sampling, model fits and bound allocation dominate the compress, "
        "the encode they feed is minor",
        field="halo",
        shape=(192, 192),
        quick_shape=(64, 64),
        error_bound=0.2,
        tile=(32, 32),
        window=(96, 96),
        adaptive=True,
        reads=20,
    ),
    Workload(
        name="serve_hot",
        why="window reads of a dataset that fits the tile cache 64 "
        "times: hit rate ~1, so client, HTTP framing, npy "
        "serialisation and region assembly do the work, not the codec",
        field="halo",
        shape=(512, 512),
        quick_shape=(128, 128),
        error_bound=0.05,
        tile=(128, 128),
        window=(128, 128),
        reads=200,
    ),
    Workload(
        name="serve_cold",
        why="the same kind of reads with a cache of 1/8 of the tiles: "
        "misses dominate, so tile read, CRC verify, tile decode and "
        "cache insert/evict do the work and HTTP is minor",
        field="halo",
        shape=(256, 256),
        quick_shape=(128, 128),
        error_bound=0.05,
        tile=(32, 32),
        window=(96, 96),
        cache_mb=1 / 32,
        reads=16,
    ),
    Workload(
        name="snapshot_ingest",
        why="writes beside reads: a chain of wave snapshots appended "
        "over HTTP (temporal delta, intent, fsync, rename, manifest "
        "rewrite) with a read of each version just written",
        field="wave",
        shape=(32, 32, 64),
        quick_shape=(16, 16, 32),
        error_bound=2e-3,
        tile=(16, 16, 32),
        window=(8, 8, 16),
        reads=0,
        chain=5,
        keyframe_interval=4,
        prefill=32,
    ),
]


class OpFailed(Exception):
    """An operation failed or its output failed verification."""


def within_bound(original: np.ndarray, decoded: np.ndarray, error_bound) -> bool:
    """The point-wise bound, with one f32 ULP of cast slack.

    *error_bound* is a number or a per-point array (:func:`stored_bounds`).
    Same tolerance as ``tests/conftest.py::assert_error_bounded``.
    """
    if original.shape != decoded.shape:
        return False
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(decoded, dtype=np.float64)
    ulp = 0.0
    if decoded.dtype == np.float32 and b.size:
        ulp = float(np.max(np.abs(b))) * float(np.finfo(np.float32).eps)
    return bool(np.all(np.abs(a - b) <= error_bound * (1 + 1e-9) + ulp))


def stored_bounds(path: str, nominal: float):
    """The bound each point of a container was encoded under.

    An adaptive (v5) container holds the aggregate quality of the
    nominal bound but gives each tile its own; its TOC records them.
    """
    with TiledReader(path) as reader:
        if all(record.config is None for record in reader.tiles):
            return nominal
        bounds = np.full(tuple(reader.header["shape"]), float(nominal))
        for record in reader.tiles:
            if record.config is not None:
                extent = tuple(
                    slice(a, b) for a, b in zip(record.start, record.stop)
                )
                bounds[extent] = record.config["error_bound"]
        return bounds


class LocalService:
    """The client's call shapes against an in-process ``ArrayStore``.

    The traced run replays each round's requests through this, so the
    service's layers can be timed without HTTP in the way.
    """

    def __init__(self, store: ArrayStore) -> None:
        self.store = store
        self.last_read_stats: dict = {}

    @staticmethod
    def _config(eb, tile, adaptive=False) -> CompressionConfig:
        return CompressionConfig(
            error_bound=float(eb), tile_shape=tuple(tile), adaptive=adaptive
        )

    def put(self, name, data, eb, tile, adaptive=False, overwrite=False):
        return self.store.create(
            name, data, self._config(eb, tile, adaptive), overwrite=overwrite
        )

    def put_snapshot(self, name, data, eb, tile, keyframe_interval=None):
        return self.store.put_snapshot(
            name,
            data,
            self._config(eb, tile),
            keyframe_interval=keyframe_interval,
        )

    def read_region(self, name, region, version=None):
        result = self.store.read_region(
            name, region, version=version, allow_degraded=True
        )
        self.last_read_stats = {"tiles_touched": result.tiles_touched}
        return result.data

    def read_range(self, name, region, start_version, stop_version):
        results = self.store.read_range(
            name, region, start_version, stop_version, allow_degraded=True
        )
        return np.stack([r.data for r in results])

    def delete(self, name):
        self.store.delete(name)


class Scenario:
    """One workload, set up once and run round by round.

    ``faults`` names outputs to corrupt once before they are verified
    (``"decode"``, ``"served"``) — the self-check that the verifier
    really counts a wrong output as a failed operation.
    """

    MAIN = "main"

    def __init__(
        self,
        spec: Workload,
        seed: int,
        scratch: str,
        quick: bool = False,
        tracer: Tracer | None = None,
        server_cpu: int | None = None,
        faults: tuple[str, ...] = (),
    ) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.scratch = scratch
        self.tracer = tracer
        self.tracing = False
        self.server_cpu = server_cpu
        self.faults = set(faults)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

        shape = spec.quick_shape if quick else spec.shape
        self.prefill = min(spec.prefill, 4) if quick else spec.prefill
        self.reads = min(spec.reads, 8) if quick else spec.reads
        self.steps = fields.build(
            spec.field, shape, self.seed, steps=max(spec.chain, 1)
        )
        self.field = self.steps[0]
        self.raw_mb = self.field.nbytes / 1e6
        self.config = CompressionConfig(
            error_bound=spec.error_bound,
            tile_shape=spec.tile,
            adaptive=spec.adaptive,
        )
        self.window = tuple(min(w, n) for w, n in zip(spec.window, shape))
        self.codec = TiledCompressor(backend="serial")
        self.container_path = os.path.join(scratch, "codec.rqsz")
        self.server: ServerProcess | None = None
        self.store_dir: str | None = None
        self.client: ArrayClient | None = None
        self.main_reference: np.ndarray | None = None

    # -- set-up and tear-down --------------------------------------------------

    def start(self) -> SpeedMeter:
        """Server up, datasets in, cache filled.

        Returns the box's speed meanwhile (see :mod:`calibrate`).
        """
        meter = SpeedMeter(self.server_cpu)
        meter.sample()
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        self.server = ServerProcess(
            self.store_dir, self.spec.cache_mb, cpu=self.server_cpu
        ).start()
        meter.sample()
        self.client = ArrayClient(self.server.url, timeout=120.0)
        small = self.field[tuple(slice(0, min(32, n)) for n in self.field.shape)]
        for index in range(self.prefill):
            self.client.put(
                f"small{index:03d}",
                small,
                eb=self.spec.error_bound,
                tile=small.shape,
            )
        self._put_plain(self.client, self.MAIN)
        # one pass over every tile, so the first measured read meets
        # the cache in its steady state
        self.client.read_region(
            self.MAIN, tuple(slice(0, n) for n in self.field.shape)
        )
        meter.sample()
        return meter

    def load_reference(self) -> None:
        """Decode the store's own container: what reads must match."""
        self.attempted += 1
        path = os.path.join(self.store_dir, f"{self.MAIN}.rqsz")
        self.main_reference = self.codec.decompress(path)
        bounds = stored_bounds(path, self.spec.error_bound)
        if not within_bound(self.field, self.main_reference, bounds):
            self._fail("stored dataset breaks the error bound")

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def peak_rss_mb(self) -> float:
        """This process (codec, client) plus the server process."""
        return process_peak_rss_mb() + self.server.peak_rss_mb()

    # -- operation plumbing ----------------------------------------------------

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        raise OpFailed(message)

    def _op(self, name: str, fn, *args, **kwargs) -> tuple[Elapsed, object]:
        """One attempted operation: ``(elapsed, result)``.

        Any exception counts the operation as failed.  While tracing,
        the call is the root span of its own span tree.
        """
        self.attempted += 1
        if self.tracing:
            fn = self.tracer.wrap(fn, name)
        started, cpu_started = perf_counter(), thread_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, then ends the round
            self._fail(f"{name}: {exc!r}")
        return (
            Elapsed(perf_counter() - started, thread_time() - cpu_started),
            result,
        )

    def _corrupt(self, kind: str, array: np.ndarray) -> np.ndarray:
        if kind not in self.faults:
            return array
        self.faults.discard(kind)
        array = np.array(array)
        array.flat[0] += 10 * self.spec.error_bound + 1.0
        return array

    def _windows(self, rng: np.random.Generator, count: int) -> list[tuple]:
        """*count* random windows that all touch the same number of tiles.

        On an axis with several tiles, a window of a whole number *m*
        of tiles starts strictly inside one, so it always overlaps
        ``m + 1`` of them, and a window smaller than a tile stays
        inside one.  How many tiles a uniform-random window happens to
        cross would otherwise be the largest term in its latency.
        """
        out = []
        for _ in range(count):
            window = []
            for n, tile, w in zip(self.field.shape, self.spec.tile, self.window):
                if w % tile == 0 and n - w >= tile:
                    boundary = tile * rng.integers(1, (n - w) // tile + 1)
                    lo = boundary - rng.integers(1, tile)
                elif n > tile and w < tile:
                    lo = tile * rng.integers(0, n // tile) + rng.integers(
                        0, tile - w + 1
                    )
                else:
                    lo = rng.integers(0, n - w + 1)
                window.append(slice(int(lo), int(lo) + w))
            out.append(tuple(window))
        return out

    def _store_root(self, service) -> str:
        if isinstance(service, LocalService):
            return service.store.root
        return self.store_dir

    def _put_plain(self, service, name: str, overwrite: bool = False) -> dict:
        return service.put(
            name,
            self.field,
            eb=self.spec.error_bound,
            tile=self.spec.tile,
            adaptive=self.spec.adaptive,
            overwrite=overwrite,
        )

    # -- one round -------------------------------------------------------------

    def round(self, index: int, service=None, codec: bool = True) -> dict | None:
        """Run round *index*; per-round values, or ``None`` if an op failed.

        *service* defaults to the HTTP client; the traced run passes a
        :class:`LocalService` (and ``codec=False``) to replay the same
        requests in-process.
        """
        if self.tracer is not None:
            prefix = "round" if service is None else "replay"
            self.tracer.op_id = f"{prefix}{index}"
        values: dict = {"regions": [], "puts": [], "reads": [], "tiles_touched": []}
        started = perf_counter()
        # the box's speed, sampled between this round's operations
        meter = SpeedMeter(self.server_cpu)
        meter.sample()
        try:
            if codec:
                self._codec_cycle(
                    np.random.default_rng([self.seed, index, 0]), values
                )
                meter.sample()
            rng = np.random.default_rng([self.seed, index, 1])
            service = service if service is not None else self.client
            if self.spec.chain:
                self._chain_cycle(service, rng, values)
            else:
                self._put_cycle(service, rng, values)
            meter.sample()
            self._read_cycle(service, rng, values)
        except OpFailed:
            return None
        meter.sample()
        # every timing of the round, read at reference speed
        for key in ("compress", "decompress", "model", "read_range"):
            if key in values:
                values[f"{key}_s"] = meter.at_reference(values.pop(key))
        for key in ("regions", "puts", "reads"):
            values[f"{key}_s"] = [
                meter.at_reference(elapsed) for elapsed in values.pop(key)
            ]
        values["slowdown"] = meter.client
        values["slowdown_server"] = meter.server
        values["round_s"] = (perf_counter() - started) / meter.client
        return values

    def _codec_cycle(self, rng: np.random.Generator, values: dict) -> None:
        field, eb = self.field, self.spec.error_bound
        values["compress"], result = self._op(
            "ledger.compress",
            self.codec.compress, field, self.config, out=self.container_path,
        )
        values["container_bytes"] = result.compressed_bytes

        values["decompress"], decoded = self._op(
            "ledger.decompress", self.codec.decompress, self.container_path
        )
        values["tiles_decoded"] = self.codec.last_tiles_decoded
        decoded = self._corrupt("decode", decoded)
        bounds = stored_bounds(self.container_path, eb)
        if not within_bound(field, decoded, bounds):
            self._fail("full decode breaks the error bound")
        values["psnr_db"] = psnr(field, decoded)

        tiles = []
        for window in self._windows(rng, self.spec.regions):
            elapsed, region = self._op(
                "ledger.decompress_region",
                self.codec.decompress_region, self.container_path, window,
            )
            values["regions"].append(elapsed)
            tiles.append(self.codec.last_tiles_decoded)
            if not np.array_equal(region, decoded[window]):
                self._fail("region decode differs from the full decode")
        values["region_tiles_decoded"] = statistics.mean(tiles)

        values["model"], estimate = self._op("ledger.model", self._estimate_ratio)
        if not np.isfinite(estimate) or estimate <= 0:
            self._fail(f"model estimated a ratio of {estimate!r}")
        measured = result.ratio
        values["model_ratio_accuracy"] = min(estimate, measured) / max(
            estimate, measured
        )

    def _estimate_ratio(self) -> float:
        model = CodecFactory().fit_model(self.field)
        return float(model.estimate(self.spec.error_bound).ratio)

    def _put_cycle(self, service, rng, values: dict) -> None:
        """One overwriting put, then a read-after-write of a window."""
        elapsed, entry = self._op(
            "service.client.put", self._put_plain, service, "scratch", True
        )
        values["puts"].append(elapsed)
        values["put_raw_bytes"] = self.field.nbytes
        values["put_stored_bytes"] = int(entry["compressed_bytes"])
        (window,) = self._windows(rng, 1)
        _, served = self._op(
            "service.client.read_after_write",
            service.read_region, "scratch", window,
        )
        bounds = stored_bounds(
            os.path.join(self._store_root(service), "scratch.rqsz"),
            self.spec.error_bound,
        )
        if isinstance(bounds, np.ndarray):
            bounds = bounds[window]
        if not within_bound(self.field[window], served, bounds):
            self._fail("read-after-write breaks the error bound")

    def _chain_cycle(self, service, rng, values: dict) -> None:
        """Append every time step; read each version as it lands."""
        name = "chain"  # deleted below, so every round writes the same bytes
        spec = self.spec
        decoder = TemporalCompressor(backend="serial")
        references: list[np.ndarray] = []
        stored = 0
        for version, step in enumerate(self.steps):
            elapsed, record = self._op(
                "service.client.put_snapshot",
                service.put_snapshot,
                name, step,
                eb=spec.error_bound,
                tile=spec.tile,
                keyframe_interval=spec.keyframe_interval,
            )
            values["puts"].append(elapsed)
            stored += int(record["compressed_bytes"])
            # what the store itself wrote, decoded from its own file
            reference = decoder.decompress(
                os.path.join(self._store_root(service), record["file"]),
                reference=references[-1] if references else None,
            )
            if not within_bound(step, reference, spec.error_bound):
                self._fail(f"stored version {version} breaks the error bound")
            references.append(reference)
            (window,) = self._windows(rng, 1)
            self._read(service, name, window, reference, values, version=version)
        values["put_raw_bytes"] = sum(step.nbytes for step in self.steps)
        values["put_stored_bytes"] = stored

        (window,) = self._windows(rng, 1)
        last = len(self.steps) - 1
        first = max(0, last - 7)
        values["read_range"], stack = self._op(
            "service.client.read_range",
            service.read_range, name, window, first, last,
        )
        expected = np.stack([ref[window] for ref in references[first:]])
        if not np.array_equal(stack, expected):
            self._fail("served version range differs from the store")
        # keep the store the same size for every round
        self._op("service.client.delete", service.delete, name)

    def _read(self, service, name, window, reference, values, version=None):
        """One timed window read, byte-checked against *reference*."""
        elapsed, served = self._op(
            "service.client.read_region",
            service.read_region, name, window, version=version,
        )
        values["reads"].append(elapsed)
        values["tiles_touched"].append(
            service.last_read_stats.get("tiles_touched", 0)
        )
        served = self._corrupt("served", served)
        if not np.array_equal(served, reference[window]):
            self._fail(f"served region of {name!r} differs from the store's container")

    def _read_cycle(self, service, rng, values: dict) -> None:
        """Window reads of the resident dataset, and one version range."""
        for window in self._windows(rng, self.reads):
            self._read(service, self.MAIN, window, self.main_reference, values)
        values["bytes_per_read"] = int(
            np.prod(self.window) * self.field.dtype.itemsize
        )
        if "read_range" not in values:
            (window,) = self._windows(rng, 1)
            values["read_range"], stack = self._op(
                "service.client.read_range",
                service.read_range, self.MAIN, window, 0, 0,
            )
            if not np.array_equal(stack[0], self.main_reference[window]):
                self._fail("served version range differs from the store")

    # -- in-process replay and probes (traced run) -----------------------------

    def local_service(self, store_copy: str) -> LocalService:
        """An in-process store on *store_copy*, cache filled as at set-up."""
        store = ArrayStore(
            store_copy,
            cache=TileLRUCache(
                byte_budget=int(self.spec.cache_mb * (1 << 20))
            ),
            parallel_backend="serial",
        )
        service = LocalService(store)
        service.read_region(
            self.MAIN, tuple(slice(0, n) for n in self.field.shape)
        )
        return service

    def probe_adaptive(self) -> dict:
        """Plan this field adaptively, then replay through a warm cache."""
        cache = PlannerCache()
        codec = TiledCompressor(backend="serial", plan_cache=cache)
        config = replace(self.config, adaptive=True)
        self.tracer.op_id = "probe"
        _, fresh = self._op(
            "probe.adaptive_fresh",
            codec.compress, self.field, config, dataset="probe",
        )
        elapsed, cached = self._op(
            "probe.adaptive_cached",
            codec.compress, self.field, config, dataset="probe",
        )
        if cached.plan.stats.cache != "hit":
            self._fail("plan cache did not replay the plan of the same field")
        return {
            "clusters": fresh.plan.stats.clusters,
            "fits_performed": fresh.plan.stats.fits_performed,
            "hits": cache.counters["hits"],
            "cached_compress_mb_s": self.raw_mb / elapsed.wall,
        }

    def probe_temporal(self) -> dict:
        """Delta-compress this field's next time step against its decode."""
        steps = self.steps
        if len(steps) < 2:
            steps = fields.build(
                self.spec.field, self.field.shape, self.seed, steps=2
            )
        config = replace(self.config, adaptive=False)
        reference = self.codec.decompress(
            self.codec.compress(steps[0], config).blob
        )
        self.tracer.op_id = "probe"
        _, result = self._op(
            "probe.temporal",
            TemporalCompressor(backend="serial").compress_snapshot,
            steps[1],
            replace(config, temporal=True),
            reference=reference,
            ref_id="probe@v0",
            snapshot_index=1,
        )
        decoded = TemporalCompressor(backend="serial").decompress(
            result.blob, reference=reference
        )
        if not within_bound(steps[1], decoded, self.spec.error_bound):
            self._fail("temporal delta breaks the error bound")
        return {
            "temporal_tiles": result.stats.temporal_tiles,
            "spatial_tiles": result.stats.spatial_tiles,
        }
