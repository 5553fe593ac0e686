"""Executor-backend correctness: identical bytes, clean failures.

The parallel backends must be *invisible* in the output: serial,
thread and process runs of the same config produce byte-identical
containers, and every backend decodes the golden fixtures to exactly
the arrays the fixtures pin.  On top of that, the process backend must
survive hostile conditions — worker crashes surface as a clean
:class:`~repro.compressor.executor.ExecutorError` (and the shared
registry replaces the poisoned pool), and both ``fork`` and ``spawn``
start methods yield the same bytes.
"""

import os
import pickle
import threading

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ExecutorError,
    ProcessExecutor,
    SZCompressor,
    TiledCompressor,
)
from repro.compressor import executor as executor_mod
from repro.compressor import stages as stages_mod
from repro.compressor.container import TiledReader
from repro.compressor.executor import (
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    make_executor,
    resolve_executor,
)
from repro.compressor.stages import HuffmanEntropyStage
from tests.conftest import smooth_field
from tests.proptest import draw_case

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")

#: proptest seeds exercised per backend (tiny arrays; every seed covers
#: a different dtype/shape/mode/predictor/chunk/tile combination)
CORPUS_SEEDS = range(0, 12)

BACKENDS = ("serial", "thread", "process")


def _compress_case(case, backend):
    if case.config.tile_shape is not None:
        return (
            TiledCompressor(workers=case.workers, backend=backend)
            .compress(case.data, case.config)
            .blob
        )
    return (
        SZCompressor(workers=case.workers, backend=backend)
        .compress(case.data, case.config)
        .blob
    )


class TestByteIdenticalOutputs:
    def test_property_corpus_identical_across_backends(self):
        for seed in CORPUS_SEEDS:
            case = draw_case(seed)
            serial = _compress_case(case, "serial")
            for backend in ("thread", "process"):
                assert _compress_case(case, backend) == serial, (
                    f"{backend} blob differs from serial "
                    f"[{case.describe()}]"
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name", ["seed_v3_zstd", "pr2_v4_tiled_zstd", "pr3_v5_adaptive"]
    )
    def test_golden_fixtures_decode_identically(self, backend, name):
        with open(os.path.join(DATA_DIR, f"{name}.rqsz"), "rb") as fh:
            blob = fh.read()
        expected = np.load(
            os.path.join(DATA_DIR, f"{name}_expected.npy")
        )
        decoded = TiledCompressor(workers=3, backend=backend).decompress(
            blob
        )
        np.testing.assert_array_equal(decoded, expected)

    def test_chunked_decode_identical_across_backends(self):
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.standard_normal((40, 500)), axis=-1)
        config = CompressionConfig(error_bound=1e-3, chunk_size=2048)
        blob = SZCompressor().compress(data, config).blob
        base = SZCompressor(workers=1).decompress(blob)
        for backend in ("thread", "process"):
            out = SZCompressor(workers=3, backend=backend).decompress(
                blob
            )
            np.testing.assert_array_equal(out, base)


class TestStartMethods:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_chunked_roundtrip_matches_serial(self, start_method):
        rng = np.random.default_rng(11)
        data = np.cumsum(rng.standard_normal((30, 400)), axis=-1)
        config = CompressionConfig(error_bound=1e-3, chunk_size=1024)
        serial = SZCompressor().compress(data, config)

        proc = ProcessExecutor(2, start_method=start_method)
        try:
            sz = SZCompressor(
                entropy=HuffmanEntropyStage(workers=2, executor=proc)
            )
            result = sz.compress(data, config)
            assert result.blob == serial.blob
            np.testing.assert_array_equal(
                sz.decompress(result.blob), SZCompressor().decompress(
                    serial.blob
                )
            )
        finally:
            proc.close()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_raw_batch_runs_under_both_methods(self, start_method):
        proc = ProcessExecutor(2, start_method=start_method)
        try:
            codes = np.arange(4096, dtype=np.int64) % 17
            buffer = proc.wrap_input(codes)
            try:
                results = proc.run_batch(
                    stages_mod._encode_chunk_task,
                    [(0, 2048, None), (2048, 4096, None)],
                    input=buffer,
                )
            finally:
                buffer.release()
            assert len(results) == 2
            for payload, huffman_len in results:
                assert isinstance(payload, bytes)
                assert huffman_len == len(payload)
        finally:
            proc.close()


def _crash_task(item, inp, out):
    """Hard-kill the worker (bypasses exception handling entirely)."""
    os._exit(13)


def _boom_task(item, inp, out):
    raise ValueError(f"boom on {item}")


class TestFailureModes:
    def test_worker_crash_surfaces_as_executor_error(self):
        # fork: the task function lives in this (non-importable) test
        # module, which fork children inherit by memory
        proc = ProcessExecutor(2, start_method="fork")
        try:
            with pytest.raises(ExecutorError, match="worker process died"):
                proc.run_batch(_crash_task, [1, 2, 3])
            assert proc.broken
            # a poisoned executor refuses further work with the same
            # clean error instead of hanging or leaking futures
            with pytest.raises(ExecutorError):
                proc.run_batch(_crash_task, [1])
        finally:
            proc.close()

    def test_registry_replaces_broken_executor(self):
        first = get_executor("process", 2, start_method="fork")
        try:
            with pytest.raises(ExecutorError):
                first.run_batch(_crash_task, [1])
            replacement = get_executor("process", 2, start_method="fork")
            assert replacement is not first
            assert not replacement.broken
        finally:
            first.close()

    def test_task_exceptions_propagate_as_themselves(self):
        proc = ProcessExecutor(2, start_method="fork")
        try:
            with pytest.raises(ValueError, match="boom on 2"):
                proc.run_batch(_boom_task, [2])
            # an ordinary task exception must not poison the pool
            assert not proc.broken
            assert proc.run_batch(_echo_task, [1]) == [1]
        finally:
            proc.close()

    def test_corrupt_tile_payload_raises_value_error(self):
        data = np.ones((8, 8), dtype=np.float32)
        blob = bytearray(
            TiledCompressor()
            .compress(
                data, CompressionConfig(error_bound=0.1, tile_shape=(4, 4))
            )
            .blob
        )
        blob[len(blob) // 2] ^= 0xFF
        tc = TiledCompressor(workers=2, backend="process")
        with pytest.raises(ValueError):
            tc.decompress(bytes(blob))


class TestProcessTransport:
    def test_items_carry_no_array_data(self, monkeypatch):
        """The ``CodecExecutor`` contract, by count: "raw array data
        belongs in the buffers".  A 128 KB tile costs the process
        backend a few hundred pickled bytes to encode and its compressed
        payload to decode — what keeps the backend worth its IPC."""
        data = smooth_field((256, 256)).astype(np.float64)
        config = CompressionConfig(error_bound=1e-3, tile_shape=(128, 128))
        serial = TiledCompressor().compress(data, config).blob
        pickled = []
        run_batch = ProcessExecutor.run_batch

        def counting(self, fn, items, input=None, output=None):
            pickled.extend(len(pickle.dumps(item)) for item in items)
            return run_batch(self, fn, items, input=input, output=output)

        monkeypatch.setattr(ProcessExecutor, "run_batch", counting)
        tc = TiledCompressor(workers=2, backend="process")
        assert tc.compress(data, config).blob == serial
        encode = pickled.copy()
        pickled.clear()
        np.testing.assert_array_equal(
            tc.decompress(serial), TiledCompressor().decompress(serial)
        )
        payloads = [tile.size for tile in TiledReader(serial).tiles]
        assert len(encode) == len(pickled) == len(payloads) == 4
        assert max(encode) <= 4096
        assert all(n <= size + 4096 for n, size in zip(pickled, payloads))
        assert max(payloads) + 4096 < data.nbytes // 4  # under one raw tile


def _echo_task(item, inp, out):
    return item


class TestParallelRegionHammer:
    def test_concurrent_region_decodes_on_one_reader(self, tmp_path):
        rng = np.random.default_rng(3)
        data = np.cumsum(
            rng.standard_normal((64, 64)), axis=0
        ).astype(np.float32)
        config = CompressionConfig(error_bound=1e-2, tile_shape=(16, 16))
        path = str(tmp_path / "hammer.rqsz")
        TiledCompressor().compress(data, config, out=path)
        tc = TiledCompressor(workers=2, backend="process")
        expected = tc.decompress(path)

        regions = [
            (slice(0, 64), slice(0, 64)),
            (slice(5, 40), slice(11, 60)),
            (slice(16, 17), slice(0, 64)),
            (slice(30, 64), slice(30, 64)),
        ]
        errors: list = []

        def worker(idx: int) -> None:
            try:
                for _ in range(3):
                    region = regions[idx % len(regions)]
                    out = tc.decompress_region(path, region)
                    np.testing.assert_array_equal(
                        out, expected[region]
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert tc.tiles_decoded >= 8


class TestNestedParallelism:
    def test_nested_thread_batches_run_inline_without_deadlock(self):
        # A custom thread-backed codec inside a thread-backed tiled
        # decode used to deadlock: outer tile tasks held every pool
        # thread while their inner chunk batches queued behind them.
        # Nested batches must run inline instead.
        rng = np.random.default_rng(1)
        data = np.cumsum(rng.standard_normal((16, 64)), axis=-1)
        config = CompressionConfig(
            error_bound=1e-2, chunk_size=64, tile_shape=(8, 32)
        )
        tc = TiledCompressor(
            workers=4,
            backend="thread",
            codec=SZCompressor(workers=4, backend="thread"),
        )
        blob = tc.compress(data, config).blob

        done: list = []

        def run() -> None:
            done.append(tc.decompress_region(blob, (slice(0, 16),)))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert done, "nested thread decode deadlocked"
        np.testing.assert_array_equal(
            done[0], TiledCompressor().decompress(blob)
        )

    def test_per_tile_configs_never_carry_the_parallel_hint(self):
        # Per-tile configs execute inside executor tasks; shipping the
        # parallel_backend hint along would make every worker spin up
        # its own nested executor (process workers forking pools).
        rng = np.random.default_rng(2)
        data = np.cumsum(rng.standard_normal((32, 32)), axis=0)
        hinted = CompressionConfig(
            error_bound=1e-2,
            chunk_size=128,
            tile_shape=(16, 16),
            parallel_backend="process",
        )
        plain = CompressionConfig(
            error_bound=1e-2, chunk_size=128, tile_shape=(16, 16)
        )
        tc = TiledCompressor(workers=2)
        assert (
            tc.compress(data, hinted).blob == tc.compress(data, plain).blob
        )
        adaptive = CompressionConfig(
            error_bound=0.5,
            tile_shape=(16, 16),
            adaptive=True,
            parallel_backend="process",
        )
        result = TiledCompressor(workers=2, backend="process").compress(
            data, adaptive
        )
        base = CompressionConfig(error_bound=0.5)
        for i in range(result.plan.n_tiles):
            cfg = result.plan.config_for(
                CompressionConfig(
                    error_bound=0.5, parallel_backend="process"
                ),
                i,
            )
            assert cfg.parallel_backend is None
        assert base.parallel_backend is None


class TestThreadEncodeCap:
    def test_thread_encode_caps_and_warns_once(self):
        data = np.cumsum(
            np.random.default_rng(0).standard_normal(6000)
        )
        config = CompressionConfig(error_bound=1e-3, chunk_size=512)
        stages_mod._gil_cap_warned = False
        try:
            with pytest.warns(RuntimeWarning, match="cannot release the GIL"):
                threaded = SZCompressor(
                    workers=4, backend="thread"
                ).compress(data, config)
            serial = SZCompressor().compress(data, config)
            assert threaded.blob == serial.blob
        finally:
            stages_mod._gil_cap_warned = False

    def test_cap_helper_passes_through_gil_free_stages(self):
        thread = ThreadExecutor(4)
        try:
            assert (
                stages_mod.gil_capped_encode_executor(thread, True)
                is thread
            )
            capped = stages_mod.gil_capped_encode_executor(thread, False)
            assert capped.name == "serial"
        finally:
            thread.close()

    def test_process_backend_is_never_capped(self):
        proc = ProcessExecutor(2)
        try:
            assert (
                stages_mod.gil_capped_encode_executor(proc, False) is proc
            )
        finally:
            proc.close()


class TestExecutorPlumbing:
    def test_make_executor_names_and_unknown(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        thread = make_executor("thread", 2)
        assert isinstance(thread, ThreadExecutor)
        thread.close()
        assert isinstance(make_executor(None, 2), ThreadExecutor)
        with pytest.raises(ValueError, match="unknown parallel backend"):
            make_executor("gpu", 2)

    def test_resolve_executor_serial_shortcuts(self):
        assert resolve_executor("process", 1).name == "serial"
        assert resolve_executor(None, None).name == "serial"
        explicit = SerialExecutor()
        assert resolve_executor("process", 8, explicit) is explicit

    def test_explicit_backend_without_workers_gets_default_width(self):
        # an explicitly requested parallel backend must not silently
        # collapse to serial just because workers was left unset: it
        # resolves to the machine's default width (which may be 1 only
        # on a single-core host)
        width = executor_mod.default_workers()
        assert width >= 1
        made = make_executor("process")
        assert made.workers == width
        made.close()
        resolved = resolve_executor("process", None)
        assert resolved.name == ("process" if width > 1 else "serial")

    def test_get_executor_is_shared(self):
        a = get_executor("thread", 3)
        b = get_executor("thread", 3)
        assert a is b

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown parallel backend"):
            CompressionConfig(parallel_backend="cluster")
        cfg = CompressionConfig(parallel_backend="process")
        assert cfg.parallel_backend == "process"

    def test_parallel_backend_never_reaches_the_header(self):
        data = np.linspace(0, 1, 256).reshape(16, 16)
        plain = SZCompressor().compress(
            data, CompressionConfig(error_bound=1e-3)
        )
        hinted = SZCompressor().compress(
            data,
            CompressionConfig(
                error_bound=1e-3, parallel_backend="process"
            ),
        )
        assert plain.blob == hinted.blob

    def test_custom_codec_rejected_on_process_backend(self):
        tc = TiledCompressor(
            workers=2, codec=SZCompressor(), backend="process"
        )
        data = np.zeros((8, 8))
        with pytest.raises(ValueError, match="custom codec"):
            tc.compress(
                data, CompressionConfig(error_bound=0.1, tile_shape=(4, 4))
            )

    def test_buffers_roundtrip_serial_and_process(self):
        for ex in (SerialExecutor(), ProcessExecutor(2)):
            try:
                wrapped = ex.wrap_input(np.arange(10, dtype=np.int64))
                assert wrapped.array.nbytes == 80
                out = ex.output_buffer(16)
                assert out.array.nbytes == 16
                wrapped.release()
                out.release()
                assert wrapped.array is None
            finally:
                ex.close()

    def test_empty_batch_returns_empty(self):
        proc = ProcessExecutor(2)
        try:
            assert proc.run_batch(_echo_task, []) == []
        finally:
            proc.close()
