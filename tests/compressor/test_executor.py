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
import warnings

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ExecutorError,
    ProcessExecutor,
    SZCompressor,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor import executor as executor_mod
from repro.compressor.container import TiledReader
from repro.compressor.executor import (
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    make_executor,
)
from tests.conftest import forge_chunked_v7, smooth_field
from tests.proptest import draw_case

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")

#: proptest seeds exercised per backend (tiny arrays; every seed covers
#: a different dtype/shape/mode/predictor/tile combination)
CORPUS_SEEDS = range(0, 12)

BACKENDS = ("serial", "thread", "process")


def _compress_case(case, backend):
    return (
        TiledCompressor(
            workers=case.workers, backend=backend, planner=case.planner()
        )
        .compress(case.data, case.config)
        .blob
    )


class TestByteIdenticalOutputs:
    def test_property_corpus_identical_across_backends(self):
        for seed in CORPUS_SEEDS:
            case = draw_case(seed)
            if case.config.tile_shape is None:
                continue  # a flat array is one unit of work: no backend
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
        config = CompressionConfig(error_bound=1e-3, tile_shape=(20, 125))
        blob = forge_chunked_v7(data, config, 2048)
        base = TiledCompressor().decompress(blob)
        twin = TiledCompressor().compress(data, config).blob
        np.testing.assert_array_equal(base, TiledCompressor().decompress(twin))
        for backend in ("thread", "process"):
            out = TiledCompressor(workers=3, backend=backend).decompress(
                blob
            )
            np.testing.assert_array_equal(out, base)


class TestStartMethods:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_tiled_roundtrip_matches_serial(self, start_method, monkeypatch):
        rng = np.random.default_rng(11)
        data = np.cumsum(rng.standard_normal((30, 400)), axis=-1)
        config = CompressionConfig(error_bound=1e-3, tile_shape=(15, 100))
        serial = TiledCompressor().compress(data, config).blob
        expected = TiledCompressor().decompress(serial)

        proc = ProcessExecutor(2, start_method=start_method)
        batches = []

        def counting(fn, items, input=None, output=None):
            batches.append(fn.__name__)
            return ProcessExecutor.run_batch(
                proc, fn, items, input=input, output=output
            )

        proc.run_batch = counting
        monkeypatch.setattr(
            TiledCompressor, "_executor", lambda *args, **kw: proc
        )
        try:
            tc = TiledCompressor(workers=2, backend="process")
            assert tc.compress(data, config).blob == serial
            np.testing.assert_array_equal(tc.decompress(serial), expected)
        finally:
            proc.close()
        assert set(batches) == {"_compress_tile_task", "decode_tile_task"}

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_raw_batch_runs_under_both_methods(self, start_method):
        proc = ProcessExecutor(2, start_method=start_method)
        values = np.arange(4096, dtype=np.int64) % 17
        inp = proc.input_buffer(values.nbytes)
        out = proc.output_buffer(16)
        try:
            inp.array.view(np.int64)[:] = values
            pids = proc.run_batch(
                _sum_slice_task,
                [(0, 0, 2048), (1, 2048, 4096)],
                input=inp,
                output=out,
            )
            assert len(pids) == 2 and os.getpid() not in pids
            assert out.array.view(np.int64).tolist() == [
                int(values[:2048].sum()),
                int(values[2048:].sum()),
            ]
        finally:
            inp.release()
            out.release()
            proc.close()


def _sum_slice_task(item, inp, out):
    """Sum one slice of the shared input into its slot of the output."""
    index, lo, hi = item
    out.view(np.int64)[index] = inp.view(np.int64)[lo:hi].sum()
    return os.getpid()


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
        payload to decode — what keeps the backend worth its IPC.  An
        encode or decode item is one stack per worker: here two tiles
        each."""
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
        assert len(payloads) == 4 and len(encode) == len(pickled) == 2
        assert max(encode) <= 4096
        stacks = [sum(payloads[:2]), sum(payloads[2:])]
        assert all(n <= size + 4096 for n, size in zip(pickled, stacks))
        assert max(payloads) + 4096 < data.nbytes // 4  # under one raw tile

    def test_a_delta_decode_ships_no_reference_tile(self, monkeypatch):
        """A temporal residual meets its reference tile in the reader,
        after the decode: a decode item holds payloads, not samples."""
        first = smooth_field((256, 256)).astype(np.float64)
        second = first + 1e-3 * smooth_field((256, 256))
        config = CompressionConfig(error_bound=1e-3, tile_shape=(128, 128))
        delta = TemporalCompressor().compress_snapshot(
            second, config, reference=first
        )
        assert delta.stats.temporal_tiles == 4
        pickled = []
        run_batch = ProcessExecutor.run_batch

        def counting(self, fn, items, input=None, output=None):
            pickled.extend(len(pickle.dumps(item)) for item in items)
            return run_batch(self, fn, items, input=input, output=output)

        monkeypatch.setattr(ProcessExecutor, "run_batch", counting)
        tc = TiledCompressor(workers=2, backend="process")
        decoded = tc.decompress(delta.blob, reference=first)
        assert decoded.tobytes() == TiledCompressor().decompress(
            delta.blob, reference=first
        ).tobytes()
        assert len(pickled) == 2
        assert max(pickled) <= len(delta.blob) + 4096 < first.nbytes // 4


def _echo_task(item, inp, out):
    return item


def _nested_task(item, inp, out):
    """A task that runs a batch of its own on the executor it runs on."""
    executor, value = item
    return executor.run_batch(_echo_task, [value, -value])


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
        # Outer tasks holding every pool thread while their inner
        # batches queue behind them would deadlock: nested batches
        # must run inline instead.
        pool = ThreadExecutor(2)
        items = [(pool, value) for value in range(1, 9)]
        done: list = []

        def run() -> None:
            done.append(pool.run_batch(_nested_task, items))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert done, "nested thread batch deadlocked"
        pool.close()
        assert done[0] == [[value, -value] for value in range(1, 9)]


def _count_batches(monkeypatch, executor_class) -> list:
    """Names of the tasks *executor_class* batches run from now on."""
    ran: list = []
    run_batch = executor_class.run_batch

    def counting(self, fn, items, input=None, output=None):
        ran.append(fn.__name__)
        return run_batch(self, fn, items, input=input, output=output)

    monkeypatch.setattr(executor_class, "run_batch", counting)
    return ran


class TestEncodeFanOut:
    """Tiles are the unit of parallel work: encode fans out over the
    same executor as decode, on every parallel backend, silently and
    with the serial bytes."""

    DATA = np.cumsum(
        np.random.default_rng(0).standard_normal((64, 96)), axis=-1
    )
    CONFIG = CompressionConfig(error_bound=1e-3, tile_shape=(16, 32))

    @pytest.mark.parametrize(
        "executor_class",
        [ThreadExecutor, ProcessExecutor],
        ids=["thread", "process"],
    )
    def test_encode_and_decode_fan_out(self, monkeypatch, executor_class):
        serial = TiledCompressor().compress(self.DATA, self.CONFIG).blob
        ran = _count_batches(monkeypatch, executor_class)
        tc = TiledCompressor(workers=2, backend=executor_class.name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blob = tc.compress(self.DATA, self.CONFIG).blob
        assert blob == serial
        assert ran and set(ran) == {"_compress_tile_task"}
        np.testing.assert_array_equal(
            tc.decompress(blob), TiledCompressor().decompress(serial)
        )
        assert ran[-1] == "decode_tile_task"


class TestExecutorPlumbing:
    def test_make_executor_names_and_unknown(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        thread = make_executor("thread", 2)
        assert isinstance(thread, ThreadExecutor)
        thread.close()
        assert isinstance(make_executor(None, 2), ThreadExecutor)
        with pytest.raises(ValueError, match="unknown parallel backend"):
            make_executor("gpu", 2)

    def test_get_executor_serial_shortcuts(self):
        assert get_executor("process", 1).name == "serial"
        assert get_executor(None, None).name == "serial"

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
        resolved = get_executor("process", None)
        assert resolved.name == ("process" if width > 1 else "serial")

    def test_get_executor_is_shared(self):
        a = get_executor("thread", 3)
        b = get_executor("thread", 3)
        assert a is b

    def test_runners_reject_unknown_backend_at_construction(self, tmp_path):
        from repro.service.store import ArrayStore

        with pytest.raises(ValueError, match="unknown parallel backend"):
            TiledCompressor(backend="cluster")
        with pytest.raises(ValueError, match="unknown parallel backend"):
            TemporalCompressor(backend="cluster")
        with pytest.raises(ValueError, match="unknown parallel backend"):
            ArrayStore(tmp_path / "s", parallel_backend="cluster")
        assert not (tmp_path / "s").exists()
        for backend in (None,) + executor_mod.BACKENDS:
            TiledCompressor(backend=backend)

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
                wrapped = ex.input_buffer(80)
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
