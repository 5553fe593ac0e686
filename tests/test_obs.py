"""Tests for repro.obs: spans, isolated records, and exact-once stack stages."""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.compressor import CompressionConfig, TiledCompressor
from repro.compressor.executor import BACKENDS

#: the codec stages every encode stack records once
CODEC_STAGES = ("transform", "predict_quantize", "huffman", "lossless")
#: the stages every decode stack of one shape and predictor records once
DECODE_STAGES = ("lossless", "huffman", "reconstruct", "inverse_transform")


def test_span_without_record_adds_nowhere_but_measures():
    with obs.span("alone") as outside:
        sum(range(100))
    assert outside.elapsed >= 0.0
    with obs.record() as times:
        pass
    assert times == {}


def test_span_elapsed_is_zero_before_use():
    assert obs.span("unused").elapsed == 0.0


def test_span_adds_its_elapsed_and_repeats_sum(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(obs, "_clock", lambda: float(next(ticks)))
    with obs.record() as times:
        with obs.span("io") as first:
            pass
        with obs.span("io"):
            pass
    assert first.elapsed == 1.0
    assert times == {"io": 2.0}


def test_raising_block_still_records_and_closes_the_record():
    with pytest.raises(RuntimeError):
        with obs.record() as times:
            with obs.span("failed"):
                raise RuntimeError("boom")
    assert set(times) == {"failed"}
    obs.add({"after": 1.0})
    assert "after" not in times


def test_nested_records_are_isolated():
    with obs.record() as outer:
        with obs.span("before"):
            pass
        with obs.record() as inner:
            with obs.span("inside"):
                pass
        with obs.span("after"):
            pass
    assert set(outer) == {"before", "after"}
    assert set(inner) == {"inside"}


def test_add_without_record_is_a_no_op():
    obs.add({"stray": 1.0})
    with obs.record() as times:
        obs.add({"kept": 2.0})
        obs.add({"kept": 0.5})
    obs.add({"late": 1.0})
    assert times == {"kept": 2.5}


def _four_tiles(backend: str) -> dict:
    data = np.cumsum(
        np.random.default_rng(3).standard_normal((32, 32)), axis=1
    )
    config = CompressionConfig(
        error_bound=1e-3, lossless="zstd_like", tile_shape=(16, 16)
    )
    compressor = TiledCompressor(workers=2, backend=backend)
    with obs.record() as times:
        result = compressor.compress(data, config)
    assert result.n_tiles == 4
    return times


def test_serial_compress_counts_each_stack_stage_once(monkeypatch):
    # the four tiles encode as one stack, whose stages each run once
    ticks = itertools.count()
    monkeypatch.setattr(obs, "_clock", lambda: float(next(ticks)))
    times = _four_tiles("serial")
    for stage in CODEC_STAGES:
        assert times[stage] == 1.0, stage


def _four_tile_blob() -> bytes:
    data = np.cumsum(np.random.default_rng(3).standard_normal((32, 32)), 1)
    config = CompressionConfig(
        error_bound=1e-3, lossless="zstd_like", tile_shape=(16, 16)
    )
    return TiledCompressor(backend="serial").compress(data, config).blob


def test_serial_decode_counts_each_stack_stage_once(monkeypatch):
    # the four tiles decode as one stack: one lossless unwrap, one
    # Huffman decode, one reconstruct pass and one inverse transform loop
    blob = _four_tile_blob()
    ticks = itertools.count()
    monkeypatch.setattr(obs, "_clock", lambda: float(next(ticks)))
    with obs.record() as times:
        TiledCompressor(backend="serial").decompress(blob)
    assert times == dict.fromkeys(DECODE_STAGES, 1.0)


def test_decode_records_the_same_stage_names_on_every_backend():
    # a pool's stacks decode in its workers, each in a record of its own
    # that the reader adds to the caller's
    blob = _four_tile_blob()
    names = {}
    for backend in BACKENDS:
        with obs.record() as times:
            TiledCompressor(workers=2, backend=backend).decompress(blob)
        names[backend] = set(times)
    assert names == dict.fromkeys(BACKENDS, set(DECODE_STAGES))


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_compress_records_the_serial_stage_names(backend):
    times = _four_tiles(backend)
    assert set(times) == set(_four_tiles("serial"))
    assert set(CODEC_STAGES) <= set(times)
    assert all(seconds > 0 for seconds in times.values())
