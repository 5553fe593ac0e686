"""Bulk decode owns its buffers: counted, not timed.

A full decode allocates each tile-sized array once and frees it before
the next tile, so its peak is a small multiple of the output whatever
the allocator has been trained to do; the decode tables it builds
on a miss are the tables it recalls on a hit; and a compress finds the
heap its last one freed.
"""

import platform
import resource
import tracemalloc

import numpy as np
import pytest

from repro.compressor import CompressionConfig, TiledCompressor
from repro.compressor.encoders import huffman as huffman_module
from tests.compressor.test_model_cost_guards import _ledger_fields
from tests.conftest import assert_error_bounded


def _cold_decode_peak(monkeypatch, field, config) -> tuple:
    """*field* compressed under *config* and decoded with the tables
    built cold: the decoded array, the decode's traced peak, and the
    codec."""
    cache = huffman_module._DecodeTableLRU()
    monkeypatch.setattr(huffman_module, "_DECODE_TABLE_CACHE", cache)
    codec = TiledCompressor(backend="serial")
    blob = codec.compress(field, config).blob
    tracemalloc.start()
    try:
        decoded = codec.decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_error_bounded(field, decoded, config.error_bound)
    return decoded, peak, codec


#: the ``codec_bulk`` field and config: two 131 072-symbol tiles
BULK = (
    (32, 32, 256),
    CompressionConfig(error_bound=1e-2, tile_shape=(16, 32, 256)),
)
#: a 4 MiB random walk (``float32`` 64x64x256) as one tile
ONE_TILE = ((64, 64, 256), CompressionConfig(error_bound=1e-2))


def test_codec_bulk_decode_peak_is_a_small_multiple_of_the_output(
    monkeypatch, unlimited_codes, long_code_walks
):
    """The ``codec_bulk`` field (two 131 072-symbol tiles taking the
    batched rounds), its tiles written with unlimited codes as v7 files
    without the 16-bit limit hold them, so rounds escape to the
    long-code walk: the traced peak of a full decode is <= 4.5x the
    output bytes.  The tables are built cold, and the two the cache
    keeps (0.4 MB) count.  It reads 3.8x; before the decode worked in
    place it was 5.8x warm and 6.2x cold (6.1 / 6.5 MB for a 1.05 MB
    output): a second ``int64`` copy of the codes and a second
    ``float64`` array per tile in the Lorenzo inverse, a five-temporary
    window build, and the last tile held while the next one decoded."""
    shape, config = BULK
    field = _ledger_fields().random_walk(shape, seed=5)[0]
    decoded, peak, _ = _cold_decode_peak(monkeypatch, field, config)
    assert long_code_walks
    assert peak <= 4.5 * decoded.nbytes


def test_codec_bulk_decode_of_16_bit_codes_never_escapes(
    monkeypatch, long_code_walks
):
    """The same decode of what the codec writes now: every code fits
    the primary table, no round escapes, and the peak stays <= 4.5x
    (it reads 3.6x)."""
    shape, config = BULK
    field = _ledger_fields().random_walk(shape, seed=5)[0]
    decoded, peak, _ = _cold_decode_peak(monkeypatch, field, config)
    assert not long_code_walks
    assert peak <= 4.5 * decoded.nbytes


def test_one_tile_decode_peaks_where_the_flat_decode_did(
    monkeypatch, unlimited_codes, long_code_walks
):
    """A flat array is a one-tile container, and decoding it costs what
    decoding the retired flat (v2) container did.  On a 4 MiB random
    walk (``float32`` 64x64x256, ABS 1e-2, tables built cold, codes
    unlimited so that the decode escapes) the traced peak is <= 4.6x
    the output; it reads 4.39x.  Before the flat writer was retired,
    the flat decode of the same field peaked at 4.39x and the one-tile
    decode at 5.68x: a zeroed output array the tile was copied into,
    and the tile's sections sliced out of its payload as copies instead
    of views."""
    shape, config = ONE_TILE
    field = _ledger_fields().random_walk(shape, seed=5)[0]
    decoded, peak, codec = _cold_decode_peak(monkeypatch, field, config)
    assert codec.last_tiles_decoded == 1 and long_code_walks
    assert peak <= 4.6 * decoded.nbytes


def test_one_tile_decode_of_16_bit_codes_never_escapes(
    monkeypatch, long_code_walks
):
    """The one-tile decode of what the codec writes now: no escape, and
    the peak stays <= 4.6x (it reads 4.39x)."""
    shape, config = ONE_TILE
    field = _ledger_fields().random_walk(shape, seed=5)[0]
    decoded, peak, codec = _cold_decode_peak(monkeypatch, field, config)
    assert codec.last_tiles_decoded == 1 and not long_code_walks
    assert peak <= 4.6 * decoded.nbytes


def test_cold_tables_decode_what_warm_ones_do(monkeypatch):
    """A 64-tile high-entropy container — a distinct quantization code
    and token code per tile — decodes to the same bytes with every
    table built (cold) and every table recalled (warm).  The cache is
    made large enough to hold them all: the stock 18 MiB one holds 96
    ``uint16`` tables, and a scan over more distinct codes than that
    misses on every tile, warm or not."""
    cache = huffman_module._DecodeTableLRU(max_bytes=64 << 20)
    monkeypatch.setattr(huffman_module, "_DECODE_TABLE_CACHE", cache)
    rng = np.random.default_rng(64)
    field = np.cumsum(rng.standard_normal((256, 512)), axis=1)
    field += np.cumsum(rng.standard_normal((256, 512)), axis=0)
    codec = TiledCompressor(backend="serial")
    config = CompressionConfig(error_bound=1e-3, tile_shape=(32, 64))
    blob = codec.compress(field, config).blob
    cold = codec.decompress(blob)
    assert codec.last_tiles_decoded == 64
    assert cache.misses >= 64 and cache.hits == 0
    built = cache.misses
    warm = codec.decompress(blob)
    assert (cache.misses, cache.hits) == (built, built)
    assert cold.tobytes() == warm.tobytes()
    assert_error_bounded(field, cold, 1e-3)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds"
)
def test_a_repeated_codec_bulk_compress_faults_in_no_fresh_heap():
    """The codec fixes glibc's heap thresholds (``sz.py``), so the tile
    temporaries one compress frees serve the next: a third compress of
    the ``codec_bulk`` field (two 131 072-point tiles) faults in fewer
    than 400 pages.  It reads 0-1; where glibc handed the heap top
    back after each compress, as it did in most processes before, it
    read ~3 200 (13 MB)."""
    field = _ledger_fields().random_walk((32, 32, 256), seed=5)[0]
    codec = TiledCompressor(backend="serial")
    config = CompressionConfig(error_bound=1e-2, tile_shape=(16, 32, 256))
    for _ in range(2):
        codec.compress(field, config)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    codec.compress(field, config)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults < 400
