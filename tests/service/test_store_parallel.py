"""ArrayStore cache-miss decodes across executor backends.

The store's read path must stay correct (and its counters coherent)
when the misses of one request decode as stacks on a pool — the
process executor included — and under concurrent readers, where
request coalescing kicks in.
"""

import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.compressor import CompressionConfig, TiledCompressor
from repro.service.cache import TileLRUCache
from repro.service.store import ArrayStore


def _field() -> np.ndarray:
    rng = np.random.default_rng(5)
    return np.cumsum(rng.standard_normal((64, 64)), axis=1).astype(
        np.float32
    )


WINDOW = (slice(8, 40), slice(10, 60))


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A store directory holding a spatial, an adaptive-palette and a
    three-version temporal dataset, and what ``TiledCompressor``
    decodes of ``WINDOW`` from each container."""
    root = tmp_path_factory.mktemp("stored")
    data = _field()
    config = CompressionConfig(error_bound=1e-2, tile_shape=(16, 16))
    with ArrayStore(str(root)) as store:
        store.create("field", data, config)
        store.create("ada", data, replace(config, adaptive=True))
        for v in range(3):
            store.put_snapshot("wave", data + 0.05 * v, config)
        files = {
            (name, snap["version"]): os.path.join(str(root), snap["file"])
            for name in store.names()
            for snap in store.versions(name)
        }
    codec = TiledCompressor()
    expected = {
        name: codec.decompress_region(files[name, 0], WINDOW)
        for name in ("field", "ada")
    }
    reference = None
    for v in range(3):
        expected["wave", v] = codec.decompress_region(
            files["wave", v], WINDOW, reference=reference
        )
        reference = codec.decompress(files["wave", v], reference=reference)
    return str(root), expected


@pytest.mark.parametrize("budget", [8 << 20, 0], ids=["cached", "no-cache"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_read_region_matches_across_backends(stored, backend, workers, budget):
    """Store reads are what ``TiledCompressor.decompress_region`` makes
    of the same containers, byte for byte, with the same hit and miss
    counts, on every backend and width — and with a zero-budget cache,
    where every lookup misses."""
    root, expected = stored
    cache = TileLRUCache(byte_budget=budget)
    with ArrayStore(
        root, cache=cache, workers=workers, parallel_backend=backend
    ) as store:
        for name in ("field", "ada"):
            for warm in (False, True):
                result = store.read_region(name, WINDOW)
                assert result.tiles_touched == 12
                hits = 12 if warm and budget else 0
                assert (result.cache_hits, result.cache_misses) == (
                    hits, 12 - hits,
                )
                assert result.data.tobytes() == expected[name].tobytes()
        results = store.read_range("wave", WINDOW, 0, 2)
        for v, result in enumerate(results):
            assert (result.cache_hits, result.cache_misses) == (0, 12)
            assert result.data.tobytes() == expected["wave", v].tobytes()


def test_concurrent_cold_reads_coalesce_and_agree(tmp_path):
    data = _field()
    store = ArrayStore(
        str(tmp_path / "store"),
        cache=TileLRUCache(byte_budget=8 << 20),
        workers=2,
        parallel_backend="process",
    )
    with store:
        store.create(
            "field",
            data,
            CompressionConfig(error_bound=1e-2, tile_shape=(16, 16)),
        )
        store.cache.clear()  # drop the tiles the put wrote through
        region = (slice(0, 64), slice(0, 64))
        results: list = []
        errors: list = []

        def reader() -> None:
            try:
                results.append(store.read_region("field", region).data)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6
        for out in results[1:]:
            np.testing.assert_array_equal(out, results[0])
        stats = store.cache.stats()
        # 16 tiles total; every one decoded at most once thanks to
        # request coalescing across the six concurrent readers
        assert stats.misses == 16
        assert stats.hits + stats.coalesced == 6 * 16 - 16
